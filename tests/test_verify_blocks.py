"""The sampled checks give the same bits however their samples are grouped."""
import numpy as np
import pytest

from cutdg import verify as vf


def run_checks(scheme, monkeypatch):
    """The boundedness and consistency reports, and the per-instance ratios
    each one is built from."""
    ratios = {}
    make = vf.LemmaReport.inequality

    def record(lemma_id, values, *args, **kwargs):
        ratios[lemma_id] = np.array(values, dtype=float)
        return make(lemma_id, values, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(vf.LemmaReport, "inequality", record)
        reports = [*vf.check_boundedness(scheme, 40, seed=5),
                   vf.check_consistency(scheme, samples=40, seed=5)]
    return reports, ratios


@pytest.mark.parametrize("gamma,x0,n", [(25.0, 0.2001, 16), (45.0, 0.2 + 1e-10, 20)])
def test_block_size_changes_no_bit(scheme_cache, monkeypatch, gamma, x0, n):
    scheme = scheme_cache(gamma, x0, n)
    reports, ratios = run_checks(scheme, monkeypatch)
    monkeypatch.setattr(vf, "BLOCK", 1)
    single_reports, single_ratios = run_checks(scheme, monkeypatch)
    assert reports == single_reports
    assert ratios.keys() == single_ratios.keys()
    for lemma_id, values in ratios.items():
        assert values.tobytes() == single_ratios[lemma_id].tobytes(), lemma_id
