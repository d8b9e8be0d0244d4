import pytest

from ellcm.rng import SplitMix64
from ellcm.verify import suite_hamilton_consistency


def test_manin_sampler_gives_up_loudly(monkeypatch):
    # every draw at a half period: the sampler must not go on with a q it
    # has rejected a hundred times
    monkeypatch.setattr(SplitMix64, "cell_point",
                        lambda self, tau, margin=0.15: 0.5 + 0j)
    with pytest.raises(RuntimeError, match="half periods"):
        suite_hamilton_consistency(count=1)


def test_suite_passes_at_default_seed():
    rows = suite_hamilton_consistency(count=2)
    assert len(rows) == 6 and all(r.passed for r in rows)
