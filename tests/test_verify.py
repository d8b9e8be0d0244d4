import numpy as np
import pytest

from ellcm import verify
from ellcm.calogero import min_separation
from ellcm.cli import main
from ellcm.errors import EllcmError, UsageError
from ellcm.rng import SplitMix64
from ellcm.verify import _random_cm, suite_hamilton_consistency


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


def test_sampler_falls_back_to_a_jittered_grid(monkeypatch):
    """Where 200 uniform draws cannot place the bodies, a seeded jittered
    grid does, min_sep apart."""
    grids = []
    real = verify._jittered_grid
    monkeypatch.setattr(verify, "_jittered_grid",
                        lambda *a: grids.append(a[1].n) or real(*a))
    cfg, ph = _random_cm(SplitMix64(3), 6, 0.2 + 0.9j, min_sep=0.3)
    assert grids == [6]
    assert min_separation(cfg, ph) >= 0.3
    _, again = _random_cm(SplitMix64(3), 6, 0.2 + 0.9j, min_sep=0.3)
    assert np.array_equal(ph.q, again.q) and np.array_equal(ph.p, again.p)


def test_sampler_gives_up_with_a_structured_error():
    with pytest.raises(EllcmError, match="12 bodies at least 0.3 apart"):
        _random_cm(SplitMix64(1), 12, 1j, min_sep=0.3)


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("argv", [["zero-curvature"],
                                  ["symplectic-jacobian", "--count", "1"],
                                  ["monodromy"]],
                         ids=["zero-curvature", "symplectic-jacobian",
                              "monodromy"])
def test_lax_suites_sample_five_and_six_bodies(capsys, argv, n):
    """A sample the suite cannot draw is an evaluation error (exit 2),
    never an uncaught exception."""
    assert main(["verify", argv[0], "--n", str(n), *argv[1:]]) in (0, 2)


@pytest.mark.parametrize("name, kwargs, message", [
    ("nonsense", {}, "unknown suite 'nonsense'"),
    ("theta-heat", {"n": 3}, "suite 'theta-heat' takes no n"),
])
def test_run_suite_usage_errors(name, kwargs, message):
    """run_suite itself raises UsageError for a suite it does not know and
    for an n the suite does not read."""
    with pytest.raises(UsageError, match=message):
        verify.run_suite(name, **kwargs)
