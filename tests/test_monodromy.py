import inspect
import itertools
import math
import os
import pathlib
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellcm.calogero import CMConfig, PhasePoint, lax_L_quasi, local_expansion
from ellcm.elliptic import (
    POLE_EXCLUSION_RADIUS,
    TorusModulus,
    _segment_lattice_distances,
    _shortest_period,
)
from ellcm.errors import (
    IntegrationError,
    PathError,
    PoleProximityError,
    UsageError,
)
from ellcm.flow import TIGHT, Diagnostics, IntegratorConfig, integrate_segment
from ellcm.monodromy import (
    CYCLE_CLEARANCE,
    PANELS,
    POLE_LOOP_RADIUS,
    POLE_LOOP_SEGMENTS,
    MonodromyData,
    PathSpec,
    _batch_levels,
    _expm,
    _loop_clearance,
    _loop_radius,
    _mul,
    _pole_loop,
    _pole_monodromy,
    _product,
    _segment_transports,
    _straight,
    _transport_paths,
    _twisted,
    check_drift_step,
    cubic_relation_residual,
    default_base,
    eigenvalue_set_distance,
    isomonodromy_drift,
    monodromy_data,
    spectral_distance,
    transport,
)

from _oracles import segment_lattice_distance

TM_I = TorusModulus(1j)
TWO_PI_I = 2j * math.pi

CFG0 = CMConfig(2, 0.0, TM_I)
PH0 = PhasePoint([0.13 + 0.04j, 0.61 - 0.09j], [0.37 - 0.21j, -0.52 + 0.33j])
CFG = CMConfig(2, 0.35, TM_I)
PH = PhasePoint([0.11 + 0.03j, 0.52 - 0.07j], [0.31 - 0.12j, -0.45 + 0.22j])
#: Segments of the pole loop's path: the radial leg and the polygon.
POLE_SEGMENTS = POLE_LOOP_SEGMENTS + 1


class TestPathSpec:
    def test_needs_two_waypoints(self):
        with pytest.raises(PathError):
            PathSpec((0.3 + 0.3j,))

    def test_distinct_waypoints(self):
        with pytest.raises(PathError):
            PathSpec((0.3, 0.3))

    @pytest.mark.parametrize("clearance", [math.nan, math.inf, 0.0, -1.0,
                                           1e-7])
    def test_clearance_refused(self, clearance):
        # below POLE_EXCLUSION_RADIUS a validated path could bring a node
        # to a pole; a clearance of NaN, 0 or -1 would pass every path
        with pytest.raises(PathError, match="pole clearance"):
            PathSpec((0.25 + 0.25j, 1.25 + 0.25j), pole_clearance=clearance)

    def test_least_clearance(self):
        path = PathSpec((0.25 + 0.25j, 1.25 + 0.25j), pole_clearance=1e-6)
        assert path.pole_clearance == POLE_EXCLUSION_RADIUS

    @pytest.mark.parametrize("point", [complex(math.nan, 0.0),
                                       complex(0.3, math.inf)])
    def test_non_finite_waypoint_refused(self, point):
        with pytest.raises(PathError, match="not finite"):
            PathSpec((0.25 + 0.25j, point, 1.25 + 0.25j))

    def test_validation_rejects_pole_crossing(self):
        path = PathSpec((-0.5 + 0.001j, 0.5 + 0.001j), pole_clearance=1e-2)
        with pytest.raises(PathError):
            path.validate(1j)

    def test_validation_accepts_clear_segment(self):
        PathSpec((0.25 + 0.25j, 1.25 + 0.25j)).validate(1j)


class TestTransport:
    def test_g0_constant_diagonal(self):
        path = PathSpec((0.25 + 0.25j, 1.25 + 0.25j))
        psi = transport(CFG0, PH0, path, TIGHT)
        expect = np.diag(np.exp(PH0.p))
        assert np.max(np.abs(psi - expect)) < 1e-9

    def test_liouville_determinant(self):
        # det Psi = exp(integral of tr L) with tr L = sum p constant
        path = PathSpec((0.25 + 0.25j, 1.25 + 0.25j))
        psi = transport(CFG, PH, path, TIGHT)
        expect = np.exp(PH.p.sum())
        assert abs(np.linalg.det(psi) - expect) < 1e-7 * abs(expect)

    def test_path_reversal(self):
        fwd = transport(CFG, PH, PathSpec((0.25 + 0.25j, 1.25 + 0.25j)),
                        TIGHT)
        back = transport(CFG, PH, PathSpec((1.25 + 0.25j, 0.25 + 0.25j)),
                         TIGHT)
        assert np.max(np.abs(back @ fwd - np.eye(2))) < 1e-8

    def test_step_budget_exhausted(self):
        from ellcm.errors import IntegrationError
        with pytest.raises(IntegrationError):
            transport(CFG, PH, PathSpec((0.25 + 0.25j, 1.25 + 0.25j)),
                      IntegratorConfig(max_steps=3))

    def test_truncated_segment_raises(self, monkeypatch):
        # a pole met at the second refinement level ends the transport; the
        # coarse Psi must not come back as if it were the transport
        import ellcm.monodromy as mono
        from ellcm.errors import PoleProximityError
        real = mono.lax_L_quasi_batch
        calls = []

        def failing(cfg, ph, z):
            calls.append(z)
            if len(calls) > 1:
                raise PoleProximityError(z[0], "z", 0.0)
            return real(cfg, ph, z)

        monkeypatch.setattr(mono, "lax_L_quasi_batch", failing)
        with pytest.raises(PathError, match="truncated"):
            transport(CFG, PH, PathSpec((0.25 + 0.25j, 1.25 + 0.25j)),
                      TIGHT)
        assert len(calls) == 2

    def test_concatenation_multiplicative(self):
        mid = 0.75 + 0.31j
        a, b = 0.25 + 0.25j, 1.25 + 0.25j
        full = transport(CFG, PH, PathSpec((a, mid, b)), TIGHT)
        first = transport(CFG, PH, PathSpec((a, mid)), TIGHT)
        second = transport(CFG, PH, PathSpec((mid, b)), TIGHT)
        assert np.max(np.abs(second @ first - full)) < 1e-8

    def test_reads_only_tolerances_and_budget(self):
        # the stepper's method and initial step are not the transport's
        path = PathSpec((0.25 + 0.25j, 0.75 + 0.31j, 1.25 + 0.25j))
        want = transport(CFG, PH, path, TIGHT)
        for other in (dict(method="rk4_fixed"), dict(initial_step=0.5)):
            icfg = IntegratorConfig(rel_tol=TIGHT.rel_tol,
                                    abs_tol=TIGHT.abs_tol, **other)
            assert np.array_equal(transport(CFG, PH, path, icfg), want)


def _dp5_transport(cfg, ph, waypoints, icfg):
    """Psi at the end of the polyline, by Dormand-Prince 5(4) on
    dPsi/ds = (dz/ds) L(z) Psi: an independent oracle."""
    n = cfg.n
    psi = np.eye(n, dtype=complex)
    for a, b in zip(waypoints, waypoints[1:]):
        length = abs(b - a)
        direction = (b - a) / length

        def f(s, y, a=a, direction=direction):
            L = lax_L_quasi(cfg, ph, a + direction * s)
            return direction * (L @ y.reshape(n, n)).reshape(-1)

        diag = Diagnostics()
        psi = integrate_segment(f, psi.reshape(-1), length, icfg,
                                diag).reshape(n, n)
        assert not diag.truncated
    return psi


def _polygon_loop(base, radius=0.1, sides=16):
    """base -> a polygon of the given radius around z = 0 -> base."""
    phase = np.angle(base)
    circle = [radius * np.exp(1j * (phase + 2 * np.pi * k / sides))
              for k in range(sides)]
    return tuple([base] + circle + [circle[0], base])


def _triple_paths(base, tau, radius=POLE_LOOP_RADIUS):
    """The pole loop and the A and B cycles of the triple, built by hand
    from any base; `monodromy_data` builds them from default_base(tau)."""
    return (_pole_loop(base, radius), _straight(base, base + 1.0),
            _straight(base, base + tau))


def _triple_at(cfg, ph, icfg, radius, base=None):
    """The triple of `monodromy_data`, around a pole loop of the given
    radius instead of `_loop_radius(tau)`, or from another base, with its
    L batches and nodes."""
    tau = cfg.tm.tau
    base = default_base(tau) if base is None else base
    (U0, U1, Ub), _, batches, nodes = _transport_paths(
        cfg, ph, _triple_paths(base, tau, radius), icfg)
    return MonodromyData(_pole_monodromy(U0), _product(U1),
                         _twisted(ph, _product(Ub)), base,
                         {"l_batches": batches, "l_nodes": nodes})


def _cycle(cfg, ph, cycle, icfg=IntegratorConfig(), radius=POLE_LOOP_RADIUS):
    """M0, M1 or Mtau ("pole", "A" or "B") transported alone, along the
    path of that cycle in the triple of `monodromy_data`."""
    tau = cfg.tm.tau
    path = dict(zip(("pole", "A", "B"),
                    _triple_paths(default_base(tau), tau, radius)))[cycle]
    if cycle == "pole":
        return _pole_monodromy(_transport_paths(cfg, ph, (path,), icfg)[0][0])
    psi = transport(cfg, ph, path, icfg)
    return _twisted(ph, psi) if cycle == "B" else psi


class TestMagnusTransport:
    """The sixth-order Magnus transport: order, error bound, determinant."""

    CFG3 = CMConfig(3, 0.3, TorusModulus(0.1 + 1j))
    PH3 = PhasePoint([0.1, 0.45 + 0.2j, 0.75 - 0.1j],
                     [0.2, -0.3 + 0.1j, 0.05])
    ORACLE = IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15)

    @pytest.mark.parametrize("case", ["n2", "n3"])
    def test_observed_order(self, case):
        cfg, ph = (CFG, PH) if case == "n2" else (self.CFG3, self.PH3)
        base = default_base(cfg.tm.tau)
        a, b = np.array([base]), np.array([base + 1.0])
        psi = [u[0] for u in _segment_transports(cfg, ph, a, b,
                                                  [16, 32, 64])]
        ratio = (np.max(np.abs(psi[0] - psi[1]))
                 / np.max(np.abs(psi[1] - psi[2])))
        assert math.log2(ratio) >= 5.5

    @pytest.mark.parametrize("icfg", [TIGHT, IntegratorConfig()],
                             ids=["tight", "default"])
    @pytest.mark.parametrize("path", ["A", "B", "polyline", "loop"])
    def test_error_is_bounded_by_tolerance(self, icfg, path):
        tau = CFG.tm.tau
        base = default_base(tau)
        waypoints = {
            "A": (base, base + 1.0),
            "B": (base, base + tau),
            "polyline": (0.25 + 0.25j, 0.75 + 0.31j, 1.1 + 0.6j,
                         1.25 + 0.25j),
            "loop": _polygon_loop(base),
        }[path]
        got = transport(CFG, PH, PathSpec(waypoints, pole_clearance=1e-2),
                        icfg)
        expect = _dp5_transport(CFG, PH, waypoints, self.ORACLE)
        bound = 0.0
        for a, b in zip(waypoints, waypoints[1:]):
            seg = transport(CFG, PH, PathSpec((a, b), pole_clearance=1e-2),
                            icfg)
            bound += icfg.abs_tol + icfg.rel_tol * np.max(np.abs(seg))
        assert np.max(np.abs(got - expect)) <= bound

    @pytest.mark.parametrize("case", ["n2", "n3"])
    def test_determinant_exact(self, case):
        cfg, ph = (CFG, PH) if case == "n2" else (self.CFG3, self.PH3)
        a, b = 0.25 + 0.25j, 0.9 + 0.55j
        psi = transport(cfg, ph, PathSpec((a, b)), TIGHT)
        expect = np.exp((b - a) * ph.p.sum())
        assert abs(np.linalg.det(psi) - expect) <= 1e-13 * abs(expect)

    def test_first_level_over_budget(self):
        from ellcm.errors import IntegrationError
        with pytest.raises(IntegrationError, match="max_steps"):
            transport(CFG, PH, PathSpec((0.25 + 0.25j, 0.5 + 0.25j,
                                         0.75 + 0.25j)),
                      IntegratorConfig(max_steps=2 * PANELS - 1))

    def test_tolerance_below_rounding_raises_early(self):
        # the N/2N difference of this A-cycle stops shrinking near 1e-14,
        # far above 1e-16 relative: the transport gives up at that level
        # instead of doubling up to the panel budget
        icfg = IntegratorConfig(rel_tol=1e-16, abs_tol=1e-18)
        t0 = time.perf_counter()
        with pytest.raises(IntegrationError, match="stagnated.*rounding"):
            _cycle(self.CFG3, self.PH3, "A", icfg)
        assert time.perf_counter() - t0 < 0.3

    def test_slow_convergence_is_not_stagnation(self):
        # the radial leg of a radius-0.002 pole loop converges only at 8192
        # panels, its difference falling at every level on the way
        small = _cycle(self.CFG3, self.PH3, "pole", TIGHT, 0.002)
        large = _cycle(self.CFG3, self.PH3, "pole", TIGHT, 0.1)
        assert np.max(np.abs(small - large)) < 1e-10

    def test_collision_names_the_pair(self):
        """Two bodies within POLE_EXCLUSION_RADIUS: every node's L raises
        for their separation, so the PathError names the pair, not a
        segment, both for a path and for the triple."""
        ph = PhasePoint([0.3, 0.3 + 1e-8j], [0.3, -0.3])
        message = ("transport truncated: q[0] - q[1] = -1e-08j is within "
                   "1.000e-08 of a lattice point")
        for run in (lambda: transport(CFG, ph, PathSpec((0.25 + 0.25j,
                                                         0.6 + 0.6j))),
                    lambda: monodromy_data(CFG, ph, TIGHT)):
            with pytest.raises(PathError) as info:
                run()
            assert str(info.value) == message
            assert isinstance(info.value.__cause__, PoleProximityError)

    def test_path_through_a_lattice_point_is_refused(self, monkeypatch):
        """The segment from 4-5.1i to 4+4.9i at tau = 17.3+0.8i runs
        through the lattice point 4, which none of the nine candidates of
        the basis (1, tau) around its samples is: the path is refused
        before any L is built, so no node of a validated path meets a
        pole."""
        import ellcm.monodromy as mono

        def failing(*args):
            raise AssertionError("L built on a path through a pole")

        monkeypatch.setattr(mono, "lax_L_quasi_batch", failing)
        path = PathSpec((4.0 - 5.1j, 4.0 + 4.9j), pole_clearance=0.01)
        cfg = CMConfig(2, 0.35, TorusModulus(17.3 + 0.8j))
        with pytest.raises(PathError, match=re.escape(
                "segment [(4-5.1j), (4+4.9j)] passes within ")):
            transport(cfg, PH, path, TIGHT)


class TestStackProducts:
    """The Magnus step's matrix arithmetic on stacks laid out (n, n, P)."""

    #: 1-norms of the stack's matrices: scaling exponents 0, 0, 1, 3 and 5
    NORMS = (0.05, 0.3, 0.7, 2.5, 9.0)
    EPS = np.finfo(float).eps

    def _stack(self, n, seed, size):
        rng = np.random.default_rng(seed)
        return (rng.normal(size=(n, n, *size))
                + 1j * rng.normal(size=(n, n, *size)))

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_expm_against_mpmath(self, n):
        import mpmath as mp
        x = self._stack(n, 100 + n, (len(self.NORMS),))
        norm = np.abs(x).sum(axis=0).max(axis=0)
        x *= np.array(self.NORMS) / norm
        s = np.maximum(np.frexp(2.0 * np.array(self.NORMS))[1], 0)
        assert len(set(s)) >= 3 and s.max() >= 1  # mixed, squaring runs
        got = _expm(x)
        mp.mp.dps = 30
        for k, sk in enumerate(s):
            want = mp.expm(mp.matrix(x[:, :, k].tolist()))
            want = np.array(want.tolist(), dtype=complex)
            err = np.max(np.abs(got[:, :, k] - want)) / np.max(np.abs(want))
            assert err <= 32 * (1 + sk) * self.EPS

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("size", [(7,), (3, 4)], ids=["P", "tree"])
    def test_product_equals_matmul(self, n, size):
        x, y = self._stack(n, n, size), self._stack(n, 10 + n, size)
        want = np.moveaxis(np.moveaxis(x, (0, 1), (-2, -1))
                           @ np.moveaxis(y, (0, 1), (-2, -1)),
                           (-2, -1), (0, 1))
        got = _mul(x, y)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 8 * n * self.EPS * np.max(
            np.abs(x)) * np.max(np.abs(y))


class TestCycleMonodromies:
    def test_g0_A(self):
        M1 = monodromy_data(CFG0, PH0, TIGHT).M1
        assert np.max(np.abs(M1 - np.diag(np.exp(PH0.p)))) < 1e-9

    def test_g0_B_with_twist(self):
        Mt = monodromy_data(CFG0, PH0, TIGHT).Mtau
        expect = np.diag(np.exp(-TWO_PI_I * PH0.q)) @ np.diag(
            np.exp(PH0.p * 1j))
        assert np.max(np.abs(Mt - expect)) < 1e-9

    def test_base_change_spectral_invariance(self):
        # the spectra of M1 and Mtau do not depend on the base: the cycles
        # from 0.31+0.18i against the triple's at default_base(tau)
        base = 0.31 + 0.18j
        md = monodromy_data(CFG, PH, TIGHT)
        b = transport(CFG, PH, _straight(base, base + 1.0), TIGHT)
        assert eigenvalue_set_distance(md.M1, b) < 1e-8
        b = _twisted(PH, transport(CFG, PH, _straight(base, base + 1j),
                                   TIGHT))
        assert eigenvalue_set_distance(md.Mtau, b) < 1e-8

    def test_det_M1_liouville(self):
        M1 = monodromy_data(CFG, PH, TIGHT).M1
        assert abs(np.linalg.det(M1) - np.exp(PH.p.sum())) < 1e-7

    def test_B_invertible(self):
        Mt = monodromy_data(CFG, PH, TIGHT).Mtau
        assert np.isfinite(np.linalg.cond(Mt))

    def test_size_from_phase_point(self):
        """The transports take n from the phase point, as calogero does,
        not from the configuration."""
        got = monodromy_data(CMConfig(3, CFG.g, TM_I), PH)
        want = monodromy_data(CFG, PH)
        for name in ("M0", "M1", "Mtau"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


class TestPoleMonodromy:
    def test_g0_identity(self):
        M0 = monodromy_data(CFG0, PH0, TIGHT).M0
        assert np.max(np.abs(M0 - np.eye(2))) < 1e-9

    def test_eigenvalues_near_formal_exponents(self):
        md = monodromy_data(CFG, PH, TIGHT)
        residue = local_expansion(CFG, PH).residue
        expect = np.diag(np.exp(TWO_PI_I * np.linalg.eigvals(residue)))
        assert eigenvalue_set_distance(md.M0, expect) < 1e-7

    def test_radius_independence(self):
        a = _triple_at(CFG, PH, TIGHT, 0.05).M0
        b = monodromy_data(CFG, PH, TIGHT).M0  # radius 0.1
        assert np.max(np.abs(a - b)) < 1e-7

    def test_radius_validation(self):
        # no pole loop where half the shortest period is not above 1e-3
        for tau in (0.002j, 17.0 + 0.001j):
            with pytest.raises(ValueError, match=re.escape(
                    f"no pole loop fits at tau = {tau}")):
                monodromy_data(CMConfig(2, CFG.g, TorusModulus(tau)), PH)


class TestPoleLoopLatticeBound:
    """No pole loop that, with its clearance, reaches another lattice point
    than 0 is built: it would enclose that point, and the wrong M0 it gives
    keeps every determinant identity.  `_loop_radius` shrinks the loop
    where the radius 0.1 would reach one, and refuses tau before any
    transport where no loop of radius above 1e-3 fits."""

    Q = [0.11 + 0.01j, 0.52 - 0.02j]

    @staticmethod
    def _no_transport(monkeypatch):
        import ellcm.monodromy as mono

        def failing(*args, **kwargs):
            raise AssertionError("transported before the radius check")

        monkeypatch.setattr(mono, "_transport_paths", failing)
        monkeypatch.setattr(mono, "integrate_isomonodromic", failing)

    @pytest.mark.parametrize("tau, shortest", [
        (0.0015j, "0.0015"),
        (17.0 + 0.0015j, "0.0015"),
        # 2 tau - 1 = 0.0018i is shorter than 1, tau and tau - 1
        (0.5 + 0.0009j, "0.0018"),
        # the loop would have radius 1e-3 itself, with clearance 5e-4
        (0.002j, "0.002"),
    ], ids=["enclosing-tau", "shifted", "skew", "clearance"])
    def test_refused_before_any_transport(self, monkeypatch, tau, shortest):
        self._no_transport(monkeypatch)
        cfg = CMConfig(2, 0.35, TorusModulus(tau))
        ph = PhasePoint(self.Q, PH.p)
        message = re.escape(
            f"no pole loop fits at tau = {tau}: its radius, half the shortest "
            f"period {shortest}, must be above 1e-3")
        with pytest.raises(UsageError, match=message + "$"):
            monodromy_data(cfg, ph, TIGHT)
        with pytest.raises(UsageError, match=message + "$"):
            isomonodromy_drift(cfg, ph, tau, 1e-3, TIGHT)

    def test_drift_checks_the_far_triple_first(self, monkeypatch):
        """A loop fits at tau0, none at tau0 + dtau: refused before the
        triple at tau0 is transported."""
        self._no_transport(monkeypatch)
        tau0, dtau = 0.012j, -0.01j
        cfg = CMConfig(2, 0.35, TorusModulus(tau0))
        assert _loop_radius(tau0) == 0.006
        with pytest.raises(UsageError, match=re.escape(
                f"no pole loop fits at tau = {tau0 + dtau}")):
            isomonodromy_drift(cfg, PH, tau0, dtau, TIGHT)

    @pytest.mark.parametrize("dtau", [-0.005j, -0.008j])
    def test_drift_end_off_the_half_plane(self, monkeypatch, dtau):
        """A loop fits at tau0 = 0.3+0.005i; tau0 + dtau on the real axis
        or below it is refused before any transport (on the real axis the
        search for the shortest period would never end)."""
        self._no_transport(monkeypatch)
        tau0 = 0.3 + 0.005j
        cfg = CMConfig(2, 0.35, TorusModulus(tau0))
        with pytest.raises(UsageError, match=re.escape(
                f"tau = {tau0 + dtau} must lie in the upper half-plane")):
            isomonodromy_drift(cfg, PH, tau0, dtau, TIGHT)

    def test_small_loop_at_small_tau(self):
        # the loop of radius 0.1 would enclose tau = 0.06i: the triple
        # takes half the shortest period, 0.03
        cfg = CMConfig(2, 0.35, TorusModulus(0.06j))
        ph = PhasePoint(self.Q, [0.31, -0.45])
        md = monodromy_data(cfg, ph, TIGHT)
        assert cubic_relation_residual(md) < 1e-10
        held = _triple_at(cfg, ph, TIGHT, 0.03)
        for name in ("M0", "M1", "Mtau"):
            assert np.array_equal(getattr(md, name), getattr(held, name))

    @pytest.mark.parametrize("tau", [0.06j, 0.045j])
    def test_the_radius_does_not_change_M0(self, tau):
        """M0 at the derived radius against `transport` around the whole
        loop base -> polygon -> base at a second radius that keeps its
        clearance: both are the monodromy of the loop class around 0."""
        cfg = CMConfig(2, 0.35, TorusModulus(tau))
        ph = PhasePoint(self.Q, [0.31, -0.45])
        md = monodromy_data(cfg, ph, TIGHT)
        loop = _pole_loop(md.base_point, 0.6 * _loop_radius(tau))
        full = transport(cfg, ph, PathSpec(
            loop.waypoints + (md.base_point,), loop.pole_clearance), TIGHT)
        assert (np.max(np.abs(full - md.M0))
                <= 1e-10 * np.max(np.abs(md.M0)))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.floats(-20.0, 20.0),
           st.floats(-3.0, math.log10(3.0)).map(lambda e: 10.0 ** e))
    @example(0.0, 0.06)  # the radius 0.1 would enclose tau
    @example(0.0, 0.11)  # it would reach tau with its clearance
    @example(17.0, 0.0015)  # no loop fits
    def test_loop_radius_rule(self, re_tau, im_tau):
        """0.1 wherever a loop of 0.1 with its clearance stays short of the
        shortest period, else a loop that does and is above 1e-3, else a
        UsageError naming tau, only where half that period is at most
        1e-3 (Im tau drawn log-uniformly, so each branch is drawn)."""
        tau = complex(re_tau, im_tau)
        shortest = _shortest_period(tau)
        try:
            radius = _loop_radius(tau)
        except UsageError as exc:
            assert f"tau = {tau}:" in str(exc)
            assert shortest <= 2e-3
            return
        if POLE_LOOP_RADIUS + _loop_clearance(POLE_LOOP_RADIUS) < shortest:
            assert radius == POLE_LOOP_RADIUS
        else:
            assert 1e-3 < radius < POLE_LOOP_RADIUS
            assert radius + _loop_clearance(radius) < shortest

    @pytest.mark.parametrize("function", [monodromy_data, isomonodromy_drift,
                                          check_drift_step])
    def test_triple_api_takes_no_radius(self, function):
        assert "radius" not in inspect.signature(function).parameters


class TestNonFinitePhasePoint:
    """A NaN or infinite q or p is a UsageError before any L is built, not
    a panel budget spent on NaN transports and a misleading budget
    error."""

    @pytest.mark.parametrize("q, p", [
        ([math.nan, 0.52], [0.31, -0.45]),
        ([0.11, 0.52], [0.31, complex(0.0, math.inf)]),
    ], ids=["q-nan", "p-inf"])
    def test_refused_before_any_L(self, monkeypatch, q, p):
        import ellcm.monodromy as mono

        def failing(*args):
            raise AssertionError("L built for a non-finite phase point")

        monkeypatch.setattr(mono, "lax_L_quasi_batch", failing)
        ph = PhasePoint(q, p)
        path = PathSpec((0.25 + 0.25j, 0.6 + 0.6j))
        for run in (lambda: monodromy_data(CFG, ph),
                    lambda: transport(CFG, ph, path)):
            with pytest.raises(UsageError,
                               match="^q and p must be finite for a "):
                run()


class TestOneLegPoleLoop:
    """M0 = Psi_leg^{-1} Psi_poly Psi_leg against the transport along the
    whole loop base -> polygon -> base."""

    @pytest.mark.parametrize("case", ["n2", "n3"])
    @pytest.mark.parametrize("radius", [0.1, 0.01, 0.002])
    def test_equals_transport_around_the_loop(self, case, radius):
        cfg, ph = ((CFG, PH) if case == "n2"
                   else (TestMagnusTransport.CFG3, TestMagnusTransport.PH3))
        md = _triple_at(cfg, ph, TIGHT, radius)
        loop = _pole_loop(md.base_point, radius)
        assert loop.waypoints[0] == md.base_point
        assert loop.waypoints[1] == loop.waypoints[-1]  # closed polygon
        full = transport(cfg, ph, PathSpec(
            loop.waypoints + (md.base_point,), loop.pole_clearance), TIGHT)
        tol = TIGHT.abs_tol + TIGHT.rel_tol * np.max(np.abs(full))
        assert np.max(np.abs(md.M0 - full)) <= tol
        # det M0 = 1 and the cubic relation are no worse than along the
        # whole loop, up to the rounding both carry (|det - 1| of either
        # is 1e-15 to 4e-14 at these radii, its cubic residual ~1e-12)
        det_err = abs(np.linalg.det(md.M0) - 1.0)
        assert det_err <= max(abs(np.linalg.det(full) - 1.0),
                              256 * np.finfo(float).eps)
        held = MonodromyData(full, md.M1, md.Mtau, md.base_point)
        assert cubic_relation_residual(md) <= 2 * cubic_relation_residual(
            held)


class TestCubicRelation:
    def test_g0_abelian(self):
        md = monodromy_data(CFG0, PH0, TIGHT)
        assert cubic_relation_residual(md) < 1e-8

    def test_generic_n2(self):
        md = monodromy_data(CFG, PH, TIGHT)
        assert cubic_relation_residual(md) < 1e-5

    def test_conjugation_invariance(self):
        md = monodromy_data(CFG, PH, TIGHT)
        rng = np.random.default_rng(7)
        C = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        Cinv = np.linalg.inv(C)
        conj = MonodromyData(C @ md.M0 @ Cinv, C @ md.M1 @ Cinv,
                             C @ md.Mtau @ Cinv, md.base_point)
        a = cubic_relation_residual(md)
        b = cubic_relation_residual(conj)
        # the relation word transforms covariantly; the residual changes
        # only by the conditioning of C
        assert b < 100 * max(a, 1e-12)

    def test_n3(self):
        cfg = CMConfig(3, 0.3, TM_I)
        ph = PhasePoint([0.1, 0.45 + 0.2j, 0.75 - 0.1j],
                        [0.2, -0.3 + 0.1j, 0.05])
        md = monodromy_data(cfg, ph, TIGHT)
        assert cubic_relation_residual(md) < 1e-5


class TestIsomonodromyDrift:
    def test_g0_drift_tiny(self):
        drift = isomonodromy_drift(CFG0, PH0, 1j, 1e-2, TIGHT)
        assert drift < 1e-8

    def test_generic_drift_small(self):
        drift = isomonodromy_drift(CFG, PH, 1j, 1e-2, TIGHT)
        assert drift < 1e-5

    def test_negative_control(self):
        md0 = monodromy_data(CFG, PH, TIGHT)
        perturbed = PhasePoint(PH.q, PH.p + 0.01)
        control = spectral_distance(md0, monodromy_data(CFG, perturbed,
                                                        TIGHT))
        drift = isomonodromy_drift(CFG, PH, 1j, 1e-2, TIGHT)
        assert control > 10 * max(drift, 1e-5 / 10)

    def test_drift_scales_down_with_dtau(self):
        d1 = isomonodromy_drift(CFG, PH, 1j, 1e-2, TIGHT)
        d2 = isomonodromy_drift(CFG, PH, 1j, 5e-3, TIGHT)
        # both are at transport-error level; halving dtau must not grow it
        assert d2 < 4 * max(d1, 1e-9)

    def test_dtau_bound(self):
        with pytest.raises(ValueError):
            isomonodromy_drift(CFG, PH, 1j, 0.5, TIGHT)
        # a zero or NaN step, which the flow cannot take, fails before the
        # triple at tau0 is transported
        for dtau in (0.0, complex(math.nan, 0.0)):
            with pytest.raises(UsageError, match="nonzero"):
                isomonodromy_drift(CFG, PH, 1j, dtau, TIGHT)


class TestDefaultBase:
    def test_generic_position(self):
        base = default_base(1j)
        assert base == 0.25 + 0.25j

    @pytest.mark.parametrize("cycle", [monodromy_data])
    def test_triple_api_takes_no_base(self, cycle):
        assert "base" not in inspect.signature(cycle).parameters

    def test_the_triple_holds_at_its_one_base(self):
        # at tau = 1.3+0.8i the straight cycles from 0.4+0.35i are of
        # another class than those from (1 + tau)/4: the cubic relation
        # holds for the triple, and misses by O(10) from the other base
        tau = 1.3 + 0.8j
        cfg = CMConfig(2, 0.35, TorusModulus(tau))
        ph = PhasePoint([0.11 + 0.03j, 0.52 - 0.07j], [0.31, -0.45])
        md = monodromy_data(cfg, ph, TIGHT)
        assert md.base_point == default_base(tau)
        assert cubic_relation_residual(md) <= 1e-10
        off = _triple_at(cfg, ph, TIGHT, POLE_LOOP_RADIUS, 0.4 + 0.35j)
        assert cubic_relation_residual(off) > 1.0


class TestEigenvalueSetDistance:
    @staticmethod
    def _brute_force(A, B):
        ea, eb = np.linalg.eigvals(A), np.linalg.eigvals(B)
        return min(max(abs(ea[i] - eb[p]) for i, p in enumerate(perm))
                   for perm in itertools.permutations(range(len(eb))))

    def test_equals_brute_force(self):
        rng = np.random.default_rng(7)
        for n in range(1, 7):
            for _ in range(5):
                A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                B = A + 0.5 * rng.normal(size=(n, n))
                assert eigenvalue_set_distance(A, B) == self._brute_force(A, B)

    def test_permuted_spectrum_is_zero(self):
        D = np.diag([1.0, 2.0 + 1j, -3.0, 0.5j])
        P = np.eye(4)[[2, 0, 3, 1]]
        assert eigenvalue_set_distance(D, P @ D @ P.T) == 0.0

    def test_leaves_numpy_ma_unloaded(self):
        # np.unique imports numpy.ma, about 12 ms on a process's first call
        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(root / "src") + os.pathsep
                             + env.get("PYTHONPATH", ""))
        code = ("import sys, numpy as np\n"
                "from ellcm.monodromy import eigenvalue_set_distance\n"
                "eigenvalue_set_distance(np.eye(3), np.diag([1.0, 2.0, 2.0]))\n"
                "print('numpy.ma' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "False"

    def test_polynomial_time(self):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        B = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        t0 = time.perf_counter()
        d = eigenvalue_set_distance(A, B)
        assert time.perf_counter() - t0 < 1.0
        assert d > 0.0


def _random_polylines(seed):
    """(waypoints, tau) for seeded random polylines of 2-40 waypoints."""
    rng = np.random.default_rng(seed)
    for tau in (1j, 0.1 + 1j, -0.4 + 0.6j, 0.25 + 2.5j):
        for _ in range(20):
            k = int(rng.integers(2, 41))
            yield rng.uniform(-3, 3, k) + 1j * rng.uniform(-3, 3, k), tau


class TestPathValidation:
    """All segments of a path are measured in one array pass."""

    def test_distances_match_per_segment_formula(self):
        # against the brute-force lattice search, one segment at a time
        for w, tau in _random_polylines(2024):
            got = _segment_lattice_distances(w[:-1], w[1:], tau)
            want = [segment_lattice_distance(a, b, tau)
                    for a, b in zip(w[:-1], w[1:])]
            assert got.shape == (w.size - 1,)
            assert np.max(np.abs(got - want) / want) <= 1e-12

    def test_first_failing_segment_is_reported(self):
        # the third and the fifth segment pass too close to a lattice point
        path = PathSpec((0.25 + 0.25j, 0.4 + 0.3j, -0.5 + 0.001j,
                         0.5 + 0.001j, 0.7 + 0.2j, 1.0 + 1.003j),
                        pole_clearance=1e-2)
        with pytest.raises(PathError) as info:
            path.validate(1j)
        assert str(info.value) == (
            "segment [(-0.5+0.001j), (0.5+0.001j)] passes within 1.000e-03 "
            "of a lattice point (clearance 0.01)")

    def test_first_failing_segment_on_random_polylines(self):
        failed = 0
        for w, tau in _random_polylines(77):
            path = PathSpec(tuple(w), pole_clearance=0.08)
            dist = [segment_lattice_distance(a, b, tau)
                    for a, b in zip(w[:-1], w[1:])]
            bad = [i for i, d in enumerate(dist) if d < 0.08]
            if not bad:
                path.validate(tau)
                continue
            i = bad[0]
            with pytest.raises(PathError) as info:
                path.validate(tau)
            assert str(info.value) == (
                f"segment [{complex(w[i])}, {complex(w[i + 1])}] passes "
                f"within {dist[i]:.3e} of a lattice point (clearance 0.08)")
            failed += 1
        assert 10 < failed < 80  # both outcomes are exercised

    def test_one_pass_per_triple(self, monkeypatch):
        import ellcm.monodromy as mono
        real = mono._segment_lattice_distances
        calls = []

        def counting(a, b, tau):
            calls.append(a.size)
            return real(a, b, tau)

        monkeypatch.setattr(mono, "_segment_lattice_distances", counting)
        monodromy_data(CFG, PH, TIGHT)
        assert calls == [POLE_SEGMENTS + 2]  # pole loop, A and B cycle

    def test_only_the_b_cycle_fails(self, monkeypatch):
        # from the base 0.002 + 0.3i the pole loop and the A cycle keep
        # their clearance, while the B cycle [base, base + i] passes 0.002
        # from the lattice point i: its own message, before any transport
        import ellcm.monodromy as mono

        def failing(*args):
            raise AssertionError("transported before the paths were checked")

        monkeypatch.setattr(mono, "_segment_transports", failing)
        base = 0.002 + 0.3j
        with pytest.raises(PathError) as info:
            _transport_paths(CFG, PH, _triple_paths(base, 1j), TIGHT)
        assert str(info.value) == (
            "segment [(0.002+0.3j), (0.002+1.3j)] passes within 2.000e-03 "
            "of a lattice point (clearance 0.01)")
        with pytest.raises(PathError) as alone:
            PathSpec((base, base + 1j), CYCLE_CLEARANCE).validate(1j)
        assert str(alone.value) == str(info.value)


class TestMergedTransport:
    """monodromy_data transports its three cycles in one refinement loop."""

    CFG3 = TestMagnusTransport.CFG3
    PH3 = TestMagnusTransport.PH3
    CYCLES = ("pole", "A", "B")

    def _case(self, case):
        return (CFG, PH) if case == "n2" else (self.CFG3, self.PH3)

    @pytest.mark.parametrize("case", ["n2", "n3"])
    def test_default_arguments_equal_separate_calls(self, case):
        cfg, ph = self._case(case)
        md = monodromy_data(cfg, ph)
        assert np.array_equal(md.M0, _cycle(cfg, ph, "pole"))
        assert np.array_equal(md.M1, _cycle(cfg, ph, "A"))
        assert np.array_equal(md.Mtau, _cycle(cfg, ph, "B"))
        assert md.base_point == default_base(cfg.tm.tau)

    @pytest.mark.parametrize("case", ["n2", "n3"])
    @pytest.mark.parametrize("radius", [0.05], ids=["radius"])
    def test_equals_separate_calls(self, case, radius):
        cfg, ph = self._case(case)
        md = _triple_at(cfg, ph, TIGHT, radius)
        assert np.array_equal(md.M0, _cycle(cfg, ph, "pole", TIGHT, radius))
        assert np.array_equal(md.M1, _cycle(cfg, ph, "A", TIGHT, radius))
        assert np.array_equal(md.Mtau, _cycle(cfg, ph, "B", TIGHT, radius))

    def test_one_L_call_per_level(self, monkeypatch):
        import ellcm.monodromy as mono
        real = mono.lax_L_quasi_batch
        calls = []

        def counting(cfg, ph, z):
            calls.append(z.size)
            return real(cfg, ph, z)

        monkeypatch.setattr(mono, "lax_L_quasi_batch", counting)
        levels = []
        for cycle in self.CYCLES:
            calls.clear()
            _cycle(self.CFG3, self.PH3, cycle, TIGHT)
            levels.append(len(calls))
        calls.clear()
        monodromy_data(self.CFG3, self.PH3, TIGHT)
        assert len(calls) == max(levels) < sum(levels)

    def test_max_steps_is_a_budget_per_path(self, monkeypatch):
        import ellcm.monodromy as mono
        real = mono._segment_transports
        spent = []

        def counting(cfg, ph, a, b, levels):
            spent[-1] += a.size * sum(levels)
            return real(cfg, ph, a, b, levels)

        monkeypatch.setattr(mono, "_segment_transports", counting)
        for cycle in self.CYCLES:
            spent.append(0)
            _cycle(self.CFG3, self.PH3, cycle, TIGHT)
        monkeypatch.undo()
        budget = max(spent)
        assert budget < sum(spent)
        fits = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13,
                                max_steps=budget)
        md = monodromy_data(self.CFG3, self.PH3, fits)
        assert np.array_equal(md.M1, _cycle(self.CFG3, self.PH3, "A", TIGHT))
        short = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13,
                                 max_steps=budget - 1)
        with pytest.raises(IntegrationError, match="max_steps"):
            monodromy_data(self.CFG3, self.PH3, short)

    @pytest.mark.parametrize("cycle", ["A", "B"])
    def test_cycle_through_a_lattice_point_is_refused(self, cycle,
                                                      monkeypatch):
        # at tau = 17.3+0.8i the A cycle from -0.2+0.8i runs through the
        # lattice point tau - 17, and the B cycle from 4 - tau/4 through 4,
        # while the pole loop and the other cycle keep their clearance:
        # the triple names that cycle's segment before any transport
        import ellcm.monodromy as mono

        def failing(*args):
            raise AssertionError("transported before the paths were checked")

        monkeypatch.setattr(mono, "_segment_transports", failing)
        tau = 17.3 + 0.8j
        base, step = (-0.2 + 0.8j, 1.0) if cycle == "A" else (4 - tau / 4,
                                                               tau)
        cfg = CMConfig(2, 0.35, TorusModulus(tau))
        with pytest.raises(PathError, match=re.escape(
                f"segment [{base}, {base + step}] passes within ")):
            _transport_paths(cfg, PH, _triple_paths(base, tau), TIGHT)

    @pytest.mark.parametrize("max_steps, error", [
        (POLE_SEGMENTS * PANELS, PathError),
        (POLE_SEGMENTS * PANELS - 1, IntegrationError)],
        ids=["collision", "budget"])
    def test_errors_come_in_level_order(self, max_steps, error):
        # the pole loop's first level takes POLE_SEGMENTS * PANELS panels;
        # two colliding bodies fail every L call, but only after each
        # level's budget check
        ph = PhasePoint([0.3, 0.3 + 1e-8j], [0.3, -0.3])
        icfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13,
                                max_steps=max_steps)
        match = ("max_steps" if error is IntegrationError else
                 re.escape("transport truncated: q[0] - q[1]"))
        with pytest.raises(error, match=match):
            monodromy_data(CFG, ph, icfg)


def _one_level_per_call(cfg, ph, icfg, radius=POLE_LOOP_RADIUS):
    """The triple of `monodromy_data` at the default base, refined one
    level per `_segment_transports` call, with each path's panels, the
    call count and the L nodes: the reference for the batched loop."""
    tau = cfg.tm.tau
    paths = _triple_paths(default_base(tau), tau, radius)
    a = np.concatenate([path.waypoints[:-1] for path in paths])
    b = np.concatenate([path.waypoints[1:] for path in paths])
    owner = np.repeat(np.arange(3), [len(path.waypoints) - 1
                                     for path in paths])
    done = np.empty((a.size, cfg.n, cfg.n), dtype=complex)
    active, last, coarse = np.arange(a.size), np.inf, None
    panels, spent, calls = PANELS, np.zeros(3, dtype=int), 0
    while active.size:
        spent += panels * np.bincount(owner[active], minlength=3)
        fine = _segment_transports(cfg, ph, a[active], b[active],
                                   [panels])[0]
        calls += 1
        if coarse is not None:
            err = np.abs(fine - coarse).max(axis=(1, 2))
            norm = np.abs(fine).max(axis=(1, 2))
            ok = err <= icfg.abs_tol + icfg.rel_tol * norm
            assert not (~ok & (err >= last)
                        & (err <= panels * np.finfo(float).eps * norm)).any()
            done[active[ok]] = fine[ok]
            active, fine, last = active[~ok], fine[~ok], err[~ok]
        coarse = fine
        panels *= 2
    U0, U1, Ub = (done[owner == p] for p in range(3))
    triple = (_pole_monodromy(U0), _product(U1), _twisted(ph, _product(Ub)))
    return triple, spent, calls, 3 * int(spent.sum())


class TestLevelBatches:
    """A run of refinement levels shares one L batch, and every accepted
    transport stays the one its level gives alone."""

    CFG3 = TestMagnusTransport.CFG3
    PH3 = TestMagnusTransport.PH3
    README = PhasePoint([0.11 + 0.03j, 0.52 - 0.07j], [0.31, -0.45])

    def _case(self, case):
        if case == "n3":
            return self.CFG3, self.PH3
        tau = 9.1 + 0.8j if case == "tau-9.1" else 1j
        return CMConfig(2, 0.35, TorusModulus(tau)), self.README

    @pytest.mark.parametrize("case, icfg, radius", [
        *((case, icfg, POLE_LOOP_RADIUS) for case in ("n2", "n3")
          for icfg in (TIGHT, IntegratorConfig(),
                       IntegratorConfig(rel_tol=1e-11))),
        ("n2", TIGHT, 0.005), ("n3", TIGHT, 0.005),
        ("tau-9.1", TIGHT, POLE_LOOP_RADIUS)])
    def test_equals_one_level_per_call(self, case, icfg, radius):
        cfg, ph = self._case(case)
        md = (monodromy_data(cfg, ph, icfg) if radius == POLE_LOOP_RADIUS
              else _triple_at(cfg, ph, icfg, radius))
        triple, _, calls, nodes = _one_level_per_call(cfg, ph, icfg, radius)
        for got, expect in zip((md.M0, md.M1, md.Mtau), triple):
            assert np.array_equal(got, expect)
        assert md.transport["l_nodes"] == nodes
        assert md.transport["l_batches"] < calls

    def test_readme_triple_takes_three_L_calls(self, monkeypatch):
        import ellcm.monodromy as mono
        cfg, ph = self._case("n2")
        _, _, calls, nodes = _one_level_per_call(cfg, ph, TIGHT)
        real = mono.lax_L_quasi_batch
        sizes = []

        def counting(cfg, ph, z):
            sizes.append(z.size)
            return real(cfg, ph, z)

        monkeypatch.setattr(mono, "lax_L_quasi_batch", counting)
        md = monodromy_data(cfg, ph, TIGHT)
        assert len(sizes) <= 3 and calls == 6
        assert sum(sizes) == md.transport["l_nodes"] == nodes
        assert md.transport["l_batches"] == len(sizes)

    @pytest.mark.parametrize("radius", [POLE_LOOP_RADIUS, 0.005])
    def test_budget_of_the_levels_suffices(self, radius):
        cfg, ph = self._case("n2")
        triple, spent, _, _ = _one_level_per_call(cfg, ph, TIGHT, radius)
        fits = IntegratorConfig(rel_tol=TIGHT.rel_tol, abs_tol=TIGHT.abs_tol,
                                max_steps=int(spent.max()))
        md = (monodromy_data(cfg, ph, fits) if radius == POLE_LOOP_RADIUS
              else _triple_at(cfg, ph, fits, radius))
        for got, expect in zip((md.M0, md.M1, md.Mtau), triple):
            assert np.array_equal(got, expect)

    def test_no_level_past_the_budget(self):
        # one segment open at 16 panels after 4 + 8, far from its
        # tolerance: its batch takes levels up to the panel cap (16 + ...
        # + 256 = 496 of 512), or as far as the budget goes
        far = dict(panels=16, last=np.array([1e10]), tol=np.array([1.0]),
                   segments=np.array([1]), spent=np.array([28]))
        assert _batch_levels(**far, max_steps=10**6) == [16, 32, 64, 128,
                                                         256]
        assert _batch_levels(**far, max_steps=124) == [16, 32, 64]
        assert _batch_levels(**far, max_steps=123) == [16, 32]
        assert _batch_levels(**far, max_steps=28) == [16]

    def test_levels_follow_the_prediction(self):
        # a level joins while every open segment's difference, divided by
        # 64 per level ahead, stays above 4 times its tolerance, and the
        # batch keeps to 512 panels
        def levels(last, segments=1):
            return _batch_levels(16, np.array(last), np.ones(len(last)),
                                 np.array([segments]),
                                 np.array([28 * segments]), 10**6)

        assert levels([256.0]) == [16]
        assert levels([257.0]) == [16, 32]
        assert levels([257.0 * 64, 1e10]) == [16, 32, 64]
        assert levels([1e10, 257.0]) == [16, 32]
        assert levels([1e10], segments=10) == [16, 32]  # 480 panels

    def test_first_batch_holds_two_levels(self):
        first = dict(panels=PANELS, last=np.array([np.inf]),
                     tol=np.array([0.0]), segments=np.array([1]),
                     spent=np.array([PANELS]))
        assert _batch_levels(**first, max_steps=10**6) == [PANELS,
                                                           2 * PANELS]
        assert _batch_levels(**first, max_steps=3 * PANELS - 1) == [PANELS]


class TestDriftReuse:
    def test_held_triple_gives_the_same_drift(self, monkeypatch):
        import ellcm.monodromy as mono
        md = monodromy_data(CFG, PH, TIGHT)
        expect = isomonodromy_drift(CFG, PH, 1j, 1e-2, TIGHT)
        real = mono.monodromy_data
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(mono, "monodromy_data", counting)
        assert isomonodromy_drift(CFG, PH, 1j, 1e-2, TIGHT, md) == expect
        assert len(calls) == 1  # only the triple at tau0 + dtau

    def test_dtau_bound_before_any_transport(self, monkeypatch):
        import ellcm.monodromy as mono
        md = monodromy_data(CFG, PH, TIGHT)

        def failing(*args, **kwargs):
            raise AssertionError("transported before the dtau check")

        monkeypatch.setattr(mono, "_transport_paths", failing)
        monkeypatch.setattr(mono, "integrate_isomonodromic", failing)
        for held in (None, md):
            with pytest.raises(UsageError, match="dtau"):
                isomonodromy_drift(CFG, PH, 1j, 0.5, TIGHT, held)
