import math
import re

import numpy as np
import pytest

import ellcm.calogero as calogero
import ellcm.flow as flow
from ellcm.calogero import (
    CMConfig,
    PhasePoint,
    _force,
    _min_separation,
    eom,
    hamiltonian_cm,
    min_separation,
)
from ellcm.elliptic import TorusModulus, wp_dz
from ellcm.errors import PathError, UsageError
from ellcm.flow import (
    COLLISION_REJECT,
    COLLISION_TRUNCATE,
    JACOBIAN_FD_STEP,
    TIGHT,
    Diagnostics,
    ExtendedTangent,
    IntegratorConfig,
    _central_differences,
    _dp_step,
    _hermite,
    _newton,
    canonical_pairing,
    extended_two_form,
    hamiltonian_dtau,
    hamiltonian_vector_field,
    integrate_isomonodromic,
    integrate_isospectral,
    integrate_scalar_painleve,
    integrate_segment,
    symplectic_jacobian_check,
)
from ellcm.painleve import EllipticState, PainleveParams, scalar_painleve_rhs
from ellcm.rng import SplitMix64

from _oracles import dp_step_loop

TM_I = TorusModulus(1j)
TWO_PI_I = 2j * math.pi


def random_tangent(rng, n):
    draw = lambda: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return ExtendedTangent([draw() for _ in range(n)],
                           [draw() for _ in range(n)], draw())


class TestIsospectral:
    def test_free_flight(self):
        cfg = CMConfig(2, 0.0, TM_I)
        ph = PhasePoint([0.1 + 0.05j, 0.6 - 0.1j], [0.3, -0.2 + 0.1j])
        tr = integrate_isospectral(cfg, ph, (0.0, 1.0))
        assert np.max(np.abs(tr.states[-1].q - (ph.q + ph.p))) < 1e-10
        assert np.max(np.abs(tr.states[-1].p - ph.p)) < 1e-10

    def test_h_conservation(self):
        cfg = CMConfig(3, 1.0, TM_I)
        ph = PhasePoint([0.12 + 0.02j, 0.45 + 0.31j, 0.78 - 0.05j],
                        [0.25, -0.15 + 0.1j, -0.1 - 0.1j])
        tr = integrate_isospectral(cfg, ph, (0.0, 1.0),
                                   IntegratorConfig(rel_tol=1e-10,
                                                    abs_tol=1e-12))
        drift = abs(hamiltonian_cm(cfg, tr.states[-1])
                    - hamiltonian_cm(cfg, ph))
        assert drift < 1e-8

    def test_momentum_conservation(self):
        cfg = CMConfig(3, 1.0, TM_I)
        ph = PhasePoint([0.12, 0.45 + 0.31j, 0.78 - 0.05j],
                        [0.25, -0.15, -0.1])
        tr = integrate_isospectral(cfg, ph, (0.0, 1.0), TIGHT)
        assert abs(tr.states[-1].p.sum() - ph.p.sum()) < 1e-10

    def test_n2_reduction_sign(self):
        # with sum p = 0 the relative half-coordinate satisfies
        # d^2 q/dt^2 = s g^2 wp'(2q) with the single global sign s = -1;
        # FD second derivative with one Richardson step over h, h/2
        cfg = CMConfig(2, 0.8, TM_I)
        ph = PhasePoint([0.2 + 0.1j, -0.15 - 0.05j], [0.3, -0.3],
                        traceless=True)
        icfg = IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15)
        q0 = (ph.q[0] - ph.q[1]) / 2

        def acc_at(h):
            vals = []
            for dt in (h, -h):
                tr = integrate_isospectral(cfg, ph, (0.0, dt), icfg,
                                           samples=1)
                vals.append((tr.states[-1].q[0] - tr.states[-1].q[1]) / 2)
            return (vals[0] - 2 * q0 + vals[1]) / h**2

        acc = (4 * acc_at(1e-3) - acc_at(2e-3)) / 3
        target = cfg.g**2 * wp_dz(2 * q0, TM_I)
        assert abs(acc - (-1) * target) < 1e-6

    def test_collision_truncates(self):
        # a configuration stalled inside the separation reject band: every
        # proposed step ends there, the step collapses, and the trajectory
        # is returned truncated with the flag set
        cfg = CMConfig(2, 5e-6, TM_I)
        ph = PhasePoint([0.5 - 2.5e-5, 0.5 + 2.5e-5], [0.1, -0.1])
        tr = integrate_isospectral(cfg, ph, (0.0, 1.0))
        assert tr.diagnostics.truncated
        assert tr.diagnostics.message != ""

    def test_rk4_collision_truncates(self):
        # the first fixed step of 0.01 brings the bodies together: it is
        # not taken, nothing is rejected, and the message says why
        cfg = CMConfig(2, 1e-6, TM_I)
        ph = PhasePoint([0.499, 0.501], [0.1, -0.1])
        tr = integrate_isospectral(
            cfg, ph, (0.0, 1.0),
            IntegratorConfig(method="rk4_fixed", initial_step=0.01))
        d = tr.diagnostics
        assert d.truncated and "collision at s = 0" in d.message
        assert (d.steps_accepted, d.steps_rejected) == (0, 0)
        assert d.max_local_error == 0.0
        assert len(tr.states) == 1

    def test_rk4_separation_truncates(self):
        # the fifth fixed step ends 5e-7 from the guard's zero, within
        # COLLISION_TRUNCATE: it is not taken, and none is rejected
        diag = Diagnostics()
        y = integrate_segment(lambda s, y: np.array([-1.0 + 0j]),
                              np.array([0.05 + 5e-7 + 0j]), 1.0,
                              IntegratorConfig(method="rk4_fixed",
                                               initial_step=0.01),
                              diag, separation=lambda s, y: abs(y[0]))
        assert 5e-7 < COLLISION_TRUNCATE
        assert diag.truncated
        assert diag.message.startswith("collision at s = 0.04: "
                                        "min separation 5.0")
        assert diag.steps_accepted == 4 and diag.steps_rejected == 0
        assert abs(y[0] - (0.01 + 5e-7)) < 1e-15

    def test_rk4_convergence_order(self):
        # measured against a tight-tolerance adaptive reference at g != 0
        # (the g = 0 solution is linear, where rk4 is exact to rounding)
        cfg = CMConfig(2, 1.0, TM_I)
        ph = PhasePoint([0.1, 0.6 + 0.2j], [0.4, -0.4])
        ref = integrate_isospectral(cfg, ph, (0.0, 0.5),
                                    IntegratorConfig(rel_tol=1e-13,
                                                     abs_tol=1e-14),
                                    samples=1).states[-1]
        errs = []
        for h in (0.01, 0.005, 0.0025):
            tr = integrate_isospectral(
                cfg, ph, (0.0, 0.5),
                IntegratorConfig(method="rk4_fixed", initial_step=h),
                samples=1)
            errs.append(np.max(np.abs(tr.states[-1].q - ref.q)))
        order1 = math.log2(errs[0] / errs[1])
        order2 = math.log2(errs[1] / errs[2])
        assert order1 > 3.4 and order2 > 3.4

    def test_rk4_exact_on_free_flight(self):
        cfg = CMConfig(2, 0.0, TM_I)
        ph = PhasePoint([0.1, 0.6], [0.4, -0.4])
        tr = integrate_isospectral(
            cfg, ph, (0.0, 1.0),
            IntegratorConfig(method="rk4_fixed", initial_step=0.05),
            samples=1)
        assert np.max(np.abs(tr.states[-1].q - (ph.q + ph.p))) < 1e-10


class TestIsomonodromic:
    def test_free_flight(self):
        cfg = CMConfig(2, 0.0, TM_I)
        ph = PhasePoint([0.1 + 0.05j, 0.6 - 0.1j], [0.3, -0.2 + 0.1j])
        tr = integrate_isomonodromic(cfg, ph, (1j, 1j + 0.2 + 0.1j))
        expect = ph.q + ph.p * (0.2 + 0.1j) / TWO_PI_I
        assert np.max(np.abs(tr.states[-1].q - expect)) < 1e-10

    def test_momentum_conservation(self):
        cfg = CMConfig(3, 0.9, TM_I)
        ph = PhasePoint([0.12, 0.45 + 0.31j, 0.78 - 0.05j],
                        [0.25, -0.15, -0.1])
        tr = integrate_isomonodromic(cfg, ph, (1j, 1j + 0.1), TIGHT)
        assert abs(tr.states[-1].p.sum() - ph.p.sum()) < 1e-10

    def test_guard_measures_at_current_tau(self):
        # the bodies are 0.36 apart in the lattice of tau0 but 5e-5 apart in
        # the lattice of tau1 (q1 - q0 - tau1 = 5e-5); the guard must see
        # the lattice each step reaches and stop the flow before tau1
        tau0, tau1 = 1j, 0.8 + 1.3j
        cfg = CMConfig(2, 1e-6, TorusModulus(tau0))
        ph = PhasePoint([0.0, tau1 + 5e-5], [0.0, 0.0])
        assert min_separation(cfg, ph) > 0.3
        assert min_separation(cfg.with_tau(tau1), ph) < COLLISION_REJECT
        tr = integrate_isomonodromic(cfg, ph, (tau0, tau1))
        assert tr.diagnostics.truncated
        assert len(tr.times) < 17  # the end sample is never reached

    def test_path_leaves_upper_half_plane(self):
        cfg = CMConfig(2, 0.5, TM_I)
        ph = PhasePoint([0.1, 0.6], [0.3, -0.3])
        with pytest.raises(PathError):
            integrate_isomonodromic(cfg, ph, (1j, 0.2 - 0.05j))

    def test_h_drift_matches_partial_tau_quadrature(self):
        # dH/dtau along the flow = dH/dtau at frozen (q, p); integrate the
        # partial by Simpson over the samples and compare with the jump
        cfg = CMConfig(2, 0.9, TM_I)
        ph = PhasePoint([0.12 + 0.03j, 0.55 - 0.06j], [0.3, -0.25])
        tau0, tau1 = 1j, 1j + 0.1
        nsamp = 8
        tr = integrate_isomonodromic(cfg, ph, (tau0, tau1), TIGHT,
                                     samples=nsamp)
        hs = [hamiltonian_cm(cfg.with_tau(tr.tau_of_sample[i]), tr.states[i])
              for i in range(len(tr.times))]
        partials = [hamiltonian_dtau(cfg.with_tau(tr.tau_of_sample[i]),
                                     tr.states[i])
                    for i in range(len(tr.times))]
        # composite Simpson on the evenly spaced samples; along the flow
        # dH/dtau equals the frozen-(q, p) partial exactly (the fiber terms
        # cancel), so the jump equals the plain quadrature
        h = (tau1 - tau0) / nsamp
        integral = 0j
        for i in range(0, nsamp, 2):
            integral += h / 3 * (partials[i] + 4 * partials[i + 1]
                                 + partials[i + 2])
        assert abs((hs[-1] - hs[0]) - integral) < 1e-5

    def test_zero_curvature_along_trajectory(self):
        from ellcm.calogero import zero_curvature_residual
        cfg = CMConfig(2, 0.8, TM_I)
        ph = PhasePoint([0.12 + 0.03j, 0.55 - 0.06j], [0.3, -0.25])
        tr = integrate_isomonodromic(cfg, ph, (1j, 1j + 0.05), TIGHT,
                                     samples=4)
        for i in range(0, len(tr.times), 2):
            res = zero_curvature_residual(cfg.with_tau(tr.tau_of_sample[i]),
                                          tr.states[i], 0.31 + 0.17j)
            assert res < 1e-6


class TestScalarPainleve:
    def test_free(self):
        st = EllipticState(0.3 + 0.1j, 0.2 - 0.1j, 1j)
        tr = integrate_scalar_painleve(st, PainleveParams((0, 0, 0, 0)),
                                       (1j, 1j + 0.1j))
        expect = st.q + st.p * 0.1j / TWO_PI_I
        assert abs(tr.states[-1].q[0] - expect) < 1e-12

    def test_second_derivative_matches_rhs(self):
        from ellcm.painleve import elliptic_p6_rhs
        params = PainleveParams((0.1, -0.05, 0.07, 0.02))
        st = EllipticState(0.31 + 0.12j, 0.2, 0.95j)
        h = 1e-3
        qs = []
        for dt in (h, 0.0, -h):
            if dt == 0.0:
                qs.append(st.q)
                continue
            tr = integrate_scalar_painleve(
                st, params, (st.tau, st.tau + dt),
                IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14), samples=1)
            qs.append(tr.states[-1].q[0])
        acc = (qs[0] - 2 * qs[1] + qs[2]) / h**2
        target = elliptic_p6_rhs(st.q, st.tau, params) / TWO_PI_I**2
        assert abs(acc - target) < 1e-5 * max(1.0, abs(target))


class TestExtendedTwoForm:
    def setup_method(self):
        self.cfg = CMConfig(3, 1.0, TM_I)
        self.ph = PhasePoint([0.12 + 0.02j, 0.45 + 0.31j, 0.78 - 0.05j],
                             [0.25, -0.15 + 0.1j, -0.1 - 0.1j])
        self.rng = SplitMix64(29)

    def test_antisymmetry(self):
        u = random_tangent(self.rng, 3)
        v = random_tangent(self.rng, 3)
        a = extended_two_form(self.ph, 1j, u, v, self.cfg)
        b = extended_two_form(self.ph, 1j, v, u, self.cfg)
        assert abs(a + b) < 1e-12

    def test_bilinearity(self):
        u = random_tangent(self.rng, 3)
        v = random_tangent(self.rng, 3)
        w = random_tangent(self.rng, 3)
        lam = 0.7 - 0.3j
        combined = ExtendedTangent(v.dq + lam * w.dq, v.dp + lam * w.dp,
                                   v.dtau + lam * w.dtau)
        lhs = extended_two_form(self.ph, 1j, u, combined, self.cfg)
        rhs = (extended_two_form(self.ph, 1j, u, v, self.cfg)
               + lam * extended_two_form(self.ph, 1j, u, w, self.cfg))
        assert abs(lhs - rhs) < 1e-10

    def test_fiber_restriction_is_canonical(self):
        u = random_tangent(self.rng, 3)
        v = random_tangent(self.rng, 3)
        uf = ExtendedTangent(u.dq, u.dp, 0.0)
        vf = ExtendedTangent(v.dq, v.dp, 0.0)
        got = extended_two_form(self.ph, 1j, uf, vf, self.cfg)
        canonical = complex(np.sum(uf.dq * vf.dp - uf.dp * vf.dq))
        assert got == canonical

    def test_flow_field_in_kernel(self):
        X = hamiltonian_vector_field(self.ph, 1j, self.cfg)
        for _ in range(20):
            v = random_tangent(self.rng, 3)
            assert abs(extended_two_form(self.ph, 1j, X, v,
                                         self.cfg)) < 1e-7

    def test_kernel_self_pairing(self):
        # zero up to FMA-contracted complex multiplies in the fiber term
        X = hamiltonian_vector_field(self.ph, 1j, self.cfg)
        assert abs(extended_two_form(self.ph, 1j, X, X, self.cfg)) < 1e-12

    def test_field_matches_eom(self):
        X = hamiltonian_vector_field(self.ph, 1j, self.cfg)
        dq, dp = eom(self.cfg, self.ph)
        assert np.max(np.abs(X.dq - dq)) < 1e-10
        assert np.max(np.abs(X.dp - dp)) < 1e-10
        assert X.dtau == TWO_PI_I

    def test_g0_field(self):
        cfg = CMConfig(3, 0.0, TM_I)
        X = hamiltonian_vector_field(self.ph, 1j, cfg)
        assert np.array_equal(X.dp, np.zeros(3))


def _wp_mpmath(mp, u, tau):
    """wp(u | tau) = c - rho'(u), c = theta1'''(0) / (3 theta1'(0)), from
    mpmath's jtheta, whose branch of nu^{1/4} cancels in every ratio."""
    q = mp.exp(1j * mp.pi * tau)
    t0, t1, t2 = (mp.jtheta(1, mp.pi * u, q, d) for d in range(3))
    c = mp.pi ** 2 * mp.jtheta(1, 0, q, 3) / (3 * mp.jtheta(1, 0, q, 1))
    return c - mp.pi ** 2 * (t2 / t0 - (t1 / t0) ** 2)


class TestHamiltonianDtau:
    """dH/dtau at frozen (q, p) in closed form, by the heat equation."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.5j, -1.2 + 0.7j,
                                     0.45 + 1.6j])
    def test_against_mpmath(self, n, tau):
        """Against 40-digit mpmath differentiation of H in tau, with pairs
        reduced across both cycles."""
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        rng = np.random.default_rng(n + int(10 * abs(tau)))
        q = rng.uniform(-1.5, 1.5, n) + 1j * rng.uniform(-1, 1, n) * tau.imag
        q[0] += 2 * tau - 1
        cfg = CMConfig(n, 0.7 + 0.2j, TorusModulus(tau))
        ph = PhasePoint(q, rng.normal(size=n))

        def pair_sum(t):
            return sum(_wp_mpmath(mp, mp.mpc(q[j]) - mp.mpc(q[k]), t)
                       for j in range(n) for k in range(j + 1, n))

        want = complex(mp.mpc(cfg.g) ** 2 * mp.diff(pair_sum, mp.mpc(tau)))
        assert abs(hamiltonian_dtau(cfg, ph) - want) < 1e-12 * abs(want)

    def test_b_shift_law(self):
        """wp(u + tau | tau) = wp(u | tau) for all tau, so at fixed u,
        d_tau wp(u + tau) = d_tau wp(u) - wp'(u): only the unreduced rho
        gives that."""
        tm = TorusModulus(0.2 + 0.9j)
        cfg = CMConfig(2, 1.0, tm)
        u = 0.31 - 0.12j
        shifted = hamiltonian_dtau(cfg, PhasePoint([u + tm.tau, 0], [0, 0]))
        plain = hamiltonian_dtau(cfg, PhasePoint([u, 0], [0, 0]))
        want = plain - wp_dz(u, tm)
        assert abs(shifted - want) < 1e-13 * abs(want)
        assert abs(shifted - plain) > 0.1 * abs(want)

    def test_g_zero_and_n1(self):
        ph = PhasePoint([0.1, 0.1], [0.3, -0.2])  # a collision is no matter
        assert hamiltonian_dtau(CMConfig(2, 0.0, TM_I), ph) == 0
        ph = PhasePoint([0.1], [0.3])
        assert hamiltonian_dtau(CMConfig(1, 0.7, TM_I), ph) == 0


class TestSymplecticJacobian:
    def test_g0_shear_exact(self):
        cfg = CMConfig(2, 0.0, TM_I)
        ph = PhasePoint([0.1 + 0.05j, 0.6 - 0.1j], [0.3, -0.2])
        res = symplectic_jacobian_check(cfg, ph, (1j, 1j + 0.05))
        assert res < 1e-9

    def test_n2_generic(self):
        cfg = CMConfig(2, 1.0, TM_I)
        ph = PhasePoint([0.15 + 0.1j, 0.55 - 0.08j], [0.2, -0.35 + 0.1j])
        res = symplectic_jacobian_check(cfg, ph, (1j, 1j + 0.05))
        assert res < 1e-5

    def test_composition(self):
        cfg = CMConfig(2, 1.0, TM_I)
        ph = PhasePoint([0.15 + 0.1j, 0.55 - 0.08j], [0.2, -0.35 + 0.1j])
        full = symplectic_jacobian_check(cfg, ph, (1j, 1j + 0.05))
        first = symplectic_jacobian_check(cfg, ph, (1j, 1j + 0.025))
        # transport the midpoint state and check the second half
        tr = integrate_isomonodromic(cfg, ph, (1j, 1j + 0.025), TIGHT,
                                     samples=1)
        second = symplectic_jacobian_check(cfg.with_tau(1j + 0.025),
                                           tr.states[-1],
                                           (1j + 0.025, 1j + 0.05))
        assert max(first, second) < 10 * max(full, 1e-9)

    def test_size_from_phase_point(self):
        """The Jacobian takes n from the phase point, as the flow does, not
        from the configuration."""
        ph = PhasePoint([0.11 + 0.03j, 0.52 - 0.07j], [0.31, -0.45])
        res = [symplectic_jacobian_check(CMConfig(n, 0.35, TM_I), ph,
                                         (1j, 1.01j)) for n in (3, 2)]
        assert res[0] == res[1] < 1e-5

    def test_central_differences_exact_on_a_quadratic(self):
        """A central difference of a quadratic has no truncation error: the
        Jacobian is exact to rounding, its columns in the input's order,
        and a scalar function gives its gradient."""
        def f(x):
            return np.array([x[0] * x[0] + 3.0 * x[1] - 2j * x[2] * x[0],
                             (1 + 1j) * x[1] * x[2] + 0.5 * x[2] * x[2]])

        x0 = np.array([0.3 + 0.1j, -0.7 + 0.2j, 1.1 - 0.4j])
        exact = np.array([[2 * x0[0] - 2j * x0[2], 3.0, -2j * x0[0]],
                          [0.0, (1 + 1j) * x0[2],
                           (1 + 1j) * x0[1] + x0[2]]])
        jac = _central_differences(f, x0)
        assert jac.shape == (2, 3)
        # rounding of O(1) values over the step 2e-6
        assert np.max(np.abs(jac - exact)) < 1e-9
        grad = _central_differences(lambda x: complex(f(x)[1]), list(x0))
        assert grad.shape == (3,)
        assert np.max(np.abs(grad - exact[1])) < 1e-9
        assert JACOBIAN_FD_STEP == 1e-6

    def test_tight_preset_is_the_default(self):
        """The drift and the Jacobian default to the one preset itself."""
        import inspect

        from ellcm.monodromy import isomonodromy_drift
        for fn in (symplectic_jacobian_check, isomonodromy_drift):
            assert inspect.signature(fn).parameters["icfg"].default is TIGHT
        assert (TIGHT.rel_tol, TIGHT.abs_tol) == (1e-11, 1e-13)

    def test_canonical_pairing_shape(self):
        omega = canonical_pairing(2)
        u = np.array([1.0, 0.0, 0.0, 0.0])
        v = np.array([0.0, 0.0, 1.0, 0.0])
        assert (u @ omega @ v) == 1.0  # dq_0 ^ dp_0 pairing


SCALAR_PARAMS = PainleveParams((0.1, -0.05, 0.07, 0.02))
SCALAR_STATE = EllipticState(0.31 + 0.12j, 0.2, 1j)
CM2 = CMConfig(2, 0.8, TM_I)
PH2 = PhasePoint([0.12 + 0.03j, 0.55 - 0.06j], [0.3, -0.25])
FLOWS = {
    "isospectral": lambda span, **kw: integrate_isospectral(
        CM2, PH2, span, **kw),
    "isomonodromic": lambda span, **kw: integrate_isomonodromic(
        CM2, PH2, span, **kw),
    "painleve-scalar": lambda span, **kw: integrate_scalar_painleve(
        SCALAR_STATE, SCALAR_PARAMS, span, **kw),
}
SPANS = {"isospectral": (0.0, 0.3), "isomonodromic": (1j, 1.1j + 0.05),
         "painleve-scalar": (1j, 1.1j + 0.05)}


class TestSharedDriver:
    """What the one driver does for all three flows."""

    @pytest.mark.parametrize("flow", FLOWS)
    def test_empty_span(self, flow):
        start = SPANS[flow][0]
        with pytest.raises(ValueError, match="empty"):
            FLOWS[flow]((start, start))

    @pytest.mark.parametrize("field, value, message", [
        ("rel_tol", math.nan, "tolerances must be positive"),
        ("abs_tol", math.nan, "tolerances must be positive"),
        ("initial_step", math.nan, "initial_step must be positive"),
        ("max_steps", math.nan, "max_steps must be at least 1"),
        ("rel_tol", math.inf, "tolerances must be positive and finite"),
        ("abs_tol", math.inf, "tolerances must be positive and finite"),
    ])
    def test_non_finite_config_rejected(self, field, value, message):
        """An infinite tolerance would accept every step (a flow of unit
        length then ends 26 away from the true one, unflagged), and a NaN
        step budget would never run out."""
        with pytest.raises(UsageError, match=message):
            IntegratorConfig(**{field: value})

    @pytest.mark.parametrize("method", ["rk45", "RK4_FIXED", ""])
    def test_unknown_method_rejected(self, method):
        """Any method but the two would run fixed-step RK4 unannounced:
        "rk45" took 100 steps with no error control on the README
        isospectral flow."""
        with pytest.raises(UsageError, match=re.escape(
                "method must be 'rk4_fixed' or 'rk45_adaptive', "
                f"got {method!r}")):
            IntegratorConfig(method=method)

    @pytest.mark.parametrize("flow", FLOWS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_span(self, flow, bad):
        end = bad if flow == "isospectral" else complex(0.05, bad)
        with pytest.raises(UsageError, match="is not finite"):
            FLOWS[flow]((SPANS[flow][0], end))

    @pytest.mark.parametrize("flow", FLOWS)
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_sample_count(self, flow, k):
        tr = FLOWS[flow](SPANS[flow], samples=k)
        assert len(tr.times) == len(tr.states) == len(tr.tau_of_sample) == k + 1
        start, end = SPANS[flow]
        expect = [start + (end - start) * i / k for i in range(k + 1)]
        assert np.max(np.abs(np.array(tr.times) - expect)) < 1e-15
        frozen = flow == "isospectral"
        assert tr.tau_of_sample == ([CM2.tm.tau] * (k + 1) if frozen
                                    else tr.times)

    @pytest.mark.parametrize("flow, length, samples", [
        ("isospectral", 1e-20, 2),
        # the shortest tau path from 1j: one ulp of Im tau
        *((flow, 2.2e-16, 2) for flow in ("isomonodromic", "painleve-scalar")),
        *((flow, length, 16) for flow in FLOWS for length in (1e-14, 1e-13)),
        ("isospectral", 2.0, 3)])
    def test_short_spans_keep_their_samples(self, flow, length, samples):
        """The collapse and snap thresholds scale with the span, so a span
        of any length returns samples + 1 states."""
        start = SPANS[flow][0]
        step = length if flow == "isospectral" else 1j * length
        tr = FLOWS[flow]((start, start + step), samples=samples)
        assert not tr.diagnostics.truncated, tr.diagnostics.message
        assert len(tr.states) == len(tr.times) == samples + 1

    def test_scalar_path_leaves_upper_half_plane(self):
        with pytest.raises(PathError, match="upper half-plane"):
            integrate_scalar_painleve(SCALAR_STATE, SCALAR_PARAMS,
                                      (1j, 0.2 - 0.05j))


class TestFirstSameAsLast:
    """A DP5(4) step reuses the last stage of the step before as its first:
    six right-hand sides per step and one at the start.  The samples are
    interpolated and cost none."""

    @staticmethod
    def _count(method):
        length, samples = 1.3, 7
        calls = []

        def f(s, y):
            calls.append(s)
            return np.array([1j * y[0] * (1 + 0.5 * np.sin(3 * s)),
                             -y[1] * y[0]])

        diag = Diagnostics()
        integrate_segment(f, np.array([1.0 + 0j, 0.5]), length,
                          IntegratorConfig(initial_step=0.5, rel_tol=1e-9,
                                           abs_tol=1e-12, method=method),
                          diag, sample_at=[length * i / samples
                                           for i in range(1, samples)],
                          on_sample=lambda s, y: None)
        assert len(calls) == diag.rhs_evals
        return diag.steps_accepted, diag.steps_rejected, diag.rhs_evals

    def test_rhs_count(self):
        accepted, rejected, rhs_evals = self._count("rk45_adaptive")
        assert rejected > 0
        assert rhs_evals == 6 * (accepted + rejected) + 1

    def test_rk4_rhs_count(self):
        """RK4 evaluates three stages per step and its first at each point
        it reaches, the endpoint too when samples remain to interpolate."""
        accepted, rejected, rhs_evals = self._count("rk4_fixed")
        assert (accepted, rejected) == (3, 0)  # 0.5, 0.5 and 0.3
        assert rhs_evals == 4 * accepted + 1


class TestDenseSamples:
    """The steps run free of the samples, and each interior sample is the
    quintic Hermite interpolant through the last three step ends."""

    def test_hermite_reproduces_a_quintic(self):
        rng = np.random.default_rng(5)
        coef = _complex_normal(rng, (6, 3))

        def poly(t, d=0):
            powers = [math.perm(k, d) * t ** (k - d) if k >= d else 0.0
                      for k in range(6)]
            return np.array(powers) @ coef

        nodes = (0.2, 0.45, 1.3)
        z, c = _hermite([(t, poly(t), poly(t, 1)) for t in nodes])
        assert same_bits(_newton(z, c, [1.3])[0], poly(1.3))
        t = [0.2, 0.3, 0.45, 0.9, 1.25]
        want = np.array([poly(x) for x in t])
        assert np.max(np.abs(_newton(z, c, t) - want)) < 1e-12

    @pytest.mark.parametrize("n, span, max_steps", [(2, 0.05, 3),
                                                    (8, 0.005, 5)])
    def test_tau_flow_samples_within_tolerance(self, n, span, max_steps):
        """Every interior sample of a tau-flow at the default tolerances
        lies within abs_tol + rel_tol |y| of a rel 1e-13 flow that ends
        there, while the flow takes fewer steps than it has samples."""
        tau = 0.02 + 1.01j
        cfg = CMConfig(n, 0.5, TorusModulus(tau))
        k = np.arange(n)
        ph = PhasePoint((k + 0.1) / n + 0.04j * np.sin(k + 1),
                        0.3 * (-1.0) ** k + 0.05j * np.cos(k))
        icfg, tight = IntegratorConfig(), IntegratorConfig(rel_tol=1e-13,
                                                           abs_tol=1e-15)
        tr = integrate_isomonodromic(cfg, ph, (tau, tau + 1j * span))
        assert not tr.diagnostics.truncated
        assert tr.diagnostics.steps_accepted <= max_steps
        for time, point in zip(tr.times[1:-1], tr.states[1:-1]):
            ref = integrate_isomonodromic(cfg, ph, (tau, time), tight,
                                          samples=1).states[-1]
            y, y_ref = (np.concatenate([x.q, x.p]) for x in (point, ref))
            scale = icfg.abs_tol + icfg.rel_tol * np.abs(y_ref)
            assert np.max(np.abs(y - y_ref) / scale) <= 1.0

    @pytest.mark.parametrize("method", ["rk45_adaptive", "rk4_fixed"])
    @pytest.mark.parametrize("flow", FLOWS)
    def test_sample_count_leaves_the_steps(self, flow, method):
        """Over a span of at least two initial steps, 16 samples and one
        take the same steps to the same end state, bit for bit."""
        icfg = IntegratorConfig(method=method)
        assert abs(SPANS[flow][1] - SPANS[flow][0]) >= 2 * icfg.initial_step
        one, many = (FLOWS[flow](SPANS[flow], icfg=icfg, samples=k)
                     for k in (1, 16))
        assert len(many.states) == 17
        for key in ("steps_accepted", "steps_rejected", "max_local_error"):
            assert getattr(one.diagnostics, key) == getattr(many.diagnostics,
                                                            key)
        assert same_bits(np.concatenate([one.states[-1].q, one.states[-1].p]),
                         np.concatenate([many.states[-1].q,
                                         many.states[-1].p]))

    def test_collision_between_step_ends_truncates_at_the_sample(self):
        """y = s, and the guard's zero y = 0.5 falls on a sample strictly
        between the step ends 0.31 and 1: the trajectory stops there, and
        no later sample fires."""
        calls, fired = [], []

        def f(s, y):
            calls.append(s)
            return np.array([1.0 + 0j])

        diag = Diagnostics()
        integrate_segment(f, np.array([0j]), 1.0, IntegratorConfig(), diag,
                          sample_at=[i / 10 for i in range(1, 10)],
                          on_sample=lambda s, y: fired.append(s),
                          separation=lambda s, y: abs(y[0] - 0.5))
        assert 0.5 not in calls  # no stage, so no step end, at the zero
        assert diag.truncated
        assert diag.message == ("collision at sample s = 0.5: "
                                "min separation 0.000e+00")
        assert fired == [0.1, 0.2, 0.3, 0.4]


def same_bits(a, b) -> bool:
    """Whether two arrays hold the same doubles bit for bit, signed zeros
    and NaN payloads included."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def _complex_normal(rng, size):
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def reference_flow(monkeypatch, rhs, y0, span, icfg, samples,
                   separation=None):
    """A flow as the term-by-term step drove it on PhasePoints: the packed
    states at the samples and the diagnostics of `integrate_segment` run
    with `dp_step_loop`, ``rhs(time, dt, ph)`` on a PhasePoint of each stage
    and ``separation(time, ph)`` on one of each step end and sample."""
    monkeypatch.setattr(flow, "_dp_step", dp_step_loop)
    start, end = span
    length = abs(end - start)
    direction = (end - start) / length
    n = y0.size // 2
    states, diag = [y0], Diagnostics()

    def point(y):
        return PhasePoint(y[:n], y[n:])

    integrate_segment(
        lambda s, y: rhs(start + direction * s, direction, point(y)),
        y0, length, icfg, diag,
        sample_at=[length * i / samples for i in range(1, samples)],
        on_sample=lambda s, y: states.append(y),
        separation=None if separation is None else
        lambda s, y: separation(start + direction * s, point(y)))
    return states, diag


CM6 = CMConfig(6, 0.5, TorusModulus(0.02 + 1j))
PH6 = PhasePoint([0.02, 0.18 + 0.03j, 0.35 - 0.02j, 0.51 + 0.02j, 0.68,
                  0.84 - 0.03j], [0.25, -0.3, 0.2, -0.2, 0.3, -0.25])
CM5 = CMConfig(5, 0.7, TorusModulus(0.1 + 1j))
PH5 = PhasePoint([0.05, 0.27 + 0.04j, 0.46 - 0.03j, 0.63 + 0.02j, 0.84],
                 [0.2, -0.3, 0.25, -0.15, 0.1])
RK4 = IntegratorConfig(method="rk4_fixed", initial_step=0.01)


def _isospectral_case(cfg, ph, span, icfg):
    def rhs(t, dt, point):
        return dt * np.concatenate(eom(cfg, point))

    return (lambda: integrate_isospectral(cfg, ph, span, icfg, samples=4),
            rhs, ph, span, icfg, lambda t, point: min_separation(cfg, point))


def _isomonodromic_case(cfg, ph, span, icfg):
    def rhs(tau, dtau, point):
        return dtau * np.concatenate(eom(cfg.with_tau(tau), point)) / TWO_PI_I

    return (lambda: integrate_isomonodromic(cfg, ph, span, icfg, samples=4),
            rhs, ph, span, icfg,
            lambda tau, point: min_separation(cfg.with_tau(tau), point))


def _painleve_case(span, icfg):
    def rhs(tau, dtau, point):
        return dtau * np.array(scalar_painleve_rhs(
            point.q[0], point.p[0], tau, SCALAR_PARAMS, 1.0))

    return (lambda: integrate_scalar_painleve(SCALAR_STATE, SCALAR_PARAMS,
                                              span, icfg, samples=4),
            rhs, PhasePoint([SCALAR_STATE.q], [SCALAR_STATE.p]), span, icfg,
            None)


EXACT_FLOWS = {
    "painleve-dp": lambda: _painleve_case(SPANS["painleve-scalar"],
                                          IntegratorConfig()),
    "painleve-rk4": lambda: _painleve_case(SPANS["painleve-scalar"], RK4),
    "isospectral-rk4-n2": lambda: _isospectral_case(CM2, PH2, (0.0, 0.3),
                                                    RK4),
    "isospectral-dp-n5": lambda: _isospectral_case(CM5, PH5, (0.0, 0.3),
                                                   IntegratorConfig()),
    "isomonodromic-dp-n2": lambda: _isomonodromic_case(
        CM2, PH2, SPANS["isomonodromic"], IntegratorConfig()),
    "isomonodromic-rk4-n6": lambda: _isomonodromic_case(
        CM6, PH6, (0.02 + 1j, 0.04 + 1.02j),
        IntegratorConfig(method="rk4_fixed", initial_step=0.002)),
}


class TestStageArray:
    """The step on one stage array, and the right-hand sides on the packed
    state, round exactly as the term-by-term step on PhasePoints does."""

    @pytest.mark.parametrize("size", [2, 4, 32])
    def test_step_matches_the_loop(self, size):
        rng = np.random.default_rng(size)
        for _ in range(40):
            w = _complex_normal(rng, size)

            def f(s, y):
                return w * y[::-1] * (1.0 + s) + 0.3j * y * y

            y = _complex_normal(rng, size) * 10.0 ** rng.uniform(-4, 0.5)
            h, s = 10.0 ** rng.uniform(-6, -0.5), rng.uniform(0, 2)
            k1 = f(s, y)
            for got, want in zip(_dp_step(f, s, y, h, k1),
                                 dp_step_loop(f, s, y, h, k1)):
                assert np.all(np.isfinite(want))
                assert same_bits(got, want)

    @pytest.mark.parametrize("size", [2, 4, 32])
    def test_zero_weights_skip_their_stage(self, size):
        """B5 and B4 weight stage 2 by zero: a stage 2 of infinities and
        NaN stays out of y5, y4 and the error, as the loop leaves it out."""
        rng = np.random.default_rng(100 + size)
        stages = _complex_normal(rng, (7, size))
        stages[1, ::2] = complex(math.inf, -math.inf)
        stages[1, 1::2] = complex(math.nan, 0.0)

        def step(stepper):
            rows = iter(stages[1:])
            return stepper(lambda s, y: next(rows).copy(), 0.0,
                           _complex_normal(rng, size), 0.1, stages[0])

        state = rng.bit_generator.state
        with np.errstate(invalid="ignore"):  # in the stages after stage 2
            got = step(_dp_step)
            rng.bit_generator.state = state
            want = step(dp_step_loop)
        for g, w in zip(got, want):
            assert same_bits(g, w)
        assert np.all(np.isfinite(got[0])) and np.all(np.isfinite(got[1]))

    @pytest.mark.parametrize("n", [1, 2, 5, 6])
    @pytest.mark.parametrize("array_from", [2, 10**9],
                             ids=["array", "scalar"])
    def test_packed_helpers(self, monkeypatch, n, array_from):
        """eom and min_separation equal the helpers the flows call on views
        of the packed state, on both pair paths."""
        monkeypatch.setattr(calogero, "ARRAY_PAIRS_FROM", array_from)
        rng = np.random.default_rng(n)
        tau = 0.1 + 0.9j
        cfg = CMConfig(n, 0.7 + 0.1j, TorusModulus(tau))
        y = np.concatenate([np.arange(n) / n + 0.05 * _complex_normal(rng, n),
                            _complex_normal(rng, n)])
        ph = PhasePoint(y[:n], y[n:])
        dq, dp = eom(cfg, ph)
        assert same_bits(dq, y[n:])
        assert same_bits(dp, _force(cfg, y[:n]))
        assert min_separation(cfg, ph) == _min_separation(y[:n], tau)

    @pytest.mark.parametrize("case", EXACT_FLOWS)
    def test_flow_matches_the_phase_point_loop(self, monkeypatch, case):
        """DP and RK4 flows of all three kinds, on both pair paths, give
        the samples and diagnostics of `reference_flow` bit for bit."""
        run, rhs, ph0, span, icfg, separation = EXACT_FLOWS[case]()
        traj = run()
        states, diag = reference_flow(monkeypatch, rhs,
                                      np.concatenate([ph0.q, ph0.p]), span,
                                      icfg, 4, separation)
        assert traj.diagnostics == diag
        assert len(traj.states) == len(states) == 5
        for point, y in zip(traj.states, states):
            assert same_bits(np.concatenate([point.q, point.p]), y)
