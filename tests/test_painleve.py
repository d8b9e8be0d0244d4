import math

import pytest

from ellcm.elliptic import GeneralLattice, TorusModulus, wp_dz, wp_dz_general
from ellcm.errors import SingularConfigurationError, UsageError
from ellcm.painleve import (
    EllipticState,
    PainleveParams,
    elliptic_p6_rhs,
    elliptic_to_rational,
    half_periods,
    hamiltonian_manin,
    hitchin_params,
    landin_transform,
    rational_p6_residual,
    s4_shift,
    scalar_painleve_rhs,
    scaling_symmetry,
)
from ellcm.rng import SplitMix64

from _oracles import fd_central

TWO_PI_I = 2j * math.pi


class TestHalfPeriods:
    def test_tau_i(self):
        assert half_periods(1j) == (0, 0.5, 0.5 + 0.5j, 0.5j)

    def test_omega0_zero(self):
        for tau in (1j, 0.3 + 0.8j, 2j):
            assert half_periods(tau)[0] == 0

    def test_additivity(self):
        for tau in (1j, 0.3 + 0.8j):
            w = half_periods(tau)
            assert w[2] == w[1] + w[3]


class TestEllipticP6Rhs:
    def test_single_term(self):
        tm = TorusModulus(1j)
        params = PainleveParams((0.7, 0, 0, 0))
        got = elliptic_p6_rhs(0.21 + 0.1j, 1j, params)
        assert abs(got - 0.7 * wp_dz(0.21 + 0.1j, tm)) < 1e-12

    def test_lattice_shift_invariance(self):
        params = PainleveParams((0.1, 0.2, 0.3, 0.4))
        a = elliptic_p6_rhs(0.21 + 0.1j, 1j, params)
        b = elliptic_p6_rhs(0.21 + 0.1j + 1 + 1j, 1j, params)
        assert abs(a - b) <= 1e-12 * abs(a)

    def test_equal_parameters_duplication(self):
        # with all alpha_a = -g^2/8 the four-term sum collapses to
        # -g^2 wp'(2q): sum_a wp'(q + omega_a) = 8 wp'(2q)
        g = 1.0
        tm = TorusModulus(1j)
        params = PainleveParams(tuple([-g * g / 8] * 4))
        q = 0.21 + 0.13j
        got = elliptic_p6_rhs(q, 1j, params)
        direct = -g * g / 8 * sum(
            wp_dz(q + w, tm) for w in half_periods(1j))
        assert abs(got - direct) < 1e-12 * abs(got)
        assert abs(got + g * g * wp_dz(2 * q, tm)) < 1e-9 * abs(got)

    def test_zero_alpha_skips_pole(self):
        # q = -omega_1 is a pole of the alpha_1 term only
        params = PainleveParams((0.3, 0, 0, 0))
        elliptic_p6_rhs(-0.5 + 0.31j + 0.5, 1j, params)  # no raise

    @pytest.mark.parametrize("s", [2 + 0.1j, 0.5 - 0.3j, -1.0, 3j])
    def test_scaled_lattice_per_term(self, s):
        """On the lattice (s, tau) the force matches wp' of that lattice
        taken term by term through wp_dz_general; s = -1 and 3i reorder
        the generators."""
        params = PainleveParams((0.1, -0.2j, 0, 0.4 + 0.1j))
        omegas = (0, s / 2, (s + 0.2 + 1.1j) / 2, (0.2 + 1.1j) / 2)
        for q in (0.21 + 0.1j, -0.4 + 0.35j, 0.05 - 0.6j):
            terms = [a * wp_dz_general(q + w, GeneralLattice(s, 0.2 + 1.1j))
                     for a, w in zip(params.alpha, omegas) if a != 0]
            dq, dp = scalar_painleve_rhs(q, 0.3, 0.2 + 1.1j, params, s)
            assert dq == 0.3 / TWO_PI_I
            assert (abs(dp * TWO_PI_I - sum(terms))
                    <= 1e-14 * sum(abs(t) for t in terms))

    def test_unit_lattice_is_elliptic_p6_rhs(self):
        params = PainleveParams((0.1, -0.2j, 0, 0.4 + 0.1j))
        q, tau = 0.21 + 0.1j, 0.2 + 1.1j
        assert (scalar_painleve_rhs(q, 0.3, tau, params)[1]
                == elliptic_p6_rhs(q, tau, params) / TWO_PI_I)


class TestHamiltonianManin:
    def test_free(self):
        state = EllipticState(0.3 + 0.1j, 0.4 - 0.2j, 1j)
        params = PainleveParams((0, 0, 0, 0))
        assert hamiltonian_manin(state, params) == state.p**2 / 2

    def test_dHdp_equals_p(self):
        state = EllipticState(0.3 + 0.1j, 0.4 - 0.2j, 1j)
        params = PainleveParams((0.1, -0.2, 0.3j, 0.05))
        fd = fd_central(
            lambda p: hamiltonian_manin(EllipticState(state.q, p, 1j),
                                        params), state.p, 1e-6)
        assert abs(fd - state.p) < 1e-8

    def test_minus_dHdq_equals_rhs(self):
        rng = SplitMix64(17)
        for _ in range(10):
            tau = rng.tau()
            q = rng.cell_point(tau)
            params = PainleveParams(tuple(
                complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2))
                for _ in range(4)))
            fd = fd_central(
                lambda w: hamiltonian_manin(EllipticState(w, 0.1, tau),
                                            params), q, 1e-6)
            rhs = elliptic_p6_rhs(q, tau, params)
            assert abs(-fd - rhs) < 1e-6 * max(1.0, abs(rhs))


class TestEllipticToRational:
    def test_half_period_images(self):
        tau = 0.2 + 0.9j
        w = half_periods(tau)
        y1, t = elliptic_to_rational(w[1], tau)
        assert abs(y1) < 1e-10
        y3, _ = elliptic_to_rational(w[3], tau)
        assert abs(y3 - 1) < 1e-10
        y2, _ = elliptic_to_rational(w[2], tau)
        assert abs(y2 - t) < 1e-10

    def test_origin_blows_up(self):
        y, _ = elliptic_to_rational(1e-5, 1j)
        assert abs(y) > 1e6


class TestRationalP6Residual:
    def test_parameter_map_round_trip(self):
        p = PainleveParams((0.1 + 0.2j, -0.3, 0.4j, 0.5 - 0.1j))
        p2 = PainleveParams.from_classical(*p.classical())
        assert p2.alpha == p.alpha

    def test_zero_params_linear_not_solution(self):
        # all classical parameters zero, y linear in t: the first-derivative
        # group survives, so the residual must NOT vanish
        params = PainleveParams.from_classical(0, 0, 0, 0)
        y = lambda t: 0.3 + 0.5 * t
        t0 = 0.4 + 0.2j
        r = rational_p6_residual(y(t0), 0.5, 0.0, t0, params)
        assert abs(r) > 1e-3

    def test_singular_configuration(self):
        params = PainleveParams((0.1, 0.2, 0.3, 0.4))
        with pytest.raises(SingularConfigurationError):
            rational_p6_residual(0.5, 0.1, 0.0, 0.5, params)  # y == t
        with pytest.raises(SingularConfigurationError):
            rational_p6_residual(1.0 + 1e-12, 0.1, 0.0, 0.3, params)


class TestLandin:
    def test_applicable_form(self):
        a, b = 0.12 - 0.05j, -0.3 + 0.01j
        new, ok = landin_transform(PainleveParams((a, b, b, a)))
        assert ok
        assert new.alpha == (4 * a, 4 * b, 0, 0)

    def test_not_applicable(self):
        new, ok = landin_transform(PainleveParams((0.1, 0.2, 0.3, 0.4)))
        assert not ok and new is None

    def test_zero_fixed_point(self):
        new, ok = landin_transform(PainleveParams((0, 0, 0, 0)))
        assert ok
        assert new.alpha == (0, 0, 0, 0)


class TestScaling:
    def test_transformation(self):
        st = EllipticState(0.3 + 0.1j, 0.2, 1j)
        params = PainleveParams((0.1, 0.2, 0.3, 0.4))
        new_st, new_par = scaling_symmetry(st, params, 2.0)
        assert new_st.q == 2 * st.q
        assert new_st.tau == 2j
        assert new_st.p == st.p  # momentum invariant under the map
        assert new_par.alpha == tuple(4 * a for a in params.alpha)

    def test_identity(self):
        st = EllipticState(0.3, 0.2, 1j)
        params = PainleveParams((0.1, 0.2, 0.3, 0.4))
        assert scaling_symmetry(st, params, 1.0) == (st, params)

    def test_round_trip(self):
        st = EllipticState(0.3 + 0.2j, 0.2 - 0.1j, 0.1 + 0.9j)
        params = PainleveParams((0.1j, 0.2, -0.3, 0.4))
        st2, par2 = scaling_symmetry(*scaling_symmetry(st, params, 2.0), 0.5)
        assert abs(st2.q - st.q) < 1e-15
        assert abs(st2.tau - st.tau) < 1e-15
        assert max(abs(a - b) for a, b in zip(par2.alpha, params.alpha)) < 1e-15

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            scaling_symmetry(EllipticState(0.3, 0.2, 1j),
                             PainleveParams((0, 0, 0, 0)), 0.0)


class TestS4Shift:
    def test_identity_shift(self):
        assert s4_shift(0.3 + 0.2j, 1j, 0) == 0.3 + 0.2j

    def test_b_half_period(self):
        assert s4_shift(0.3, 1j, 3) == 0.3 + 0.5j

    def test_twice_is_full_period(self):
        q = 0.17 - 0.08j
        assert s4_shift(s4_shift(q, 1j, 1), 1j, 1) == q + 1

    def test_index_out_of_range(self):
        with pytest.raises(UsageError, match="out of range 0..3"):
            s4_shift(0.3, 1j, 4)


class TestHitchin:
    def test_reduced_form(self):
        params = hitchin_params()
        q = 0.3
        tm = TorusModulus(1j)
        lhs = elliptic_p6_rhs(q, 1j, params) / TWO_PI_I**2
        rhs = wp_dz(q, tm) / (2 * math.pi**2)
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)

    def test_only_first_parameter(self):
        assert hitchin_params().alpha == (-2, 0, 0, 0)

    def test_rhs_odd(self):
        params = hitchin_params()
        a = elliptic_p6_rhs(0.3 + 0.05j, 1j, params)
        b = elliptic_p6_rhs(-0.3 - 0.05j, 1j, params)
        assert abs(a + b) < 1e-12 * abs(a)
