import cmath
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellcm import elliptic
from ellcm.elliptic import (
    POLE_EXCLUSION_RADIUS,
    GeneralLattice,
    TorusModulus,
    lame_array,
    lame_x,
    lame_x_dtau,
    lame_x_dz,
    lame_y,
    lattice_distance,
    reduce_to_cell,
    reduce_to_cell_array,
    rho,
    theta1,
    theta1_d3z_at_0,
    theta1_dz,
    theta1_dz_at_0,
    theta1_product,
    weierstrass_constant,
    wp,
    wp_dz,
    wp_dz_general,
    wp_general,
    wp_lattice_oracle,
)
from ellcm.elliptic import (
    _NINE,
    _TERMS_FROM,
    _lattice_basis,
    _lattice_distance_array,
    _modular_image,
    _nine_suffice,
    _reduce_checked,
    _reduce_checked_array,
    _reduced_distance,
    _rho_array,
    _rho_ratios,
    _segment_lattice_distances,
    _series_sums,
    _shortest_period,
    _table,
    _theta_series_at,
)
from ellcm.errors import (
    DegenerateLatticeError,
    EllcmError,
    PathError,
    PoleProximityError,
    SeriesRangeError,
    UsageError,
)
from ellcm.rng import SplitMix64
from ellcm.verify import LANDIN_TOL

import _oracles as oracle
from _oracles import (
    fd6_richardson,
    fd_central,
    fd_third_at_0,
    theta1_direct,
    theta1_mp,
    theta1_poisson,
)

TM_I = TorusModulus(1j)
TWO_PI_I = 2j * math.pi


class TestTorusModulus:
    def test_nome_cached(self):
        tm = TorusModulus(0.3 + 0.9j)
        assert tm.nome == cmath.exp(1j * math.pi * (0.3 + 0.9j))
        assert abs(tm.nome) < 1

    def test_lower_half_plane_rejected(self):
        with pytest.raises(ValueError):
            TorusModulus(0.5 - 0.1j)
        with pytest.raises(ValueError):
            TorusModulus(0.7)

    @pytest.mark.parametrize("tau", [complex(math.nan, 1.0),
                                     complex(0.0, math.nan),
                                     complex(0.0, math.inf),
                                     complex(math.inf, 1.0)])
    def test_non_finite_rejected(self, tau):
        with pytest.raises(ValueError, match="upper half-plane"):
            TorusModulus(tau)


class TestTheta1:
    def test_zero_at_origin(self):
        assert abs(theta1(0, TM_I)) < 1e-12

    def test_zero_at_lattice_points(self):
        for z in (1.0, 1j, 2 + 1j, -1 + 1j):
            assert abs(theta1(z, TM_I)) < 1e-12

    def test_antiperiodicity(self):
        z = 0.2 + 0.1j
        assert abs(theta1(z + 1, TM_I) + theta1(z, TM_I)) < 1e-13

    def test_reference_value(self):
        # frozen from the direct defining-series oracle (1e-14 stagnation)
        expected = 1.0744053196400076 + 0.0j
        assert abs(theta1(0.3, TorusModulus(0.5j)) - expected) < 1e-14
        assert abs(theta1_direct(0.3, 0.5j) - expected) < 1e-14

    def test_against_direct_sum_oracle(self):
        rng = SplitMix64(11)
        for _ in range(20):
            tau = rng.tau()
            z = rng.complex_in_box(-1.5, 1.5, -0.8, 0.8)
            a = theta1(z, TorusModulus(tau))
            b = theta1_direct(z, tau)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_quasi_periodicity_b_cycle(self):
        z = 0.37 + 0.21j
        lhs = theta1(z + 1j, TM_I)
        rhs = -cmath.exp(-1j * math.pi * (1j + 2 * z)) * theta1(z, TM_I)
        assert abs(lhs - rhs) / abs(rhs) < 1e-10

    def test_accuracy_at_tiny_tau(self):
        # tau = 1e-4 i is summed at tau' = 1e4 i, one term, its coefficient
        # e^{-2500 pi} lifted out of the subnormal range.  theta1 is near
        # |tau|^{-1/2} = 100 on the ridge (Re z - 1/2)^2 = (Im z)^2, about
        # 4900 B-periods out, and about -7.5e274 at -0.01+0.51i, near the
        # top of the double range; rho, wp and wp' near the imaginary axis.
        # Against the Poisson-summed series in 40-digit mpmath
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        tau = 1e-4j
        tm = TorusModulus(tau)
        for z in (0.01 + 0.49j, 0.005 + 0.495j, 2.005 + 0.495j - 3 * tau,
                  -0.01 + 0.51j):
            t0, t1 = (complex(v) for v in theta1_poisson(z, tau, 2))
            assert abs(theta1(z, tm) - t0) <= 1e-10 * abs(t0)
            assert abs(theta1_dz(z, tm) - t1) <= 1e-10 * abs(t1)
        scale = abs(math.pi / tau)
        for z in (0.003 + 2e-5j, -0.012 + 4e-5j, 1.004 - 3e-5j):
            t0, t1, t2, t3 = theta1_poisson(z, tau)
            r, b, c = t1 / t0, t2 / t0, t3 / t0
            assert abs(rho(z, tm) - complex(r)) <= 1e-12 * scale
            assert abs(wp_dz(z, tm) - complex(3 * r * b - c - 2 * r ** 3)
                       ) <= 1e-12 * scale ** 3
            assert abs(wp(z, tm) - wp_lattice_oracle(z, tm)) <= (
                1e-12 * scale ** 2)
        # where the reduced series leaves the double range: a structured
        # error, never a wrong number
        with pytest.raises(SeriesRangeError):
            theta1(0.3, tm)

    def test_external_convention_cross_check(self):
        # paper-normalized theta1(z) equals the classical odd theta with
        # argument pi z and nome exp(i pi tau)
        mp = pytest.importorskip("mpmath")
        for z, tau in [(0.23 + 0.11j, 0.9j), (0.4, 0.3 + 0.8j)]:
            got = theta1(z, TorusModulus(tau))
            ref = complex(mp.jtheta(1, mp.pi * mp.mpc(z),
                                    mp.exp(1j * mp.pi * mp.mpc(tau))))
            assert abs(got - ref) < 1e-12 * max(1.0, abs(ref))


class TestTheta1Array:
    """The array theta1 sum, through its reader lame_array."""

    TM = TorusModulus(0.3 + 0.8j)

    def _points(self, seed, size=80):
        rng = np.random.default_rng(seed)
        tau = self.TM.tau
        return (rng.uniform(-3, 3, size)
                + rng.uniform(-2.5, 2.5, size) * tau)

    def test_reduction_matches_scalar(self):
        z = self._points(1)
        w, m, n = reduce_to_cell_array(z, self.TM.tau)
        for zi, wi, mi, ni in zip(z, w, m, n):
            assert (wi, mi, ni) == reduce_to_cell(zi, self.TM.tau)

    def test_matches_scalar(self):
        z = self._points(2)
        u = self._points(12, size=3)
        x, (rho_u, rho_zu, rho_z), (rho_dz_u, rho_dz_zu, rho_dz_z), (
            _, rho_d2z_zu, rho_d2z_z) = lame_array(z, u, self.TM, True)
        assert np.array_equal(lame_array(z, u, self.TM), x)
        for i, zi in enumerate(z):
            for k, uk in enumerate(u):
                expect = lame_x(uk, zi, self.TM)
                assert abs(x[i, k] - expect) <= 1e-13 * abs(expect)
                y = -x[i, k] * (rho_u[0, k] + rho_zu[i, k])
                expect = lame_y(uk, zi, self.TM)
                assert abs(y - expect) <= 1e-13 * abs(expect)
                expect = rho(zi - uk, self.TM)
                assert abs(rho_zu[i, k] - expect) <= 1e-13 * abs(expect)
                expect = weierstrass_constant(self.TM) - wp(zi - uk, self.TM)
                assert abs(rho_dz_zu[i, k] - expect) <= 1e-13 * abs(expect)
                expect = -wp_dz(zi - uk, self.TM)
                assert abs(rho_d2z_zu[i, k] - expect) <= 1e-13 * abs(expect)
            c = weierstrass_constant(self.TM)
            for got, expect in ((rho_z, rho(zi, self.TM)),
                                (rho_dz_z, c - wp(zi, self.TM)),
                                (rho_d2z_z, -wp_dz(zi, self.TM))):
                assert abs(got[i, 0] - expect) <= 1e-13 * abs(expect)
        for k, uk in enumerate(u):
            expect = wp(uk, self.TM)
            got = weierstrass_constant(self.TM) - rho_dz_u[0, k]
            assert abs(got - expect) <= 1e-13 * abs(expect)

    def test_shape_kept(self):
        z, u = self._points(3, size=8), self._points(4, size=10)
        x, *ratios = lame_array(z, u, self.TM, True)
        assert x.shape == (8, 10)
        for at in ratios:
            assert [r.shape for r in at] == [(1, 10), (8, 10), (8, 1)]

    def test_pole_check(self):
        """The scalar kernels' names and order: z - u (only where the
        ratios are asked for), then u, then z."""
        tau = self.TM.tau
        near = -2.0 + tau + 0.5 * POLE_EXCLUSION_RADIUS
        other = 1.0 + 2.0 * tau - 0.5 * POLE_EXCLUSION_RADIUS
        zero = 0.4 - near  # z - u is near the lattice at z = 0.4
        z = np.array([0.2, 0.4])
        for args, name, point in (
                (([0.2, near], [0.1, 0.15]), "z", near),
                ((z, [0.1, other]), "u", other),
                (([0.2, near], [0.1, other]), "u", other),
                ((z, [0.1, zero]), "z - u", 0.4 - zero),
                ((z, [other, zero]), "z - u", 0.4 - zero)):
            with pytest.raises(PoleProximityError) as info:
                lame_array(*args, self.TM, True)
            assert info.value.variable == name
            assert info.value.point == point
            assert info.value.distance == pytest.approx(
                lattice_distance(point, tau))
        # x(u, z) vanishes at z - u on the lattice: not a pole of x
        x = lame_array(z, [0.1, zero], self.TM)
        assert abs(x[1, 1]) < 1e-5

    def test_one_point_as_in_a_batch(self):
        """Each point's sums do not depend on the other points of the call,
        a lone point included, also at a modulus the series sums at
        tau' = gamma tau (0.45+0.03i, three terms at tau'), where a lone
        node of lame_array equals the same node of a batch."""
        for tau in (1j, 0.45 + 0.03j):
            tm = TorusModulus(tau)
            tab = _table(tm)
            assert (tab.gamma == (1, 0, 0, 1)) == (tau == 1j)
            rng = np.random.default_rng(5)
            z = rng.uniform(-3, 3, 2000) + rng.uniform(-3, 3, 2000) * tau
            w = reduce_to_cell_array(z * tab.w_inv, tab.tau_r)[0]
            sums = _series_sums(w, tab, 4)
            for i in range(w.size):
                one = _series_sums(w[i:i + 1], tab, 4)
                assert np.array_equal(one[:, 0], sums[:, i])
            u = [0.1 + 0.2 * tau, 0.3]
            x, *ratios = lame_array(z, u, tm, True)
            for i in range(0, z.size, 97):
                one, *at = lame_array(z[i:i + 1], u, tm, True)
                assert np.array_equal(one[0], x[i])
                for got, want in zip(at, ratios):
                    assert np.array_equal(got[1][0], want[1][i])
                    assert np.array_equal(got[2][0], want[2][i])

    def test_series_overflow_raises(self):
        """A point whose reduced series leaves the double range raises the
        scalar theta1's SeriesRangeError, without a floating-point warning
        and never returning nan."""
        tm = TorusModulus(500j)
        with pytest.raises(SeriesRangeError) as scalar:
            theta1(0.3 + 230j, tm)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SeriesRangeError) as array:
                lame_array([0.3 + 230j, 0.1], [0.2], tm)
        assert str(array.value) == str(scalar.value) == (
            "theta1 series overflows at the reduced point w = (0.3+230j)")

    @pytest.mark.parametrize("tau", [0.3 + 0.8j, 0.45 + 0.03j])
    def test_ratios_are_x_and_one_rho_pass(self, tau):
        """With ``ratios`` x has the bits of the call without them, and each
        list of ratios those of `_rho_array` at u, z - u (node-major) and
        z, at a modulus kept (gamma = 1) and at a reduced one."""
        tm = TorusModulus(tau)
        assert (_table(tm).gamma == (1, 0, 0, 1)) == (tau == 0.3 + 0.8j)
        rng = np.random.default_rng(21)
        z = rng.uniform(-2, 2, 7) + rng.uniform(-2, 2, 7) * tau
        u = rng.uniform(-1, 1, 4) + rng.uniform(-1, 1, 4) * tau
        x, *ratios = lame_array(z, u, tm, True)
        assert np.array_equal(x, lame_array(z, u, tm))
        zu = (z[:, None] - u).ravel()
        at = [_rho_array(p, tm, lambda i: None) for p in (u, zu, z)]
        for got, want in zip(ratios, zip(*at)):
            for r, w, shape in zip(got, want, [(1, 4), (7, 4), (7, 1)]):
                assert np.array_equal(r, w.reshape(shape))

    def test_dz_at_0(self):
        assert theta1_dz_at_0(self.TM) == pytest.approx(
            theta1_dz(0.0, self.TM), rel=1e-14)


class TestSeparableLame:
    """lame_array's x and the ratios at z - u from the separable sums of
    node and pair harmonics (module docstring), against 40-digit mpmath
    and the scalar kernels, both ``ratios`` settings."""

    IMS = (0.05, 0.8, 2.0, 5.0, 12.0, 40.0)
    #: Reduced Im v / Im tau' of the nodes and of the pairs.  Nodes 0-2
    #: share the sign of Im with pairs 0-1, nodes 3-4 with pairs 2-3: the
    #: entries where the products sin(a v_z) cos(a v_u) - cos(a v_z)
    #: sin(a v_u) would cancel.
    NODE_B = (0.45, 0.3, 0.12, -0.47, -0.2, 0.0)
    PAIR_B = (0.42, 0.25, -0.38, -0.05)

    @classmethod
    def points(cls, tm):
        """(z, u) with reduced points at the heights above, the nodes
        shifted by lattice vectors with B-periods -1, 0 and 1 at tau'."""
        tab = _table(tm)
        node_a = (0.31, -0.22, 0.05, 0.4, -0.45, 0.17)
        pair_a = (-0.36, 0.14, 0.27, -0.08)
        shift = (0, 1, -1, 0, 1, 0)
        z = [tab.w * (a + (b + k) * tab.tau_r) + k
             for a, b, k in zip(node_a, cls.NODE_B, shift)]
        u = [tab.w * (a + b * tab.tau_r) for a, b in zip(pair_a, cls.PAIR_B)]
        return np.array(z), np.array(u)

    @pytest.mark.parametrize("ratios", [False, True])
    @pytest.mark.parametrize("im", IMS)
    def test_against_mpmath(self, im, ratios):
        pytest.importorskip("mpmath")
        tau = complex(0.1 if im > 1 else 0.03, im)
        tm = TorusModulus(tau)
        tab = _table(tm)
        assert (tab.tau_r.imag <= elliptic._SEPARABLE_IM
                and (tab.gamma == (1, 0, 0, 1)) == (im > 0.7725))
        z, u = self.points(tm)
        v_z = reduce_to_cell_array(z * tab.w_inv, tab.tau_r)[0]
        assert np.allclose(v_z.imag / tab.tau_r.imag, self.NODE_B)
        got = lame_array(z, u, tm, ratios)
        x = got[0] if ratios else got
        scale = math.pi / abs(tab.w)
        d0 = theta1_mp(0.0, tau, 2)[1]
        at = {p: theta1_mp(p, tau, 4 if ratios else 1) for p in (*z, *u)}
        for i, zi in enumerate(z):
            for k, uk in enumerate(u):
                t = theta1_mp(zi - uk, tau, 4 if ratios else 1)
                want = complex(t[0] * d0 / (at[zi][0] * at[uk][0]))
                assert abs(x[i, k] - want) <= 1e-12 * abs(want), (i, k)
                if not ratios:
                    continue
                r, b, c = t[1] / t[0], t[2] / t[0], t[3] / t[0]
                for d, value in enumerate((r, b - r * r,
                                           c - 3 * r * b + 2 * r ** 3)):
                    value = complex(value)
                    assert abs(got[1 + d][1][i, k] - value) <= 1e-12 * max(
                        scale ** (d + 1), abs(value)), (d, i, k)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.floats(-0.5, 0.5), st.floats(-1.3, 1.7).map(lambda e: 10 ** e),
           st.lists(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
                              st.integers(-2, 2), st.integers(-1, 1)),
                    min_size=3, max_size=3),
           st.booleans())
    def test_matches_scalar(self, re_tau, im_tau, cells, ratios):
        """Any modulus with Im tau from 0.05 to 50, a pair argument u and
        two nodes z given by cell coordinates and lattice shifts: x within
        1e-12 of scalar lame_x, and rho(z - u) of scalar rho, where z, u
        and z - u are a hundredth of the shortest period clear of the
        lattice."""
        tau = complex(re_tau, im_tau)
        tm = TorusModulus(tau)
        pts = [a + b * tau + m + n * tau for a, b, m, n in cells]
        clear = 0.01 * _shortest_period(tau)
        u, z = pts[0], np.array(pts[1:])
        assume(min(lattice_distance(p, tau) for p in (u, *z, *(z - u)))
               > clear)
        got = lame_array(z, [u], tm, ratios)
        x = got[0] if ratios else got
        for i, zi in enumerate(z):
            want = lame_x(u, zi, tm)
            assert abs(x[i, 0] - want) <= 1e-12 * abs(want)
            if ratios:
                want = rho(zi - u, tm)
                scale = max(abs(math.pi / tau), math.pi, abs(want))
                assert abs(got[1][1][i, 0] - want) <= 1e-12 * scale

    def test_tall_modulus_sums_each_entry(self, monkeypatch):
        """Past _SEPARABLE_IM (tau' = 333i from tau = 0.003i, and 300i) the
        entries go through `_series_sums` at the reduced z - u, as the
        scalar kernels sum them, finite where those are; a second
        `_series_sums` pass of x shows it.  With the ratios, one
        `_rho_array` pass over z - u, u and z comes first."""
        real = elliptic._series_sums
        sizes = []
        monkeypatch.setattr(elliptic, "_series_sums",
                            lambda w, *a: sizes.append(w.size) or real(w, *a))
        for tau in (0.003j, 300j):
            tm = TorusModulus(tau)
            tab = _table(tm)
            assert tab.tau_r.imag > elliptic._SEPARABLE_IM
            z, u = self.points(tm)
            if tau == 300j:  # x of the shifted nodes leaves the double range
                z, u = z[[0, 5]] - 0.3 * tau, u[[1, 3]]
            for ratios in (False, True):
                sizes.clear()
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = lame_array(z, u, tm, ratios)
                # with the ratios, `_rho_array` at z - u, u and z first
                rho_pass = [z.size * u.size + u.size + z.size] * ratios
                assert sizes == rho_pass + [u.size + z.size, u.size * z.size]
                x = got[0] if ratios else got
                for i, zi in enumerate(z):
                    for k, uk in enumerate(u):
                        want = lame_x(uk, zi, tm)
                        assert abs(x[i, k] - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("im", [60.0, 150.0])
    def test_separable_up_to_its_bound(self, monkeypatch, im):
        """Up to Im tau' = _SEPARABLE_IM the separable sums stay in the
        double range: at reduced heights up to 0.499 Im tau', both signs,
        they give the per-entry sums' values, without a floating-point
        warning.  The scaled harmonics keep every product that carries
        digits of the sum between about e^{-pi Im tau' - 37} and
        e^{pi Im tau' / 4}; in a scratch run the bound was first missed
        near Im tau' = 190."""
        tau = complex(0.1, im)
        tm = TorusModulus(tau)
        heights = (-0.499, -0.45, -0.2, 0.0, 0.2, 0.45, 0.499)
        z = np.array([a + b * tau for a in (-0.47, 0.12, 0.49)
                      for b in heights])
        u = z[::4] + 0.013
        for ratios in (False, True):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                sep = lame_array(z, u, tm, ratios)
            monkeypatch.setattr(elliptic, "_SEPARABLE_IM", 0.0)
            each = lame_array(z, u, tm, ratios)
            monkeypatch.undo()
            x, y = (sep[0], each[0]) if ratios else (sep, each)
            assert np.all(np.abs(x - y) <= 1e-12 * np.abs(y))
            for d in range(3 if ratios else 0):
                got, want = sep[1 + d][1], each[1 + d][1]
                assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(
                    (3 * math.pi) ** (d + 1), np.abs(want)))

    @pytest.mark.parametrize("tau, rtol", [
        (1j, 1e-12), (0.3 + 0.8j, 1e-12), (0.45 + 0.03j, 1e-12),
        (123.456 + 0.003j, 1e-10)])
    def test_points_off_the_cell(self, tau, rtol):
        """Nodes up to two periods from the cell, with pair arguments as
        far off or only A-periods off, in the row n = 0 of the cell: x
        within rtol of scalar lame_x.  At gamma = 1 the latter take their
        factors from one row per distinct n_z, the former from the
        unreduced V = v_z - v_u, as at any other gamma.  At
        123.456+0.003i, where z / w reaches 4,500, the log factors keep
        about 11 digits on either side."""
        tm = TorusModulus(tau)
        tab = _table(tm)
        rng = np.random.default_rng(8)
        z = rng.uniform(-2, 2, 6) + rng.uniform(-2, 2, 6) * tau
        n = reduce_to_cell_array(z * tab.w_inv, tab.tau_r)[2]
        assert n.any()
        for b in (2.0, 0.45):
            u = rng.uniform(-2, 2, 3) + rng.uniform(-b, b, 3) * tau
            got = lame_array(z, u, tm)
            want = np.array([[lame_x(uk, zi, tm) for uk in u] for zi in z])
            assert np.allclose(got, want, rtol=rtol, atol=0)

    def test_far_nodes_take_no_table_per_period(self):
        """With real pair arguments the factors of a node 10^6 B-periods up
        are of modulus one and stay in range; the table of the row
        n = 0 has a row for each distinct n_z, not for each period
        between them, so the call stays small (a row per period would
        take 32 MB).  At u = 1/4 and -3/8, 10^6 u is whole and x at that
        node is x at the node 0.3 (quasi-periodicity), to the phase's
        rounding."""
        import tracemalloc
        tm = TorusModulus(1j)
        z = np.array([0.3, 0.3 + 1e6j])
        u = np.array([0.25, -0.375])
        tracemalloc.start()
        try:
            x = lame_array(z, u, tm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert np.allclose(x[1], x[0], rtol=1e-9, atol=0)

    def test_factor_out_of_range_sums_each_entry(self, monkeypatch):
        """Where the real exponent of an entry's factor passes
        _LOG_MAX / 2 (a node 2.4 periods up a tall lattice), no factor is
        formed and the entries are summed one by one: x within 1e-12 of
        lame_x, from 1e-278 to 1e148, and finite.  Formed, a factor of
        e^{678} left the double range and x came out nan."""
        tau = complex(0.1, 120)
        tm = TorusModulus(tau)
        z = np.array([0.3 + 2.4 * tau, 0.3 + 1.4 * tau, 0.2 + 0.1 * tau])
        u = np.array([0.2 + 0.45 * tau, -0.35 - 0.2 * tau])
        real = elliptic._series_sums
        sizes = []
        monkeypatch.setattr(elliptic, "_series_sums",
                            lambda w, *a: sizes.append(w.size) or real(w, *a))
        lame_array(z[1:], u, tm)
        assert sizes == [u.size + 2]  # without z[0], the separable sums
        for ratios in (False, True):
            sizes.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = lame_array(z, u, tm, ratios)
            # with the ratios, `_rho_array` at z - u, u and z comes first
            rho_pass = [z.size * u.size + u.size + z.size] * ratios
            assert sizes == rho_pass + [u.size + z.size, u.size * z.size]
            x = got[0] if ratios else got
            for i, zi in enumerate(z):
                for k, uk in enumerate(u):
                    want = lame_x(uk, zi, tm)
                    assert abs(x[i, k] - want) <= 1e-12 * abs(want)


class TestTallLatticeLame:
    """x where the factors of its quotient leave the double range: at
    tau = 0.1+250i a node half a period up and an argument half a period
    down give e^{782} for the lattice factor and the inverse for the theta
    quotient, with x about e^{1.8}."""

    TAU = 0.1 + 250j
    #: a + b tau, a in (-0.47, 0.12, 0.49), b in (+-0.499, +-0.45, +-0.2, 0)
    POINTS = np.add.outer([-0.47, 0.12, 0.49], TAU * np.array(
        [-0.499, -0.45, -0.2, 0.0, 0.2, 0.45, 0.499])).ravel()

    def test_both_kernels_against_mpmath(self):
        """The 21 points a + b tau as the nodes and the arguments: both
        kernels within 2e-13 of 40-digit mpmath, where |x| ranges from
        e^{-783} (below the double range: 0) to e^{2.1}, and 0 at z = u.
        The exponent reaches 782, whose rounding alone is 782 * 2^-53 =
        8.7e-14 relative; the worst error seen was 6.2e-14 for either
        kernel."""
        pytest.importorskip("mpmath")
        tau, z = self.TAU, self.POINTS
        tm = TorusModulus(tau)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = lame_array(z, z, tm)
        d0 = theta1_mp(0.0, tau, 2)[1]
        at = [theta1_mp(p, tau, 1)[0] for p in z]
        for i, zi in enumerate(z):
            for k, uk in enumerate(z):
                got = (x[i, k], lame_x(uk, zi, tm))
                if i == k:  # theta1(0) = 0 exactly
                    assert got == (0, 0)
                    continue
                want = theta1_mp(zi - uk, tau, 1)[0] * d0 / (at[i] * at[k])
                w = complex(want)
                for g in got:
                    assert abs(g - w) <= 2e-13 * abs(w) + 5e-324, (i, k)

    def test_past_the_double_range_raises(self):
        """Where x itself leaves the double range (a node two periods up,
        an argument nearly half a period down), both kernels raise
        SeriesRangeError, without a floating-point warning."""
        tau = self.TAU
        tm = TorusModulus(tau)
        z, u = 0.3 + 2.2 * tau, -0.2 - 0.45 * tau
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SeriesRangeError) as array:
                lame_array([0.1, z], [0.2, u], tm)
            with pytest.raises(SeriesRangeError) as scalar:
                lame_x(u, z, tm)
        assert str(array.value) == str(scalar.value) == (
            f"x(u, z) at tau = {tau} leaves the double range at u = "
            f"{complex(u)}, z = {complex(z)}")


class TestSeriesSums:
    """The array sums: the first harmonic from real libm functions, the
    others from the three-term recurrence."""

    #: The worst relative error per row (theta1 .. theta1''') allowed
    #: against the exact sum of the same table terms: about twice the worst
    #: of the sums by complex sin and cos of every harmonic on these
    #: points, 4.2e-16, 7.3e-16, 4.6e-16 and 1.2e-15.
    BOUNDS = (1e-15, 1.5e-15, 1e-15, 2.5e-15)

    @staticmethod
    def _points(tau_r):
        """Cell points at tau' clear of the origin, whose cosine rows have
        no exact zero, and points at |v| = 4e-6, 1e-4 and 5e-3 around it."""
        steps = (-0.45, -0.3, -0.15, 0.0, 0.15, 0.3, 0.45)
        cell = [a + b * tau_r for a in steps for b in steps if a or b]
        small = [r * cmath.exp(1j * phi) for r in (4e-6, 1e-4, 5e-3)
                 for phi in np.linspace(0.0, 2.0 * math.pi, 12,
                                        endpoint=False)]
        return np.array(cell + small)

    @pytest.mark.parametrize("tau", [1j, 0.1 + 1j, 0.45 + 0.03j,
                                     0.3 + 0.8j])
    def test_against_mpmath(self, tau):
        # each row against a 40-digit sum of the table's own K terms at
        # tau' (0.45+0.03i is reduced, with three terms), so only the
        # double-precision summation is measured; relative error, which
        # near v = 0 catches a sinh that loses its digits
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        tab = _table(TorusModulus(tau))
        w = self._points(tab.tau_r)
        got = _series_sums(w, tab, 4)
        for d in range(4):
            f = mp.sin if d % 2 == 0 else mp.cos
            exact = np.array([complex(mp.fsum(
                mp.mpc(terms[1 + d]) * f((2 * k + 1) * mp.pi * mp.mpc(v))
                for k, terms in enumerate(tab.terms))) for v in w])
            err = np.abs(got[d] - exact) / np.abs(exact)
            assert err.max() <= self.BOUNDS[d], (d, w[err.argmax()])

    @pytest.mark.parametrize("tau", [0.1 + 1j, 1.6j, 3j])
    def test_overflow_bound(self, tau):
        """At K >= 2 terms, points just inside |Im v| = _LOG_MAX / ((2K-1)
        pi) come back finite without a floating-point warning; points just
        past it raise the scalar path's SeriesRangeError, in array order."""
        tab = _table(TorusModulus(tau))
        k = len(tab.terms)
        assert k == {0.1 + 1j: 4, 1.6j: 3, 3j: 2}[tau]
        edge = math.log(sys.float_info.max) / ((2 * k - 1) * math.pi)
        inside = np.array([0.3 + edge * (1 - 1e-12) * 1j,
                           -0.2 - edge * (1 - 1e-12) * 1j, 0.5])
        past = edge * (1 + 1e-12)
        # 1 / ((2K-1) pi) further out, cmath.sin overflows in the scalar
        # loop as well
        far = edge + 1.0 / ((2 * k - 1) * math.pi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rows in (1, 2, 3, 4):
                assert np.isfinite(_series_sums(inside, tab, rows)).all()
            for w in (0.3 + past * 1j, 0.3 - past * 1j):
                with pytest.raises(SeriesRangeError) as info:
                    _series_sums(np.array([0.1, w, 0.2 + far * 1j]), tab, 4)
                assert str(info.value) == (
                    f"theta1 series overflows at the reduced point w = {w}")
            with pytest.raises(SeriesRangeError) as scalar:
                _theta_series_at(0.2 + far * 1j, tab)
            with pytest.raises(SeriesRangeError) as array:
                _series_sums(np.array([0.1, 0.2 + far * 1j]), tab, 1)
        assert str(array.value) == str(scalar.value)

    def test_one_term_forms_no_t(self):
        """At one term (tau' = 333i from tau = 0.003i) 4 cos^2 x of a
        reduced point would overflow: every row stays finite, without a
        floating-point warning, and matches the scalar loop."""
        tab = _table(TorusModulus(0.003j))
        assert len(tab.terms) == 1
        half = 0.49 * tab.tau_r.imag
        w = np.array([0.3 + half * 1j, -0.1 - half * 1j, 0.2 + 0.1j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _series_sums(w, tab, 4)
        for i, v in enumerate(w):
            expect = _theta_series_at(complex(v), tab)
            for d in range(4):
                assert abs(got[d, i] - expect[d]) <= 1e-15 * abs(expect[d])

    @pytest.mark.parametrize("tau", [1j, 0.003j])
    def test_empty(self, tau):
        tab = _table(TorusModulus(tau))
        for rows in (1, 2, 3, 4):
            assert _series_sums(np.array([], dtype=complex), tab,
                                rows).shape == (rows, 0)


class TestTheta1Product:
    def test_zero_at_origin(self):
        assert abs(theta1_product(0, TM_I)) < 1e-12

    def test_matches_series(self):
        z, tau = 0.13 + 0.07j, 0.3 + 0.9j
        tm = TorusModulus(tau)
        assert abs(theta1_product(z, tm) - theta1(z, tm)) < 1e-10

    def test_antiperiodicity(self):
        tm = TorusModulus(2j)
        assert abs(theta1_product(1.4, tm) + theta1_product(0.4, tm)) < 1e-12

    def test_accuracy_at_tiny_tau(self):
        # at tau' = 1e4 i the product has one factor; theta1 on the ridge
        # of TestTheta1.test_accuracy_at_tiny_tau, against the
        # Poisson-summed series in 40-digit mpmath
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        tm = TorusModulus(1e-4j)
        for z in (0.01 + 0.49j, 0.005 + 0.495j, -0.998 + 0.502j,
                  -0.01 + 0.51j):
            want = complex(theta1_poisson(z, 1e-4j, 1)[0])
            assert abs(theta1_product(z, tm) - want) <= 1e-10 * abs(want)

    def test_matches_series_at_random_points(self):
        rng = SplitMix64(5)
        for _ in range(20):
            tau = rng.tau()
            z = rng.cell_point(tau)
            tm = TorusModulus(tau)
            a, b = theta1(z, tm), theta1_product(z, tm)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_overflow_raises(self):
        # at tau = 0.003i the point reduces to Im v = 149.6 at tau' ~ 333i,
        # where the series still sums but cos(2 pi (v + 1/2)) of the
        # product leaves the double range
        tm = TorusModulus(0.003j)
        z = -1.4488323930057172 + 0.0032617019776511763j
        assert abs(theta1(z, tm) - (1.1181 - 0.4076j)) < 1e-4
        with pytest.raises(SeriesRangeError, match="overflows"):
            theta1_product(z, tm)


class TestTheta1Derivatives:
    def test_dz_even(self):
        assert abs(theta1_dz(-0.2, TM_I) - theta1_dz(0.2, TM_I)) < 1e-13

    def test_dz_at_zero_matches_product_limit(self):
        # 2 pi nu^{1/4} prod (1 - nu^2m)(1 - 2 nu^2m + nu^4m)
        nu = TM_I.nome
        prod = 2 * math.pi * nu**0.25
        for m in range(1, 60):
            prod *= (1 - nu ** (2 * m)) * (1 - 2 * nu ** (2 * m)
                                           + nu ** (4 * m))
        assert abs(theta1_dz(0, TM_I) - prod) < 1e-13

    def test_dz_reference_fd(self):
        tm = TorusModulus(0.7j)
        got = theta1_dz(0.3 + 0.1j, tm)
        # frozen from the 6-point FD + Richardson oracle
        expected = 2.4253384787246093 - 0.89171800983892657j
        assert abs(got - expected) < 1e-10
        assert abs(fd6_richardson(lambda w: theta1(w, tm), 0.3 + 0.1j)
                   - got) < 1e-10

    def test_d3z_real_for_imaginary_tau(self):
        v = theta1_d3z_at_0(TorusModulus(0.9j))
        assert abs(v.imag) < 1e-12 * abs(v)

    def test_d3z_reference_fd(self):
        tm = TorusModulus(0.8j)
        got = theta1_d3z_at_0(tm)
        assert abs(fd_third_at_0(lambda w: theta1(w, tm)) - got) < 1e-4
        # frozen FD value
        assert abs(got - (-27.22320489846434)) < 1e-4

    def test_rho_small_z_expansion_coefficient(self):
        # rho(z) - 1/z ~ (theta1'''(0)/(3 theta1'(0))) z
        z = 1e-3
        c = theta1_d3z_at_0(TM_I) / (3 * theta1_dz(0, TM_I))
        assert abs((rho(z, TM_I) - 1 / z) - c * z) < 1e-6


class TestRho:
    def test_odd(self):
        z = 0.25 + 0.1j
        assert abs(rho(-z, TM_I) + rho(z, TM_I)) < 1e-12

    def test_additive_quasi_periodicity(self):
        tm = TorusModulus(0.9j)
        assert abs(rho(0.3 + 0.9j, tm) - rho(0.3, tm) + TWO_PI_I) < 1e-11

    def test_a_periodicity(self):
        assert abs(rho(0.3 + 1, TM_I) - rho(0.3, TM_I)) < 1e-12

    def test_simple_pole(self):
        z = 1e-4
        assert abs(z * rho(z, TM_I) - 1) < 1e-6

    def test_pole_guard(self):
        with pytest.raises(PoleProximityError):
            rho(1 + 1j + 1e-9, TM_I)


class TestWp:
    def test_even(self):
        z = 0.31 + 0.12j
        assert abs(wp(-z, TM_I) - wp(z, TM_I)) < 1e-12

    def test_double_periodicity(self):
        tau = 0.4 + 1.1j
        tm = TorusModulus(tau)
        z = 0.2 + 0.3j
        assert abs(wp(z + 1, tm) - wp(z, tm)) < 1e-12
        assert abs(wp(z + tau, tm) - wp(z, tm)) < 1e-12

    def test_reference_against_lattice_oracle(self):
        tm = TorusModulus(0.5 + 0.8j)
        got = wp(0.37 + 0.21j, tm)
        # frozen from the Richardson-extrapolated lattice sum
        expected = 1.9764075483841423 - 4.1571666342311246j
        assert abs(got - expected) < 1e-10

    def test_leading_pole(self):
        z = 1e-3
        assert abs(z * z * wp(z, TM_I) - 1) < 1e-5

    def test_oracle_agreement(self):
        rng = SplitMix64(7)
        for _ in range(8):
            z = rng.cell_point(1j)
            assert abs(wp(z, TM_I) - wp_lattice_oracle(z, TM_I)) < 1e-8

    def test_oracle_evenness(self):
        z = 0.23 + 0.31j
        a = wp_lattice_oracle(z, TM_I)
        b = wp_lattice_oracle(-z, TM_I)
        assert abs(a - b) < 1e-12 * abs(a)

    def test_oracle_leading_pole(self):
        z = 1e-3
        assert abs(z * z * wp_lattice_oracle(z, TM_I) - 1) < 1e-5

    def test_oracle_far_from_real_axis(self):
        # rows with |Im| beyond ~226 overflow sin; they must add 0, not nan
        tm = TorusModulus(300j)
        for z in (0.3, 0.3 + 100j, 0.1 - 140j):
            assert abs(wp_lattice_oracle(z, tm) - wp(z, tm)) < 1e-13


class TestWpDz:
    def test_odd(self):
        assert abs(wp_dz(-0.27, TM_I) + wp_dz(0.27, TM_I)) < 1e-11

    def test_landin(self):
        tau = 1.4j
        z = 0.23 + 0.11j
        lhs = wp_dz(z, TorusModulus(tau / 2))
        tm = TorusModulus(tau)
        rhs = wp_dz(z, tm) + wp_dz(z + tau / 2, tm)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_fd_consistency(self):
        rng = SplitMix64(13)
        for _ in range(10):
            tau = rng.tau()
            tm = TorusModulus(tau)
            z = rng.cell_point(tau)
            fd = fd_central(lambda w: wp(w, tm), z, 1e-5)
            assert abs(wp_dz(z, tm) - fd) < 1e-6 * max(1.0, abs(fd))

    @pytest.mark.parametrize("tau", [0.1 + 1j, 0.45 + 0.03j, 1j])
    def test_one_law_with_rho_d2z(self, tau):
        """wp' = -rho'' bit for bit, the sign of every zero part included:
        at tau = i a real z gives real values, whose zero imaginary parts
        a negated rho'' law would flip."""
        tm = TorusModulus(tau)
        tab = _table(tm)
        height = 0.0 if tau == 1j else 0.07j * tau.imag
        for z in (0.05 + (0.1 + height) * k for k in range(9)):
            v, _, n, zw = _reduce_checked(z, tab, "z")
            rho_d2z, = _rho_ratios(_theta_series_at(v, tab), n, zw, tab, (2,))
            got, want = wp_dz(z, tm), -rho_d2z
            assert (np.array([got]).view(np.uint64)
                    == np.array([want]).view(np.uint64)).all(), z


class TestWeierstrassCubic:
    """wp and wp_dz jointly satisfy wp'^2 = 4 wp^3 - g2 wp - g3 with the
    invariants computed by independent Eisenstein lattice sums."""

    @staticmethod
    def _eisenstein(tau, power, N):
        import numpy as np
        rng = np.arange(-N, N + 1)
        m, n = np.meshgrid(rng, rng, indexing="ij")
        lam = m + n * tau
        lam = lam[(m != 0) | (n != 0)]
        return complex(np.sum(lam ** -float(power)))

    @classmethod
    def _eisenstein_rich(cls, tau, power, N=60):
        import numpy as np
        radii = [N, 2 * N, 4 * N, 8 * N]
        vals = np.array([cls._eisenstein(tau, power, r) for r in radii])
        mat = np.array([[1.0, r**-2.0, r**-3.0, r**-4.0] for r in radii],
                       dtype=complex)
        return complex(np.linalg.solve(mat, vals)[0])

    @pytest.mark.parametrize("tau", [1j, 0.5 + 0.8j, 0.3 + 1.2j])
    def test_cubic_relation(self, tau):
        tm = TorusModulus(tau)
        g2 = 60.0 * self._eisenstein_rich(tau, 4)
        g3 = 140.0 * self._eisenstein_rich(tau, 6)
        rng = SplitMix64(99)
        for _ in range(6):
            z = rng.cell_point(tau)
            P, Pp = wp(z, tm), wp_dz(z, tm)
            res = Pp * Pp - (4 * P**3 - g2 * P - g3)
            assert abs(res) <= 1e-10 * max(1.0, abs(Pp * Pp))

    def test_lemniscatic_invariants(self):
        # square lattice: g3 vanishes and g2 is the classical constant
        g2 = 60.0 * self._eisenstein_rich(1j, 4)
        g3 = 140.0 * self._eisenstein_rich(1j, 6)
        assert abs(g3) < 1e-10
        assert abs(g2 - 189.07272012923385) < 1e-9


class TestGeneralLattice:
    def test_homogeneity_wp(self):
        j = 1.7 - 0.2j
        lhs = wp_general(0.21, GeneralLattice(1, 1j))
        rhs = j**2 * wp_general(j * 0.21, GeneralLattice(j, 1j * j))
        assert abs(lhs - rhs) <= 1e-9 * abs(lhs)

    def test_homogeneity_wp_dz(self):
        j = 1.7 - 0.2j
        lhs = wp_dz_general(0.21, GeneralLattice(1, 1j))
        rhs = j**3 * wp_dz_general(j * 0.21, GeneralLattice(j, 1j * j))
        assert abs(lhs - rhs) <= 1e-9 * abs(lhs)

    def test_identity_scaling(self):
        assert wp_general(0.21, GeneralLattice(1, 1j)) == wp(0.21, TM_I)

    def test_orientation_normalization(self):
        # swapped generators describe the same lattice
        a = wp_general(0.2 + 0.1j, GeneralLattice(1, 1j))
        b = wp_general(0.2 + 0.1j, GeneralLattice(1j, 1))
        assert abs(a - b) < 1e-12 * abs(a)

    def test_degenerate_lattice(self):
        with pytest.raises(DegenerateLatticeError):
            wp_general(0.2, GeneralLattice(1.0, 2.0))

    def test_against_direct_general_sum(self):
        from _oracles import wp_direct_general
        w1, w2 = 1.3 - 0.1j, 0.4 + 1.2j
        z = 0.31 + 0.22j
        direct = wp_direct_general(z, w1, w2, radius=200)
        assert abs(wp_general(z, GeneralLattice(w1, w2)) - direct) < 5e-3


class TestLame:
    def test_x_periodic_in_z_a_cycle(self):
        u, z = 0.3, 0.2 + 0.1j
        assert abs(lame_x(u, z + 1, TM_I) - lame_x(u, z, TM_I)) < 1e-12

    def test_x_quasi_periodic_in_z_b_cycle(self):
        u, z = 0.3, 0.2 + 0.1j
        lhs = lame_x(u, z + 1j, TM_I)
        rhs = cmath.exp(TWO_PI_I * u) * lame_x(u, z, TM_I)
        assert abs(lhs - rhs) / abs(rhs) < 1e-10

    def test_x_quasi_periodic_in_u(self):
        u, z = 0.31 + 0.07j, 0.44
        x0 = lame_x(u, z, TM_I)
        assert abs(lame_x(u + 1, z, TM_I) - x0) / abs(x0) < 1e-10
        lhs = lame_x(u + 1j, z, TM_I)
        rhs = cmath.exp(TWO_PI_I * z) * x0
        assert abs(lhs - rhs) / abs(rhs) < 1e-10

    def test_x_pole_in_z(self):
        z = 1e-4
        assert abs(z * lame_x(0.3, z, TM_I) + 1) < 1e-3

    def test_x_expansion_in_u(self):
        u, z = 1e-4, 0.44
        assert abs(u * lame_x(u, z, TM_I) - 1) < 1e-3
        assert abs(lame_x(u, z, TM_I) - 1 / u + rho(z, TM_I)) < 1e-3

    def test_y_is_u_derivative(self):
        u, z = 0.31 + 0.07j, 0.44
        fd = fd_central(lambda w: lame_x(w, z, TM_I), u, 1e-6)
        assert abs(lame_y(u, z, TM_I) - fd) < 1e-6

    def test_y_periodic_in_z_a_cycle(self):
        u, z = 0.3, 0.2 + 0.1j
        assert abs(lame_y(u, z + 1, TM_I) - lame_y(u, z, TM_I)) < 1e-12

    def test_wronskian_identity(self):
        tm = TorusModulus(0.8j)
        u, z = 0.29, 0.51
        lhs = (lame_x(u, z, tm) * lame_y(-u, z, tm)
               - lame_y(u, z, tm) * lame_x(-u, z, tm))
        assert abs(lhs - wp_dz(u, tm)) <= 1e-10 * max(1.0, abs(lhs))

    def test_x_dz_fd(self):
        u, z = 0.31 + 0.05j, 0.44 - 0.03j
        fd = fd_central(lambda w: lame_x(u, w, TM_I), z, 1e-6)
        assert abs(lame_x_dz(u, z, TM_I) - fd) < 1e-6

    def test_x_dtau_fd(self):
        u, z = 0.31, 0.44
        fd = (lame_x(u, z, TorusModulus(1j + 1e-5))
              - lame_x(u, z, TorusModulus(1j - 1e-5))) / 2e-5
        assert abs(lame_x_dtau(u, z, TM_I) - fd) < 1e-7

    def test_pole_guard_names_variable(self):
        with pytest.raises(PoleProximityError) as err:
            lame_x(1 + 1j, 0.4, TM_I)
        assert err.value.variable == "u"
        with pytest.raises(PoleProximityError) as err:
            lame_y(0.3, 0.3 + 1e-9, TM_I)  # z - u on the lattice
        assert "z - u" in err.value.variable


class TestReduceChecked:
    @pytest.mark.parametrize("tau", [1j, 0.45 + 0.03j])
    def test_exempt_point(self, tau):
        """A None name exempts the point from the pole check, as in
        `_reduce_checked_array`: a lattice point reduces, to the same
        values the reduction gives, and with a name it raises."""
        tab = _table(TorusModulus(tau))
        z = 2 - 3 * tau
        v, m, n, zw = _reduce_checked(z, tab, None)
        assert zw == z * tab.w_inv
        assert (v, m, n) == reduce_to_cell(zw, tab.tau_r)
        assert abs(v) < 1e-12
        with pytest.raises(PoleProximityError, match="^u = "):
            _reduce_checked(z, tab, "u")


class TestPoleCheckRule:
    """The pole checks clear a reduced point v at tau' on |Im v| or the
    distance of Re v from Z (module docstring) and measure every other
    point: both paths raise exactly where the brute-force distance is
    below the radius, and give the measured distance."""

    TAUS = [0.005 + 0.09j, 0.01 + 0.08j, 1e-3j, 0.3 + 0.002j, 17.3 + 0.8j,
            12.3 + 0.8j, 1.45 + 0.8j, -1.2 + 2.5j, 1j]

    @staticmethod
    def points(tau, seed):
        """Points 0.1 to 10 radii from the lattice points M + N tau,
        |M|, |N| <= 5, points w (k + x) on the real axis of the reduced
        cell (Im v = 0), 40 with x 0.1 to 10 radii from 0 and 20 with x in
        [-1/2, 1/2], the lattice points themselves and 200 cell points."""
        rng = np.random.default_rng(seed)
        m, n = np.mgrid[-5:6, -5:6].reshape(2, -1)
        lam = m + n * tau
        r = POLE_EXCLUSION_RADIUS * 10 ** rng.uniform(-1, 1, (2, lam.size))
        near = lam + r * np.exp(2j * np.pi * rng.uniform(size=r.shape))
        w = _table(TorusModulus(tau)).w
        x = np.concatenate([
            POLE_EXCLUSION_RADIUS / abs(w) * 10 ** rng.uniform(-1, 1, 40)
            * rng.choice([-1, 1], 40), rng.uniform(-0.5, 0.5, 20)])
        axis = w * (rng.integers(-5, 6, x.size) + x)
        return np.concatenate([near.ravel(), axis, lam,
                               _lattice_grid_points(tau, rng, 200)])

    @pytest.mark.parametrize("tau", TAUS)
    def test_raises_exactly_within_the_radius(self, tau):
        tm = TorusModulus(tau)
        tab = _table(tm)
        z = self.points(tau, 41)
        want = np.array([oracle.lattice_distance(p, tau) for p in z])
        array_d = _lattice_distance_array(z, tau)
        assert np.all(np.abs(array_d - want) <= 1e-12)
        inside = want < POLE_EXCLUSION_RADIUS
        assert 0 < inside.sum() < z.size
        for i, p in enumerate(z):
            p = complex(p)
            for path, d in (
                    (lambda: _reduce_checked(p, tab, "z"),
                     lattice_distance(p, tau)),
                    (lambda: _reduce_checked_array(z[i:i + 1], tm, str),
                     array_d[i])):
                if inside[i]:
                    with pytest.raises(PoleProximityError) as info:
                        path()
                    assert info.value.distance == d
                else:
                    path()
        # the whole array raises at its first point inside, with the
        # distance measured there
        with pytest.raises(PoleProximityError) as info:
            _reduce_checked_array(z, tm, str)
        first = np.flatnonzero(inside)[0]
        assert info.value.variable == str(first)
        assert info.value.distance == array_d[first]
        _reduce_checked_array(z[~inside], tm, str)

    def test_tail_points_measure_no_distance(self, monkeypatch):
        """At the tail moduli of the kernels benchmark (Im tau 0.08 to
        0.095), whose reduced tau' is tall, kernel calls at cell points 10
        radii or more from the lattice clear every pole check on the
        point's coordinates."""
        calls = []
        for name in ("lattice_distance", "_lattice_distance_array"):
            fn = getattr(elliptic, name)
            monkeypatch.setattr(elliptic, name,
                                lambda *a, fn=fn: calls.append(a) or fn(*a))
        rng = np.random.default_rng(42)
        for im in (0.08, 0.083, 0.086, 0.089, 0.092, 0.095):
            tau = complex(rng.uniform(-0.01, 0.01), im)
            tm = TorusModulus(tau)
            u, z = _lattice_grid_points(tau, rng, 80).reshape(2, 40)
            keep = np.array([min(oracle.lattice_distance(p, tau)
                                 for p in (a, b, b - a))
                             >= 10 * POLE_EXCLUSION_RADIUS
                             for a, b in zip(u, z)])
            assert keep.sum() >= 35
            for a, b in zip(u[keep], z[keep]):
                a, b = complex(a), complex(b)
                for fn in (rho, wp, wp_dz):
                    fn(b, tm)
                for fn in (lame_x, lame_y, lame_x_dz, lame_x_dtau):
                    fn(a, b, tm)
            lame_array(z[keep], u[keep], tm, True)
        assert calls == []


class TestLatticeDistance:
    def test_at_lattice_point(self):
        assert lattice_distance(2 + 3j, 1j) < 1e-14

    def test_generic(self):
        assert abs(lattice_distance(0.5, 1j) - 0.5) < 1e-14

    def test_near_far_corner(self):
        d = lattice_distance(0.999 + 0.999j, 1j)
        assert d == pytest.approx(abs(0.999 + 0.999j - (1 + 1j)), rel=1e-10)


def _lattice_grid_points(tau, seed, size):
    """z = x + y tau, x and y uniform in [-1.5, 1.5]: about three cells of
    the basis (1, tau) either way."""
    x, y = np.random.default_rng(seed).uniform(-1.5, 1.5, (2, size))
    return x + y * tau


class TestLatticeGeometry:
    """Every distance to the lattice and the shortest period agree with a
    brute-force search (`_oracles`), at moduli where the nine candidates
    of the basis (1, tau) miss the nearest lattice point."""

    @pytest.mark.parametrize("tau", oracle.LATTICE_TAUS)
    def test_point_distances(self, tau):
        z = _lattice_grid_points(tau, 31, 300)
        want = np.array([oracle.lattice_distance(p, tau) for p in z])
        for got in (np.array([lattice_distance(p, tau) for p in z]),
                    _lattice_distance_array(z, tau)):
            assert np.max(np.abs(got - want) / want) <= 1e-12

    @pytest.mark.parametrize("tau", oracle.LATTICE_TAUS)
    def test_segment_distances(self, tau):
        rng = np.random.default_rng(32)
        for _ in range(15):
            w = _lattice_grid_points(tau, rng, 5)
            want = [oracle.segment_lattice_distance(a, b, tau)
                    for a, b in zip(w[:-1], w[1:])]
            got = _segment_lattice_distances(w[:-1], w[1:], tau)
            assert np.max(np.abs(got - want) / want) <= 1e-12

    def test_nine_suffice(self):
        """Where `_nine_suffice` says so, the nine candidates of the basis
        (1, tau) find the nearest lattice point: seeded moduli on both
        sides of its test, Im tau from 0.01 to 1.6, half of them with
        |Re tau| below 1.2 Im^2 tau (nearly rectangular cells)."""
        rng = np.random.default_rng(34)
        kinds = set()
        for k in range(80):
            im = 10 ** rng.uniform(-2.0, 0.2)
            tau = complex(rng.uniform(-1.2, 1.2) * (im * im if k % 2
                                                     else 1.0), im)
            kinds.add(_nine_suffice(tau))
            if _nine_suffice(tau):
                for p in _lattice_grid_points(tau, rng, 20):
                    assert _reduced_distance(reduce_to_cell(p, tau)[0],
                                             tau) == pytest.approx(
                        oracle.lattice_distance(p, tau), rel=1e-12)
        assert kinds == {True, False}

    @pytest.mark.parametrize("tau", oracle.LATTICE_TAUS)
    def test_shortest_period(self, tau):
        assert _shortest_period(tau) == pytest.approx(
            oracle.shortest_period(tau), rel=1e-12)

    @pytest.mark.parametrize("tau", [0.3 + 0j, 0.3 - 1j, complex(math.nan, 1),
                                     complex(0.2, math.inf), 1e-320j])
    def test_off_the_half_plane_raises(self, tau):
        """A real tau made `_modular_image` loop forever; now it, the
        basis and the shortest period raise UsageError, as does a tau whose
        S steps leave the double range."""
        for fn in (_modular_image, _lattice_basis, _shortest_period):
            with pytest.raises(UsageError, match=r"^tau = "):
                fn(tau)

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(st.one_of(
        st.complex_numbers(allow_nan=True, allow_infinity=True),
        st.builds(complex, st.floats(-1e6, 1e6),
                  st.floats(0.0, 1e-3) | st.floats(1e-300, 1e-280))))
    def test_lattice_helpers_end_or_raise(self, tau):
        """For any tau the lattice helpers end: with UsageError, or with a
        reduced modulus in the upper half-plane and a finite shortest
        period no longer than |1| and |tau| (every complex number,
        including NaN and infinite parts and heights down to 1e-300, where
        the float steps of the reduction lose the image)."""
        try:
            gamma, w, tau_r, _ = _lattice_basis(tau)
        except UsageError:
            with pytest.raises(UsageError):
                _shortest_period(tau)
            return
        assert tau.imag > 0 and tau_r.imag > 0 and w != 0
        shortest = _shortest_period(tau)
        assert 0.0 < shortest <= 1.0 + 1e-12  # 1 is a period
        assert abs(tau_r.real) <= 0.5 + 1e-12 and abs(tau_r) >= 1 - 1e-12

    def test_skewed_lattice(self):
        # the nearest lattice point of 8.15+0.4i, 8, is not among the nine
        # candidates i + j tau around its cell at 17.3+0.8i, which read 7.16
        tau = 17.3 + 0.8j
        assert lattice_distance(8.15 + 0.4j, tau) == pytest.approx(
            oracle.lattice_distance(8.15 + 0.4j, tau), rel=1e-12)
        assert lattice_distance(8.15 + 0.4j, tau) < 0.43

    def test_path_through_a_lattice_point(self):
        # the straight segment from 4-5.1i to 4+4.9i at 17.3+0.8i passes
        # through the lattice point 4
        d = _segment_lattice_distances(np.array([4.0 - 5.1j]),
                                       np.array([4.0 + 4.9j]), 17.3 + 0.8j)
        assert d[0] < 1e-14

    def test_sample_budget(self):
        # a segment 100 long at a shortest period of 1e-3 takes 400,001
        # samples
        with pytest.raises(PathError, match="more than 65536"):
            _segment_lattice_distances(np.array([0j]), np.array([100.0]),
                                       1e-3j)

    def test_same_bits_in_the_reduced_basis(self):
        """A tau already in the fundamental domain is its own basis: the
        distances are those of the nine candidates i + j tau."""
        tau = 0.3 + 1.1j
        z = _lattice_grid_points(tau, 33, 50)
        want = [min(abs(v - i - j * tau) for i, j in _NINE)
                for v in (reduce_to_cell(p, tau)[0] for p in z)]
        assert [lattice_distance(p, tau) for p in z] == want


class TestNonFinitePoints:
    """A NaN or infinite point raises one EllcmError on the scalar and the
    array path, never a bare ValueError or a NaN."""

    @pytest.mark.parametrize("call", [
        lambda: wp(math.nan, TM_I),
        lambda: wp(math.inf, TM_I),
        lambda: wp(complex(0.1, math.nan), TorusModulus(0.45 + 0.03j)),
        lambda: lame_x(0.3, math.nan, TM_I),
        lambda: theta1(math.nan, TM_I),
        lambda: lattice_distance(math.nan, 17.3 + 0.8j),
        lambda: reduce_to_cell(math.inf, 1j),
        lambda: lame_array([math.nan], [0.3], TM_I),
        lambda: lame_array([0.2], [0.3, math.nan], TM_I, True),
        lambda: _lattice_distance_array(np.array([0.2, math.nan]), 1j),
    ], ids=["wp-nan", "wp-inf", "wp-reduced", "lame_x", "theta1",
            "distance", "reduce", "lame_array", "lame_array-u", "array"])
    def test_raises(self, call):
        with pytest.raises(EllcmError, match="not finite") as info:
            call()
        assert not isinstance(info.value, ValueError)


class TestSeriesTable:
    """The fixed-length series: one table per modulus."""

    def test_table_takes_no_part_in_equality(self):
        a, b = TorusModulus(0.3 + 0.9j), TorusModulus(0.3 + 0.9j)
        wp(0.2, a)
        assert a == b and hash(a) == hash(b)

    @pytest.mark.parametrize("tau", [0.03j, 0.08j + 0.01, 0.3 + 0.5j, 1j,
                                     1.4 + 1.6j])
    def test_constants_against_mpmath(self, tau):
        # the product and Lambert forms keep theta1'(0), theta1'''(0) and
        # the wp constant accurate where the alternating series at 0 cancel
        mp = pytest.importorskip("mpmath")
        from ellcm.elliptic import _table
        mp.mp.dps = 40
        q = mp.exp(1j * mp.pi * mp.mpc(tau))
        branch = mp.exp(1j * mp.pi * mp.mpc(tau) / 4) / mp.power(q, 0.25)
        d1 = complex(branch * mp.pi * mp.jtheta(1, 0, q, 1))
        d3 = complex(branch * mp.pi ** 3 * mp.jtheta(1, 0, q, 3))
        tm = TorusModulus(tau)
        assert abs(theta1_dz_at_0(tm) - d1) < 1e-13 * abs(d1)
        assert abs(theta1_d3z_at_0(tm) - d3) < 1e-13 * abs(d3)
        c = d3 / (3 * d1)
        assert abs(weierstrass_constant(tm) - c) < 1e-13 * abs(c)

    @pytest.mark.parametrize("tau", [0.3j, 1j])
    def test_constants_from_one_build(self, tau):
        # c, theta1'(0) and theta1'''(0) at tau, reduced (0.3i) or not (i),
        # all read the table's one record: replaced by markers, it is what
        # every reader returns, and nothing rebuilds it
        from ellcm.elliptic import _constants, _table
        tm = TorusModulus(tau)
        c, dz0, w = weierstrass_constant(tm), theta1_dz_at_0(tm), wp(0.3, tm)
        tab = _table(tm)
        assert _constants(tab)[1:] == (c, dz0)
        assert theta1_d3z_at_0(tm) == 3.0 * c * dz0
        tab.consts = (5.0, 7.0, 11.0)
        assert weierstrass_constant(tm) == 7.0
        assert theta1_dz_at_0(tm) == 11.0
        assert theta1_d3z_at_0(tm) == 231.0
        assert wp(0.3, tm) - 7.0 == pytest.approx(w - c, rel=1e-14)

    @pytest.mark.parametrize("tau", [0.08j, 0.5 + 0.3j, 1j, -1.4 + 1.6j,
                                     0.77 + 0.8j])
    def test_a_priori_tail_bound(self, tau):
        # the table's K terms against 30-digit mpmath at the table's own
        # modulus tau' (the reduced one at 0.08i and 0.5+0.3i), on the cell
        # boundary |Im w| = Im tau' / 2 where the bound is tight.  Summed
        # exactly, the K-term series misses jtheta by its tail, at most
        # REL_TOL times the leading-term envelope E_d(w); the
        # double-precision sum adds only rounding, a few ulp of the sum of
        # the term magnitudes.  The coefficients carry the factor
        # scale = e^lift (1 here)
        mp = pytest.importorskip("mpmath")
        from ellcm.elliptic import _table, _theta_series_at
        mp.mp.dps = 30
        tab = _table(TorusModulus(tau))
        assert len(tab.terms) <= 4
        scale = mp.exp(tab.lift)
        tau = tab.tau_r
        tau_mp = mp.mpc(tau)
        q_mp = mp.exp(1j * mp.pi * tau_mp)
        # mpmath takes the principal q^(1/4); ellcm uses exp(i pi tau / 4)
        branch = scale * mp.exp(1j * mp.pi * tau_mp / 4) / mp.power(q_mp, 0.25)
        q = abs(tab.nome_r)
        for a in (-0.5, -0.2, 0.0, 0.35, 0.5):
            for b in (-0.5, 0.5):
                w = a + b * tau
                x = mp.pi * mp.mpc(w)
                envelope = (2 * q ** 0.25 * math.exp(math.pi * abs(w.imag))
                            * float(abs(scale)))
                for d, s in enumerate(_theta_series_at(w, tab)):
                    # d-th derivative of term k: sin^(d)(y) = sin(y + d pi/2)
                    terms = [2 * (-1) ** k * scale
                             * mp.exp(1j * mp.pi * tau_mp * (k + 0.5) ** 2)
                             * ((2 * k + 1) * mp.pi) ** d
                             * mp.sin((2 * k + 1) * x + d * mp.pi / 2)
                             for k in range(len(tab.terms))]
                    head = mp.fsum(terms)
                    full = branch * mp.pi ** d * mp.jtheta(1, x, q_mp, d)
                    tail = abs(complex(head - full))
                    assert tail <= 2e-14 * envelope * math.pi ** d
                    size = float(mp.fsum(abs(t) for t in terms))
                    assert abs(s - complex(head)) <= 1e-15 * size


    def test_overflow_raises(self):
        # at Im tau = 500 the reduced |Im w| reaches 250; sin(pi w) leaves
        # the double range past about 226
        tm = TorusModulus(500j)
        z = 0.3 + 220j
        assert abs(wp(z, tm) - wp_lattice_oracle(z, tm)) < 1e-13
        for fn in (wp, wp_dz, rho, theta1):
            with pytest.raises(SeriesRangeError, match="overflows"):
                fn(0.3 + 230j, tm)

    def test_underflow_raises(self):
        # 2 |nu|^(1/4) times the exclusion radius turns subnormal past
        # Im tau of about 885: the series ratios lose their digits (wp is
        # 0.2% off at 940i) and divide by zero past about 950
        tm = TorusModulus(880j)
        z = 0.3 + 0.1j
        assert abs(wp(z, tm) - wp_lattice_oracle(z, tm)) < 1e-12
        for tau in (940j, 1000j):
            with pytest.raises(SeriesRangeError, match="underflows"):
                wp(z, TorusModulus(tau))
        # S steps reach tau' = 1e4 i from tau = 1e-4 i, whose coefficients
        # are lifted to e^{-_LOG_MAX/2} (module docstring)
        assert abs(_table(TorusModulus(1e-4j)).terms[0][1]) == pytest.approx(
            2 * math.exp(-0.5 * math.log(sys.float_info.max)))


class TestKernelsAgainstMpmath:
    """All seven benchmarked kernels against a 30-digit mpmath reference at
    seeded points: 0.08 <= Im tau <= 1.6, |Re tau| <= 1.5, z outside the
    fundamental cell."""

    @staticmethod
    def _reference(tau, u, z):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        q = mp.exp(1j * mp.pi * mp.mpc(tau))
        # mpmath takes the principal q^(1/4); ellcm uses exp(i pi tau / 4)
        branch = mp.exp(1j * mp.pi * mp.mpc(tau) / 4) / mp.power(q, 0.25)

        def d(x, k):
            return mp.pi ** k * mp.jtheta(1, mp.pi * mp.mpc(x), q, k)

        t = [d(z, k) for k in range(4)]
        r, b, c = t[1] / t[0], t[2] / t[0], t[3] / t[0]
        zu = mp.mpc(z) - mp.mpc(u)
        x = d(zu, 0) * d(0, 1) / (t[0] * d(u, 0))
        return {
            "theta1": branch * t[0],
            "theta1_dz": branch * t[1],
            "rho": r,
            "wp": r * r - b + d(0, 3) / (3 * d(0, 1)),
            "wp_dz": 3 * r * b - c - 2 * r ** 3,
            "lame_x": x,
            "lame_y": -x * (d(u, 1) / d(u, 0) + d(zu, 1) / d(zu, 0)),
        }

    def test_seeded_points(self):
        kernels = {
            "theta1": lambda u, z, tm: theta1(z, tm),
            "theta1_dz": lambda u, z, tm: theta1_dz(z, tm),
            "rho": lambda u, z, tm: rho(z, tm),
            "wp": lambda u, z, tm: wp(z, tm),
            "wp_dz": lambda u, z, tm: wp_dz(z, tm),
            "lame_x": lambda u, z, tm: lame_x(u, z, tm),
            "lame_y": lambda u, z, tm: lame_y(u, z, tm),
        }
        rng = SplitMix64(2024)
        checked = 0
        for i in range(10):
            # Im tau stratified over [0.08, 1.6] so both ends are covered
            im = 0.08 + 1.52 * (i + rng.uniform()) / 10
            tau = complex(rng.uniform(-1.5, 1.5), im)
            tm = TorusModulus(tau)
            for _ in range(2):
                z = rng.cell_point(tau) + 1 + tau * int(rng.uniform(-2, 3))
                u = rng.cell_point(tau)
                if lattice_distance(z - u, tau) < 0.05:
                    continue
                ref = self._reference(tau, u, z)
                for name, fn in kernels.items():
                    got = fn(u, z, tm)
                    want = complex(ref[name])
                    err = abs(got - want) / max(1.0, abs(got), abs(want))
                    assert err < 1e-9, (name, tau, z, err)
                    checked += 1
        assert checked >= 100

    @pytest.mark.parametrize("tau, count", [
        (0.05j, 8), (0.02j, 8), (0.3 + 0.01j, 8), (0.45 + 0.03j, 8),
        # more points at large Re tau, where rounding of n tau would show
        (17.3 + 0.8j, 40)])
    def test_lattice_oracle(self, tau, count):
        # at small Im tau and large Re tau, in units of wp's natural scale
        # |pi/tau|^2; z inside and outside the cell
        scale = abs(math.pi / tau) ** 2
        tm = TorusModulus(tau)
        rng = SplitMix64(23)
        for k in range(count):
            z = rng.cell_point(tau) + (k % 8 - 3) * (1 + tau)
            want = complex(self._reference(tau, 0.25, z)["wp"])
            err = abs(wp_lattice_oracle(z, tm) - want) / scale
            assert err <= 1e-11, (tau, z, err)


class TestModularReduction:
    """The series summed at tau' = gamma tau, restored by the laws of the
    module docstring: every kernel against 40-digit mpmath (the
    Poisson-summed series below Im tau = 0.3, jtheta above), relative to
    its natural scale |pi/tau|^k where it has one."""

    TAUS = [0.02j, 0.01j, 0.003j, 0.45 + 0.03j, 17.3 + 0.8j]

    @staticmethod
    def points(tau, count=6):
        """(u, z) pairs: u in the cell, z in or out of it, z - u clear of
        the lattice by a tenth of its shortest period."""
        rng = SplitMix64(41)
        out = []
        clear = 0.1 * _shortest_period(tau)
        while len(out) < count:
            u = rng.cell_point(tau)
            z = rng.cell_point(tau) + (len(out) % 3 - 1) * (1 + tau)
            if lattice_distance(z - u, tau) > clear:
                out.append((u, z))
        return out

    @pytest.mark.parametrize("tau", TAUS)
    def test_kernels_against_mpmath(self, tau):
        pytest.importorskip("mpmath")
        tm = TorusModulus(tau)
        assert len(_table(tm).terms) <= 4
        scale = abs(math.pi / tau)
        d0 = theta1_mp(0.0, tau)
        wp_c = d0[3] / (3 * d0[1])
        us, zs = zip(*self.points(tau))
        x_all, *ratios = lame_array(zs, us, tm, True)
        for i, (u, z) in enumerate(zip(us, zs)):
            t = theta1_mp(z, tau)
            r, b, c = t[1] / t[0], t[2] / t[0], t[3] / t[0]
            tu, tzu = theta1_mp(u, tau, 2), theta1_mp(z - u, tau, 3)
            ru, rzu, bzu = tu[1] / tu[0], tzu[1] / tzu[0], tzu[2] / tzu[0]
            x = complex(tzu[0] * d0[1] / (t[0] * tu[0]))
            want = {
                theta1: (complex(t[0]), abs(complex(t[0]))),
                theta1_dz: (complex(t[1]), abs(complex(t[1]))),
                rho: (complex(r), scale),
                wp: (complex(r * r - b + wp_c), scale ** 2),
                wp_dz: (complex(3 * r * b - c - 2 * r ** 3), scale ** 3),
            }
            for fn, (value, size) in want.items():
                size = max(size, abs(value))
                assert abs(fn(z, tm) - value) <= 1e-12 * size, (fn, z)
            y = complex(-x * (ru + rzu))
            assert abs(lame_x(u, z, tm) - x) <= 1e-12 * abs(x)
            assert abs(lame_y(u, z, tm) - y) <= 1e-12 * (abs(y) + abs(x)
                                                         * scale)
            # lame_array: x, then rho, rho', rho'' at u, z - u and z
            assert abs(x_all[i, i] - x) <= 1e-12 * abs(x)
            (_, rho_zu, rho_z), (_, rho_dz_zu, _), (_, _, rho_d2z_z) = ratios
            assert abs(rho_z[i, 0] - complex(r)) <= 1e-12 * scale
            assert abs(rho_zu[i, i] - complex(rzu)) <= 1e-12 * scale
            rho_dz = complex(bzu - rzu * rzu)
            assert abs(rho_dz_zu[i, i] - rho_dz) <= 1e-12 * max(
                scale ** 2, abs(rho_dz))
            assert abs(rho_d2z_z[i, 0] + want[wp_dz][0]) <= 1e-12 * max(
                scale ** 3, abs(want[wp_dz][0]))
        assert abs(weierstrass_constant(tm) - complex(wp_c)) <= (
            1e-12 * scale ** 2)
        assert abs(theta1_dz_at_0(tm) - complex(d0[1])) <= 1e-12 * abs(
            complex(d0[1]))

    @pytest.mark.parametrize("im", [0.05, 0.02, 0.005])
    def test_wp_dz_at_small_tau(self, im):
        """wp' within 1e-10 of its scale |pi/tau|^3 over the whole cell,
        where the unreduced series lost up to every digit."""
        pytest.importorskip("mpmath")
        tau = complex(0.0, im)
        tm = TorusModulus(tau)
        rng = SplitMix64(7)
        for _ in range(12):
            z = rng.cell_point(tau, margin=0.0) - 0.5 - 0.5 * tau
            t = theta1_mp(z, tau)
            r, b, c = t[1] / t[0], t[2] / t[0], t[3] / t[0]
            want = complex(3 * r * b - c - 2 * r ** 3)
            assert abs(wp_dz(z, tm) - want) <= 1e-10 * abs(math.pi / tau) ** 3

    @pytest.mark.parametrize("tau", [123.456 + 0.003j,
                                     0.61803398875 + 1e-5j])
    def test_skewed_moduli(self, tau):
        """Where gamma has entries in the hundreds or thousands, c tau + d
        and a tau + b cancel to Im tau: they are rounded once, from exact
        integers, or tau' would carry an error that grows with every
        B-period of the reduced point (1.7e-8 at 123.456+0.003i).  wp
        against the theta-free lattice oracle, z up to two cells out."""
        tm = TorusModulus(tau)
        assert max(map(abs, _table(tm).gamma)) > 100
        rng = SplitMix64(17)
        for k in range(20):
            z = rng.cell_point(tau) + (k % 5 - 2) + (k % 3 - 1) * tau
            want = wp_lattice_oracle(z, tm)
            assert abs(wp(z, tm) - want) <= 1e-10 * max(1.0, abs(want))

    def test_identity_near_i(self):
        """gamma is the identity where the reduction saves no term: on
        Re tau in [-0.05, 0.05], Im tau in [0.95, 1.05], among others."""
        for re in np.linspace(-0.05, 0.05, 11):
            for im in np.linspace(0.95, 1.05, 11):
                tab = _table(TorusModulus(complex(re, im)))
                assert tab.gamma == (1, 0, 0, 1) and tab.w == 1
                assert len(tab.terms) == 4
        for tau in (0.5 + 0.8j, 17.3 + 0.8j, 2j, 880j):
            assert _table(TorusModulus(tau)).gamma == (1, 0, 0, 1)

    def test_gamma_by_im_tau_alone(self):
        """gamma by Im tau alone is the rule that reduces tau where its
        image in the fundamental domain needs fewer terms: on a seeded grid
        of moduli that spans the line Im tau = _TERMS_FROM[3], a third of
        them within 1e-9 of it."""
        def terms(im):  # K, and 5 for every K above 4
            return 1 + sum(im < t for t in _TERMS_FROM)

        line = _TERMS_FROM[3]
        rng = np.random.default_rng(15)
        ims = np.concatenate([rng.uniform(0.001, 3.0, 2000),
                              line + rng.uniform(-1e-9, 1e-9, 1000),
                              [line, math.nextafter(line, 0.0)]])
        for tau in rng.uniform(-20.0, 20.0, ims.size) + 1j * ims:
            tau = complex(tau)
            gamma, _ = _modular_image(tau)
            a, b, c, d = gamma
            if terms(tau.imag / abs(c * tau + d) ** 2) >= terms(tau.imag):
                gamma = (1, 0, 0, 1)
            assert _table(TorusModulus(tau)).gamma == gamma, tau

    @pytest.mark.parametrize("tau", [0.45 + 0.03j, 0.3 + 0.5j, 0.01 + 0.08j,
                                     -1.2 + 0.4j])
    def test_laws(self, tau):
        """(*) with an eighth root of unity, and the rho, wp, wp' and Lame
        laws, each against the kernels at tau' itself."""
        tm = TorusModulus(tau)
        tab = _table(tm)
        a, b, c, d = tab.gamma
        assert a * d - b * c == 1 and c != 0
        w = c * tau + d
        prime = TorusModulus((a * tau + b) / w)
        assert _table(prime).gamma == (1, 0, 0, 1)
        assert abs(prime.tau.real) <= 0.5 + 1e-12 and abs(prime.tau) >= 1.0
        # C sqrt(w) is an eighth root of unity
        big_c = theta1_dz_at_0(tm) * w / theta1_dz_at_0(prime)
        eps = 1.0 / (big_c * cmath.sqrt(w))
        assert abs(eps ** 8 - 1) < 1e-12
        assert abs(round(cmath.phase(eps) * 4 / math.pi) * math.pi / 4
                   - cmath.phase(eps)) < 1e-12
        u, z = 0.13 + 0.2 * tau, 0.37 + 0.71 * tau + 2
        scale = abs(math.pi / tau)
        pairs = [
            (theta1(z, tm), big_c * cmath.exp(-1j * math.pi * c * z * z / w)
             * theta1(z / w, prime), 0.0),
            (rho(z, tm), rho(z / w, prime) / w - TWO_PI_I * c * z / w, scale),
            (wp(z, tm), wp(z / w, prime) / w ** 2, scale ** 2),
            (wp_dz(z, tm), wp_dz(z / w, prime) / w ** 3, scale ** 3),
            (lame_x(u, z, tm), cmath.exp(TWO_PI_I * c * u * z / w) / w
             * lame_x(u / w, z / w, prime), 0.0),
        ]
        for got, law, size in pairs:
            assert abs(got - law) <= 1e-12 * max(size, abs(got))

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.floats(-0.5, 0.5), st.floats(0.5, 2.0),
           st.lists(st.sampled_from(["S", 1, -1, 2, -2]), min_size=1,
                    max_size=4),
           st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    def test_wp_homogeneous_under_random_words(self, re_tau, im_tau, word,
                                               x, y):
        """wp(z|tau) = wp(z/w|gamma tau)/w^2 and wp'(z|tau) =
        wp'(z/w|gamma tau)/w^3, w = c tau + d, for gamma a word of at most
        four letters S and T^k (k = +-1, +-2): Z + tau Z is w times the
        lattice of gamma tau.  Over these words and tau, Im gamma tau stays
        above 0.011, where the kernels keep their digits; z = x + y tau
        stays clear of the lattice.  Measured as the verify suite measures
        its homogeneity rows, against its tolerance."""
        tau = complex(re_tau, im_tau)
        a, b, c, d = 1, 0, 0, 1
        for letter in word:  # gamma <- letter gamma
            if letter == "S":  # (0 -1; 1 0)
                a, b, c, d = -c, -d, a, b
            else:  # (1 k; 0 1)
                a, b = a + letter * c, b + letter * d
        w = c * tau + d
        tm, image = TorusModulus(tau), TorusModulus((a * tau + b) / w)
        z = x + y * tau
        for f, k in ((wp, 2), (wp_dz, 3)):
            lhs, rhs = f(z, tm), f(z / w, image) / w ** k
            assert abs(lhs - rhs) <= LANDIN_TOL * max(1.0, abs(lhs),
                                                      abs(rhs))
