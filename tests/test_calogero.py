import math
import warnings

import numpy as np
import pytest

from ellcm import calogero, elliptic
from ellcm.calogero import (
    CMConfig,
    PhasePoint,
    eom,
    gauge_lame,
    hamiltonian_cm,
    lax_A_periodic,
    lax_A_quasi,
    lax_L_periodic,
    lax_L_quasi,
    lax_L_quasi_batch,
    local_expansion,
    min_separation,
    quasi_periodicity_check,
    residue_eigen,
    zero_curvature_residual,
)
from ellcm.elliptic import (
    POLE_EXCLUSION_RADIUS,
    TorusModulus,
    lame_array,
    lame_x,
    lame_x_dtau,
    lame_x_dz,
    lame_y,
    reduce_to_cell,
    rho,
    weierstrass_constant,
    wp,
    wp_dz,
)
from ellcm.errors import (
    EllcmError,
    GaugeSingularityError,
    PoleProximityError,
    SeriesRangeError,
    UsageError,
)
from ellcm.rng import SplitMix64
from ellcm.verify import _random_cm, zero_curvature_samples

import _oracles as oracle
from _oracles import theta1_mp

TM_I = TorusModulus(1j)
TWO_PI_I = 2j * math.pi

CFG2 = CMConfig(2, 0.8, TM_I)
PH2 = PhasePoint([0.11 + 0.03j, 0.52 - 0.07j], [0.31 - 0.12j, -0.45 + 0.22j])
CFG3 = CMConfig(3, 1.1, TM_I)
PH3 = PhasePoint([0.1, 0.45 + 0.2j, 0.75 - 0.1j], [0.2, -0.3 + 0.1j, 0.05])
Z0 = 0.37 + 0.11j


class TestCMConfig:
    @pytest.mark.parametrize("g", [math.nan, math.inf, complex(0.35, math.nan),
                                   complex(-math.inf, 0.0)])
    def test_non_finite_g_rejected(self, g):
        """A NaN or infinite coupling would make eom, H and L NaN."""
        with pytest.raises(UsageError, match="g must be finite"):
            CMConfig(2, g, TM_I)


class TestPhasePoint:
    def test_traceless_projection(self):
        ph = PhasePoint([0.1, 0.5], [0.3, 0.1], traceless=True)
        assert abs(ph.p.sum()) < 1e-15

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            PhasePoint([0.1, 0.5], [0.3])


class TestLaxQuasi:
    def test_n1_is_momentum(self):
        cfg = CMConfig(1, 0.7, TM_I)
        ph = PhasePoint([0.2], [0.4 - 0.1j])
        L = lax_L_quasi(cfg, ph, Z0)
        assert L.shape == (1, 1) and L[0, 0] == ph.p[0]

    def test_g_zero_diagonal(self):
        cfg = CMConfig(2, 0.0, TM_I)
        L = lax_L_quasi(cfg, PH2, Z0)
        assert np.array_equal(L, np.diag(PH2.p))
        assert np.array_equal(lax_A_quasi(cfg, PH2, Z0), np.zeros((2, 2)))

    def test_entry_composition(self):
        L = lax_L_quasi(CFG2, PH2, Z0)
        expect = 1j * CFG2.g * lame_x(PH2.q[0] - PH2.q[1], Z0, TM_I)
        assert abs(L[0, 1] - expect) < 1e-14
        assert np.array_equal(np.diag(L), PH2.p)

    def test_entry_transpose_symmetry(self):
        # L[k,j] is the [j,k] entry with the separation negated
        L = lax_L_quasi(CFG3, PH3, Z0)
        for j in range(3):
            for k in range(3):
                if j != k:
                    expect = 1j * CFG3.g * lame_x(PH3.q[k] - PH3.q[j], Z0,
                                                  TM_I)
                    assert abs(L[k, j] - expect) < 1e-13

    def test_a_diagonal_even(self):
        A = lax_A_quasi(CFG2, PH2, Z0)
        expect = 1j * CFG2.g * wp(PH2.q[0] - PH2.q[1], TM_I)
        assert abs(A[0, 0] - expect) < 1e-13
        assert abs(A[1, 1] - expect) < 1e-13  # wp even

    def test_a_entry_composition(self):
        A = lax_A_quasi(CFG3, PH3, Z0)
        expect = 1j * CFG3.g * lame_y(PH3.q[1] - PH3.q[2], Z0, TM_I)
        assert abs(A[1, 2] - expect) < 1e-13

    def test_collision_error_names_pair(self):
        ph = PhasePoint([0.2, 0.2 + 1e-9], [0.1, -0.1])
        with pytest.raises(PoleProximityError) as err:
            lax_L_quasi(CFG2, ph, Z0)
        assert "q[0] - q[1]" in err.value.variable


def _count_lame_array(monkeypatch) -> list:
    """The ratios flag of each `lame_array` call calogero makes from now."""
    calls = []
    real = calogero.lame_array

    def counting(z, u, tm, ratios=False):
        calls.append(ratios)
        return real(z, u, tm, ratios)

    monkeypatch.setattr(calogero, "lame_array", counting)
    return calls


class TestQuasiPeriodicity:
    def test_generic_residuals(self):
        rep = quasi_periodicity_check(CFG2, PH2, Z0)
        assert rep.max() < 1e-8

    def test_g_zero_exact(self):
        cfg = CMConfig(2, 0.0, TM_I)
        rep = quasi_periodicity_check(cfg, PH2, Z0)
        # diagonal matrices commute; only conjugation rounding remains
        assert rep.L_a_cycle == 0.0
        assert rep.L_b_cycle < 1e-14
        assert rep.A_a_cycle == 0.0

    def test_n1_scalar(self):
        cfg = CMConfig(1, 0.5, TM_I)
        ph = PhasePoint([0.23], [0.4])
        rep = quasi_periodicity_check(cfg, ph, Z0)
        assert rep.L_a_cycle == 0.0 and rep.L_b_cycle < 1e-14
        assert rep.max() < 1e-10

    @pytest.mark.parametrize("case", ["n3", "n5-reduced"])
    def test_one_lame_array_call(self, monkeypatch, case):
        """The three nodes z, z+1 and z+tau share one `lame_array` call with
        ratios, and the report equals, bit for bit, the one built from
        separate lax_L_quasi and lax_A_quasi calls at each node."""
        cfg, ph = ((CFG3, PH3) if case == "n3"
                   else TestPairArrays.case(5, 1.3 + 0.6j, 17))
        nodes = [Z0, Z0 + 1, Z0 + cfg.tm.tau]
        L = np.stack([lax_L_quasi(cfg, ph, z) for z in nodes])
        A = np.stack([lax_A_quasi(cfg, ph, z) for z in nodes])
        calls = _count_lame_array(monkeypatch)
        report = quasi_periodicity_check(cfg, ph, Z0)
        assert calls == [True]
        monkeypatch.setattr(calogero, "_lax_quasi", lambda *args: (L, A, None))
        assert quasi_periodicity_check(cfg, ph, Z0) == report


class TestGauge:
    def test_n1(self):
        cfg = CMConfig(1, 0.7, TM_I)
        ph = PhasePoint([0.23 + 0.06j], [0.4])
        G = gauge_lame(cfg, ph, Z0)
        assert abs(G[0, 0] - lame_x(0.23 + 0.06j, Z0, TM_I)) < 1e-14

    def test_determinant(self):
        G = gauge_lame(CFG3, PH3, Z0)
        expect = np.prod([lame_x(q, Z0, TM_I) for q in PH3.q])
        assert abs(np.linalg.det(G) - expect) < 1e-12 * abs(expect)

    def test_invertibility_at_generic_points(self):
        rng = SplitMix64(23)
        for _ in range(10):
            tau = rng.tau()
            cfg, ph = _random_cm(rng, 3, tau)
            z = rng.cell_point(tau)
            G = gauge_lame(cfg, ph, z)
            assert np.min(np.abs(np.diag(G))) > 1e-8

    def test_singular_gauge_raises(self):
        # x(q, z) vanishes when z - q is a lattice point
        ph = PhasePoint([0.37 + 0.11j], [0.1])
        with pytest.raises(GaugeSingularityError):
            gauge_lame(CMConfig(1, 0.7, TM_I), ph, Z0)


class TestLaxPeriodic:
    @pytest.mark.parametrize("lax", [lax_L_periodic, lax_A_periodic],
                             ids=["L", "A"])
    def test_singular_gauge_raises(self, lax):
        # z - q_1 is a lattice point: x(q_1, z) vanishes, G is singular
        with pytest.raises(GaugeSingularityError):
            lax(CFG2, PH2, PH2.q[1] + 1 + 1j)

    def test_full_periodicity_L(self):
        cfg, ph = _random_cm(SplitMix64(31), 3, 1j)
        L0 = lax_L_periodic(cfg, ph, Z0)
        assert np.max(np.abs(lax_L_periodic(cfg, ph, Z0 + 1) - L0)) < 1e-9
        assert np.max(np.abs(lax_L_periodic(cfg, ph, Z0 + 1j) - L0)) < 1e-9

    def test_conjugation_consistency(self):
        G = gauge_lame(CFG2, PH2, Z0)
        Ginv = np.linalg.inv(G)
        h = 1e-6
        Gp = gauge_lame(CFG2, PH2, Z0 + h)
        Gm = gauge_lame(CFG2, PH2, Z0 - h)
        Gprime = (Gp - Gm) / (2 * h)
        Lq = lax_L_quasi(CFG2, PH2, Z0)
        direct = lax_L_periodic(CFG2, PH2, Z0)
        assert np.max(np.abs(Ginv @ Lq @ G - Ginv @ Gprime - direct)) < 1e-9

    def test_diagonal_correction(self):
        # diag(L_periodic) - diag(L_quasi) = -(d_z x(q_j,z)/x(q_j,z))_j
        from ellcm.elliptic import lame_x_dz
        Lq = lax_L_quasi(CFG2, PH2, Z0)
        Lp = lax_L_periodic(CFG2, PH2, Z0)
        for j in range(2):
            expect = -(lame_x_dz(PH2.q[j], Z0, TM_I)
                       / lame_x(PH2.q[j], Z0, TM_I))
            assert abs((Lp[j, j] - Lq[j, j]) - expect) < 1e-12

    def test_A_a_cycle_periodicity(self):
        A0 = lax_A_periodic(CFG2, PH2, Z0)
        assert np.max(np.abs(lax_A_periodic(CFG2, PH2, Z0 + 1) - A0)) < 1e-9

    def test_A_b_cycle_shift_is_L(self):
        # A(z + tau) - A(z) = 2 pi i L(z): the twist cancellation leaves
        # exactly the periodic Lax matrix as the additive B-cycle defect
        A0 = lax_A_periodic(CFG2, PH2, Z0)
        At = lax_A_periodic(CFG2, PH2, Z0 + 1j)
        L0 = lax_L_periodic(CFG2, PH2, Z0)
        assert np.max(np.abs(At - A0 - TWO_PI_I * L0)) < 1e-9

    def test_g0_n1_diagonal(self):
        from ellcm.elliptic import lame_x_dtau
        cfg = CMConfig(1, 0.0, TM_I)
        ph = PhasePoint([0.23 + 0.08j], [0.4 - 0.2j])
        A = lax_A_periodic(cfg, ph, Z0)
        x = lame_x(ph.q[0], Z0, TM_I)
        dG = (lame_x_dtau(ph.q[0], Z0, TM_I)
              + lame_y(ph.q[0], Z0, TM_I) * ph.p[0] / TWO_PI_I)
        assert abs(A[0, 0] - TWO_PI_I * dG / x) < 1e-13


class TestLocalExpansion:
    def test_residue_structure(self):
        le = local_expansion(CFG3, PH3)
        expect = -1j * CFG3.g * (np.ones((3, 3)) - np.eye(3))
        assert np.array_equal(le.residue, expect)

    def test_residue_is_z_weighted_limit(self):
        le = local_expansion(CFG3, PH3)
        z = 1e-4
        L = lax_L_quasi(CFG3, PH3, z)
        # z L(z) = residue + z constant + O(z^2)
        assert np.max(np.abs(z * L - le.residue - z * le.constant)) < 1e-6

    def test_constant_is_subleading_limit(self):
        le = local_expansion(CFG3, PH3)
        z = 1e-5
        L = lax_L_quasi(CFG3, PH3, z)
        assert np.max(np.abs(L - le.residue / z - le.constant)) < 1e-3

    def test_linear_residue_bound(self):
        # || z L(z) - residue || <= C |z| over a z-range
        le = local_expansion(CFG3, PH3)
        C = np.max(np.abs(le.constant)) + 1.0
        for z in (1e-5, 1e-4, 1e-3):
            L = lax_L_quasi(CFG3, PH3, z)
            assert np.max(np.abs(z * L - le.residue)) < C * z

    def test_n1(self):
        cfg = CMConfig(1, 0.7, TM_I)
        ph = PhasePoint([0.2], [0.4])
        le = local_expansion(cfg, ph)
        assert le.residue[0, 0] == 0
        assert le.constant[0, 0] == 0.4


class TestResidueEigen:
    def test_eigenvalues_small_n(self):
        J, V = residue_eigen(CMConfig(2, 0.7, TM_I))
        assert np.array_equal(V, np.array([-1.0, 1.0]))

    def test_trace_identity(self):
        J, V = residue_eigen(CMConfig(4, 0.7, TM_I))
        assert V.sum() == 0  # (n-1)(-1) + (n-1) = 0

    def test_eigendecomposition(self):
        for n in range(2, 7):
            cfg = CMConfig(n, 0.4 + 0.1j, TM_I)
            J, V = residue_eigen(cfg)
            residue = -1j * cfg.g * (np.ones((n, n)) - np.eye(n))
            err = residue @ J - J @ np.diag(-1j * cfg.g * V)
            assert np.max(np.abs(err)) < 1e-12

    def test_all_ones_row_sum(self):
        cfg = CMConfig(5, 0.9, TM_I)
        residue = -1j * cfg.g * (np.ones((5, 5)) - np.eye(5))
        ones = np.ones(5)
        assert np.max(np.abs(residue @ ones
                             - (-1j * cfg.g * 4) * ones)) < 1e-14

    def test_n1_rejected(self):
        with pytest.raises(ValueError):
            residue_eigen(CMConfig(1, 0.7, TM_I))


class TestHamiltonians:
    def test_free(self):
        cfg = CMConfig(3, 0.0, TM_I)
        assert hamiltonian_cm(cfg, PH3) == 0.5 * np.sum(PH3.p**2)

    def test_n2_reduction(self):
        H = hamiltonian_cm(CFG2, PH2)
        expect = (PH2.p[0] ** 2 / 2 + PH2.p[1] ** 2 / 2
                  + CFG2.g**2 * wp(PH2.q[0] - PH2.q[1], TM_I))
        assert abs(H - expect) < 1e-12 * abs(expect)

    def test_reference_value(self):
        # frozen from the independent scalar summation over the
        # Richardson-extrapolated lattice sums
        cfg = CMConfig(3, 0.8, TM_I)
        ph = PhasePoint([0.12 + 0.02j, 0.45 + 0.31j, 0.78 - 0.05j],
                        [0.25, -0.15 + 0.1j, -0.1 - 0.1j])
        expected = 5.8267781493719779 - 2.567315132015584j
        assert abs(hamiltonian_cm(cfg, ph) - expected) < 1e-8

    def test_translation_invariance(self):
        shifted = PhasePoint(PH3.q + (0.37 - 0.11j), PH3.p)
        a = hamiltonian_cm(CFG3, PH3)
        b = hamiltonian_cm(CFG3, shifted)
        assert abs(a - b) < 1e-11 * abs(a)

    def test_permutation_invariance(self):
        perm = [2, 0, 1]
        ph_s = PhasePoint(PH3.q[perm], PH3.p[perm])
        assert abs(hamiltonian_cm(CFG3, PH3)
                   - hamiltonian_cm(CFG3, ph_s)) < 1e-12


class TestPairOnceAssembly:
    """Assembly that visits each unordered pair once (using the parity of
    wp, wp' and rho) against the ordered-pair sums of the public kernels."""

    CFG = CMConfig(5, 0.7 - 0.2j, TorusModulus(0.2 + 0.95j))
    PH = PhasePoint([0.05 + 0.1j, 0.3 - 0.2j, 0.52 + 0.33j, 0.71 + 0.04j,
                     0.9 - 0.35j],
                    [0.2, -0.1 + 0.3j, 0.05 - 0.2j, -0.3, 0.15 + 0.1j])

    def test_eom(self):
        cfg, ph = self.CFG, self.PH
        dq, dp = eom(cfg, ph)
        for j in range(5):
            f = sum(wp_dz(ph.q[j] - ph.q[k], cfg.tm)
                    for k in range(5) if k != j)
            assert abs(dp[j] + cfg.g ** 2 * f) < 1e-12 * max(1.0, abs(dp[j]))
        assert np.array_equal(dq, ph.p)

    def test_hamiltonian(self):
        cfg, ph = self.CFG, self.PH
        pot = sum(wp(ph.q[k] - ph.q[j], cfg.tm)
                  for j in range(5) for k in range(5) if j != k)
        expect = 0.5 * np.sum(ph.p ** 2) + 0.5 * cfg.g ** 2 * pot
        got = hamiltonian_cm(cfg, ph)
        assert abs(got - expect) < 1e-12 * max(1.0, abs(expect))

    def test_lax_L(self):
        cfg, ph = self.CFG, self.PH
        L = lax_L_quasi(cfg, ph, Z0)
        for j in range(5):
            for k in range(5):
                expect = (ph.p[j] if j == k else
                          1j * cfg.g * lame_x(ph.q[j] - ph.q[k], Z0, cfg.tm))
                assert abs(L[j, k] - expect) < 1e-12 * max(1.0, abs(expect))


class TestLaxQuasiBatch:
    """The batched L against scalar lax_L_quasi, node by node."""

    CASES = [
        (CFG2, PH2),
        (CFG3, PH3),
        (TestPairOnceAssembly.CFG, TestPairOnceAssembly.PH),
    ]

    @pytest.mark.parametrize("case", range(3), ids=["n2", "n3", "n5"])
    def test_matches_scalar(self, case):
        cfg, ph = self.CASES[case]
        tau = cfg.tm.tau
        rng = np.random.default_rng(11 + case)
        # inside the cell, and up to three periods outside it either way
        w = rng.uniform(-0.5, 0.5, 60) + rng.uniform(-0.5, 0.5, 60) * tau
        z = w + rng.integers(-3, 4, 60) + rng.integers(-3, 4, 60) * tau
        z[:10] = w[:10]
        batch = lax_L_quasi_batch(cfg, ph, z)
        assert batch.shape == (60, ph.n, ph.n)
        for i, zi in enumerate(z):
            scalar = lax_L_quasi(cfg, ph, zi)
            nz = scalar != 0
            assert np.array_equal(batch[i][~nz], scalar[~nz])
            rel = np.abs(batch[i][nz] - scalar[nz]) / np.abs(scalar[nz])
            assert rel.max() <= 1e-13

    def test_one_call_without_ratios(self, monkeypatch):
        """Monodromy's hot path: one `lame_array` call, x alone."""
        calls = _count_lame_array(monkeypatch)
        lax_L_quasi_batch(CFG3, PH3, np.array([Z0, 0.3, 0.1 + 0.4j]))
        assert calls == [False]

    def test_g_zero_and_n1_diagonal(self):
        z = np.array([Z0, 0.0])  # no kernel is evaluated, not even at 0
        L = lax_L_quasi_batch(CMConfig(2, 0.0, TM_I), PH2, z)
        assert np.array_equal(L, np.array([np.diag(PH2.p)] * 2))
        L = lax_L_quasi_batch(CMConfig(1, 0.7, TM_I), PhasePoint([0.2], [0.4]),
                              z)
        assert np.array_equal(L, np.full((2, 1, 1), 0.4 + 0j))

    def test_node_at_pole_raises(self):
        z = np.array([Z0, 1.0 + 1j + 0.5 * POLE_EXCLUSION_RADIUS, 0.3])
        with pytest.raises(PoleProximityError) as info:
            lax_L_quasi_batch(CFG3, PH3, z)
        assert info.value.variable == "z"
        assert info.value.point == z[1]

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("tau", [1j, 0.1 + 1j, -0.3 + 0.7j])
    def test_matches_stacked_scalar_at_random_nodes(self, n, tau):
        cfg, ph = _random_cm(SplitMix64(n + 31), n, tau, min_sep=0.2)
        rng = np.random.default_rng(n)
        z = rng.uniform(-2, 2, 40) + rng.uniform(-2, 2, 40) * tau
        batch = lax_L_quasi_batch(cfg, ph, z)
        stacked = np.stack([lax_L_quasi(cfg, ph, zi) for zi in z])
        err = np.abs(batch - stacked).max(axis=(1, 2))
        assert np.all(err <= 1e-14 * np.abs(stacked).max(axis=(1, 2)))

    def test_one_theta_sum_and_only_nodes_pole_checked(self, monkeypatch):
        # theta1(z - d) vanishes where z - d is a lattice point: a zero of
        # the entry, not a pole, so only the nodes z are pole-checked
        real = elliptic._series_sums
        sums = []

        def counting(w, tab, *rows):
            sums.append(w.size)
            return real(w, tab, *rows)

        monkeypatch.setattr(elliptic, "_series_sums", counting)
        d = PH3.q[0] - PH3.q[1]
        z = np.array([Z0, d + 1.0 + TM_I.tau, 0.3])
        L = lax_L_quasi_batch(CFG3, PH3, z)
        # the entries' u and the nodes in one pass; z - u is never summed
        # but formed from their harmonics
        assert sums == [6 + 3]
        assert abs(L[1, 0, 1]) < 1e-12
        assert np.abs(L[1] - lax_L_quasi(CFG3, PH3, z[1])).max() < 1e-12
        z[1] = 1.0 + 1j + 0.5 * POLE_EXCLUSION_RADIUS
        sums.clear()
        with pytest.raises(PoleProximityError) as info:
            lax_L_quasi_batch(CFG3, PH3, z)
        assert info.value.variable == "z"
        assert info.value.point == z[1]
        assert sums == []  # raised before any series was summed

    def test_collision_raises(self):
        ph = PhasePoint([0.2, 1.2 + 1e-8], [0.1, -0.1])
        with pytest.raises(PoleProximityError, match=r"q\[0\] - q\[1\]"):
            lax_L_quasi_batch(CFG2, ph, np.array([Z0]))

    def test_series_overflow_raises(self):
        """A node whose series leaves the double range raises the scalar
        kernels' SeriesRangeError, without a floating-point warning and
        never returning nan."""
        cfg = CMConfig(2, 0.5, TorusModulus(500j))
        ph = PhasePoint([0.0, 0.5], [0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SeriesRangeError) as info:
                lax_L_quasi_batch(cfg, ph, np.array([0.3 + 230j, 0.2]))
        assert str(info.value) == (
            "theta1 series overflows at the reduced point w = (0.3+230j)")


class TestEom:
    def test_free(self):
        cfg = CMConfig(3, 0.0, TM_I)
        dq, dp = eom(cfg, PH3)
        assert np.array_equal(dq, PH3.p)
        assert np.array_equal(dp, np.zeros(3))

    def test_force_formula(self):
        dq, dp = eom(CFG2, PH2)
        expect = -CFG2.g**2 * wp_dz(PH2.q[0] - PH2.q[1], TM_I)
        assert abs(dp[0] - expect) < 1e-12

    def test_momentum_conservation(self):
        _, dp = eom(CFG3, PH3)
        assert abs(dp.sum()) < 1e-12

    def test_permutation_equivariance(self):
        perm = [1, 2, 0]
        dq, dp = eom(CFG3, PH3)
        dq_s, dp_s = eom(CFG3, PhasePoint(PH3.q[perm], PH3.p[perm]))
        assert np.max(np.abs(dq_s - dq[perm])) < 1e-12
        assert np.max(np.abs(dp_s - dp[perm])) < 1e-10

    def test_hamiltonian_consistency(self):
        h = 1e-6
        dq, dp = eom(CFG3, PH3)
        for j in range(3):
            qp, qm = PH3.q.copy(), PH3.q.copy()
            qp[j] += h
            qm[j] -= h
            fd = (hamiltonian_cm(CFG3, PhasePoint(qp, PH3.p))
                  - hamiltonian_cm(CFG3, PhasePoint(qm, PH3.p))) / (2 * h)
            assert abs(dp[j] + fd) < 1e-6


class TestZeroCurvature:
    def test_g_zero(self):
        cfg = CMConfig(2, 0.0, TM_I)
        assert zero_curvature_residual(cfg, PH2, Z0) < 1e-14

    def test_generic_n2(self):
        res = zero_curvature_residual(CFG2, PH2, Z0)
        assert res < 1e-6

    def test_generic_n3(self):
        res = zero_curvature_residual(CFG3, PH3, 0.21 - 0.33j)
        assert res < 1e-6

    def test_periodic_gauge(self):
        res_q = zero_curvature_residual(CFG2, PH2, Z0)
        res_p = zero_curvature_residual(CFG2, PH2, Z0, gauge="periodic")
        assert res_p < 1e-6
        # both gauges vanish to rounding at the same point
        assert res_q < 1e-6

    @pytest.mark.parametrize("gauge", ["quasi_periodic", "periodic"])
    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_closed_form_at_suite_samples(self, n, gauge):
        """Every tau-derivative is in closed form, so the residual is
        rounding at every default sample of the zero-curvature suite (n and
        n + 1 bodies), where a finite difference in tau left up to 1.1e-6."""
        samples = list(zero_curvature_samples(n=n))
        assert len(samples) == 20
        for name, cfg, ph, z in samples:
            res = zero_curvature_residual(cfg, ph, z, gauge=gauge)
            assert res <= 1e-10, name

    def test_unknown_gauge(self):
        with pytest.raises(ValueError, match="unknown gauge"):
            zero_curvature_residual(CFG2, PH2, Z0, gauge="twisted")


def _both_paths(monkeypatch, fn):
    """fn() on the scalar pair loops and on the array pair path."""
    monkeypatch.setattr(calogero, "ARRAY_PAIRS_FROM", 10**9)
    scalar = fn()
    monkeypatch.setattr(calogero, "ARRAY_PAIRS_FROM", 2)
    return scalar, fn()


def _rho_reduced(cfg, ph, power):
    """|theta1'/theta1|^power at each reduced separation, as an n x n
    matrix: the size of the terms that cancel in wp (power 2) and wp'
    (power 3), and so the rounding scale of both paths."""
    n, tau = ph.n, cfg.tm.tau
    out = np.zeros((n, n))
    for j in range(n):
        for k in range(n):
            if j != k:
                w = reduce_to_cell(ph.q[j] - ph.q[k], tau)[0]
                out[j, k] = abs(rho(w, cfg.tm)) ** power
    return out


class TestNonFinitePositions:
    """A NaN position raises one EllcmError on both pair paths, never a
    bare ValueError or a NaN."""

    @pytest.mark.parametrize("n", [2, calogero.ARRAY_PAIRS_FROM + 2])
    @pytest.mark.parametrize("call", [eom, hamiltonian_cm, min_separation])
    def test_pair_sums(self, n, call):
        q = np.linspace(0.0, 0.9, n) + 0.1j
        q[1] = math.nan
        with pytest.raises(EllcmError, match="not finite") as info:
            call(CMConfig(n, 0.5, TM_I), PhasePoint(q, np.zeros(n)))
        assert not isinstance(info.value, ValueError)

    def test_lax_batch(self):
        with pytest.raises(EllcmError, match="not finite"):
            lax_L_quasi_batch(CFG2, PH2, [0.3, math.nan])


class TestPairArrays:
    """The array pair path against the scalar pair loops it replaces from
    ARRAY_PAIRS_FROM bodies on."""

    #: (tau, relative tolerance).  At Im tau = 0.08 the theta series
    #: itself cancels about 100-fold, so rho carries ~1e-14 relative
    #: rounding on either path, which wp' amplifies; each path is then
    #: ~4e-12 from mpmath, and they agree to ~1.4e-13 of the scale below.
    #: At 0.5+0.3i the series runs at a reduced modulus, at 1.45+0.8i on
    #: a skewed cell it keeps (SKEWED).
    TAUS = [(1j, 1e-13), (1.3 + 0.6j, 1e-13), (0.01 + 0.08j, 1e-12),
            (0.5 + 0.3j, 1e-13), (1.45 + 0.8j, 1e-13)]
    TAU_IDS = ["i", "1.3+0.6i", "0.01+0.08i", "0.5+0.3i", "1.45+0.8i"]
    #: A skewed modulus the series keeps as it is (gamma = 1), where some
    #: separations reduce beyond |v| = 1.  A pole check on |v| measured
    #: their distances; the check on the coordinates of v clears them.
    SKEWED = 1.45 + 0.8j

    @staticmethod
    def case(n, tau, seed):
        rng = np.random.default_rng(seed)
        # heights beyond half a period, so that some pairs reduce across
        # the B-cycle and rho picks up its 2 pi i shift
        q = (rng.uniform(-2, 2, n)
             + 1j * rng.uniform(-1.5, 1.5, n) * tau.imag)
        p = rng.normal(size=n) + 1j * rng.normal(size=n)
        cfg = CMConfig(n, 0.7 + 0.1j, TorusModulus(tau))
        ph = PhasePoint(q, p)
        assert any(reduce_to_cell(d, tau)[2] != 0
                   for d in np.subtract.outer(q, q).ravel())
        return cfg, ph

    @staticmethod
    def beyond_unit_unmeasured(monkeypatch, cfg, ph):
        """Whether some separation reduces beyond |v| = 1 at the table's
        modulus tau' = gamma tau, while the pole checks of all separations,
        scalar and array, measure no distance."""
        d = np.subtract.outer(ph.q, ph.q)[np.triu_indices(ph.n, 1)]
        tab = elliptic._table(cfg.tm)
        w = elliptic.reduce_to_cell_array(d * tab.w_inv, tab.tau_r)[0]
        calls = []
        with monkeypatch.context() as patch:
            for name in ("lattice_distance", "_lattice_distance_array"):
                fn = getattr(elliptic, name)
                patch.setattr(elliptic, name,
                              lambda *a, fn=fn: calls.append(a) or fn(*a))
            elliptic._reduce_checked_array(d, cfg.tm, str)
            for p in d:
                elliptic._reduce_checked(complex(p), tab, "d")
        return bool((np.abs(w) > 1.0).any()) and not calls

    @pytest.mark.parametrize("n", [4, 5, 8, 16])
    @pytest.mark.parametrize("tau", range(5), ids=TAU_IDS)
    def test_matches_scalar(self, monkeypatch, n, tau):
        """Each result within tol of its size plus the size of the terms
        that cancel in it."""
        tau, tol = self.TAUS[tau]
        cfg, ph = self.case(n, tau, 100 * n + int(100 * tau.imag))
        if tau == self.SKEWED and n >= calogero.ARRAY_PAIRS_FROM:
            assert self.beyond_unit_unmeasured(monkeypatch, cfg, ph)
        g2 = abs(cfg.g) ** 2
        r2, r3 = _rho_reduced(cfg, ph, 2), _rho_reduced(cfg, ph, 3)

        (dq_s, dp_s), (dq_a, dp_a) = _both_paths(
            monkeypatch, lambda: eom(cfg, ph))
        assert np.array_equal(dq_s, dq_a)
        scale = np.abs(dp_s) + g2 * r3.sum(axis=1)
        assert np.all(np.abs(dp_a - dp_s) <= tol * scale)

        h_s, h_a = _both_paths(monkeypatch, lambda: hamiltonian_cm(cfg, ph))
        scale = abs(h_s) + np.sum(np.abs(ph.p) ** 2) + g2 * r2.sum()
        assert abs(h_a - h_s) <= tol * scale

        A_s, A_a = _both_paths(monkeypatch,
                               lambda: lax_A_quasi(cfg, ph, Z0))
        off = ~np.eye(n, dtype=bool)
        assert np.array_equal(A_s[off], A_a[off])  # one lame_array call
        scale = np.abs(A_s.diagonal()) + abs(cfg.g) * r2.sum(axis=1)
        assert np.all(np.abs(A_a.diagonal() - A_s.diagonal())
                      <= tol * scale)

        # local_expansion reads the array path at every n; the scalar
        # reference is i g rho(q_j - q_k) off the diagonal
        c_s = np.diag(ph.p.astype(complex))
        for j in range(n):
            for k in range(n):
                if j != k:
                    c_s[j, k] = 1j * cfg.g * rho(ph.q[j] - ph.q[k], cfg.tm)
        c_a = local_expansion(cfg, ph).constant
        assert np.all(np.abs(c_a - c_s) <= tol * np.abs(c_s))

        m_s, m_a = _both_paths(monkeypatch, lambda: min_separation(cfg, ph))
        assert abs(m_a - m_s) <= 1e-13 * m_s

    @pytest.mark.parametrize("tau", range(5), ids=TAU_IDS)
    def test_fewer_rows_same_bits(self, tau):
        """H sums 3 series rows and forms rho' alone, local_expansion 2
        rows and rho alone, eom rho'' alone: each bit for bit the value
        formed from all four rows."""
        tau, _ = self.TAUS[tau]
        cfg, ph = self.case(8, tau, 31)
        j, k, rho_all, rho_dz_all, rho_d2z_all = calogero._pair_arrays(
            cfg, ph.q)
        h = 0.5 * complex(np.sum(ph.p * ph.p)) + cfg.g * cfg.g * complex(
            np.sum(weierstrass_constant(cfg.tm) - rho_dz_all))
        assert hamiltonian_cm(cfg, ph) == h
        c = local_expansion(cfg, ph).constant
        assert np.array_equal(c[j, k], 1j * cfg.g * rho_all)
        force = calogero._row_sums(ph.n, j, k, -rho_d2z_all, rho_d2z_all)
        assert np.array_equal(eom(cfg, ph)[1], -(cfg.g * cfg.g) * force)

    @pytest.mark.parametrize("tau", [0.02j, 0.01j, 0.003j, 0.45 + 0.03j,
                                     17.3 + 0.8j])
    def test_eom_against_mpmath(self, tau):
        """eom one body short of ARRAY_PAIRS_FROM (scalar pair loop) and at
        it (array pair path) at moduli whose series runs at tau' = gamma tau,
        against wp' of the 40-digit mpmath theta1, each pair within 1e-12 of
        its size or of wp's scale |pi/tau|^3."""
        pytest.importorskip("mpmath")
        scale = abs(math.pi / tau) ** 3
        for n in (calogero.ARRAY_PAIRS_FROM - 1, calogero.ARRAY_PAIRS_FROM):
            cfg, ph = self.case(n, tau, 100 * n + 7)
            dq, dp = eom(cfg, ph)
            assert np.array_equal(dq, ph.p)
            want, size = np.zeros(n, dtype=complex), np.zeros(n)
            for j in range(n):
                for k in range(n):
                    if j != k:
                        t = theta1_mp(ph.q[j] - ph.q[k], tau)
                        r, b, c = t[1] / t[0], t[2] / t[0], t[3] / t[0]
                        f = complex(3 * r * b - c - 2 * r ** 3)
                        want[j] -= cfg.g ** 2 * f
                        size[j] += abs(cfg.g) ** 2 * max(abs(f), scale)
            assert np.all(np.abs(dp - want) <= 1e-12 * size)

    @pytest.mark.parametrize("n", [5, 8, 16])
    @pytest.mark.parametrize("tau", range(5), ids=TAU_IDS)
    def test_one_evaluation_with_lame_array(self, monkeypatch, n, tau):
        """The pair sums and the Lax entries read one elliptic evaluation:
        rho, rho' and rho'' of the pair path at u = q_j - q_k are
        lame_array's at u, bit for bit, also where separations reduce
        beyond |v| = 1 (SKEWED) and at reduced moduli."""
        tau, _ = self.TAUS[tau]
        cfg, ph = self.case(n, tau, 100 * n + int(100 * tau.imag))
        if tau == self.SKEWED:
            assert self.beyond_unit_unmeasured(monkeypatch, cfg, ph)
        j, k, *pair = calogero._pair_arrays(cfg, ph.q)
        _, *at = lame_array([Z0], ph.q[j] - ph.q[k], cfg.tm, True)
        for got, (at_u, _, _) in zip(pair, at):
            assert np.array_equal(got, at_u[0])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_pair_table(self, n):
        """The pair table against a brute-force enumeration in row order:
        the index arrays, the int pairs, the Lax entries (j, k) then (k, j)
        of each pair, and the pair names."""
        pairs = [(j, k) for j in range(n) for k in range(n) if j < k]
        t = calogero._pair_index(n)
        assert list(t.pairs) == pairs
        assert all(type(a) is int for pair in t.pairs for a in pair)
        assert t.j.tolist() == [j for j, _ in pairs]
        assert t.k.tolist() == [k for _, k in pairs]
        entries = [e for j, k in pairs for e in ((j, k), (k, j))]
        assert list(zip(t.rows.tolist(), t.cols.tolist())) == entries
        assert [t.name(i) for i in range(len(pairs))] == [
            f"q[{j}] - q[{k}]" for j, k in pairs]

    @pytest.mark.parametrize("offset", [-1, 0])
    def test_min_separation_brute_force(self, offset):
        """min_separation on either side of ARRAY_PAIRS_FROM is the least
        lattice distance over all ordered pairs j != k, across the lattice
        too (here the pair (1, 3))."""
        n = calogero.ARRAY_PAIRS_FROM + offset
        cfg, ph = self.case(n, 1.3 + 0.6j, 5)
        q = ph.q.copy()
        q[3] = q[1] - 2 + 3 * cfg.tm.tau + 2e-3 - 1e-3j
        ph = PhasePoint(q, ph.p)
        want = min(elliptic.lattice_distance(q[j] - q[k], cfg.tm.tau)
                   for j in range(n) for k in range(n) if j != k)
        assert want < 3e-3
        assert min_separation(cfg, ph) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("tau", oracle.LATTICE_TAUS)
    @pytest.mark.parametrize("offset", [-1, 0])
    def test_min_separation_against_lattice_search(self, tau, offset):
        """On either side of ARRAY_PAIRS_FROM, min_separation is the least
        brute-force lattice distance over the pairs, at moduli where the
        nine candidates of the basis (1, tau) miss the nearest point."""
        n = calogero.ARRAY_PAIRS_FROM + offset
        x, y = np.random.default_rng(n).uniform(-1.5, 1.5, (2, n))
        q = x + y * tau
        cfg = CMConfig(n, 0.5, TorusModulus(tau))
        want = min(oracle.lattice_distance(q[j] - q[k], tau)
                   for j in range(n) for k in range(j + 1, n))
        assert min_separation(cfg, PhasePoint(q, np.zeros(n))) == (
            pytest.approx(want, rel=1e-12))

    @pytest.mark.parametrize("offset", [-1, 0])
    def test_threshold(self, monkeypatch, offset):
        """One body short of ARRAY_PAIRS_FROM eom and H reduce and sum each
        pair once, in scalar arithmetic (`elliptic._rho_points`); from it
        on, none of them.  Lattice distances are taken only in
        min_separation, all pairs in one `_lattice_distances` call (one
        lattice basis) on the scalar path.  local_expansion takes the array
        path at every n."""
        n = calogero.ARRAY_PAIRS_FROM + offset
        cfg, ph = self.case(n, 1.3 + 0.6j, 7)
        calls = []
        for module, name in ((elliptic, "_reduce_checked"),
                             (elliptic, "_theta_series_at"),
                             (elliptic, "lattice_distance"),
                             (calogero, "_lattice_distances"),
                             (calogero, "wp")):
            kernel = getattr(module, name)
            monkeypatch.setattr(
                module, name,
                lambda *a, kernel=kernel, name=name: (calls.append(name),
                                                      kernel(*a))[1])
        eom(cfg, ph)
        hamiltonian_cm(cfg, ph)
        local_expansion(cfg, ph)
        min_separation(cfg, ph)
        pairs = n * (n - 1) // 2
        expect = ({"_reduce_checked": 2 * pairs,
                   "_theta_series_at": 2 * pairs,
                   "_lattice_distances": 1} if offset < 0 else {})
        assert {k: calls.count(k) for k in set(calls)} == expect

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("tau", [1j, 1.45 + 0.8j, 0.02 + 0.97j,
                                     0.2 + 0.6j])
    def test_scalar_pairs_same_bits_as_kernels(self, n, tau):
        """Below ARRAY_PAIRS_FROM eom is -g^2 times the pair sums of wp' and
        H is g^2 times those of wp, bit for bit: -rho'' and c - rho' are
        the kernels' own values, at moduli the series keeps (gamma = 1) and
        at one it reduces (0.2+0.6i)."""
        assert n < calogero.ARRAY_PAIRS_FROM
        cfg, ph = self.case(n, tau, 100 * n + int(100 * tau.imag) + 1)
        kept = elliptic._table(cfg.tm).gamma == (1, 0, 0, 1)
        assert kept == (tau.imag >= 0.7725)
        force, pairs = [0j] * n, 0j
        for j in range(n):
            for k in range(j + 1, n):
                d = complex(ph.q[j] - ph.q[k])
                f = wp_dz(d, cfg.tm)
                force[j] += f
                force[k] -= f
                pairs += wp(d, cfg.tm)
        g2 = cfg.g * cfg.g
        assert np.array_equal(eom(cfg, ph)[1], -g2 * np.array(force))
        assert hamiltonian_cm(cfg, ph) == (
            0.5 * complex(np.sum(ph.p * ph.p)) + g2 * pairs)

    @pytest.mark.parametrize("fn", [eom, hamiltonian_cm])
    def test_scalar_pairs_reduced_once(self, monkeypatch, fn):
        """Below ARRAY_PAIRS_FROM, eom and H reduce each pair to the cell
        once: the pole check and the series read the same reduction."""
        n = calogero.ARRAY_PAIRS_FROM - 1
        cfg, ph = self.case(n, 1.3 + 0.6j, 11)
        calls = []
        reduce = elliptic.reduce_to_cell
        monkeypatch.setattr(elliptic, "reduce_to_cell",
                            lambda *a: (calls.append(a), reduce(*a))[1])
        fn(cfg, ph)
        assert len(calls) == n * (n - 1) // 2

    def test_one_body_evaluates_nothing(self):
        """One body has no pairs: eom and H evaluate no series, so a modulus
        whose table would raise SeriesRangeError (Im tau above ~885) is
        fine."""
        cfg = CMConfig(1, 0.5, TorusModulus(1000j))
        ph = PhasePoint([0.1], [0.3])
        dq, dp = eom(cfg, ph)
        assert dq == ph.p and dp == 0
        assert hamiltonian_cm(cfg, ph) == 0.5 * 0.3 ** 2

    def test_pole_before_overflow(self, monkeypatch):
        """At tau = 500i a pair whose series overflows comes, in row order,
        before a pair within POLE_EXCLUSION_RADIUS: every pair is checked
        before any is summed, so both paths raise the near pair's
        PoleProximityError, and the same one."""
        cfg = CMConfig(4, 0.5, TorusModulus(500j))
        ph = PhasePoint([0.0, 0.3 + 230j, 0.5, 0.5 + 4e-7], np.zeros(4))
        for fn in (eom, hamiltonian_cm):
            errors = []
            for thr in (10**9, 2):
                monkeypatch.setattr(calogero, "ARRAY_PAIRS_FROM", thr)
                with pytest.raises(PoleProximityError) as info:
                    fn(cfg, ph)
                errors.append(info.value)
            scalar, array = errors
            assert scalar.variable == "q[2] - q[3]"
            assert str(array) == str(scalar)
            with pytest.raises(SeriesRangeError):
                fn(cfg, PhasePoint(ph.q[:3], np.zeros(3)))

    def test_collision_same_as_scalar(self, monkeypatch):
        """At n = 8 the first near pair in row order raises, with the scalar
        loop's pair, argument name and distance.  At SKEWED the pair
        (0, 1) reduces near a corner of the cell, beyond |v| = 1, and is
        cleared without a distance: it evaluates, and the near pair still
        raises.  At 0.5+0.3i the series runs at a reduced modulus, and the
        distances are still those of the lattice of tau."""
        for tau in (1.3 + 0.6j, self.SKEWED, 0.5 + 0.3j):
            q = np.array([0.05, 0.2 + 0.1j, 0.35, 0.5 - 0.1j, 0.62,
                          0.74 + 0.2j, 0.86, 0.95 - 0.2j])
            if tau != 1.3 + 0.6j:
                q[1] = q[0] + 0.48 + 0.48 * tau
            cfg = CMConfig(8, 0.6, TorusModulus(tau))
            ph = PhasePoint(q, np.zeros(8))
            if tau == self.SKEWED:
                assert self.beyond_unit_unmeasured(monkeypatch, cfg, ph)
                for thr in (10**9, 2):
                    monkeypatch.setattr(calogero, "ARRAY_PAIRS_FROM", thr)
                    eom(cfg, ph)
                    lax_L_quasi(cfg, ph, Z0)
            # near pair (2, 6), across the lattice, and (3, 7), later in
            # row order
            q[6] = q[2] + 1 + tau + 3e-7j
            q[7] = q[3] - 4e-7
            ph = PhasePoint(q, np.zeros(8))
            for fn in (lambda: eom(cfg, ph), lambda: hamiltonian_cm(cfg, ph),
                       lambda: local_expansion(cfg, ph),
                       lambda: lax_L_quasi(cfg, ph, Z0)):
                errors = []
                for thr in (10**9, 2):
                    monkeypatch.setattr(calogero, "ARRAY_PAIRS_FROM", thr)
                    with pytest.raises(PoleProximityError) as info:
                        fn()
                    errors.append(info.value)
                scalar, array = errors
                assert array.variable == scalar.variable == "q[2] - q[6]"
                assert array.point == scalar.point
                assert array.distance == scalar.distance
                assert str(array) == str(scalar)

    def test_series_overflow_same_as_scalar(self, monkeypatch):
        """A separation whose series leaves the double range raises the
        scalar path's SeriesRangeError on the array path too, without a
        floating-point warning and never returning inf or nan."""
        cfg = CMConfig(5, 0.5, TorusModulus(500j))
        ph = PhasePoint([0.0, 0.1, 0.3 + 230j, 0.5, 0.7], np.zeros(5))
        messages = []
        for thr in (10**9, 2):
            monkeypatch.setattr(calogero, "ARRAY_PAIRS_FROM", thr)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SeriesRangeError) as info:
                    eom(cfg, ph)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert "overflows" in messages[0]


def _scalar_lax(cfg, ph, z):
    """L, A, dA/dz, L~ and A~ at one node, entry by entry from the scalar
    kernels, each with the size of the terms that cancel in its entries:
    those of wp on the diagonal of A and A~ (as for the pair path), and in
    dA/dz those of rho'(z - u), taken as c - wp(z - u)."""
    n, tm, ig = ph.n, cfg.tm, 1j * cfg.g
    c = weierstrass_constant(tm)
    L = np.diag(ph.p).astype(complex)
    A = np.zeros((n, n), dtype=complex)
    dA = np.zeros((n, n), dtype=complex)
    dA_scale = np.zeros((n, n))
    for j in range(n):
        for k in range(n):
            if j != k:
                u = ph.q[j] - ph.q[k]
                x = lame_x(u, z, tm)
                L[j, k] = ig * x
                A[j, k] = ig * lame_y(u, z, tm)
                A[j, j] += ig * wp(u, tm)
                # d/dz y = -x_dz (rho(u) + rho(z - u)) - x rho'(z - u)
                x_dz, rho_u, rho_zu = (lame_x_dz(u, z, tm), rho(u, tm),
                                       rho(z - u, tm))
                dA[j, k] = ig * (-x_dz * (rho_u + rho_zu)
                                 - x * (c - wp(z - u, tm)))
                dA_scale[j, k] = abs(cfg.g) * (
                    abs(x_dz) * (abs(rho_u) + abs(rho_zu))
                    + abs(x) * (abs(c) + abs(wp(z - u, tm))))
    G = np.array([lame_x(q, z, tm) for q in ph.q])
    Lp = L * G / G[:, None]
    Ap = A * G / G[:, None]
    for j, q in enumerate(ph.q):
        Lp[j, j] = ph.p[j] - lame_x_dz(q, z, tm) / G[j]
        Ap[j, j] = A[j, j] + TWO_PI_I * (
            lame_x_dtau(q, z, tm) + lame_y(q, z, tm) * ph.p[j] / TWO_PI_I
        ) / G[j]
    wp_scale = np.diag(abs(cfg.g) * _rho_reduced(cfg, ph, 2).sum(axis=1))
    return {"L": (L, 0.0), "A": (A, wp_scale), "dA": (dA, dA_scale),
            "Lp": (Lp, 0.0), "Ap": (Ap, wp_scale)}


def _lax_quasi_at(cfg, ph, z):
    """(L, A, dA/dz) at the one node z: the Lax builder's one-node case."""
    return tuple(M[0] for M in calogero._lax_quasi(cfg, ph, [z], True))


def _flat(values):
    """lame_array's x and ratios, each list of ratios flattened."""
    return [values[0], *(v for at in values[1:] for v in at)]


class TestLaxEntries:
    """Every Lax matrix entry of both gauges against the scalar kernels:
    one lame_array evaluation builds them all."""

    @staticmethod
    def nodes(tau, seed, count=4):
        """Nodes inside the cell and up to three periods outside it."""
        rng = np.random.default_rng(seed)
        w = (rng.uniform(-0.5, 0.5, count)
             + rng.uniform(-0.5, 0.5, count) * tau)
        shift = rng.integers(-3, 4, count) + rng.integers(-3, 4, count) * tau
        shift[0] = 0
        return w + shift

    @staticmethod
    def built(cfg, ph, z):
        L, A, dA = _lax_quasi_at(cfg, ph, z)
        return {"L": lax_L_quasi(cfg, ph, z), "L with A": L, "A": A,
                "dA": dA, "Lp": lax_L_periodic(cfg, ph, z),
                "Ap": lax_A_periodic(cfg, ph, z)}

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("tau", range(3), ids=["i", "1.3+0.6i",
                                                   "0.01+0.08i"])
    def test_matches_scalar(self, n, tau):
        tau, tol = TestPairArrays.TAUS[tau]
        cfg, ph = TestPairArrays.case(n, tau,
                                      100 * n + int(100 * tau.imag) + 1)
        for z in self.nodes(tau, n):
            expect = _scalar_lax(cfg, ph, z)
            got = self.built(cfg, ph, z)
            got["L batch"] = lax_L_quasi_batch(cfg, ph, [z, 0.1 + tau])[0]
            got["A public"] = lax_A_quasi(cfg, ph, z)
            for name, value in got.items():
                ref, scale = expect[name.split()[0]]
                assert np.all(np.abs(value - ref)
                              <= tol * (np.abs(ref) + scale)), name

    def test_regular_gauge_far_from_the_cell(self):
        """Three B-periods out |x(q_3, z)| is 6.7e-9 while z - q_3 is 0.32
        from the lattice: the gauge is regular there, L~ is doubly periodic
        and A~(w + m + n tau) = A~(w) + 2 pi i n L~(w)."""
        cfg, ph = TestPairArrays.case(5, 1j, 600)
        z = self.nodes(1j, 5)[3]
        w, _, n = reduce_to_cell(z, 1j)
        assert n == -2 and abs(lame_x(ph.q[3], z, cfg.tm)) < 1e-8
        L, L0 = (lax_L_periodic(cfg, ph, v) for v in (z, w))
        A, A0 = (lax_A_periodic(cfg, ph, v) for v in (z, w))
        assert np.max(np.abs(L - L0)) < 1e-13 * np.max(np.abs(L0))
        assert (np.max(np.abs(A - A0 - TWO_PI_I * n * L0))
                < 1e-13 * np.max(np.abs(A)))
        assert zero_curvature_residual(cfg, ph, z, gauge="periodic") < 1e-10

    def test_pole_of_a_entry(self):
        """At z = q_0 - q_1 mod the lattice, x(q_0 - q_1, z) vanishes: L
        has a zero entry there, while y and dy/dz have a pole at z - u."""
        ph = PH3
        z = ph.q[0] - ph.q[1] + 1.0 - 2.0 * TM_I.tau
        L = lax_L_quasi(CFG3, ph, z)
        assert abs(L[0, 1]) < 1e-14
        for fn in (lax_A_quasi, _lax_quasi_at):
            with pytest.raises(PoleProximityError) as info:
                fn(CFG3, ph, z)
            assert info.value.variable == "z - u"
            assert info.value.point == z - (ph.q[0] - ph.q[1])
            with pytest.raises(PoleProximityError) as scalar:
                lame_y(ph.q[0] - ph.q[1], z, TM_I)
            assert str(info.value) == str(scalar.value)

    def test_node_at_pole(self):
        z = 2.0 - TM_I.tau + 0.5 * POLE_EXCLUSION_RADIUS
        for fn in (lax_L_quasi, lax_A_quasi, _lax_quasi_at,
                   lax_L_periodic, lax_A_periodic):
            with pytest.raises(PoleProximityError) as info:
                fn(CFG3, PH3, z)
            assert info.value.variable == "z"
            assert info.value.point == z

    def test_collision_names_pair(self):
        ph = PhasePoint([0.2, 0.45 + 0.2j, 1.2 + 1j + 1e-8], [0.1, 0, -0.1])
        for fn in (lax_L_quasi, lax_A_quasi, _lax_quasi_at,
                   lax_L_periodic, lax_A_periodic):
            with pytest.raises(PoleProximityError) as info:
                fn(CFG3, ph, Z0)
            assert info.value.variable == "q[0] - q[2]"

    def test_gauge_names_first_singular_body(self):
        z = PH3.q[1] - 1.0 + 2.0 * TM_I.tau
        for fn in (gauge_lame, lax_L_periodic, lax_A_periodic):
            with pytest.raises(GaugeSingularityError, match=r"x\(q\[1\], z\)"):
                fn(CFG3, PH3, z)

    def test_g_zero_and_n1(self):
        """No pair kernel runs: L = P and A = dA/dz = 0; the periodic gauge
        keeps its connection diagonal."""
        for cfg, ph in ((CMConfig(3, 0.0, TM_I), PH3),
                        (CMConfig(1, 0.7, TM_I), PhasePoint([0.23], [0.4]))):
            n = ph.n
            zero = np.zeros((n, n))
            assert np.array_equal(lax_L_quasi(cfg, ph, Z0), np.diag(ph.p))
            _, A, dA = _lax_quasi_at(cfg, ph, Z0)
            assert np.array_equal(A, zero) and np.array_equal(dA, zero)
            expect = _scalar_lax(cfg, ph, Z0)
            for name, got in self.built(cfg, ph, Z0).items():
                ref, scale = expect[name.split()[0]]
                assert np.all(np.abs(got - ref) <= 1e-13 * (np.abs(ref)
                                                            + scale)), name

    def test_one_node_as_in_a_batch(self):
        """A node's entries do not depend on the other nodes of its call."""
        cfg, ph = TestPairArrays.case(5, 1.3 + 0.6j, 3)
        z = self.nodes(cfg.tm.tau, 5, count=40)
        batch = lax_L_quasi_batch(cfg, ph, z)
        u = np.subtract.outer(ph.q, ph.q)[~np.eye(5, dtype=bool)]
        many = lame_array(z, u, cfg.tm, True)
        shape = (z.size, u.size)
        for i in (0, 17, 39):
            assert np.array_equal(lax_L_quasi(cfg, ph, z[i]), batch[i])
            one = lame_array(z[i:i + 1], u, cfg.tm, True)
            for a, b in zip(_flat(one), _flat(many)):
                assert np.array_equal(np.broadcast_to(a, (1, u.size))[0],
                                      np.broadcast_to(b, shape)[i])
