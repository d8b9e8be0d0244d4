"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with the measured residual and its tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import math
import time

import numpy as np

from ellcm.calogero import (
    CMConfig,
    PhasePoint,
    hamiltonian_cm,
    residue_eigen,
)
from ellcm.elliptic import TorusModulus, wp_dz
from ellcm.flow import (
    TIGHT,
    ExtendedTangent,
    IntegratorConfig,
    extended_two_form,
    hamiltonian_vector_field,
    integrate_isospectral,
    integrate_scalar_painleve,
    symplectic_jacobian_check,
)
from ellcm.monodromy import (
    cubic_relation_residual,
    isomonodromy_drift,
    moduli_dimensions,
    monodromy_data,
    spectral_distance,
)
from ellcm.painleve import (
    EllipticState,
    PainleveParams,
    elliptic_to_rational,
    rational_p6_residual,
)
from ellcm.rng import SplitMix64
from ellcm.verify import (
    _random_cm,
    run_suite,
    suite_symmetry_maps,
)

TWO_PI_I = 2j * math.pi
TM_I = TorusModulus(1j)


def report(name: str, residual: float, tol: float, extra: str = "") -> None:
    status = "PASS" if residual < tol else "FAIL"
    tail = f" {extra}" if extra else ""
    print(f"ACCEPTANCE {name}: residual={residual:.3e} tol={tol:.0e}"
          f"{tail} -> {status}")
    assert residual < tol, f"{name}: {residual} >= {tol}"


def worst(results, prefix=None):
    sel = [r for r in results if prefix is None or r.name.startswith(prefix)]
    return max(r.residual for r in sel)


def test_lame_identity_suite():
    t0 = time.monotonic()
    results = run_suite("lame-identities", seed=12345, count=100)
    elapsed = time.monotonic() - t0
    assert len(results) == 300
    report("lame-identities (3 x 100 points)", worst(results), 1e-9,
           extra=f"runtime={elapsed:.1f}s")
    assert elapsed < 10.0


def test_heat_equations():
    results = run_suite("theta-heat", seed=12345, count=50)
    report("theta1 heat equation (50 points)", worst(results, "theta"), 1e-5)
    report("mixed heat equation for x (50 points)",
           worst(results, "mixed"), 1e-5)


def test_wp_fast_path_vs_lattice_oracle():
    from ellcm.elliptic import wp, wp_lattice_oracle
    worst_res = 0.0
    for i, tau in enumerate((1j, 0.5 + 0.8j, 2j)):
        tm = TorusModulus(tau)
        rng = SplitMix64(12345 + i)
        for _ in range(20):
            z = rng.cell_point(tau)
            worst_res = max(worst_res,
                            abs(wp(z, tm) - wp_lattice_oracle(z, tm)))
    report("wp fast path vs lattice oracle (20 points x 3 tau)",
           worst_res, 1e-8)


def test_landin_and_homogeneity():
    results = run_suite("quasi-periodicity", seed=12345, count=50)
    report("Landin identity for wp' (50 points)",
           worst(results, "landin"), 1e-9)
    hom = max(worst(results, "wp-homog"), worst(results, "wp-dz-homog"))
    report("j-homogeneity for wp, wp' (50 points)", hom, 1e-9)


def test_cycle_action_residuals():
    from ellcm.calogero import quasi_periodicity_check
    worst_res = 0.0
    for n in (2, 3, 4):
        rng = SplitMix64(777 + n)
        for _ in range(50):
            tau = rng.tau()
            cfg, ph = _random_cm(rng, n, tau)
            z = rng.cell_point(tau)
            worst_res = max(worst_res,
                            quasi_periodicity_check(cfg, ph, z).max())
    report("cycle action residuals for (L, A), n in {2,3,4} (50 points each)",
           worst_res, 1e-8)


def test_zero_curvature():
    t0 = time.monotonic()
    results = run_suite("zero-curvature", seed=12345, count=20, n=2)
    elapsed = time.monotonic() - t0
    report("zero-curvature residual, n in {2,3} (20 points)",
           worst(results), 1e-6, extra=f"runtime={elapsed:.1f}s")
    assert elapsed < 60.0


def test_residue_eigenstructure():
    worst_res = 0.0
    for n in range(2, 7):
        g = 0.6 + 0.2j
        cfg = CMConfig(n, g, TM_I)
        J, V = residue_eigen(cfg)
        residue = -1j * g * (np.ones((n, n)) - np.eye(n))
        eig = np.linalg.eigvals(residue)
        expected = np.concatenate([np.full(n - 1, 1j * g),
                                   [-1j * g * (n - 1)]])
        # optimal matching of the two eigenvalue multisets
        eig_sorted = sorted(eig, key=lambda v: (round(v.real, 9),
                                                round(v.imag, 9)))
        exp_sorted = sorted(expected, key=lambda v: (round(v.real, 9),
                                                     round(v.imag, 9)))
        worst_res = max(worst_res,
                        max(abs(a - b) for a, b in zip(eig_sorted,
                                                       exp_sorted)))
        assert np.max(np.abs(residue @ J - J @ np.diag(-1j * g * V))) < 1e-12
    report("residue eigenvalues {ig x(n-1), -ig(n-1)}, n in 2..6",
           worst_res, 1e-12)


def test_isospectral_conservation():
    cfg = CMConfig(3, 1.0, TM_I)
    ph = PhasePoint([0.12 + 0.02j, 0.45 + 0.31j, 0.78 - 0.05j],
                    [0.25, -0.15 + 0.1j, -0.1 - 0.1j])
    icfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
    tr = integrate_isospectral(cfg, ph, (0.0, 1.0), icfg)
    drift = abs(hamiltonian_cm(cfg, tr.states[-1]) - hamiltonian_cm(cfg, ph))
    report("isospectral |dH| over unit time, n=3", drift, 1e-8)

    cfg0 = CMConfig(3, 0.0, TM_I)
    tr0 = integrate_isospectral(cfg0, ph, (0.0, 1.0), icfg)
    err = float(np.max(np.abs(tr0.states[-1].q - (ph.q + ph.p))))
    report("isospectral g=0 free flight", err, 1e-10)


def test_n2_reduction_sign():
    cfg = CMConfig(2, 0.8, TM_I)
    ph = PhasePoint([0.2 + 0.1j, -0.15 - 0.05j], [0.3, -0.3], traceless=True)
    icfg = IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15)
    q0 = (ph.q[0] - ph.q[1]) / 2

    def acc_at(h):
        vals = []
        for dt in (h, -h):
            tr = integrate_isospectral(cfg, ph, (0.0, dt), icfg, samples=1)
            vals.append((tr.states[-1].q[0] - tr.states[-1].q[1]) / 2)
        return (vals[0] - 2 * q0 + vals[1]) / h**2

    acc = (4 * acc_at(1e-3) - acc_at(2e-3)) / 3
    target = cfg.g**2 * wp_dz(2 * q0, TM_I)
    sign = -1 if abs(acc + target) < abs(acc - target) else +1
    report("N=2 reduction d^2q/dt^2 = s g^2 wp'(2q)",
           abs(acc - sign * target), 1e-6, extra=f"s={sign:+d}")


def test_symmetry_solution_maps():
    results = suite_symmetry_maps(seed=12345, count=3)
    report("Landin solution map (two-trajectory, dtau=0.05i)",
           worst(results, "landin"), 1e-6)
    report("scaling solution map (two-trajectory, dtau=0.05i)",
           worst(results, "scaling"), 1e-6)


def test_elliptic_rational_bridge():
    params = PainleveParams((0.12 - 0.02j, -0.06 + 0.03j, 0.09, 0.04 + 0.01j))
    q0, p0 = 0.32 + 0.14j, 0.25 - 0.3j
    tau0, tau1 = 0.95j, 0.95j + 0.25j

    def residual_at(h):
        icfg = IntegratorConfig(method="rk4_fixed", initial_step=h,
                                max_steps=10**6)
        nsamp = int(round(abs(tau1 - tau0) / h))
        tr = integrate_scalar_painleve(EllipticState(q0, p0, tau0), params,
                                       (tau0, tau1), icfg, samples=nsamp)
        ys, ts = [], []
        for i, tau in enumerate(tr.times):
            y, t = elliptic_to_rational(tr.states[i].q[0], tau)
            ys.append(y)
            ts.append(t)
        worst_res = 0.0
        for i in range(1, len(ys) - 1):
            h1, h2 = ts[i] - ts[i - 1], ts[i + 1] - ts[i]
            d1 = (-h2 / (h1 * (h1 + h2)) * ys[i - 1]
                  + (h2 - h1) / (h1 * h2) * ys[i]
                  + h1 / (h2 * (h1 + h2)) * ys[i + 1])
            d2 = 2 * (ys[i - 1] / (h1 * (h1 + h2)) - ys[i] / (h1 * h2)
                      + ys[i + 1] / (h2 * (h1 + h2)))
            worst_res = max(worst_res,
                            abs(rational_p6_residual(ys[i], d1, d2, ts[i],
                                                     params)))
        return worst_res

    rs = [residual_at(h) for h in (1e-2, 5e-3, 2.5e-3)]
    orders = [math.log2(rs[i] / rs[i + 1]) for i in range(2)]
    observed = min(orders)
    status = "PASS" if observed >= 1.8 else "FAIL"
    print(f"ACCEPTANCE elliptic->rational bridge: orders="
          f"[{orders[0]:.2f}, {orders[1]:.2f}] (need >= 1.8) -> {status}")
    assert observed >= 1.8


def test_monodromy_criteria():
    cfg = CMConfig(2, 0.35, TM_I)
    ph = PhasePoint([0.11 + 0.03j, 0.52 - 0.07j], [0.31 - 0.12j,
                                                   -0.45 + 0.22j])
    md = monodromy_data(cfg, ph, TIGHT)
    report("monodromy cubic relation residual", cubic_relation_residual(md),
           1e-5)
    drift = isomonodromy_drift(cfg, ph, 1j, 1e-2, TIGHT, md0=md)
    report("isomonodromy spectral drift, |dtau| = 1e-2", drift, 1e-5)
    control = spectral_distance(
        md, monodromy_data(cfg, PhasePoint(ph.q, ph.p + 0.01), TIGHT))
    status = "PASS" if control >= 10 * 1e-5 else "FAIL"
    print(f"ACCEPTANCE monodromy negative control: drift={control:.3e} "
          f"(need >= 1e-4) -> {status}")
    assert control >= 10 * 1e-5

    cfg0 = CMConfig(2, 0.0, TM_I)
    ph0 = PhasePoint([0.13 + 0.04j, 0.61 - 0.09j],
                     [0.37 - 0.21j, -0.52 + 0.33j])
    md_g0 = monodromy_data(cfg0, ph0, TIGHT)
    closed = max(
        float(np.max(np.abs(md_g0.M1 - np.diag(np.exp(ph0.p))))),
        float(np.max(np.abs(
            md_g0.Mtau - np.diag(np.exp(-TWO_PI_I * ph0.q)) @ np.diag(
                np.exp(ph0.p * 1j))))),
        float(np.max(np.abs(md_g0.M0 - np.eye(2)))),
    )
    report("monodromy g=0 closed forms", closed, 1e-9)


def test_symplectic_jacobian():
    cfg = CMConfig(2, 1.0, TM_I)
    ph = PhasePoint([0.15 + 0.1j, 0.55 - 0.08j], [0.2, -0.35 + 0.1j])
    res = symplectic_jacobian_check(cfg, ph, (1j, 1j + 0.05), TIGHT)
    report("symplectic Jacobian ||M^T W M - W||, n=2", res, 1e-5)


def test_dimension_formulas():
    expected = {
        (1, 1): (4, 2, 3),
        (2, 1): (8, 6, 7),
        (2, 2): (15, 10, 7),
        (3, 1): (14, 12, 13),
    }
    for (n, s), want in expected.items():
        got = moduli_dimensions(n, s)
        assert got == want, f"(n={n}, s={s}): {got} != {want}"
    print("ACCEPTANCE dimension formulas at (1,1),(2,1),(2,2),(3,1): "
          "exact -> PASS")


def test_extended_two_form_criteria():
    cfg = CMConfig(3, 1.0, TM_I)
    ph = PhasePoint([0.12 + 0.02j, 0.45 + 0.31j, 0.78 - 0.05j],
                    [0.25, -0.15 + 0.1j, -0.1 - 0.1j])
    rng = SplitMix64(2024)

    def tangent():
        draw = lambda: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        return ExtendedTangent([draw() for _ in range(3)],
                               [draw() for _ in range(3)], draw())

    anti = 0.0
    for _ in range(10):
        u, v = tangent(), tangent()
        anti = max(anti, abs(extended_two_form(ph, 1j, u, v, cfg)
                             + extended_two_form(ph, 1j, v, u, cfg)))
    report("Omega_iso antisymmetry", anti, 1e-12)

    fiber = 0.0
    for _ in range(10):
        u, v = tangent(), tangent()
        uf = ExtendedTangent(u.dq, u.dp, 0.0)
        vf = ExtendedTangent(v.dq, v.dp, 0.0)
        got = extended_two_form(ph, 1j, uf, vf, cfg)
        canonical = complex(np.sum(uf.dq * vf.dp - uf.dp * vf.dq))
        fiber = max(fiber, abs(got - canonical))
    assert fiber == 0.0
    print("ACCEPTANCE Omega_iso fiber restriction = canonical form: "
          "exact -> PASS")

    X = hamiltonian_vector_field(ph, 1j, cfg)
    kernel = max(abs(extended_two_form(ph, 1j, X, tangent(), cfg))
                 for _ in range(20))
    report("Omega_iso(X_H, v) over 20 random v", kernel, 1e-7)
