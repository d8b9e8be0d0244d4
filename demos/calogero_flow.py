"""The elliptic Calogero-Moser system: Lax pair, flows, and conservation.

Run:  python3 demos/calogero_flow.py
"""

import numpy as np

from ellcm import (
    CMConfig,
    IntegratorConfig,
    PhasePoint,
    TorusModulus,
    hamiltonian_cm,
    integrate_isomonodromic,
    integrate_isospectral,
    lax_L_periodic,
    lax_L_quasi,
    local_expansion,
    quasi_periodicity_check,
    residue_eigen,
    zero_curvature_residual,
)

cfg = CMConfig(n=3, g=1.0, tm=TorusModulus(1j))
ph = PhasePoint(q=[0.12 + 0.02j, 0.45 + 0.31j, 0.78 - 0.05j],
                p=[0.25, -0.15 + 0.1j, -0.1 - 0.1j])
z = 0.37 + 0.11j

# --- the Lax pair and its structure -------------------------------------
L = lax_L_quasi(cfg, ph, z)
print("quasi-periodic Lax matrix L(z): diag(L) = p exactly:",
      np.array_equal(np.diag(L), ph.p))

rep = quasi_periodicity_check(cfg, ph, z)
print(f"cycle relations (A and twisted B) residual: {rep.max():.2e}")

le = local_expansion(cfg, ph)
print("residue at the pole z=0: eigenvalues",
      np.round(np.linalg.eigvals(le.residue), 12),
      " (i g with multiplicity n-1, -i g (n-1))")
J, V = residue_eigen(cfg)
print("explicit eigenvector matrix verified against -i g V pattern:", V)

Lp = lax_L_periodic(cfg, ph, z)
print(f"periodic gauge: |L(z+tau) - L(z)| = "
      f"{np.max(np.abs(lax_L_periodic(cfg, ph, z + 1j) - Lp)):.2e}")

# --- zero curvature: the equations of motion are exactly the ones the
# --- compatibility of (L, A) demands -------------------------------------
res = zero_curvature_residual(cfg, ph, z)
print(f"zero-curvature residual 2 pi i dL/dtau + dA/dz - [L, A]: {res:.2e}")

# --- isospectral flow conserves H ----------------------------------------
icfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
tr = integrate_isospectral(cfg, ph, (0.0, 1.0), icfg)
h0 = hamiltonian_cm(cfg, tr.states[0])
h1 = hamiltonian_cm(cfg, tr.states[-1])
print(f"\nisospectral flow over t in [0, 1]: "
      f"{tr.diagnostics.steps_accepted} steps, "
      f"|H(1) - H(0)| = {abs(h1 - h0):.2e}")
print(f"total momentum drift: {abs(tr.states[-1].p.sum() - ph.p.sum()):.2e}")

# --- isomonodromic flow: H drifts, monodromy (see monodromy_tour) holds --
tr2 = integrate_isomonodromic(cfg, ph, (1j, 1j + 0.1), icfg)
hs = [hamiltonian_cm(cfg.with_tau(tr2.tau_of_sample[i]), tr2.states[i])
      for i in range(len(tr2.times))]
print(f"\nisomonodromic flow tau: i -> i + 0.1: H moves by "
      f"{abs(hs[-1] - hs[0]):.3e} (not conserved; tau enters the potential)")
for i in (0, len(tr2.times) // 2, len(tr2.times) - 1):
    r = zero_curvature_residual(cfg.with_tau(tr2.tau_of_sample[i]),
                                tr2.states[i], z)
    print(f"  zero-curvature along the trajectory at sample {i}: {r:.2e}")
