"""Monodromy of the fundamental solution around the torus cycles.

Transports dPsi/dz = L(z) Psi around the A cycle, the B cycle, and the
pole, checks the commutator relation on the character variety, and shows
that the isomonodromic flow leaves the spectra fixed while a generic
perturbation does not.

Run:  python3 demos/monodromy_tour.py
"""

import numpy as np

from ellcm import (
    CMConfig,
    IntegratorConfig,
    PhasePoint,
    TorusModulus,
    cubic_relation_residual,
    isomonodromy_drift,
    local_expansion,
    moduli_dimensions,
    monodromy_data,
    spectral_distance,
)

icfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)
cfg = CMConfig(n=2, g=0.35, tm=TorusModulus(1j))
ph = PhasePoint(q=[0.11 + 0.03j, 0.52 - 0.07j],
                p=[0.31 - 0.12j, -0.45 + 0.22j])

md = monodromy_data(cfg, ph, icfg)
print("base point:", md.base_point)
print("M1 =\n", np.round(md.M1, 8))
print("Mtau =\n", np.round(md.Mtau, 8))
print("M0 =\n", np.round(md.M0, 8))

# the puncture monodromy is the commutator of the cycle monodromies
print(f"\n|Mtau M1 Mtau^-1 M1^-1 - M0| = {cubic_relation_residual(md):.2e}")

# local exponents: spec(M0) tracks exp(2 pi i spec(residue))
residue = local_expansion(cfg, ph).residue
print("spec(M0)                 =",
      np.round(sorted(np.linalg.eigvals(md.M0), key=abs), 8))
print("exp(2 pi i spec(residue)) =",
      np.round(sorted(np.exp(2j * np.pi * np.linalg.eigvals(residue)),
                      key=abs), 8))

# isomonodromy: flow tau by 0.01 and compare spectra (frame-independent)
drift = isomonodromy_drift(cfg, ph, 1j, 1e-2, icfg, md0=md)
print(f"\nspectral drift under the isomonodromic flow (dtau = 0.01): "
      f"{drift:.2e}")

# negative control: a non-isomonodromic perturbation moves the spectra
perturbed = PhasePoint(ph.q, ph.p + 0.01)
control = spectral_distance(md, monodromy_data(cfg, perturbed, icfg))
print(f"control: perturbing p by 0.01 at fixed tau moves them by "
      f"{control:.2e}  ({control / drift:.1e} x larger)")

# dimension counts of the relevant moduli spaces
for n, s in ((1, 1), (2, 1), (2, 2), (3, 1)):
    dim_m, dim_c, dim_1 = moduli_dimensions(n, s)
    print(f"n={n}, s={s}: dim moduli = {dim_m}, dim character variety = "
          f"{dim_c}, one-pole display = {dim_1}")
