"""Tour of the elliptic kernels: theta1, rho, wp, and the Lame pair (x, y).

Run:  python3 demos/elliptic_kernels.py
"""

import cmath
import math

from ellcm import (
    GeneralLattice,
    TorusModulus,
    lame_x,
    lame_y,
    rho,
    theta1,
    theta1_product,
    wp,
    wp_dz,
    wp_general,
    wp_lattice_oracle,
)

tau = 0.3 + 0.9j
tm = TorusModulus(tau)
print(f"torus modulus tau = {tau}, nome |nu| = {abs(tm.nome):.4f}")

# --- theta1: series vs triple product, and its quasi-periodicity --------
z = 0.13 + 0.07j
print(f"\ntheta1({z}) series  = {theta1(z, tm):.15g}")
print(f"theta1({z}) product = {theta1_product(z, tm):.15g}")

lhs = theta1(z + tau, tm)
rhs = -cmath.exp(-1j * math.pi * (tau + 2 * z)) * theta1(z, tm)
print(f"B-cycle factor check: |theta1(z+tau) + e^(-i pi (tau+2z)) theta1(z)|"
      f" = {abs(lhs - rhs):.2e}")

# --- wp: theta fast path against the lattice sum, rows in closed form ---
z = 0.37 + 0.21j
fast = wp(z, tm)
slow = wp_lattice_oracle(z, tm)
print(f"\nwp({z})      = {fast:.15g}")
print(f"lattice oracle  = {slow:.15g}   (diff {abs(fast - slow):.2e})")

# Landin's half-period doubling identity for wp'
z = 0.23 + 0.11j
tl = 1.4j
lhs = wp_dz(z, TorusModulus(tl / 2))
rhs = wp_dz(z, TorusModulus(tl)) + wp_dz(z + tl / 2, TorusModulus(tl))
print(f"Landin identity residual: {abs(lhs - rhs):.2e}")

# homogeneity under lattice rescaling
j = 1.7 - 0.2j
lhs = wp_general(0.21, GeneralLattice(1, 1j))
rhs = j**2 * wp_general(j * 0.21, GeneralLattice(j, 1j * j))
print(f"j-homogeneity residual:   {abs(lhs - rhs):.2e}")

# --- the Lame kernel and the three identities behind the Lax pair -------
u, v, z = 0.31 + 0.04j, 0.52 - 0.11j, 0.44 + 0.17j
xu, yu = lame_x(u, z, tm), lame_y(u, z, tm)
xv, yv = lame_x(v, z, tm), lame_y(v, z, tm)

print("\nLame kernel identities:")
r1 = xu * yv - yu * xv - lame_x(u + v, z, tm) * (wp(u, tm) - wp(v, tm))
print(f"  addition:  x(u)y(v) - y(u)x(v) = x(u+v)(wp(u) - wp(v)):"
      f"  {abs(r1):.2e}")
r2 = xu * lame_y(-u, z, tm) - yu * lame_x(-u, z, tm) - wp_dz(u, tm)
print(f"  wronskian: x(u)y(-u) - y(u)x(-u) = wp'(u):              "
      f"  {abs(r2):.2e}")
r3 = xu * lame_x(-u, z, tm) - (wp(z, tm) - wp(u, tm))
print(f"  product:   x(u)x(-u) = wp(z) - wp(u):                   "
      f"  {abs(r3):.2e}")

# rho's additive quasi-periodicity fixes the B-cycle twist downstream
print(f"\nrho(z+tau) - rho(z) = {rho(z + tau, tm) - rho(z, tm):.6g}"
      f"   (exactly -2 pi i = {-2j * math.pi:.6g})")
