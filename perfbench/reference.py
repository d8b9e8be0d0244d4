"""High-precision mpmath reference for the elliptic kernels.

ellcm's theta1 is 2 sum_k (-1)^k exp(i pi tau (k+1/2)^2) sin((2k+1) pi z).
mpmath's ``jtheta(1, pi z, q)`` with q = exp(i pi tau) is the same series
except for the branch of q^(1/4): mpmath takes the principal root of q, which
differs from exp(i pi tau / 4) by a fourth root of unity once |Re tau| > 1.
The factor is constant in z, so only theta1 and theta1' carry it; rho, wp,
wp' and the Lame kernels are ratios in which it cancels.

The reference never reduces z modulo the lattice, so it shares no code path
with the fast kernels it checks.
"""

from __future__ import annotations

import mpmath

DPS = 30


class ModulusReference:
    """Exact-enough kernel values for one modulus tau."""

    def __init__(self, tau: complex):
        mpmath.mp.dps = DPS
        self.tau = mpmath.mpc(tau)
        self.q = mpmath.exp(1j * mpmath.pi * self.tau)
        self.branch = (mpmath.exp(1j * mpmath.pi * self.tau / 4)
                       / mpmath.power(self.q, mpmath.mpf(1) / 4))
        d1 = self._d(0, 1)
        d3 = self._d(0, 3)
        self.theta_dz0 = d1
        self.wp_shift = d3 / (3 * d1)

    def _d(self, z, k):
        """k-th z-derivative of theta1 at z, without the branch factor."""
        return mpmath.pi ** k * mpmath.jtheta(1, mpmath.pi * mpmath.mpc(z),
                                              self.q, k)

    def values(self, u: complex, z: complex) -> dict[str, complex]:
        """Every benchmarked kernel at z (and at (u, z) for the Lame ones)."""
        mpmath.mp.dps = DPS
        t0, t1, t2, t3 = (self._d(z, k) for k in range(4))
        r = t1 / t0
        b = t2 / t0
        c = t3 / t0
        zu = mpmath.mpc(z) - mpmath.mpc(u)
        s_u, s_zu = self._d(u, 0), self._d(zu, 0)
        r_u = self._d(u, 1) / s_u
        r_zu = self._d(zu, 1) / s_zu
        x = s_zu * self.theta_dz0 / (t0 * s_u)
        return {
            "theta1": complex(self.branch * t0),
            "theta1_dz": complex(self.branch * t1),
            "rho": complex(r),
            "wp": complex(r * r - b + self.wp_shift),
            "wp_dz": complex(3 * r * b - c - 2 * r ** 3),
            "lame_x": complex(x),
            "lame_y": complex(-x * (r_u + r_zu)),
        }


def rel_error(value: complex, ref: complex) -> float:
    """The suites' residual: |a - b| / max(1, |a|, |b|); inf when not finite."""
    try:
        value = complex(value)
    except (TypeError, ValueError):
        return float("inf")
    err = abs(value - ref) / max(1.0, abs(value), abs(ref))
    return err if err == err else float("inf")
