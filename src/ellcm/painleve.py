"""The elliptic form of Painleve VI and its symmetry families.

The scalar system lives on the torus with modulus tau and reads

    (2 pi i)^2 q'' = sum_a alpha_a wp'(q + omega_a, tau),
    omega = (0, 1/2, (1+tau)/2, tau/2),

equivalently the Hamiltonian flow of

    H(q, p, tau) = p^2/2 - sum_a alpha_a wp(q + omega_a, tau)

with 2 pi i dq/dtau = dH/dp and 2 pi i dp/dtau = -dH/dq.

The rational coordinates (y, t) are reached through

    y = (wp(q) - e1)/(e3 - e1),   t = (e2 - e1)/(e3 - e1),

where e_a = wp(omega_a); y then satisfies the classical sixth Painleve
equation with parameters (alpha, -beta, gamma, 1/2 - delta) =
(alpha_0, alpha_1, alpha_2, alpha_3).

Sign-convention notes that deviate from the obvious transcription are
flagged inline; see the README for the summary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .elliptic import (
    TWO_PI_I,
    GeneralLattice,
    TorusModulus,
    wp,
    wp_dz,
)
from .errors import (DegenerateLatticeError, SingularConfigurationError,
                     UsageError)


@dataclass(frozen=True)
class PainleveParams:
    """The four parameters (alpha_0, alpha_1, alpha_2, alpha_3)."""

    alpha: tuple[complex, complex, complex, complex]

    def __post_init__(self):
        a = tuple(complex(v) for v in self.alpha)
        if len(a) != 4:
            raise ValueError("exactly four parameters expected")
        for v in a:
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError("parameters must be finite")
        object.__setattr__(self, "alpha", a)

    def classical(self) -> tuple[complex, complex, complex, complex]:
        """(alpha, beta, gamma, delta) of the rational sixth Painleve equation.

        The classical parameters attach to the singular points (inf, 0, 1, t)
        while the shifts omega_a map to (inf, 0, t, 1); matching images gives

            (alpha, -beta, gamma, 1/2 - delta) = (alpha_0, alpha_1, alpha_3, alpha_2),

        i.e. the t-attached parameter pairs with omega_2 = (1 + tau)/2 (the
        point the coordinate change sends to t) and the 1-attached one with
        omega_3 = tau/2.  The mapped-trajectory residual test pins this
        assignment.
        """
        a0, a1, a2, a3 = self.alpha
        return (a0, -a1, a3, 0.5 - a2)

    @classmethod
    def from_classical(cls, alpha, beta, gamma, delta) -> "PainleveParams":
        return cls((alpha, -beta, 0.5 - delta, gamma))


@dataclass(frozen=True)
class EllipticState:
    """Scalar phase point (q, p) with the modulus tau attached."""

    q: complex
    p: complex
    tau: complex

    def __post_init__(self):
        if not (complex(self.tau).imag > 0.0):
            raise ValueError("tau must lie in the upper half-plane")
        object.__setattr__(self, "q", complex(self.q))
        object.__setattr__(self, "p", complex(self.p))
        object.__setattr__(self, "tau", complex(self.tau))


def half_periods(tau: complex) -> tuple[complex, complex, complex, complex]:
    """(0, 1/2, 1/2 + tau/2, tau/2), indexed a = 0..3."""
    tau = complex(tau)
    if not tau.imag > 0:
        raise ValueError("tau must lie in the upper half-plane")
    return (0.0 + 0.0j, 0.5 + 0.0j, 0.5 + tau / 2.0, tau / 2.0)


def elliptic_p6_rhs(q: complex, tau: complex, params: PainleveParams
                    ) -> complex:
    """sum_a alpha_a wp'(q + omega_a, tau); callers divide by (2 pi i)^2.

    Terms with alpha_a = 0 are skipped, so q may sit at -omega_a without a
    pole error when that term is absent.
    """
    return _p6_force(q, tau, params, 1.0)


def _p6_force(q: complex, tau: complex, params: PainleveParams,
              s: complex) -> complex:
    """sum_a alpha_a wp'(q + omega_a) on the lattice (s, tau), whose
    half-periods are (0, s/2, s/2 + tau/2, tau/2), skipping alpha_a = 0.

    By homogeneity, wp'(z; w1, w2) = wp'(z/w1, w2/w1)/w1^3 for the
    generators (w1, w2) ordered as GeneralLattice.normalized orders them, so
    every term is evaluated on the one modulus w2/w1.  At s = 1 that is
    (1, tau): no term is rescaled.
    """
    s = complex(s)
    w1, w2 = GeneralLattice(s, tau).normalized()
    tm = TorusModulus(w2 / w1)
    omegas = (0.0, s / 2.0, s / 2.0 + tau / 2.0, tau / 2.0)
    total = 0j
    for a, w in zip(params.alpha, omegas):
        if a == 0:
            continue
        total += a * wp_dz((q + w) / w1, tm) / (w1 * w1 * w1)
    return total


def hamiltonian_manin(state: EllipticState, params: PainleveParams
                      ) -> complex:
    """p^2/2 - sum_a alpha_a wp(q + omega_a, tau)."""
    tm = TorusModulus(state.tau)
    omegas = half_periods(state.tau)
    total = state.p * state.p / 2.0
    for a, w in zip(params.alpha, omegas):
        if a == 0:
            continue
        total -= a * wp(state.q + w, tm)
    return total


def scalar_painleve_rhs(q: complex, p: complex, tau: complex,
                        params: PainleveParams, lattice_scale: complex = 1.0):
    """Right-hand side of the tau-flow: (dq/dtau, dp/dtau).

    With lattice_scale = s the system lives on the lattice (s, tau) with
    half-periods (0, s/2, (s+tau)/2, tau/2); s = 1 is the standard torus.
    The scaled variant is what the extended scaling symmetry maps onto.
    """
    force = _p6_force(q, tau, params, lattice_scale)
    return p / TWO_PI_I, force / TWO_PI_I


def elliptic_to_rational(q: complex, tau: complex
                         ) -> tuple[complex, complex]:
    """Map (q, tau) to the rational-side coordinates (y, t)."""
    tm = TorusModulus(tau)
    _, w1, w2, w3 = half_periods(tau)
    e1 = wp(w1, tm)
    e2 = wp(w2, tm)
    e3 = wp(w3, tm)
    den = e3 - e1
    scale = max(abs(e1), abs(e2), abs(e3), 1.0)
    if abs(den) < 1e-12 * scale:
        raise DegenerateLatticeError(
            f"wp(tau/2) - wp(1/2) vanishes at tau = {tau}"
        )
    y = (wp(q, tm) - e1) / den
    t = (e2 - e1) / den
    return y, t


def rational_p6_rhs(y: complex, y1: complex, t: complex,
                    params: PainleveParams) -> complex:
    """The right-hand side of the classical sixth Painleve equation."""
    al, be, ga, de = params.classical()
    half_sum = 0.5 * (1.0 / y + 1.0 / (y - 1.0) + 1.0 / (y - t))
    drift = 1.0 / t + 1.0 / (t - 1.0) + 1.0 / (y - t)
    rational = (
        y * (y - 1.0) * (y - t) / (t * t * (t - 1.0) ** 2)
        * (al + be * t / y**2 + ga * (t - 1.0) / (y - 1.0) ** 2
           + de * t * (t - 1.0) / (y - t) ** 2)
    )
    return half_sum * y1 * y1 - drift * y1 + rational


def rational_p6_residual(y: complex, y1: complex, y2: complex, t: complex,
                         params: PainleveParams, guard: float = 1e-9) -> complex:
    """y'' minus the sixth-Painleve right-hand side at (y, y', t)."""
    for val, name in ((t, "t"), (t - 1.0, "t - 1"), (y, "y"),
                      (y - 1.0, "y - 1"), (y - t, "y - t")):
        if abs(val) < guard:
            raise SingularConfigurationError(f"{name} vanishes within tolerance")
    return y2 - rational_p6_rhs(y, y1, t, params)


def landin_transform(params: PainleveParams
                     ) -> tuple[PainleveParams | None, bool]:
    """Half-period doubling: (a, b, b, a) maps to (4a, 4b, 0, 0).

    The identity wp'(z, tau/2) = wp'(z, tau) + wp'(z + tau/2, tau) pairs the
    shift points {omega_0, omega_3} and {omega_1, omega_2} (offset tau/2 in
    each pair), so applicability requires alpha_0 == alpha_3 and
    alpha_1 == alpha_2; the solution map is then q(tau) -> q(2 tau) with
    momentum doubled.  (The premise is sometimes quoted with the pairs
    interleaved the other way; the two-trajectory comparison in the test
    suite only closes for this pairing.)  Returns (new_params, True) or
    (None, False).
    """
    a0, a1, a2, a3 = params.alpha
    if a0 != a3 or a1 != a2:
        return None, False
    return PainleveParams((4.0 * a0, 4.0 * a1, 0.0, 0.0)), True


def scaling_symmetry(state: EllipticState, params: PainleveParams,
                     j: complex) -> tuple[EllipticState, PainleveParams]:
    """The lattice rescaling (q, tau, alpha) -> (j q, j tau, j^2 alpha).

    If q(tau) solves the flow on the lattice (1, tau) with parameters alpha,
    then j*q(tau/j) solves it on the lattice (j, j tau') (i.e. pass
    lattice_scale = j downstream) with parameters j^2 alpha.  The momentum
    p = 2 pi i dq/dtau is invariant under this map, which settles how p
    transports along the symmetry.

    Note: the j^2 weight follows from wp'(z, L) = j^3 wp'(jz, jL) together
    with d^2/dtau^2 picking up j^-1; a j^-3 weight does not map solutions
    to solutions (checked by two-trajectory comparison in the test suite).
    """
    j = complex(j)
    if j == 0:
        raise ValueError("scale factor j must be nonzero")
    new_state = EllipticState(j * state.q, state.p, j * state.tau)
    new_params = PainleveParams(tuple(j * j * a for a in params.alpha))
    return new_state, new_params


def s4_shift(q: complex, tau: complex, a: int) -> complex:
    """The half-period shift q -> q + omega_a, a in 0..3."""
    if a not in (0, 1, 2, 3):
        raise UsageError(f"half-period index {a} out of range 0..3")
    return q + half_periods(tau)[a]


def hitchin_params() -> PainleveParams:
    """Parameters reducing the flow to d^2 q/dtau^2 = (1/(2 pi^2)) wp'(q, tau).

    Matching (2 pi i)^2 q'' = alpha_0 wp' against q'' = wp'/(2 pi^2) gives
    alpha_0 = (2 pi i)^2 / (2 pi^2) = -2.
    """
    return PainleveParams((-2.0, 0.0, 0.0, 0.0))
