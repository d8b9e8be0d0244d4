"""ellcm: elliptic Calogero-Moser flows, torus monodromy transport, and the
elliptic form of Painleve VI.

The package is organized around five layers:

    elliptic   theta/wp/Lame kernels on the torus (series + oracles)
    painleve   the scalar elliptic flow, coordinate bridge, symmetries
    calogero   the n-body Lax pair in both gauges, Hamiltonians, eom
    flow       adaptive complex-segment integration, extended 2-form
    monodromy  fundamental-solution transport and the cubic relation

plus seeded verification suites (verify) and a CLI (cli).
"""

__version__ = "0.1.0"

from .elliptic import (
    GeneralLattice,
    TorusModulus,
    lame_x,
    lame_x_dtau,
    lame_x_dz,
    lame_y,
    lattice_distance,
    rho,
    theta1,
    theta1_d3z_at_0,
    theta1_dz,
    theta1_product,
    wp,
    wp_dz,
    wp_dz_general,
    wp_general,
    wp_lattice_oracle,
)
from .painleve import (
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
    scaling_symmetry,
)
from .calogero import (
    CMConfig,
    LocalExpansion,
    PhasePoint,
    eom,
    gauge_lame,
    hamiltonian_cm,
    lax_A_periodic,
    lax_A_quasi,
    lax_L_periodic,
    lax_L_quasi,
    local_expansion,
    quasi_periodicity_check,
    residue_eigen,
    zero_curvature_residual,
)
from .flow import (
    ExtendedTangent,
    IntegratorConfig,
    Trajectory,
    extended_two_form,
    hamiltonian_vector_field,
    integrate_isomonodromic,
    integrate_isospectral,
    integrate_scalar_painleve,
    symplectic_jacobian_check,
)
from .monodromy import (
    MonodromyData,
    PathSpec,
    cubic_relation_residual,
    isomonodromy_drift,
    moduli_dimensions,
    monodromy_A,
    monodromy_B,
    monodromy_data,
    monodromy_pole,
    spectral_distance,
    transport,
)
from .errors import (
    DegenerateLatticeError,
    EllcmError,
    GaugeSingularityError,
    IntegrationError,
    PathError,
    PoleProximityError,
    SeriesRangeError,
    SingularConfigurationError,
    UsageError,
)
