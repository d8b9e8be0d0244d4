"""ellcm: elliptic Calogero-Moser flows, torus monodromy transport, and the
elliptic form of Painleve VI.

The package is organized around five layers:

    elliptic   theta/wp/Lame kernels on the torus (series + oracles)
    painleve   the scalar elliptic flow, coordinate bridge, symmetries
    calogero   the n-body Lax pair in both gauges, Hamiltonians, eom
    flow       adaptive complex-segment integration, extended 2-form
    monodromy  fundamental-solution transport and the cubic relation

plus seeded verification suites (verify) and a CLI (cli).

``import ellcm`` loads none of them: each name below is imported from its
layer on first access (PEP 562), so a caller pays only for the layers, and
numpy, that it uses.
"""

import importlib

__version__ = "0.1.0"

#: Each re-exported name and the layer that defines it.
_EXPORTS = {name: layer for layer, names in {
    "elliptic": """GeneralLattice TorusModulus lame_x lame_x_dtau lame_x_dz
        lame_y lattice_distance rho theta1 theta1_d3z_at_0 theta1_dz
        theta1_product wp wp_dz wp_dz_general wp_general wp_lattice_oracle""",
    "painleve": """EllipticState PainleveParams elliptic_p6_rhs
        elliptic_to_rational half_periods hamiltonian_manin hitchin_params
        landin_transform rational_p6_residual s4_shift scaling_symmetry""",
    "calogero": """CMConfig LocalExpansion PhasePoint eom gauge_lame
        hamiltonian_cm lax_A_periodic lax_A_quasi lax_L_periodic lax_L_quasi
        local_expansion quasi_periodicity_check residue_eigen
        zero_curvature_residual""",
    "flow": """ExtendedTangent IntegratorConfig Trajectory extended_two_form
        hamiltonian_vector_field integrate_isomonodromic integrate_isospectral
        integrate_scalar_painleve symplectic_jacobian_check""",
    "monodromy": """MonodromyData PathSpec cubic_relation_residual
        isomonodromy_drift moduli_dimensions monodromy_data
        spectral_distance transport""",
    "errors": """DegenerateLatticeError EllcmError GaugeSingularityError
        IntegrationError PathError PoleProximityError SeriesRangeError
        SingularConfigurationError UsageError""",
}.items() for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    layer = _EXPORTS.get(name)
    if layer is not None:
        # not cached here, so a name rebound in its layer shows through
        return getattr(importlib.import_module(f"{__name__}.{layer}"), name)
    if name in _EXPORTS.values():
        # a layer itself, as the eager imports used to bind it
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS})
