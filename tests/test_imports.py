"""What an import loads: `import ellcm` no layer, and the scalar commands,
the scalar verify suites among them, no numpy; and the package's
re-exports, which resolve on first access."""

import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import ellcm

#: The names `ellcm` re-exports from its layers; of the monodromy triple
#: only `monodromy_data`, its one entry point.
EXPORTED = {
    "GeneralLattice", "TorusModulus", "lame_x", "lame_x_dtau", "lame_x_dz",
    "lame_y", "lattice_distance", "rho", "theta1", "theta1_d3z_at_0",
    "theta1_dz", "theta1_product", "wp", "wp_dz", "wp_dz_general",
    "wp_general", "wp_lattice_oracle",
    "EllipticState", "PainleveParams", "elliptic_p6_rhs",
    "elliptic_to_rational", "half_periods", "hamiltonian_manin",
    "hitchin_params", "landin_transform", "rational_p6_residual", "s4_shift",
    "scaling_symmetry",
    "CMConfig", "LocalExpansion", "PhasePoint", "eom", "gauge_lame",
    "hamiltonian_cm", "lax_A_periodic", "lax_A_quasi", "lax_L_periodic",
    "lax_L_quasi", "local_expansion", "quasi_periodicity_check",
    "residue_eigen", "zero_curvature_residual",
    "ExtendedTangent", "IntegratorConfig", "Trajectory", "extended_two_form",
    "hamiltonian_vector_field", "integrate_isomonodromic",
    "integrate_isospectral", "integrate_scalar_painleve",
    "symplectic_jacobian_check",
    "MonodromyData", "PathSpec", "cubic_relation_residual",
    "isomonodromy_drift", "moduli_dimensions", "monodromy_data",
    "spectral_distance", "transport",
    "DegenerateLatticeError", "EllcmError", "GaugeSingularityError",
    "IntegrationError", "PathError", "PoleProximityError", "SeriesRangeError",
    "SingularConfigurationError", "UsageError",
}


def fresh(code: str) -> str:
    """The stdout of code run in a new interpreter importing ellcm from
    this checkout's src/."""
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(root / "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_import_loads_no_layer():
    out = fresh("import sys, ellcm\n"
                "print(sorted(m for m in sys.modules\n"
                "             if m.split('.')[0] == 'numpy'\n"
                "             or m.startswith('ellcm.')))\n"
                "print(ellcm.wp.__module__, ellcm.flow.__name__)\n")
    assert out.splitlines() == ["[]", "ellcm.elliptic ellcm.flow"]


@pytest.mark.parametrize("argv", [
    ["eval", "wp", "--z", "0.3", "--tau", "1.0i"],
    ["eval", "lame-x", "--u", "0.3", "--z", "0.44+0.1i", "--tau", "0.9i"],
    ["symmetry", "landin", "--alpha", "0.1,0.2,0.2,0.1"],
    ["symmetry", "scaling", "--alpha", "0.1,0.2,0.3,0.4", "--q", "0.3",
     "--p", "0.2", "--tau", "1.0i", "--j", "2"],
    ["symmetry", "s4-shift", "--q", "0.3", "--tau", "1.0i", "--a", "3"],
    ["map", "--q", "0.25+0.1i", "--tau", "0.9i"],
    ["verify", "lame-identities", "--count", "2"],
    ["verify", "theta-heat", "--count", "2"],
])
def test_scalar_commands_leave_numpy_unloaded(argv):
    out = fresh("import sys\n"
                "from ellcm.cli import main\n"
                f"code = main({argv!r})\n"
                "print(code, 'numpy' in sys.modules)\n")
    assert out.splitlines()[-1] == "0 False"


def test_exports_resolve_in_their_layer():
    for name, layer in ellcm._EXPORTS.items():
        module = importlib.import_module(f"ellcm.{layer}")
        obj = getattr(ellcm, name)
        assert obj is getattr(module, name), name
        # defined there, not re-exported from elsewhere
        assert inspect.getmodule(obj) is module, name


def test_all_and_star_import():
    assert set(ellcm.__all__) == EXPORTED
    assert set(ellcm.__all__) <= set(dir(ellcm))
    namespace = {}
    exec("from ellcm import *", namespace)
    namespace.pop("__builtins__")
    assert namespace.keys() == EXPORTED
    with pytest.raises(AttributeError):
        ellcm.no_such_name
