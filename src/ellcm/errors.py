"""Exception types shared across the package."""


class EllcmError(Exception):
    """Base class for all structured errors raised by ellcm."""


class PoleProximityError(EllcmError):
    """An evaluation point is within the exclusion radius of a lattice point.

    Attributes
    ----------
    point : complex
        The offending value.
    variable : str
        Name of the argument that triggered the guard.
    distance : float
        Reduced distance to the nearest lattice point.
    """

    def __init__(self, point, variable, distance):
        self.point = complex(point)
        self.variable = variable
        self.distance = float(distance)
        super().__init__(
            f"{variable} = {point} is within {distance:.3e} of a lattice point"
        )


class UsageError(EllcmError, ValueError):
    """A value outside its stated range, or a malformed command line."""


class SeriesRangeError(EllcmError):
    """The theta series leaves double precision: a term overflows, or the
    leading coefficient is too small to keep its digits."""


class DegenerateLatticeError(EllcmError):
    """Lattice generators are collinear, or a modulus denominator vanished."""


class GaugeSingularityError(EllcmError):
    """The Lame gauge matrix is (numerically) non-invertible at this point."""


class SingularConfigurationError(EllcmError):
    """A rational-side precondition (t not in {0,1}, y not in {0,1,t}) failed."""


class PathError(EllcmError):
    """A transport or deformation path violates its validity constraints."""


class IntegrationError(EllcmError):
    """The ODE driver could not complete within its step budget."""
