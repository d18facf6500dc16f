"""Exception types raised by the passivenode library."""

from contextlib import contextmanager


class PassiveNodeError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(PassiveNodeError):
    """Matrix dimensions are not conformable, a size is not a valid count, or an
    argument is not a number of the kind it must be."""


class NonFiniteMatrix(PassiveNodeError):
    """A matrix holds a NaN or infinite entry, or one beyond linalg.ENTRY_LIMIT."""


class InvalidTolerance(PassiveNodeError):
    """PASSIVE_NODE_TOL is not a finite number > 0, or an audit tol not one >= 0."""


class SingularResolvent(PassiveNodeError):
    """sI - A (or zI - Ad) is singular to working precision."""


class NotSquare(PassiveNodeError):
    """Operation requires an equal number of inputs and outputs."""


class OmegaInSpectrum(PassiveNodeError):
    """The requested i*omega lies in the spectrum of A."""


class ASSViolated(PassiveNodeError):
    """The colocation resolvent identity B*(iwI+A*)^-1 = C(iwI-A)^-1 fails."""


class NotESAD(PassiveNodeError):
    """A + A* = -Q with Q >= 0 does not hold."""


class NotColocated(PassiveNodeError):
    """C = B* (in the state inner product) does not hold."""


class NotSelfAdjoint(PassiveNodeError):
    """Matrix expected to be self-adjoint is not."""


class NotSelfAdjointDissipative(PassiveNodeError):
    """A = A* <= 0 does not hold."""


class AlphaInSpectrum(PassiveNodeError):
    """Cayley parameter alpha lies in the spectrum of A."""


class AlphaNotRightHalfPlane(PassiveNodeError):
    """Cayley parameter alpha must satisfy Re(alpha) > 0."""


class MinusOneEigenvalue(PassiveNodeError):
    """-1 is an eigenvalue of Ad: no continuous-time generator exists."""


class NonPositiveAlpha(PassiveNodeError):
    """Laguerre parameter alpha must satisfy Re(alpha) > 0."""


class NotImpedancePassive(PassiveNodeError):
    """Operation requires an impedance-passive node."""


class SingularIPlusKD(PassiveNodeError):
    """I + k*D is singular; diagonal transform undefined."""


class SingularIMinusKD(PassiveNodeError):
    """I - K*D is singular; feedback inadmissible at finite dimension."""


class KappaOutOfRange(PassiveNodeError):
    """Feedback gain kappa is outside the open interval (0, kappa0)."""


class NotAlmostPassive(PassiveNodeError):
    """The shifted node Sigma_E fails impedance-passivity certification."""


class NotContraction(PassiveNodeError):
    """A does not generate a contraction semigroup (WA + A*W <= 0 fails)."""


class SingularA0(PassiveNodeError):
    """Stiffness matrix A0 is singular."""


class InvalidTimeGrid(PassiveNodeError):
    """A time grid needs a finite horizon T > 0 and an integer steps >= 1 it can allocate."""


class NonFiniteState(PassiveNodeError):
    """A signal met a non-finite state (blow-up), output or input value."""


class ParseError(PassiveNodeError):
    """Input file is not valid JSON, a file cannot be read or written, or the
    command line is not valid."""


class SchemaError(PassiveNodeError):
    """Input file does not match the expected schema."""


@contextmanager
def file_errors(path):
    """Raise an OSError met while reading or writing path as ParseError("<path>: ...")."""
    try:
        yield
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
