"""Exception hierarchy shared by all coxsaito modules."""


class CoxsaitoError(Exception):
    """Base class for all errors raised by this package."""


class DivisionByZero(CoxsaitoError):
    pass


class NonInvertible(CoxsaitoError):
    """Inversion failed in a number field.

    Signals a reducible minimal polynomial, i.e. a configuration error in the
    field description, not a bug in the arithmetic.
    """


class DimensionMismatch(CoxsaitoError):
    pass


class SingularMatrix(CoxsaitoError):
    pass


class NonPolynomialEntry(CoxsaitoError):
    """A matrix entry that is provably polynomial failed exact division.

    Raised by the pipeline integrity certification; indicates corrupted input
    data or an implementation bug, never a legitimate mathematical outcome.
    """


class NonPolynomialCoefficients(CoxsaitoError):
    """A derivation needed polynomial coefficients but carried fractions."""


class UnsupportedType(CoxsaitoError):
    pass


class RankOutOfRange(CoxsaitoError):
    pass


class ValidationError(CoxsaitoError):
    """Base class for basic-invariant validation failures."""


class WrongDegrees(ValidationError):
    pass


class NotInvariant(ValidationError):
    pass


class JacobianCriterionFailed(ValidationError):
    pass


class ParseError(CoxsaitoError):
    pass


class ConfigError(CoxsaitoError):
    """Bad run configuration: unknown suites, out-of-range bounds, etc."""
