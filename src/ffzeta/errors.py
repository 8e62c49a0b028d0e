"""Exception hierarchy shared across the package.

Every mathematically meaningful failure has its own class so callers (and
the CLI exit-code mapping) can react precisely.  All of them derive from
FFZetaError; the ones that signal bad *inputs* are also ValueErrors, the
ones that signal impossible *arithmetic* are ArithmeticErrors.
"""


class FFZetaError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(FFZetaError, ValueError):
    """Invalid configuration or argument combination."""


# ---- finite fields and polynomials -------------------------------------

class CompositeCharacteristic(UsageError):
    """The requested characteristic p is not prime."""


class ReducibleModulus(UsageError):
    """The supplied field modulus is not irreducible over F_p."""


class DegreeMismatch(UsageError):
    """The supplied modulus does not have the requested degree."""


class FieldMismatch(FFZetaError, ValueError):
    """Operands live over different finite fields."""


class DivisionByZero(FFZetaError, ZeroDivisionError):
    """Polynomial or series division by zero."""


class ZeroPolynomial(UsageError):
    """An operation that needs a nonzero polynomial received zero."""


class UnsupportedField(UsageError):
    """The operation is only defined over a specific base field."""


# ---- local fields -------------------------------------------------------

class ZeroInput(UsageError):
    """A valuation/unit decomposition was requested for zero."""


class NotAOneUnit(UsageError):
    """A 1-unit (valuation 0, leading coefficient 1) was required."""


class InsufficientPadicPrecision(UsageError):
    """The p-adic exponent carries fewer digits than the target precision needs."""


class NotCoprime(UsageError):
    """The argument shares a factor with the local prime."""


class NonConvergence(FFZetaError, ArithmeticError):
    """An iteration or root refinement that must converge did not;
    indicates a bug."""


class PreconditionViolated(UsageError):
    """A documented arithmetic precondition does not hold."""


# ---- Newton polygons ----------------------------------------------------

class AllCoefficientsVanish(FFZetaError, ArithmeticError):
    """Every coefficient of the family is zero to the working precision."""


class ProvisionalPolygon(FFZetaError, ArithmeticError):
    """The working precision is too small for a definitive polygon."""


class DerivativeVanishesToPrecision(FFZetaError, ArithmeticError):
    """Newton refinement hit a derivative that is zero to precision."""


# ---- Drinfeld modules ---------------------------------------------------

class BadReduction(FFZetaError, ArithmeticError):
    """Reduction at this prime drops the rank (leading coefficient vanishes)."""


class NoSolution(FFZetaError, ArithmeticError):
    """The Frobenius characteristic-polynomial system has no solution."""


# ---- cache / resources --------------------------------------------------

class CacheCorruption(FFZetaError, RuntimeError):
    """A cache entry failed to parse or disagreed with recomputation."""
