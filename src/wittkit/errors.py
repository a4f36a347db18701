"""Shared error taxonomy.

Every failure mode that callers are expected to catch gets its own class so
the CLI can map them to exit codes without string matching.
"""


class WittkitError(Exception):
    """Base class for all package errors."""


class InputError(WittkitError):
    """Malformed or inconsistent user input."""


class ComputationError(WittkitError):
    """Input was well formed but the requested computation is undefined on it."""


class InvariantViolated(ComputationError):
    """An identity that the method guarantees does not hold."""


def check(ok, message: str) -> None:
    """Raise InvariantViolated unless ok; unlike assert, kept under -O."""
    if not ok:
        raise InvariantViolated(message)


# ---- exact algebra ----

class SingularMatrix(ComputationError):
    pass


class SingularForm(ComputationError):
    pass


class NotInvertibleInNovikov(ComputationError):
    pass


# ---- finite linking forms ----

class EvenPrimeUnsupported(ComputationError):
    """Witt classification at p = 2 is out of scope; the brute-force oracle
    still accepts p = 2."""


class SearchSpaceTooLarge(ComputationError):
    pass


class FactorizationTooLarge(ComputationError):
    """An order or prime with no factor below the trial-division bound and
    too large to be certified prime by it."""


class SingularOverFractionField(ComputationError):
    pass


# ---- Laurent linking forms ----

class NotTorsion(ComputationError):
    pass


class NotPTorsion(ComputationError):
    pass


class NotSelfConjugate(ComputationError):
    pass


# ---- Seifert / autometric forms ----

class SingularSeifertForm(InputError):
    pass


class SingularAutometricForm(InputError):
    pass


class NotEInvariant(ComputationError):
    pass


# ---- knot pipeline ----

class NotAKnotForm(InputError):
    pass


class SingularAtRoot(ComputationError):
    pass


class NotSymmetricCase(ComputationError):
    pass


class SignatureNotDivisibleBy8(ComputationError):
    pass


class MixedSymmetry(InputError):
    pass
