"""Exception hierarchy and process exit codes.

Every domain error carries a stable nonzero exit code so scripted callers of
the CLI can tell failure modes apart without parsing messages.  Code 1 is
reserved for unexpected internal errors, 2 for command-line / input syntax
problems (matching argparse).
"""

from __future__ import annotations


class AbeldiffError(Exception):
    """Base class for all domain errors."""

    exit_code = 1


class PolySyntaxError(AbeldiffError):
    """Curve text failed to parse; carries the offending position."""

    exit_code = 2

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnknownVariable(AbeldiffError):
    exit_code = 2

    def __init__(self, name: str, pos: int):
        super().__init__(f"unknown variable {name!r} (at position {pos}); only x and y are allowed")
        self.name = name
        self.pos = pos


class InvalidArgument(AbeldiffError):
    """A command-line value parsed but is out of range (a constant curve
    among them), or a repeated option was given more often than its partner
    option."""

    exit_code = 2


class NotSmooth(AbeldiffError):
    exit_code = 3


class MultipleRoots(AbeldiffError):
    exit_code = 4


class SameAbscissa(AbeldiffError):
    exit_code = 5


class PointNotOnCurve(AbeldiffError):
    exit_code = 6


class DegreeDrop(AbeldiffError):
    exit_code = 7


class VerticalTangent(AbeldiffError):
    exit_code = 8


class EvaluationAtPole(AbeldiffError):
    exit_code = 9


class DegeneratePoints(AbeldiffError):
    exit_code = 10


class NotInvertible(AbeldiffError):
    """A nonzero zero-divisor was inverted: some extension modulus is
    reducible and the element straddles its factors.

    ``modulus_index`` names the offending generator, ``factor`` is a monic
    nontrivial factor of that modulus (coefficients are Fractions when the
    factor is rational, tower elements otherwise).  Callers may split the
    modulus and retry, or abort with these diagnostics.
    """

    exit_code = 11

    def __init__(self, modulus_index: int, factor):
        self.modulus_index = modulus_index
        self.factor = factor
        super().__init__(
            f"zero divisor over generator t{modulus_index}; witness factor "
            f"coefficients {factor!r}"
        )


class ZeroDivision(AbeldiffError):
    exit_code = 12


class Inconsistent(AbeldiffError):
    """The linear system had no solution.  The construction's systems are
    consistent by theory, so this signals a bug or violated precondition."""

    exit_code = 13


class VerificationFailed(AbeldiffError):
    exit_code = 14


class NotSquareFree(AbeldiffError):
    exit_code = 16


class ZeroPolynomial(AbeldiffError):
    exit_code = 17


class ContextMismatch(AbeldiffError):
    exit_code = 18


class IrrationalAbscissaUnsupported(AbeldiffError):
    """Chosen points must have rational abscissas.

    This keeps every ordinate a root of a polynomial with rational
    coefficients, so the whole computation lives in one flat extension ring.
    """

    exit_code = 19


def exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, AbeldiffError):
        return exc.exit_code
    return 1
