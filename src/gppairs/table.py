"""The eight (epsilon-interval, target) rows and their algebraic data.

Every interval endpoint has the form (c/2)*sqrt2 - d with integer c, d;
every target has the form (alpha*sqrt2 - beta)/2^l with alpha odd.
"""

from __future__ import annotations

from typing import NamedTuple

from .exact import QSqrt2, _make


def halfint(c: int, d: int) -> QSqrt2:
    """The value (c/2)*sqrt2 - d, that is (-2d + c*sqrt2)/2."""
    return _make(-2 * d, c, 2)


# universal epsilon domain [1 - sqrt2/2, sqrt2/2) from the induction's
# epsilon constraint
DOMAIN_LO = halfint(-1, -1)
DOMAIN_HI = halfint(1, 0)
# its inner band [sqrt2/4, 1 - sqrt2/4), where every digit is binary
# whatever the trace (engine.first_bad_digit, Lemma A)
INNER_LO = _make(0, 1, 4)
INNER_HI = _make(4, -1, 4)


class AlgebraicTarget(NamedTuple):
    """A target t = (alpha*sqrt2 - beta) / 2^l with gamma = 2*alpha + beta."""

    alpha: int
    beta: int
    l: int

    @property
    def gamma(self) -> int:
        return 2 * self.alpha + self.beta

    def value(self) -> QSqrt2:
        return _make(-self.beta, self.alpha, 1 << self.l)

    @property
    def direct(self) -> bool:
        """The direct case t = sqrt2, whose row gives the digits of sqrt2."""
        return self == SQRT2_TARGET

    def structure_ok(self) -> bool:
        """alpha odd and alpha + beta = 2^(l+1); holds for every table row
        except the direct case."""
        return self.alpha % 2 == 1 and self.alpha + self.beta == 1 << (self.l + 1)


SQRT2_TARGET = AlgebraicTarget(1, 0, 0)


class GPPairEntry(NamedTuple):
    """One table row: half-open epsilon interval [xi1, xi2) plus its target."""

    index: int
    xi1: QSqrt2
    xi2: QSqrt2
    target: AlgebraicTarget

    @property
    def midpoint(self) -> QSqrt2:
        return (self.xi1 + self.xi2) / 2

    @property
    def certification_depth(self) -> int:
        """Trace depth 2*(l+2) at which Eq.-style base cases are checked; for
        the direct case 62, where its right end (row 6's left end) is a jump."""
        return 62 if self.target.direct else 2 * (self.target.l + 2)


THEOREM_TABLE: tuple[GPPairEntry, ...] = (
    GPPairEntry(1, halfint(-1, -1), halfint(2, 1), AlgebraicTarget(1, 1, 0)),
    GPPairEntry(2, halfint(2, 1), halfint(19, 13), AlgebraicTarget(11, 5, 3)),
    GPPairEntry(3, halfint(19, 13), halfint(77, 54), AlgebraicTarget(45, 19, 5)),
    GPPairEntry(4, halfint(77, 54), halfint(309, 218), AlgebraicTarget(181, 75, 7)),
    GPPairEntry(5, halfint(309, 218), halfint(1296121037, 916495974), SQRT2_TARGET),
    GPPairEntry(6, halfint(1296121037, 916495974), halfint(79109, 55938),
                AlgebraicTarget(759250125, 314491699, 29)),
    GPPairEntry(7, halfint(79109, 55938), halfint(5, 3),
                AlgebraicTarget(46341, 19195, 15)),
    GPPairEntry(8, halfint(5, 3), halfint(1, 0), AlgebraicTarget(3, 1, 1)),
)


def entry(index: int) -> GPPairEntry:
    if not 1 <= index <= 8:
        raise ValueError(f"row index must be 1..8, got {index}")
    return THEOREM_TABLE[index - 1]
