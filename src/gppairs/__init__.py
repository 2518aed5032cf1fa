"""Exact arithmetic for Graham-Pollak style floor recurrences in Q(sqrt2).

The package generates the sequences v_1 = 1, v_{n+1} = floor(sqrt2*(v_n+eps))
at odd n and floor(sqrt2*(v_n+1/2)) at even n, extracts binary digits
d_n = v_{2n+1} - 2 v_{2n-1}, verifies and certifies the eight known
(epsilon-interval, target) pairs, and rediscovers their endpoints from
scratch by exact sweeping, bisection, and integer-relation identification.
"""

from .exact import QSqrt2, floor_q, frac_q, isqrt
from .engine import (
    DigitStream,
    SequenceSpec,
    SequenceTrace,
    closed_form_check,
    corollary_check,
    digits_from_trace,
    digits_of_target,
    first_bad_digit,
    generate,
    lemma_checks,
    normality_probe,
    verify_pair,
)
from .discovery import (
    bisect_jump,
    certify_pair,
    identify_halfint_sqrt2,
    min_poly_deg2,
    reconstruct_table,
    sweep,
    validate_partition,
    verify_endpoint,
)
from .reals import RealInterval, RefinableReal, UndecidableError, certified_floor
from .table import DOMAIN_HI, DOMAIN_LO, THEOREM_TABLE, AlgebraicTarget, GPPairEntry, entry, halfint

__version__ = "0.1.0"

__all__ = [
    "QSqrt2", "floor_q", "frac_q", "isqrt",
    "DigitStream", "SequenceSpec", "SequenceTrace", "certify_pair",
    "closed_form_check", "corollary_check", "digits_from_trace",
    "digits_of_target", "first_bad_digit", "generate", "lemma_checks",
    "normality_probe", "verify_pair",
    "bisect_jump", "identify_halfint_sqrt2", "min_poly_deg2",
    "reconstruct_table", "sweep", "validate_partition", "verify_endpoint",
    "RealInterval", "RefinableReal", "UndecidableError", "certified_floor",
    "DOMAIN_HI", "DOMAIN_LO", "THEOREM_TABLE", "AlgebraicTarget",
    "GPPairEntry", "entry", "halfint",
    "__version__",
]
