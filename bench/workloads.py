"""Seeded workload generators.

A workload is one cycle of ops, run again and again in a closed loop.  The
seed draws the offsets, rows, points, coefficients, bit targets and order.
The op types and sizes are fixed, so every seed gives the same kind and
amount of work, and a run's figures do not hinge on a lucky draw.

Each op is a plain dict.  `digits` is the number of binary digits the op
certifies: digits compared or produced for digit streams, digits scanned by
a counterexample scan, the prefix length of a sweep, the bits to which an
endpoint is located.
"""

from __future__ import annotations

import random

WORKLOADS = ("exact_digits", "transcendental", "discovery", "readme_cli")

DIGIT_LADDER = (100, 250, 500, 1000, 2000)
TRACE_LADDER = (50, 80, 120, 170, 230, 300)
SWEEP_DEPTHS = (62, 200, 400, 600, 800, 1000)

# Offsets in the package's expression grammar, one per TRACE_LADDER slot.
# `scale` is the constant the coefficient a/b multiplies; None means fixed.
TEMPLATES = (
    ("1-pi^2/e^3", None),
    ("{a}*pi/{b}", 3.141592653589793),
    ("{a}*e/{b}", 2.718281828459045),
    ("{a}/({b}*pi)", 0.3183098861837907),
    ("{a}/({b}*e)", 0.36787944117144233),
    ("{a}*pi/({b}*e)", 1.1557273497909217),
)

# The README's nine commands, run with --no-timing.
README_COMMANDS = (
    ("digits", "--epsilon", "1/2", "--count", "10"),
    ("digits", "--epsilon", "1-pi^2/e^3", "--count", "40"),
    ("verify", "--pair", "all", "--depth", "200"),
    ("counterexample", "--epsilon", "0.2928"),
    ("discover", "--row", "6"),
    ("corollary", "--max-n", "150"),
    ("plotdata", "--figure", "2", "--csv", "--range", "0.40:0.60", "--depth", "62"),
    ("sweep", "--depth", "21", "--csv"),
    ("table",),
)
README_DIGITS = {  # digits each command certifies, as defined above
    "digits": None, "verify": 8 * 3 * 200, "counterexample": 3067,
    "discover": 200, "corollary": 150, "plotdata": 7 * 90, "sweep": 10,
    "table": 10,
}


def _domain_decimal(rng: random.Random) -> str:
    """A 4-digit decimal in [0.2929, 0.7071), inside [1-sqrt2/2, sqrt2/2)."""
    return f"0.{rng.randint(2929, 7070):04d}"


def _offset(rng: random.Random, slot: int) -> str:
    text, scale = TEMPLATES[slot]
    if scale is None:
        return text
    while True:
        a, b = rng.randint(1, 9), rng.randint(1, 40)
        if 0.30 <= a * scale / b <= 0.70:
            return text.format(a=a, b=b)


def exact_digits(rng: random.Random) -> list[dict]:
    ops = []
    for n in DIGIT_LADDER:
        row = rng.randint(1, 8)
        for point in ("xi1", "mid", "xi2-delta"):
            ops.append({"op": "verify_pair", "row": row, "point": point,
                        "n": n, "digits": n})
        ops.append({"op": "digits", "eps": _domain_decimal(rng), "n": n, "digits": n})
        ops.append({"op": "first_bad", "eps": _domain_decimal(rng), "limit": n,
                    "digits": n})
    # the paper's counterexample: digit 3067 of eps = 0.2928 is -1
    ops.append({"op": "first_bad", "eps": "0.2928", "limit": 4000, "digits": 3067})
    return ops


def transcendental(rng: random.Random) -> list[dict]:
    ops = []
    for slot, n in enumerate(TRACE_LADDER):
        for fresh in (True, False):
            ops.append({"op": "trace", "expr": _offset(rng, slot), "fresh": fresh,
                        "n": n, "digits": n})
    for n in (60, 150, 300):
        ops.append({"op": "corollary", "n": n, "digits": n})
    return ops


def discovery(rng: random.Random) -> list[dict]:
    ops = []
    for base in SWEEP_DEPTHS:
        depth = base if base == 62 else round(base * rng.uniform(0.99, 1.01))
        ops.append({"op": "sweep", "depth": depth, "digits": (depth - 1) // 2})
    for row in range(2, 9):  # row 1's left endpoint is the domain boundary
        # The seed places the bracketing window (margins in millionths);
        # the bits asked for are fixed per row, so every seed bisects alike.
        tol = 200 if row % 2 == 0 else 120
        ops.append({"op": "rediscover", "row": row, "tol_bits": tol,
                    "margins": [rng.randint(500, 2000), rng.randint(500, 2000)],
                    "digits": tol})
    for _ in range(6):
        ops.append({"op": "verify_endpoint", "row": rng.randint(1, 8),
                    "side": rng.choice(("left", "right")), "digits": 60})
    for _ in range(2):
        digit_depth = rng.randint(8, 10)
        ops.append({"op": "reconstruct", "depth": 21, "digit_depth": digit_depth,
                    "l_bound": 6, "digits": digit_depth})
    return ops


def readme_cli(rng: random.Random) -> list[dict]:
    ops = []
    for argv in README_COMMANDS:
        digits = README_DIGITS[argv[0]] or int(argv[-1])
        ops.append({"op": "cli", "argv": list(argv), "digits": digits})
    return ops


def cycle(workload: str, seed: int) -> list[dict]:
    """One seeded cycle of ops, shuffled."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    ops = globals()[workload](rng)
    rng.shuffle(ops)
    return ops
