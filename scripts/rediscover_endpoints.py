#!/usr/bin/env python3
"""Recover every interior interval endpoint from scratch: full-domain sweep
at depth 62, then, as a cross-check, bisection + algebraic identification
from each row's target alone."""

from gppairs import DOMAIN_HI, DOMAIN_LO, THEOREM_TABLE, sweep
from gppairs.discovery import halfint_form, rediscover_left_endpoint


def main() -> int:
    cells = sweep(DOMAIN_LO, DOMAIN_HI, depth=62)
    print(f"full-domain sweep at depth 62: {len(cells)} cells")
    expected = [halfint_form(p.xi1) for p in THEOREM_TABLE]
    ok = True
    for cell, want in zip(cells, expected):
        got = halfint_form(cell.lo)
        tag = "ok" if got == want else f"MISMATCH (expected {want})"
        print(f"  cell starts at (c,d)={got}  {tag}")
        ok &= got == want

    print("\nbisection + identification cross-check:")
    for pair in THEOREM_TABLE[1:]:
        _, (c, d), poly = rediscover_left_endpoint(pair, tol_bits=200)
        match = halfint_form(pair.xi1) == (c, d)
        print(f"  row {pair.index}: (c,d)=({c},{d}) minpoly {poly}  "
              f"{'ok' if match else 'MISMATCH'}")
        ok &= match
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
