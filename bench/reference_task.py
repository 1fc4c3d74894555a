#!/usr/bin/env python3
"""Fixed reference task that run.py times between CLI commands.

    python3 bench/reference_task.py

Exact rank over Q of a seeded sparse banded +-1 matrix (4000 rows, four
entries each) by elimination on dict rows: the same kind of work as the
strathom CLI, in a fresh interpreter like each of its commands, but with
no code of strathom.  It never changes, so the time it takes follows only
the speed of the host.  Prints the rank, which must be EXPECTED_RANK.
"""

import random
import sys
from fractions import Fraction

EXPECTED_RANK = 3961


def reference_rank(n=4000, per_row=4, width=12, seed=12345) -> int:
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        cols = [(i + d) % n for d in rng.sample(range(width), per_row)]
        rows.append({c: Fraction(rng.choice((-1, 1))) for c in cols})
    pivots = {}
    for row in rows:
        while row:
            c = min(row)
            if c not in pivots:
                pivots[c] = row
                break
            prow = pivots[c]
            f = row[c] / prow[c]
            for k, v in prow.items():
                x = row.get(k, 0) - f * v
                if x:
                    row[k] = x
                else:
                    row.pop(k, None)
    return len(pivots)


if __name__ == "__main__":
    rank = reference_rank()
    print(rank)
    sys.exit(0 if rank == EXPECTED_RANK else 1)
