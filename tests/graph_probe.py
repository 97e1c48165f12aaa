"""Cost of one stable-graph solve that grows with its order.

usage: python3 tests/graph_probe.py [ROOT] [ORDER ...]

ROOT (default: the checkout holding this file) is a source tree with
src/ultradyn, imported as it is; the orders default to 24, 30 and 36.  The
map is the probe of ROADMAP item 16 over Q_5: F'(0) = S diag-block S^-1
with root valuations 1, 2 and -1, and one degree-9 monomial per component
(3/7 x^7 y z, 4/7 x y^8 and 5/7 x^9), so its Stable graph has two base
variables and one complement variable.  For each order, one line gives
the CPU seconds of graph_series in Stable mode at a = 1 (after one solve
at order 2 has built the map's analysis) and the sha256 of repr() of its
coefficients:

    order <order>: <seconds> s cpu, coefficients <sha256>

Compare two trees' lines to check that a change kept the coefficients.
pytest does not collect this file (no test_ prefix).
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from fractions import Fraction

F = Fraction
S = [[1, 2, 1], [0, 1, 3], [1, 1, 2]]
BLOCKS = [[5, 1, 2], [0, 25, 3], [0, 0, F(1, 5)]]
MONOMIALS = [((7, 1, 1), F(3, 7)), ((1, 8, 0), F(4, 7)), ((9, 0, 0), F(5, 7))]


def probe_map(polymap):
    """The probe map as a polymap (the PolyMap class of the tree at hand)."""
    det = sum(S[0][j] * (S[1][(j + 1) % 3] * S[2][(j + 2) % 3]
                         - S[1][(j + 2) % 3] * S[2][(j + 1) % 3]) for j in range(3))
    sinv = [[F(S[(j + 1) % 3][(i + 1) % 3] * S[(j + 2) % 3][(i + 2) % 3]
               - S[(j + 1) % 3][(i + 2) % 3] * S[(j + 2) % 3][(i + 1) % 3], det)
             for j in range(3)] for i in range(3)]
    lin = [[sum(F(S[i][k]) * BLOCKS[k][m] * sinv[m][j] for k in range(3) for m in range(3))
            for j in range(3)] for i in range(3)]
    tables = []
    for i, (mono, c) in enumerate(MONOMIALS):
        t = {tuple(int(q == j) for q in range(3)): lin[i][j] for j in range(3) if lin[i][j]}
        t[mono] = c
        tables.append(t)
    return polymap.from_tables(tables, 5, 3)


def main(argv):
    args = argv[1:]
    if args and not args[0].isdigit():
        root = os.path.abspath(args.pop(0))
    else:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(root, "src")]
    from ultradyn.dynamics import PolyMap
    from ultradyn.manifolds import STABLE, graph_series

    # coefficients past order 64 have numerators of more than 4300 digits,
    # the default cap of int-to-str conversion since Python 3.11
    getattr(sys, "set_int_max_str_digits", lambda _: None)(0)
    f = probe_map(PolyMap)
    graph_series(f, F(1), STABLE, order=2)
    for order in map(int, args or (24, 30, 36)):
        start = time.process_time()
        gs = graph_series(f, F(1), STABLE, order=order)
        seconds = time.process_time() - start
        digest = hashlib.sha256(repr(gs.coefficients).encode()).hexdigest()
        print(f"order {order}: {seconds:.2f} s cpu, coefficients {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
