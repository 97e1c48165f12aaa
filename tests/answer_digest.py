"""Answer digests of the benchmark workloads, for changes that must keep
every answer byte-identical.

usage: python3 tests/answer_digest.py [ROOT]

ROOT (default: the checkout holding this file) is a source tree with
src/ultradyn, tests/helpers.py and bench/workloads.py; the workloads are
imported from it as they are.  For each workload and seed below, a fresh
workload (no warm-up) computes its rounds' problems in order, an exception
counting as its workloads.Raised, and one line gives the sha256 of repr()
of every answer, fed one answer at a time:

    <workload> seed <seed> rounds 0-<last>: <answers> answers <sha256>

Compare the lines of two trees to check that a change kept every answer.
pytest does not collect this file (no test_ prefix).
"""

from __future__ import annotations

import hashlib
import os
import sys

# (workload, rounds): linear-build builds every analysis afresh, so three
# rounds (111 problems) cover its mix; the others are cheaper per problem
ROUNDS = (("map-certify", 6), ("linear-build", 3), ("norm-query", 6))
SEEDS = (1, 2027)


def digest(workloads, name, seed, rounds):
    """(number of answers, sha256 hex digest) of the workload's rounds."""
    wl = workloads.WORKLOADS[name](seed)
    h, count = hashlib.sha256(), 0
    for r in range(rounds):
        for problem in wl.round(r):
            try:
                res = problem.compute()
            except Exception as exc:  # an answer too: the problem's Raised
                res = workloads.Raised(exc)
            h.update(repr(res).encode())
            count += 1
    return count, h.hexdigest()


def main(argv):
    root = os.path.abspath(argv[1] if len(argv) > 1 else
                           os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    sys.path[:0] = [os.path.join(root, d) for d in ("src", "tests", "bench")]
    import workloads

    for name, rounds in ROUNDS:
        for seed in SEEDS:
            count, hexdigest = digest(workloads, name, seed, rounds)
            print(f"{name} seed {seed} rounds 0-{rounds - 1}: {count} answers {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
