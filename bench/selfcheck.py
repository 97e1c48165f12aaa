"""Self-checks of the benchmark itself.

usage: python3 bench/selfcheck.py

1. With ``--perturb-oracle`` the expected spectra are deliberately wrong;
   every such problem must be counted as failed and the run marked
   incorrect.
2. A traced run must give exactly the same problem results as the untraced
   pass it replays (``traced_results_identical``), so tracing never changes
   an answer.
3. A known-defect problem that fails in a new way must count as an
   unexpected failure, and one that fails as today must not.
4. A membership verdict that is not certified, where a certificate exists
   by construction, must count as a failure.

Exits 0 when all four hold.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
ROOT = os.path.dirname(HERE)


def bench(*args):
    proc = subprocess.run([sys.executable, RUN] + list(args), capture_output=True,
                          text=True, cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"run.py {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    return lines[-1], lines


def main():
    ok = True
    for workload in ("linear-build", "cli-batch"):
        last, _ = bench("--workload", workload, "--seed", "1", "--seconds", "3",
                        "--trace", "0", "--perturb-oracle")
        wrong = last["failed"] > 0 and not last["correct"]
        print(f"perturbed oracle on {workload}: {last['failed']} of {last['attempted']} "
              f"problems failed, correct={last['correct']} -> {'ok' if wrong else 'MISSED'}")
        ok &= wrong
    for workload in ("linear-build", "map-certify"):
        last, lines = bench("--workload", workload, "--seed", "1", "--seconds", "4",
                            "--trace", "1")
        same = any(line.get("traced_results_identical") for line in lines)
        print(f"traced run on {workload}: identical results={same}, "
              f"correct={last['correct']} -> {'ok' if same and last['correct'] else 'DIFFERS'}")
        ok &= same and last["correct"]
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]
    import workloads

    prob = workloads.Problem("graph with order true", None, None,
                             defect="cli-graph-order-true")
    today = workloads.Check(errors=["exit code 0, expected 4"])
    new = workloads.Check(errors=["exit code 1", "traceback on stderr",
                                  "exit code 1, expected 4"])
    told = not prob.unexpected(today) and prob.unexpected(new)
    print(f"known defect failing in a new way -> {'ok' if told else 'MISSED'}")
    ok &= told
    from ultradyn import dynamics

    chk = workloads.Check()
    workloads._check_member(chk, dynamics.MembershipVerdict(
        dynamics.HEURISTIC_NON_MEMBER, (), ()), False, "unstable eigenvector point")
    lost = bool(chk.errors) and chk.certified == 0 and chk.verdicts == 1
    print(f"heuristic verdict where a certificate exists -> {'ok' if lost else 'MISSED'}")
    ok &= lost
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
