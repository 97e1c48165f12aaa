"""ultradyn benchmark: one closed-loop caller, fixed-seed workloads, exact
oracles.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  ``--seconds`` sets the amount of work: a
whole number of rounds of the workload's fixed problem mix, sized to take
about that long at reference speed (see ROUND_SECONDS), so that every
run with the same ``--seconds`` does the same number of problems.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The lines before it give the machine
facts, the tail percentile and every failed problem by name.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench_out")

WORKLOAD_NAMES = ("linear-build", "norm-query", "map-certify", "cli-batch")
SETUP_SAMPLES = 3  # setup_s is the median of this many fresh set-ups
# CPU seconds one round of each workload's mix takes at reference speed
# (see REFERENCE_S); --seconds / this = rounds per run
ROUND_SECONDS = {"linear-build": 6.0, "norm-query": 3.1, "map-certify": 2.8,
                 "cli-batch": 5.0}
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
CLI_COMMANDS = ("spectrum", "hyperbolic", "split", "norm", "classify", "graph",
                "orbit", "member")

SPAN_NAMES = [name for _, _, name in tracing.SPANS]

END_TO_END = [  # name, unit, better
    ("problems_per_s", "1/s", "higher"),
    ("problem_ms.p50", "ms", "lower"),
    ("problem_ms.tail", "ms", "lower"),
    ("ok_share", "share", "higher"),
    ("certified_share", "share", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def per_layer_spec():
    """[(name, unit, better)] of every per-layer metric, in output order."""
    out = []
    for s in SPAN_NAMES:
        out += [(f"{s}.calls", "count", "lower"), (f"{s}.self_ms", "ms", "lower")]
    out += [(f"manifolds.graph_series.order{k}.ms", "ms", "lower")
            for k in tracing.GRAPH_ORDERS]
    out += [("field.padic.ops", "count", "lower"), ("field.ext.ops", "count", "lower")]
    out += [(f"cli.{c}.ms", "ms", "lower") for c in CLI_COMMANDS]
    out += [("cli.startup.python_ms", "ms", "lower"),
            ("cli.import.ultradyn_ms", "ms", "lower"),
            ("cli.import.sympy_ms", "ms", "lower")]
    out += [("spectral.spectral_data.calls_per_problem", "ratio", "lower"),
            ("spectral.transform.calls_per_norm_exp", "ratio", "lower"),
            ("dynamics.remainder_lipschitz.calls_per_radius", "ratio", "lower"),
            ("trace.overhead_share", "share", "lower"),
            ("trace.problems", "count", "higher"),
            ("dynamics.radius.calls", "count", "lower"),
            ("trace.untraced_problems_per_s", "1/s", "higher"),
            ("problem_ms.tail.percentile", "pct", "higher"),
            ("problem_ms.tail.samples", "count", "higher")]
    return out


# --------------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------------


def make_workload(name, seed, perturb):
    """Import ultradyn and the workload code, build the workload's fixed
    inputs and run one warm-up problem.  Everything here counts as set-up;
    the problems of each round are generated later, outside any timing."""
    sys.path[:0] = [SRC, os.path.join(ROOT, "tests"), HERE]
    import ultradyn  # noqa: F401  (first import is part of set-up)
    import workloads

    cls = workloads.WORKLOADS[name]
    if name == "cli-batch":
        wl = cls(seed, perturb, workdir=os.path.join(OUT, f"cli-{os.getpid()}"), src=SRC)
    else:
        wl = cls(seed, perturb)
    warm = wl.warmup()
    res, _ = timed(warm)
    return wl, not warm.verify(res).errors


def cleanup(wl):
    """Remove the CLI problem files a cli-batch run wrote."""
    workdir = getattr(wl, "workdir", None)
    if workdir:
        shutil.rmtree(workdir, ignore_errors=True)


def timed(problem):
    """(result, seconds): CPU seconds of the process doing the work, the
    benchmark itself for in-process problems and the CLI child for
    cli-batch.  CPU time leaves out the steal and queueing a shared machine
    adds to wall time."""
    import workloads

    c0 = time.process_time()
    try:
        res = problem.compute()
    except Exception as exc:  # counted as a failed problem by its check
        res = workloads.Raised(exc)
    return res, getattr(res, "cpu_s", None) or time.process_time() - c0


def cpu_seconds():
    """CPU seconds used so far by this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


# --------------------------------------------------------------------------
# host speed
# --------------------------------------------------------------------------

# CPU seconds of ``reference_loop`` on a host at reference speed: every
# reported time is scaled to such a host
REFERENCE_S = 0.006
SPEED_EVERY = 0.25  # wall seconds between samples of the reference loop


def reference_loop():
    """Fixed pure-Python work with no ultradyn code in it, of the kind
    ultradyn does (Fraction arithmetic): Gaussian elimination of a 7x7
    Fraction matrix, ten times over."""
    for rep in range(10):
        a = [[Fraction((i * 7 + j * 3 + rep) % 11 - 5, 1 + (i + 2 * j) % 4)
              for j in range(7)] for i in range(7)]
        for c in range(7):
            piv = next(r for r in range(c, 7) if a[r][c] != 0)
            a[c], a[piv] = a[piv], a[c]
            for r in range(c + 1, 7):
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]


class HostSpeed:
    """The host's speed, as the CPU time of ``reference_loop`` sampled
    between problems.  On a shared host the CPU time of the same work
    swings by up to 2x within seconds and drifts by tens of percent over
    minutes.  A time scaled by REFERENCE_S / (the loop's time around it)
    keeps the program's own cost and loses most of the host's swings.  The
    loop is timed with ``thread_time``, so threads the program might start
    cannot stretch it."""

    def __init__(self):
        reference_loop()  # warm, untimed
        self.samples = []  # (perf_counter when taken, loop CPU seconds)

    def sample(self):
        """Take a sample now; return its index."""
        t = time.thread_time()
        reference_loop()
        self.samples.append((time.perf_counter(), time.thread_time() - t))
        return len(self.samples) - 1

    def mark(self):
        """Index of the latest sample, taking a new one if it is stale."""
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= SPEED_EVERY:
            return self.sample()
        return len(self.samples) - 1

    def scale(self, i, j):
        """REFERENCE_S over the mean loop time of samples i..j."""
        return REFERENCE_S / statistics.fmean(c for _, c in self.samples[i:j + 1])

    def loop_ms(self):
        return statistics.median(c for _, c in self.samples) * 1e3


def timed_setup(name, seed, perturb, speed):
    """(workload, warm-up ok, set-up seconds scaled to reference speed)."""
    i = speed.sample()
    t0 = cpu_seconds()
    wl, warm_ok = make_workload(name, seed, perturb)
    elapsed = cpu_seconds() - t0
    return wl, warm_ok, elapsed * speed.scale(i, speed.sample())


def rounds_for(args, seconds):
    return max(1, round(seconds / ROUND_SECONDS[args.workload]))


def problems(wl, rounds):
    for r in range(rounds):
        yield from wl.round(r)


def setup_probe(args):
    """Child mode: time one fresh set-up and print it."""
    wl, _, elapsed = timed_setup(args.workload, args.seed, False, HostSpeed())
    cleanup(wl)
    print(json.dumps({"setup_s": elapsed}))


def run_child(args, extra):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------------
# the closed loop
# --------------------------------------------------------------------------


class Record:
    __slots__ = ("problem", "seconds", "raw_seconds", "check", "digest", "maxrss_kb")

    def __init__(self, problem, seconds, check, digest, maxrss_kb=0):
        self.problem, self.seconds, self.check = problem, seconds, check
        self.raw_seconds = seconds
        self.digest, self.maxrss_kb = digest, maxrss_kb


def digest(result):
    """Stable fingerprint of a problem's answer (CLI: exit code and stdout)."""
    if hasattr(result, "code") and hasattr(result, "out"):
        text = f"{result.code}\n{result.out}"
    else:
        text = repr(result)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_pass(problems, speed, digests=False):
    """Run the problems one after another, closed loop.  Only ``compute``
    is timed; the oracle check (and the answer fingerprint) comes
    afterwards.  Each time is scaled by the host's speed from the samples
    taken just before and just after the problem."""
    records, marks = [], []
    for prob in problems:
        marks.append(speed.mark())
        res, dt = timed(prob)
        records.append(Record(prob, dt, prob.verify(res), digest(res) if digests else None,
                              getattr(res, "maxrss_kb", 0)))
    marks.append(speed.sample())
    for r, i, j in zip(records, marks, marks[1:]):
        r.seconds = r.raw_seconds * speed.scale(i, j)
    return records


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------


def hd_quantile(values, q):
    """Harrell-Davis estimate of the q-quantile (0 < q < 1): a weighted
    mean of all order statistics, with Beta(q(n+1), (1-q)(n+1)) weights
    that peak at rank qn.  A single order statistic jumps with the one
    problem that lands on its rank (and with the host's speed at the
    moment that problem ran); this estimate moves with its neighbours."""
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    k = 32  # midpoints per order statistic's share of [0, 1]
    logs = []
    for i in range(n):
        ts = [(i + (j + 0.5) / k) / n for j in range(k)]
        logs.append([(a - 1) * math.log(t) + (b - 1) * math.log1p(-t) for t in ts])
    top = max(max(row) for row in logs)
    w = [sum(math.exp(v - top) for v in row) for row in logs]
    return sum(wi * x for wi, x in zip(w, xs)) / sum(w)


def tail(times):
    """(percentile, value) for the highest ladder percentile that has at
    least ten samples beyond it, estimated with ``hd_quantile``."""
    n = len(times)
    q = next((q for q in TAIL_LADDER if n * (1 - q / 100) >= 10), TAIL_LADDER[-1])
    return q, hd_quantile(times, q / 100)


def summarize(records):
    times = [r.seconds for r in records]
    failed = [r for r in records if r.check.errors]
    verdicts = sum(r.check.verdicts for r in records)
    certified = sum(r.check.certified for r in records)
    q, tail_s = tail(times)
    return {
        "attempted": len(records),
        "failed": len(failed),
        "failures": failed,
        "problems_per_s": len(records) / sum(times),
        "p50_ms": hd_quantile(times, 0.5) * 1e3,
        "tail_ms": tail_s * 1e3,
        "tail_pct": q,
        "certified_share": certified / verdicts if verdicts else 1.0,
        "verdicts": verdicts,
    }


def unscaled(records):
    """The timing metrics from CPU times as measured, before scaling."""
    raw = [r.raw_seconds for r in records]
    return {"problems_per_s": len(raw) / sum(raw),
            "problem_ms.p50": hd_quantile(raw, 0.5) * 1e3,
            "problem_ms.tail": tail(raw)[1] * 1e3}


def machine_facts():
    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "platform": platform.platform()}
    try:
        from importlib.metadata import version
        facts["sympy"] = version("sympy")
    except Exception:  # report, do not fail, when sympy metadata is absent
        facts["sympy"] = None
    try:
        facts["git_sha"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT,
            timeout=10).stdout.strip() or None
    except OSError:
        facts["git_sha"] = None
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "ultradyn")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    facts["src_sha256"] = h.hexdigest()[:16]
    return facts


def metric(value, unit):
    return {"value": value, "unit": unit}


def cli_startup_metrics():
    """Bare interpreter start and ``-X importtime`` figures, medians."""
    env = dict(os.environ, PYTHONPATH=SRC)
    starts = []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env)
        starts.append((time.perf_counter() - t0) * 1e3)
    imports = {"ultradyn": [], "sympy": []}
    for _ in range(3):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c",
                              "import ultradyn, sympy"], capture_output=True,
                             text=True, env=env, check=True).stderr
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in imports:
                imports[parts[2].strip()].append(int(parts[1]) / 1e3)
    return {"cli.startup.python_ms": statistics.median(starts),
            "cli.import.ultradyn_ms": statistics.median(imports["ultradyn"]),
            "cli.import.sympy_ms": statistics.median(imports["sympy"])}


def layer_metrics(untraced, traced, replay_seconds, summary):
    """Per-layer metrics.  ``untraced`` is the checked pass, ``traced`` the
    traced replay of its first problems, ``replay_seconds`` the times of
    the same problems run untraced alongside the traced replay, the base of
    ``trace.overhead_share``."""
    calls, by_order, counts = summary
    values = {}
    for s in SPAN_NAMES:
        c, self_s = calls.get(s, (0, 0.0))
        values[f"{s}.calls"] = c
        values[f"{s}.self_ms"] = self_s * 1e3
    for k in tracing.GRAPH_ORDERS:
        values[f"manifolds.graph_series.order{k}.ms"] = by_order.get(k, 0.0) * 1e3
    values["field.padic.ops"] = counts.get("field.padic.ops", 0)
    values["field.ext.ops"] = counts.get("field.ext.ops", 0)
    for c in CLI_COMMANDS:
        ts = [r.seconds for r in untraced if r.problem.command == c and not r.problem.defect]
        values[f"cli.{c}.ms"] = statistics.median(ts) * 1e3 if ts else 0.0
    values.update(cli_startup_metrics())

    def ratio(num, den):
        return num / den if den else 0.0

    n = len(traced)
    radius_calls = values["dynamics.linearization_radius.calls"] + \
        values["dynamics.invariant_ball.calls"]
    t_untraced = sum(replay_seconds)
    values["spectral.spectral_data.calls_per_problem"] = ratio(
        values["spectral.spectral_data.calls"], n)
    values["spectral.transform.calls_per_norm_exp"] = ratio(
        values["spectral.AdaptedNorm.transform.calls"],
        values["spectral.AdaptedNorm.norm_exp.calls"])
    values["dynamics.remainder_lipschitz.calls_per_radius"] = ratio(
        values["dynamics.remainder_lipschitz.calls"], radius_calls)
    # median over problems of traced / untraced time of the same problem, run
    # back to back: robust to a slow spell of the host hitting one big problem
    values["trace.overhead_share"] = statistics.median(
        ratio(r.seconds, u) for r, u in zip(traced, replay_seconds)) - 1
    values["trace.problems"] = n
    values["dynamics.radius.calls"] = radius_calls
    values["trace.untraced_problems_per_s"] = ratio(n, t_untraced)
    q, _ = tail([r.seconds for r in untraced])
    values["problem_ms.tail.percentile"] = q
    values["problem_ms.tail.samples"] = len(untraced)
    return {name: metric(values[name], unit) for name, unit, _ in per_layer_spec()}


# --------------------------------------------------------------------------
# modes
# --------------------------------------------------------------------------


def clear_caches():
    """Empty sympy's expression cache, if sympy is loaded."""
    cache = sys.modules.get("sympy.core.cache")
    if cache is not None:
        cache.clear_cache()


def replay(args):
    """Child mode for the traced run.  A fresh process re-runs the first
    ``--replay`` rounds, so no state left by the checked pass (warm caches)
    reaches the traced numbers.  Each problem runs twice, with spans and
    without, in alternating order and with sympy's cache emptied before
    each run, so that host drift and warm caches fall on both sides alike;
    the untraced times are the base of ``trace.overhead_share``."""
    wl, _ = make_workload(args.workload, args.seed, args.perturb_oracle)
    cli = args.workload == "cli-batch"
    tracer = None if cli else tracing.Tracer()
    runs = {False: [], True: []}
    for i, prob in enumerate(problems(wl, args.replay)):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            clear_caches()
            if cli:
                wl.traced = traced
            elif traced:
                tracer.request = i
                tracer.install()
            res, dt = timed(prob)
            if tracer is not None and traced:
                tracer.uninstall()
            runs[traced].append((dt, digest(res), getattr(res, "trace", None)))
    if cli:
        summary = tracing.merge((t["calls"], t["orders"], t["counts"])
                                for _, _, t in runs[True] if t)
    else:
        summary = tracer.summary()
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, f"spans-{args.workload}.json"))
    cleanup(wl)
    print(json.dumps({"seconds": [dt for dt, _, _ in runs[True]],
                      "digests": [dg for _, dg, _ in runs[True]],
                      "base_seconds": [dt for dt, _, _ in runs[False]],
                      "base_digests": [dg for _, dg, _ in runs[False]],
                      "summary": summary}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=18)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--perturb-oracle", action="store_true",
                    help="self-check: compare against deliberately wrong answers")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--replay", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "ultradyn")) or \
            not os.path.isfile(os.path.join(ROOT, "tests", "helpers.py")):
        print(f"bench: no ultradyn sources under {ROOT}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.replay is not None:
        replay(args)
        return 0

    speed = HostSpeed()
    wl, warm_ok, setup_s = timed_setup(args.workload, args.seed, args.perturb_oracle, speed)
    setups = [setup_s]

    if args.trace == 0:
        # the other set-ups run in fresh child processes spread over the
        # run, so that their median samples the host's speed at several times
        rounds = rounds_for(args, args.seconds)
        probes = SETUP_SAMPLES - 1
        at = [k * rounds // probes for k in range(probes)]
        records = []
        for r in range(rounds):
            for _ in range(at.count(r)):
                setups.append(run_child(args, ["--setup-probe"])["setup_s"])
            records += run_pass(wl.round(r), speed)
        traced_ok = True
    else:
        rounds = rounds_for(args, args.seconds / 2)
        records = run_pass(problems(wl, rounds), speed, digests=True)
        extra = ["--replay", str(rounds)]
        if args.perturb_oracle:
            extra.append("--perturb-oracle")
        child = run_child(args, extra)
        traced_ok = child["digests"] == child["base_digests"] == [r.digest for r in records]
        traced = [Record(r.problem, s, r.check, d)
                  for r, s, d in zip(records, child["seconds"], child["digests"])]
        calls, by_order, counts = child["summary"]
        summary = (calls, {int(k): v for k, v in by_order.items()}, counts)

    cleanup(wl)
    s = summarize(records)
    if args.workload == "cli-batch":
        peak_kb = max(r.maxrss_kb for r in records)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    unexpected = [r for r in records if r.problem.unexpected(r.check)]
    correct = warm_ok and traced_ok and not unexpected

    print(json.dumps({"facts": machine_facts(), "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds, "trace": args.trace}))
    print(json.dumps({"problem_ms.tail": {"percentile": s["tail_pct"],
                                          "samples": s["attempted"]},
                      "verdict_operations": s["verdicts"],
                      "setup_samples_s": setups,
                      "reference_loop_ms": speed.loop_ms(),
                      "unscaled": unscaled(records),
                      "warmup_ok": warm_ok, "traced_results_identical": traced_ok}))
    for r in s["failures"]:
        print(json.dumps({"failed": r.problem.name,
                          "known_defect": r.problem.defect,
                          "unexpected": r.problem.unexpected(r.check),
                          "why": r.check.errors[:3]}))

    if args.trace == 0:
        values = {
            "problems_per_s": s["problems_per_s"],
            "problem_ms.p50": s["p50_ms"],
            "problem_ms.tail": s["tail_ms"],
            "ok_share": 1 - s["failed"] / s["attempted"],
            "certified_share": s["certified_share"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_kb / 1024,
        }
        metrics = {name: metric(values[name], unit) for name, unit, _ in END_TO_END}
    else:
        metrics = layer_metrics(records, traced, child["base_seconds"], summary)
    print(json.dumps({"correct": correct, "attempted": s["attempted"],
                      "failed": s["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
