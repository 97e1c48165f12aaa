"""Command-line interface: schemas, exit codes, determinism."""

import json
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ultradyn import cli, spectral
from ultradyn.errors import PrecisionExhausted

from helpers import ONE_BAND, conjugated_companion

DIAG = {"prime": 2,
        "matrix": [["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1/2"]]}
BENCH_MAP = {"prime": 2,
             "map": [[[[1, 0], "2"]],
                     [[[0, 1], "1/2"], [[2, 0], "1"]]]}


def write(tmp_path, doc, name="in.json"):
    """Write doc as JSON, or a string doc as it is."""
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spectrum_oracle(tmp_path, capsys):
    code, out, err = run(capsys, ["spectrum", "--input", write(tmp_path, DIAG)])
    assert code == 0 and err == ""
    assert json.loads(out) == {"entries": [
        {"m": 1, "v": "1"}, {"m": 1, "v": "0"}, {"m": 1, "v": "-1"}]}


def test_hyperbolic_witness_oracle(tmp_path, capsys):
    code, out, _ = run(capsys, ["hyperbolic", "--a", "1",
                                "--input", write(tmp_path, DIAG)])
    assert code == 0
    doc = json.loads(out)
    assert doc["hyperbolic"] is False
    assert doc["witness"]["vector"] == ["0", "1", "0"]
    assert doc["witness"]["constant"] is True


def test_graph_oracle(tmp_path, capsys):
    doc = dict(BENCH_MAP, a="1", mode="Stable")
    code, out, _ = run(capsys, ["graph", "--order", "4",
                                "--input", write(tmp_path, doc)])
    assert code == 0
    got = json.loads(out)
    assert got["coefficients"] == [{"multi_index": [2], "vector": ["2/7"]}]


def test_member_oracle(tmp_path, capsys):
    doc = dict(BENCH_MAP, a="1", point=["1", "2/7"])
    code, out, _ = run(capsys, ["member", "--input", write(tmp_path, doc)])
    assert code == 0
    assert json.loads(out)["verdict"] == "CertifiedMember"


def test_orbit_command(tmp_path, capsys):
    doc = dict(BENCH_MAP, point=["1", "2/7"])
    code, out, _ = run(capsys, ["orbit", "--horizon", "2",
                                "--input", write(tmp_path, doc)])
    assert code == 0
    got = json.loads(out)["orbit"]
    assert got[-1] == {"point": ["4", "32/7"], "norm_exp": "2"}


def test_split_two_slopes_in_one_band(tmp_path, capsys):
    m = conjugated_companion(random.Random(0), ONE_BAND, 2)
    doc = {"prime": 2, "matrix": [[str(x) for x in row] for row in m]}
    code, out, _ = run(capsys, ["split", "--a", "1", "--input", write(tmp_path, doc)])
    assert code == 0
    assert json.loads(out)["dims"] == [5, 0, 0]


def test_exit_2_on_precondition(tmp_path, capsys):
    doc = dict(BENCH_MAP, a="1/2", mode="Stable")
    code, out, _ = run(capsys, ["graph", "--input", write(tmp_path, doc)])
    assert code == 2
    assert json.loads(out)["error"] == "PreconditionViolated"


def test_not_a_fixed_point_detail_is_rational(tmp_path, capsys):
    doc = {"prime": 2, "map": [[[[1], "2"], [[0], "1"]]], "point": ["1"]}  # x -> 2x + 1
    code, out, _ = run(capsys, ["classify", "--input", write(tmp_path, doc)])
    assert code == 2
    assert json.loads(out) == {"error": "NotAFixedPoint", "detail": "F([1]) = [3] != [1]"}
    assert "Fraction(" not in out


def test_exit_3_on_precision_exhaustion(tmp_path, capsys, monkeypatch):
    def boom(*a, **k):
        raise PrecisionExhausted("synthetic")
    monkeypatch.setattr(spectral, "spectrum_abs", boom)
    code, out, _ = run(capsys, ["spectrum", "--input", write(tmp_path, DIAG)])
    assert code == 3
    assert json.loads(out)["error"] == "PrecisionExhausted"


@pytest.mark.parametrize("doc", [
    {"prime": 4, "matrix": [["1"]]},                 # not a prime
    {"prime": 2, "matrix": [["1", "0"]]},            # not square
    {"prime": 2, "matrix": [["x"]]},                 # not a rational
    {"prime": 2},                                    # missing matrix
    {"prime": 2, "map": [[[[1], "1"]]], "a": "0.5.1"},
    {"prime": 2, "matrix": [[True, False], [False, True]]},  # booleans
    {"prime": 2, "map": [[[[True], "1"]]], "a": "1", "point": ["1"]},
    {"prime": 2, "map": [[[[1], "2"]]], "a": "1", "mode": "Sideways"},  # unknown mode
    {"prime": 2, "map": [[[[1], "2"]]], "point": ["1"]},  # no threshold a
    '{"prime": 2, "matrix": [["1"]]',                   # not valid JSON
    [{"prime": 2, "matrix": [["1"]]}],                  # an array, not an object
])
def test_exit_4_on_schema_error(tmp_path, capsys, doc):
    keys = doc if isinstance(doc, dict) else {}
    cmd = "graph" if "mode" in keys else "member" if "map" in keys else "spectrum"
    code, out, err = run(capsys, [cmd, "--input", write(tmp_path, doc)])
    assert code == 4
    assert out == "" and "schema error" in err


@pytest.mark.parametrize("argv,message", [
    (["spectrum", "--input", "{}", "--bogus"], "unrecognized arguments: --bogus"),
    (["spectrum", "--input", "{}", "--precision", "abc"], "invalid int value: 'abc'"),
    (["eigen", "--input", "{}"], "invalid choice: 'eigen'"),
    (["spectrum"], "the following arguments are required: --input"),
])
def test_exit_4_on_usage_error(tmp_path, capsys, argv, message):
    """A usage error exits 4, as a schema error does, with argparse's usage
    message on stderr; exit 2 stays for certified failures."""
    code, out, err = run(capsys, [a.format(write(tmp_path, DIAG)) for a in argv])
    assert code == 4 and out == ""
    assert err.startswith("usage: ultradyn") and message in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: ultradyn")


def test_prime_past_trial_division(tmp_path, capsys):
    """The prime check goes past trial division by the primes up to 41:
    10007 is accepted, and 1763 = 41 * 43, the strong pseudoprime to the
    bases 2, 3, 5 and 7, 3215031751 = 151 * 751 * 28351, and psi_12 =
    399165290221 * 798330580441, a strong pseudoprime to every base 2..37,
    are refused."""
    doc = {"prime": 10007, "matrix": [["10007", "0"], ["1", "1/10007"]]}
    code, out, err = run(capsys, ["spectrum", "--input", write(tmp_path, doc)])
    assert code == 0 and err == ""
    assert json.loads(out) == {"entries": [{"m": 1, "v": "1"}, {"m": 1, "v": "-1"}]}
    for p in (1763, 3215031751, 318665857834031151167461):
        code, out, err = run(capsys, ["spectrum", "--input", write(tmp_path, dict(doc, prime=p))])
        assert code == 4 and out == "" and "must be a prime integer" in err, p


def test_prime_at_or_above_psi13_refused(tmp_path, capsys):
    """Miller-Rabin on the bases up to 41 is proven only below psi_13 =
    3317044064679887385961981, itself a strong pseudoprime to all of them:
    psi_13 and a prime above it are refused with their own schema error."""
    psi13 = 3317044064679887385961981
    assert psi13 == 1287836182261 * 2575672364521
    for p in (psi13, 2**89 - 1):  # 2^89 - 1 is a Mersenne prime
        doc = {"prime": p, "matrix": [["1"]]}
        code, out, err = run(capsys, ["spectrum", "--input", write(tmp_path, doc)])
        assert code == 4 and out == "", p
        assert err == f"schema error: 'prime' must be below {psi13} to be proven prime, got {p}\n"


GRAPH = dict(BENCH_MAP, a="1", mode="Stable")
MEMBER = dict(BENCH_MAP, a="1", point=["1", "2/7"])
ORBIT = dict(BENCH_MAP, point=["1", "2/7"])


BAD_COUNTS = [
    (["graph"], dict(GRAPH, order="x"), "'order' must be an integer >= 1, got 'x'"),
    (["graph"], dict(GRAPH, order=True), "'order' must be an integer >= 1, got True"),
    (["graph"], dict(GRAPH, order=0), "'order' must be an integer >= 1, got 0"),
    (["member"], dict(MEMBER, horizon="5"), "'horizon' must be an integer >= 1, got '5'"),
    (["orbit"], dict(ORBIT, steps=-3), "'steps' must be an integer >= 0, got -3"),
    (["spectrum"], dict(DIAG, precision=True), "'precision' must be an integer >= 1, got True"),
    (["graph", "--order", "0"], GRAPH, "flag for 'order' must be a positive integer, got 0"),
    (["graph", "--order", "-2"], GRAPH, "flag for 'order' must be a positive integer, got -2"),
    (["member", "--horizon", "0"], MEMBER,
     "flag for 'horizon' must be a positive integer, got 0"),
    (["orbit", "--horizon", "0"], ORBIT, "flag for 'steps' must be a positive integer, got 0"),
    # a non-positive eps, with and without a nilpotent block
    (["norm"], {"prime": 2, "matrix": [["2", "0"], ["0", "1"]], "eps": "-1"},
     "'eps' must be positive, got -1"),
    (["norm"], {"prime": 2, "matrix": [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "3"]],
                "eps": "-1"}, "'eps' must be positive, got -1"),
    # a non-positive threshold is bad input, not a certified failure (exit 2)
    (["hyperbolic", "--a", "0"], DIAG, "threshold 'a' must be positive, got 0"),
    (["split", "--a=-1/2"], DIAG, "threshold 'a' must be positive, got -1/2"),
    (["graph", "--a", "0"], GRAPH, "threshold 'a' must be positive, got 0"),
    (["member"], dict(MEMBER, a="-3"), "threshold 'a' must be positive, got -3"),
]


@pytest.mark.parametrize("argv,doc,message", BAD_COUNTS,
                         ids=[f"argv{i}-doc{i}" for i in range(len(BAD_COUNTS))])
def test_exit_4_on_bad_count(tmp_path, capsys, argv, doc, message):
    """The whole message is pinned, so that no reordering of the checks
    blames another field."""
    code, out, err = run(capsys, argv + ["--input", write(tmp_path, doc)])
    assert (code, out, err) == (4, "", f"schema error: {message}\n")


def test_orbit_of_zero_steps(tmp_path, capsys):
    code, out, _ = run(capsys, ["orbit", "--input", write(tmp_path, dict(ORBIT, steps=0))])
    assert code == 0
    assert json.loads(out)["orbit"] == [{"point": ["1", "2/7"], "norm_exp": "0"}]


def test_orbit_prints_points_past_the_int_str_cap(tmp_path, capsys):
    # 61^(9^4) has 11 714 digits, past Python's default 4300-digit cap.
    doc = {"prime": 2, "map": [[[[9], "1"]]], "point": ["61"], "steps": 4}
    before = sys.get_int_max_str_digits()
    code, out, err = run(capsys, ["orbit", "--input", write(tmp_path, doc)])
    assert code == 0 and err == ""
    [last] = json.loads(out)["orbit"][-1]["point"]
    assert len(last) == 11714 and int(last[-30:]) == pow(61, 9 ** 4, 10 ** 30)
    assert sys.get_int_max_str_digits() == before


@pytest.mark.parametrize("argv,doc", [
    (["norm"], DIAG), (["split", "--a", "1"], DIAG), (["member"], MEMBER)])
def test_commands_run_without_sympy(tmp_path, argv, doc):
    argv = argv + ["--input", write(tmp_path, doc)]
    script = ("import sys\nfrom ultradyn import cli\n"
              f"code = cli.main({argv!r})\n"
              "sys.exit(code or 'sympy' in sys.modules)")
    src = str(Path(cli.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_missing_input_file(tmp_path, capsys):
    code, _, err = run(capsys, ["spectrum", "--input",
                                str(tmp_path / "absent.json")])
    assert code == 4 and "schema error" in err


def test_determinism(tmp_path, capsys):
    doc = dict(BENCH_MAP, a="1", point=["1", "2/7"])
    path = write(tmp_path, doc)
    outs = set()
    for _ in range(3):
        code, out, _ = run(capsys, ["member", "--input", path])
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


ALL_COMMANDS = [
    (["spectrum"], DIAG),
    (["split", "--a", "1"], DIAG),
    (["hyperbolic", "--a", "1"], DIAG),
    (["norm"], DIAG),
    (["classify"], BENCH_MAP),
    (["graph", "--a", "1"], dict(BENCH_MAP, mode="Stable")),
    (["orbit", "--horizon", "2"], dict(BENCH_MAP, point=["2", "4"])),
    (["member", "--a", "1"], dict(BENCH_MAP, point=["0", "0"])),
]


def test_round_trip_all_commands(tmp_path, capsys):
    for argv, doc in ALL_COMMANDS:
        code, out, err = run(capsys, argv + ["--input", write(tmp_path, doc)])
        assert code == 0, (argv, err)
        json.loads(out)  # every report re-parses


def _modules_after(tmp_path, script):
    """sys.modules at the end of script, run in a fresh interpreter with no
    site hooks (-S), so that only ultradyn and the standard library load."""
    listing = tmp_path / "modules.txt"
    script += f"\nopen({str(listing)!r}, 'w').write(' '.join(sys.modules))"
    src = str(Path(cli.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", "import sys\n" + script],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(listing.read_text().split())


ANALYSIS = {"ultradyn.polyalg", "ultradyn.spectral", "ultradyn.dynamics", "ultradyn.manifolds"}
# the analysis modules each command of ALL_COMMANDS loads; member's point 0
# is decided without a splitting, and an orbit needs none
LOADS = {
    "spectrum": "polyalg spectral", "split": "polyalg spectral",
    "hyperbolic": "polyalg spectral", "norm": "polyalg spectral",
    "classify": "polyalg spectral dynamics", "graph": "polyalg spectral dynamics manifolds",
    "orbit": "polyalg dynamics", "member": "polyalg dynamics",
}


@pytest.mark.parametrize("argv,doc", ALL_COMMANDS, ids=[argv[0] for argv, _ in ALL_COMMANDS])
def test_command_loads_only_what_it_runs(tmp_path, argv, doc):
    """Each command loads exactly the ultradyn modules it runs, and none
    loads dataclasses or inspect."""
    argv = argv + ["--input", write(tmp_path, doc)]
    mods = _modules_after(tmp_path, f"from ultradyn import cli\nassert cli.main({argv!r}) == 0")
    assert not mods & {"dataclasses", "inspect"}
    assert {m for m in mods if m.split(".")[0] == "ultradyn"} == {
        "ultradyn", "ultradyn.cli", "ultradyn.errors", "ultradyn.field",
        *(f"ultradyn.{m}" for m in LOADS[argv[0]].split())}


def test_member_on_a_dominant_gap_point_loads_no_manifolds(tmp_path):
    """A gap point that its own position certifies a non-member is answered
    before any stable graph is built, so member loads no manifolds."""
    argv = ["member", "--a", "1", "--input", write(tmp_path, dict(BENCH_MAP, point=["0", "1024"]))]
    mods = _modules_after(tmp_path, f"from ultradyn import cli\nassert cli.main({argv!r}) == 0")
    assert {m for m in mods if m.split(".")[0] == "ultradyn"} == {
        "ultradyn", "ultradyn.cli", "ultradyn.errors", "ultradyn.field",
        "ultradyn.polyalg", "ultradyn.spectral", "ultradyn.dynamics"}


# a document per command that fails the last check the command makes
REJECTED = [
    (["spectrum"], {"prime": 2, "matrix": [["1", "0"], ["0", "x"]]}, "bad matrix entry: 'x'"),
    (["split", "--a", "0"], DIAG, "threshold 'a' must be positive, got 0"),
    (["hyperbolic", "--a=-1/2"], DIAG, "threshold 'a' must be positive, got -1/2"),
    (["norm"], dict(DIAG, eps="0"), "'eps' must be positive, got 0"),
    (["classify"], dict(BENCH_MAP, point=["0"]), "'point' must be a list of 2 rationals"),
    (["graph"], dict(GRAPH, order="x"), "'order' must be an integer >= 1, got 'x'"),
    (["orbit"], dict(ORBIT, steps=-3), "'steps' must be an integer >= 0, got -3"),
    (["member"], dict(MEMBER, horizon="5"), "'horizon' must be an integer >= 1, got '5'"),
]


@pytest.mark.parametrize("argv,doc,message", REJECTED, ids=[argv[0] for argv, *_ in REJECTED])
def test_schema_error_loads_no_analysis_module(tmp_path, capsys, argv, doc, message):
    """Each command checks every field and flag it reads before it imports
    an analysis module, so a rejected file loads none of them."""
    argv = argv + ["--input", write(tmp_path, doc)]
    assert run(capsys, argv) == (4, "", f"schema error: {message}\n")
    mods = _modules_after(tmp_path, f"from ultradyn import cli\nassert cli.main({argv!r}) == 4")
    assert not mods & ANALYSIS


def test_bare_import_loads_no_analysis_module(tmp_path):
    mods = _modules_after(tmp_path, "import ultradyn")
    assert "ultradyn" in mods
    assert not mods & (ANALYSIS | {"dataclasses", "inspect"})


def test_table_format(tmp_path, capsys):
    code, out, _ = run(capsys, ["spectrum", "--format", "table",
                                "--input", write(tmp_path, DIAG)])
    assert code == 0
    assert "entries.0.v\t1" in out


# stdout of every command on the oracle inputs above (and on ramified,
# nilpotent and slope-mixed matrices), recorded once: output must stay
# byte-identical
GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN,
                         ids=[f"{i}-{c['argv'][0]}" for i, c in enumerate(GOLDEN)])
def test_golden_stdout(tmp_path, capsys, case):
    code, out, _ = run(capsys, case["argv"] + ["--input", write(tmp_path, case["input"])])
    assert (code, out) == (case["exit"], case["stdout"])


FIRST_GOLDEN = {case["argv"][0]: case for case in reversed(GOLDEN)}  # first case per command


@pytest.mark.parametrize("case", FIRST_GOLDEN.values(), ids=list(FIRST_GOLDEN))
def test_golden_through_python_m(tmp_path, case):
    """The path the shell and the benchmark take: `python -m ultradyn.cli`
    in a fresh interpreter, its exit code from sys.exit(main())."""
    argv = case["argv"] + ["--input", write(tmp_path, case["input"])]
    src = str(Path(cli.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-m", "ultradyn.cli"] + argv, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (case["exit"], case["stdout"], "")


# -- schema fuzz: any bounded JSON document exits 0/2/3/4, never with a
# traceback.  Each value is well formed most of the time and otherwise of a
# wrong type, a boolean or "1/0", so that most documents reach the
# analysis.  d <= 3, precision <= 64 and at most 4 orbit steps keep each
# run small.

def _mostly(good, bad, one_in=8):
    """good, except for one draw in one_in, which is bad.  The bad branch is
    the largest draw, because Hypothesis favours the smallest."""
    return st.integers(1, one_in).flatmap(lambda i: bad if i == one_in else good)


_BAD = st.sampled_from(["1/0", "x", "", "inf", True, False, None, 0.5, [], {}])
_RAT = st.one_of(st.integers(-8, 8).map(str), st.integers(-8, 8),
                 st.fractions(min_value=-64, max_value=64, max_denominator=16).map(str))
_NUM = _mostly(_RAT, _BAD, 50)
_A = _mostly(st.one_of(st.sampled_from(["1", "2", "1/2", "3", "1/3", "4", "1/4", "1/5"]),
                       _RAT), _BAD)


def _vec(d):
    return st.lists(_NUM, min_size=d, max_size=d)


def _matrix(d):
    return st.lists(_vec(d), min_size=d, max_size=d)


def _map(d):
    exps = st.lists(_mostly(st.integers(0, 3), st.sampled_from([-1, True, "1", 1.0]), 100),
                    min_size=d, max_size=d).filter(any)
    term = _mostly(st.tuples(exps, _NUM).map(list), _BAD, 100)
    return st.lists(st.lists(term, min_size=1, max_size=4), min_size=d, max_size=d)


_COUNT = _mostly(st.integers(1, 4), st.sampled_from([-1, 0, True, "3", 2.5, None]))
_OPTIONAL = {
    "eps": _A, "order": _COUNT, "horizon": _COUNT,
    "precision": _mostly(st.integers(1, 64), st.sampled_from([0, -1, True, "8", None])),
    "mode": _mostly(st.sampled_from(["Stable", "CentreStable", "Centre", "Unstable"]),
                    st.sampled_from(["stable", 1, None, []])),
}


def _problem(d):
    bad_shape = st.one_of(_BAD, st.lists(_NUM, max_size=2), _vec(d + 1))
    return st.fixed_dictionaries(
        {"prime": _mostly(st.sampled_from([2, 3, 5]),
                          st.sampled_from([4, 1, -3, True, "2", None, 2.0])),
         "steps": _COUNT,  # always given: the default of 8 steps is not small
         "matrix": _mostly(_matrix(d), bad_shape), "map": _mostly(_map(d), bad_shape),
         "point": _mostly(_vec(d), bad_shape), "a": _A},
        optional=_OPTIONAL)


FUZZ_BUDGET_S = 10  # wall clock per example; the slowest drawn documents take under 1 s


@settings(max_examples=150, print_blob=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cmd=st.sampled_from(sorted(cli.COMMANDS)), doc=st.integers(1, 3).flatmap(_problem))
def test_schema_fuzz_exit_codes(tmp_path, capsys, cmd, doc):
    """Every drawn document exits 0, 2, 3 or 4 with no traceback, within
    FUZZ_BUDGET_S: a slow document fails with its command and JSON instead
    of timing the job out."""
    def overrun(signum, frame):
        pytest.fail(f"{cmd} ran past {FUZZ_BUDGET_S} s on {json.dumps(doc)}")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, FUZZ_BUDGET_S)
    try:
        code, out, err = run(capsys, [cmd, "--input", write(tmp_path, doc)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
