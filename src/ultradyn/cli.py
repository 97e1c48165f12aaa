"""Batch command-line front end.

Problem files are JSON with all numbers as rational strings ("2/7"); +inf
valuations serialize as "inf".  Output is deterministic (sorted keys, fixed
separators).  Exit codes: 0 success, 2 certified failure (violated
precondition, resonance, uncertifiable rank), 3 precision exhausted, 4
schema error.  Each command checks every field and flag it reads before it
imports an analysis module (spectral, dynamics, manifolds), so a rejected
file loads none of them, and an orbit loads no spectral.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import inf as INF

from .errors import (
    DivisionByZero,
    JacobianSingular,
    NotAFixedPoint,
    PrecisionExhausted,
    PreconditionViolated,
    RankUncertified,
    ResonanceDetected,
    SchemaError,
)
from .field import (
    DEFAULT_PRECISION, MODES, PRIME_LIMIT, STABLE, PadicNumber, ExtElement, _is_prime)

CERTIFIED_FAILURES = (
    PreconditionViolated,
    NotAFixedPoint,
    JacobianSingular,
    ResonanceDetected,
    RankUncertified,
    DivisionByZero,
)


# --------------------------------------------------------------------------
# (de)serialization
# --------------------------------------------------------------------------


def _parse_rational(s, what="number") -> Fraction:
    if type(s) is int:  # a JSON true is not a number
        return Fraction(s)
    if not isinstance(s, str):
        raise SchemaError(f"{what} must be a rational string, got {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad {what}: {s!r}") from exc


def fmt(x) -> str:
    """Canonical string for valuations, rationals and field elements."""
    if x is None:
        return "none"
    if x == INF:
        return "inf"
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, int):
        return str(x)
    if isinstance(x, PadicNumber):
        if x.is_exact_zero:
            return "0"
        if x.is_uncertain:
            return f"O({x.prime}^{fmt(x.val)})"
        return f"{x.unit}*{x.prime}^{fmt(x.val)}+O({x.prime}^{fmt(x.val + x.prec)})"
    if isinstance(x, ExtElement):
        return "[" + ", ".join(fmt(c) for c in x.coeffs) + "]"
    raise SchemaError(f"cannot serialize {type(x).__name__}")


def _fmt_vec(v):
    return [fmt(c) for c in v]


def _fmt_mat(m):
    return [_fmt_vec(r) for r in m]


def _load_matrix(doc):
    m = doc.get("matrix")
    if not isinstance(m, list) or not m or not all(isinstance(r, list) for r in m):
        raise SchemaError("'matrix' must be a nonempty list of rows")
    if any(len(r) != len(m) for r in m):
        raise SchemaError("'matrix' must be square")
    return [[_parse_rational(c, "matrix entry") for c in r] for r in m]


def _load_map(doc):
    """The map's checked monomial tables, one per component."""
    comps = doc.get("map")
    if not isinstance(comps, list) or not comps:
        raise SchemaError("'map' must be a nonempty list of components")
    nvars = len(comps)
    tables = []
    for comp in comps:
        if not isinstance(comp, list):
            raise SchemaError("each map component must be a list of terms")
        t = {}
        for term in comp:
            if (not isinstance(term, list) or len(term) != 2
                    or not isinstance(term[0], list)):
                raise SchemaError(
                    "each term must be [[e_1,...,e_d], \"coeff\"]")
            exps, c = term
            if len(exps) != nvars or not all(
                    type(e) is int and e >= 0 for e in exps):
                raise SchemaError(f"bad multi-index {exps!r}")
            t[tuple(exps)] = _parse_rational(c, "coefficient")
        tables.append(t)
    return tables


def _load_point(doc, nvars, key="point"):
    pt = doc.get(key)
    if not isinstance(pt, list) or len(pt) != nvars:
        raise SchemaError(f"'{key}' must be a list of {nvars} rationals")
    return [_parse_rational(c, "coordinate") for c in pt]


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def _cmd_spectrum(doc, p, precision, args):
    m = _load_matrix(doc)
    from . import spectral
    entries = spectral.spectrum_abs(m, p, precision)
    # smallest absolute value (largest valuation) first
    ordered = sorted(entries, key=lambda e: (e[0] != INF, -e[0] if e[0] != INF else 0))
    return {"entries": [{"v": fmt(v), "m": mult} for v, mult in ordered]}


def _cmd_hyperbolic(doc, p, precision, args):
    m = _load_matrix(doc)
    a = _require_a(doc, args)
    from . import spectral
    hyp = spectral.is_hyperbolic(m, p, a, precision)
    out = {"a": fmt(a), "hyperbolic": hyp}
    if not hyp:
        w = spectral.nonhyperbolicity_witness(m, p, a, precision=precision)
        out["witness"] = {
            "vector": _fmt_vec(w.vector),
            "rho": fmt(w.rho),
            "constant": w.constant,
            "exponents": [fmt(e) for e in w.exponents],
        }
    return out


def _cmd_split(doc, p, precision, args):
    m = _load_matrix(doc)
    a = _require_a(doc, args)
    from . import spectral
    s = spectral.splitting_at(m, p, a, precision)
    return {
        "a": fmt(a),
        "stable": _fmt_mat(s.stable),
        "centre": _fmt_mat(s.centre),
        "unstable": _fmt_mat(s.unstable),
        "dims": list(s.dims()),
    }


def _cmd_norm(doc, p, precision, args):
    m = _load_matrix(doc)
    eps = doc.get("eps")
    eps = _parse_rational(eps, "eps") if eps is not None else None
    if eps is not None and eps <= 0:
        raise SchemaError(f"'eps' must be positive, got {fmt(eps)}")
    from . import spectral
    n = spectral.adapted_norm(m, p, eps=eps, precision=precision)
    return {
        "ram": n.ram,
        "eps_exp": fmt(n.eps_exp) if n.eps_exp is not None else "none",
        "weights": [fmt(q) for q in n.weights],
        "blocks": [
            {"rho": fmt(b.rho), "transform": _fmt_mat(b.t)} for b in n.blocks
        ],
        "winv": _fmt_mat(n.winv),
        "operator_norm_exp": fmt(spectral.operator_norm(m, p, n)),
    }


def _cmd_classify(doc, p, precision, args):
    tables = _load_map(doc)
    pt = (_load_point(doc, len(tables)) if "point" in doc
          else [Fraction(0)] * len(tables))
    from . import dynamics
    f = dynamics.PolyMap.from_tables(tables, p)
    r = dynamics.classify_fixed_point(f, pt, precision)
    out = {
        "point": _fmt_vec(r.point),
        "jacobian": _fmt_mat(r.jacobian),
        "spectrum": [{"v": fmt(v), "m": mult} for v, mult in r.spectrum],
        "class": r.label,
        "degenerate": r.degenerate,
    }
    if r.certificate is not None:
        out["certificate"] = {
            "mode": r.certificate.mode,
            "radius_exp": r.certificate.radius_exp,
            "contraction_exp": fmt(r.certificate.contraction_exp),
        }
    return out


def _cmd_graph(doc, p, precision, args):
    tables = _load_map(doc)
    a = _require_a(doc, args)
    mode = doc.get("mode", STABLE)
    if mode not in MODES:
        raise SchemaError(f"unknown mode {mode!r}")
    order = _count(args.order, doc, "order", 6)
    from . import dynamics, manifolds
    f = dynamics.PolyMap.from_tables(tables, p)
    gs = manifolds.graph_series(f, a, mode, order=order, precision=precision)
    return {
        "mode": gs.mode,
        "a": fmt(gs.a),
        "base_basis": _fmt_mat(gs.base_basis),
        "complement_basis": _fmt_mat(gs.complement_basis),
        "coefficients": [
            {"multi_index": list(m), "vector": _fmt_vec(vec)}
            for m, vec in gs.coefficients
        ],
        "order": gs.order,
    }


def _cmd_orbit(doc, p, precision, args):
    tables = _load_map(doc)
    x = _load_point(doc, len(tables))
    n = _count(args.horizon, doc, "steps", 8, least=0)
    from . import dynamics
    f = dynamics.PolyMap.from_tables(tables, p)
    pts = dynamics.orbit(f, x, n)
    return {"orbit": [
        {"point": _fmt_vec(z), "norm_exp": fmt(e)} for z, e in pts
    ]}


def _cmd_member(doc, p, precision, args):
    tables = _load_map(doc)
    a = _require_a(doc, args)
    x = _load_point(doc, len(tables))
    horizon = _count(args.horizon, doc, "horizon", 64)
    from . import dynamics
    f = dynamics.PolyMap.from_tables(tables, p)
    v = dynamics.stable_membership(f, a, x, horizon, precision)
    return {
        "a": fmt(a),
        "verdict": v.verdict,
        "trace": [fmt(e) for e in v.trace],
        "justification": list(v.justification),
    }


COMMANDS = {
    "spectrum": _cmd_spectrum,
    "hyperbolic": _cmd_hyperbolic,
    "split": _cmd_split,
    "norm": _cmd_norm,
    "classify": _cmd_classify,
    "graph": _cmd_graph,
    "orbit": _cmd_orbit,
    "member": _cmd_member,
}


def _require_a(doc, args):
    if args.a is None and "a" not in doc:
        raise SchemaError("threshold 'a' required (flag --a or input field)")
    a = _parse_rational(args.a if args.a is not None else doc["a"], "threshold a")
    if a <= 0:
        raise SchemaError(f"threshold 'a' must be positive, got {fmt(a)}")
    return a


def _count(flag, doc, key, default, least=1):
    """An integer option: the flag if given (it must be positive), else the
    input field key (at least least), else default."""
    if flag is not None:
        if flag < 1:
            raise SchemaError(f"flag for '{key}' must be a positive integer, got {flag}")
        return flag
    n = doc.get(key, default)
    if type(n) is not int or n < least:  # a JSON true is not a count
        raise SchemaError(f"'{key}' must be an integer >= {least}, got {n!r}")
    return n


def _emit_table(result, out, prefix=""):
    if isinstance(result, dict):
        for k in sorted(result):
            _emit_table(result[k], out, f"{prefix}{k}.")
    elif isinstance(result, list):
        for i, v in enumerate(result):
            _emit_table(v, out, f"{prefix}{i}.")
    else:
        out.write(f"{prefix[:-1]}\t{result}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ultradyn",
        description="exact spectral/dynamical analysis over Q_p")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--input", required=True, help="JSON problem file")
    parser.add_argument("--prime", type=int, default=None)
    parser.add_argument("--precision", type=int, default=None)
    parser.add_argument("--a", default=None, help="threshold, rational string")
    parser.add_argument("--order", type=int, default=None)
    parser.add_argument("--horizon", type=int, default=None)
    parser.add_argument("--format", choices=("json", "table"), default="json")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's usage error, its message on stderr
        if exc.code != 2:  # --help
            raise
        return 4
    # Exact orbit points outgrow Python's default cap on int <-> str
    # conversion (4300 digits); lift it while one command reads and writes.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run(args)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _run(args) -> int:
    try:
        try:
            with open(args.input) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise SchemaError(f"cannot read input: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise SchemaError(f"input is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise SchemaError("input must be a JSON object")
        p = args.prime if args.prime is not None else doc.get("prime")
        if isinstance(p, int) and p >= PRIME_LIMIT:
            raise SchemaError(f"'prime' must be below {PRIME_LIMIT} to be proven prime, got {p}")
        if not isinstance(p, int) or not _is_prime(p):
            raise SchemaError(f"'prime' must be a prime integer, got {p!r}")
        precision = _count(args.precision, doc, "precision", DEFAULT_PRECISION)
        result = COMMANDS[args.command](doc, p, precision, args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 4
    except PrecisionExhausted as exc:
        print(json.dumps({"error": "PrecisionExhausted", "detail": str(exc)},
                         sort_keys=True))
        return 3
    except CERTIFIED_FAILURES as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)},
                         sort_keys=True))
        return 2

    if args.format == "json":
        print(json.dumps(result, sort_keys=True, separators=(", ", ": ")))
    else:
        _emit_table(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
