"""Source hygiene: no dead private helpers and no unused imports in the
library, one place that builds a LinearAnalysis and one that builds a
MapAnalysis, every name the benchmark's tracer rebinds still resolves, no
Q_p(pi) ring context left in the library, no dataclasses, no private
internals of fractions, and the public names all import, on first use."""

import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ultradyn"


def _names(node):
    """Every name used as a variable or an attribute under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_private_helpers_are_used():
    """Every module-level function or class whose name starts with "_" is
    named somewhere under src/ outside its own definition."""
    helpers, used = [], Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used.update(_names(tree))
        helpers += [(path.name, node) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")]
    assert helpers, "no private helpers found: wrong source path?"
    dead = [f"{mod}:{node.name}" for mod, node in helpers
            if used[node.name] == list(_names(node)).count(node.name)]
    assert not dead, f"private helpers with no caller: {dead}"


# imported names a module does not use itself, with who reads them there
IMPORTED_FOR_OTHERS = {("dynamics.py", "RadiusNotFound")}  # bench/workloads.py


def test_imported_names_are_used():
    """Every name a module of src/ultradyn imports (from __future__ aside)
    is used in that module outside its import statements."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imports = [node for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"]
        imported = {(a.asname or a.name).split(".")[0] for node in imports for a in node.names}
        used = set(_names(tree))
        unused += [(path.name, name) for name in sorted(imported - used)]
    assert imported, "no imports found: wrong source path?"
    assert set(unused) == IMPORTED_FOR_OTHERS, unused


def test_analysis_built_only_by_the_intern():
    """Only spectral._interned calls LinearAnalysis(...): every other entry
    point takes the interned analysis, so none rebuilds it quietly."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            sites += [(path.name, getattr(top, "name", None)) for node in ast.walk(top)
                      if isinstance(node, ast.Call)
                      and "LinearAnalysis" in (getattr(node.func, "id", None),
                                               getattr(node.func, "attr", None))]
    assert sites == [("spectral.py", "_interned")], sites


def test_map_analysis_built_only_by_the_intern():
    """MapAnalysis is named only in dynamics._map_analysis, which builds it
    behind its LRU cache once the map passes the self-map check: every
    entry point takes the interned analysis of its map."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            if isinstance(top, ast.ClassDef) and top.name == "MapAnalysis":
                continue
            name = getattr(top, "name", None) or next(
                (t.id for t in getattr(top, "targets", []) if isinstance(t, ast.Name)), None)
            sites += [(path.name, name) for node in ast.walk(top)
                      if "MapAnalysis" in (getattr(node, "id", None), getattr(node, "attr", None))]
    assert sites == [("dynamics.py", "_map_analysis")], sites


def load_tracing():
    """bench/tracing.py as a module, without putting bench/ on the path."""
    path = SRC.parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_resolve():
    """Every (module, attr) the benchmark's tracer rebinds names something in
    ultradyn.<module>; a "Class.method" entry resolves on its class."""
    tracing = load_tracing()
    assert tracing.SPANS, "no traced names found: wrong bench path?"
    for module, attr, _ in tracing.SPANS:
        obj = importlib.import_module(f"ultradyn.{module}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"ultradyn.{module}.{attr} does not resolve"
            obj = getattr(obj, part)


def test_no_extension_ring_in_the_library():
    """No module under src/ names ExtContext, and field.py imports nothing
    from polyalg: values of Q_p(pi) are print-only ExtElement records."""
    named = [path.name for path in sorted(SRC.glob("*.py"))
             if "ExtContext" in set(_names(ast.parse(path.read_text())))]
    assert not named, named
    tree = ast.parse((SRC / "field.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports, "no imports found in field.py: wrong source path?"
    assert not [ast.dump(node) for node in imports
                if "polyalg" in (getattr(node, "module", None) or "")
                or any("polyalg" in a.name for a in node.names)]


# every top-level name of ultradyn: the paper's objects, their inputs and the errors
PUBLIC = """DivisionByZero JacobianSingular NotAFixedPoint PrecisionExhausted
PreconditionViolated RankUncertified ResonanceDetected SchemaError UltradynError
DEFAULT_PRECISION PadicNumber compare_threshold valuation_of_rational NewtonPolygon
Polynomial charpoly newton_polygon slope_factorization AdaptedNorm LinearAnalysis
SpectralData Splitting Witness adapted_norm is_hyperbolic nonhyperbolicity_witness
operator_norm spectral_data spectrum_abs splitting_at BallCertificate FixedPointReport
MembershipVerdict PolyMap classify_fixed_point invariant_ball jacobian
linearization_radius orbit remainder_lipschitz shift_to_fixed_point stable_membership
GraphSeries formal_inverse graph_series residual""".split()

# names no longer in the package, with the module that still holds each one
# (None: deleted)
RETIRED = {"ExtContext": None, "ExtElement": "field", "PadicContext": "field",
           "RationalContext": "field", "RadiusNotFound": "errors", "kernel_basis": "polyalg",
           "InverseSeries": None}


def test_public_names_import():
    """The package resolves its names on first use (PEP 562): __all__ is
    exactly PUBLIC, dir() lists it, every name is its module's, a star
    import binds every name, an unknown or retired name raises
    AttributeError, a retired name that was kept still imports from its
    module (RadiusNotFound from dynamics too, where the benchmark catches
    it), a deleted one from none, and submodules still import."""
    ultradyn = importlib.import_module("ultradyn")
    assert sorted(ultradyn.__all__) == sorted(PUBLIC)
    assert set(PUBLIC) <= set(dir(ultradyn))
    for name in PUBLIC:
        module = importlib.import_module(f"ultradyn.{ultradyn._MODULE[name]}")
        assert getattr(ultradyn, name) is getattr(module, name), name
    namespace = {}
    exec("from ultradyn import *", namespace)
    assert not [name for name in PUBLIC if name not in namespace]
    for name in [*RETIRED, "no_such_name"]:
        assert not hasattr(ultradyn, name), name  # AttributeError, nothing else
    modules = {m: importlib.import_module(f"ultradyn.{m}") for m in ultradyn._NAMES}
    for name, module in RETIRED.items():
        if module:
            assert getattr(modules[module], name).__module__ == f"ultradyn.{module}", name
        else:
            assert not [m for m in modules.values() if hasattr(m, name)], name
    from ultradyn import dynamics, errors
    assert dynamics.RadiusNotFound is errors.RadiusNotFound
    from ultradyn import spectral
    assert spectral is importlib.import_module("ultradyn.spectral")


def test_no_dataclasses_in_the_library():
    """Records are plain classes on field._Record: no module imports
    dataclasses (nor inspect, which it loads)."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for a in node.names}
        imported |= {node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module}
        assert not imported & {"dataclasses", "inspect"}, path.name


def test_no_private_fraction_internals():
    """No module of the library reaches into the private internals of
    fractions (a _normalize= keyword, Fraction._from_coprime_ints): they
    change across Python 3.10 to 3.14 (_normalize is gone in 3.12), so
    every Fraction is made through the public constructor."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {kw.arg for node in ast.walk(tree) if isinstance(node, ast.Call)
                for kw in node.keywords} | set(_names(tree))
        assert not used & {"_normalize", "_from_coprime_ints"}, path.name
