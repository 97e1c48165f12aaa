"""Value records: every record class of the library keeps the semantics of
the frozen dataclass it replaced (field order, defaults, repr, == and hash,
immutability, copy and pickle), with fields named _x outside repr, == and
hash."""

import copy
import dataclasses
import pickle
import random
from fractions import Fraction as F
from functools import cached_property
from math import inf as INF

import pytest

from helpers import rand_vector, unimodular
from ultradyn import dynamics, field, manifolds, polyalg, spectral  # noqa: F401 (loads them all)
from ultradyn.field import PadicNumber, RationalContext, _Record
from ultradyn.spectral import LinearAnalysis, SpectralBlock

RECORDS = sorted(_Record.__subclasses__(), key=lambda cls: cls.__name__)


def _values(cls):
    """One hashable value per field of cls, distinct per field, each an
    iterable of iterables (as LinearAnalysis's matrix must be)."""
    return [((i,),) for i in range(len(cls._fields))]


def _defaults(cls):
    """{field: default} from the class attributes (a slot is no default)."""
    return {f: vars(cls)[f] for f in cls._fields
            if f in vars(cls) and f not in getattr(cls, "__slots__", ())}


def _dataclass_twin(cls):
    """The frozen dataclass the record stands for: same fields and defaults,
    _x fields with compare=False and repr=False."""
    specs = []
    for name in cls._fields:
        opts = {"compare": False, "repr": False} if name.startswith("_") else {}
        if name in _defaults(cls):
            opts["default"] = _defaults(cls)[name]
        specs.append((name, object, dataclasses.field(**opts)))
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True)


def test_every_record_is_found():
    assert len(RECORDS) == 18, [cls.__name__ for cls in RECORDS]
    assert all(cls.__module__.startswith("ultradyn.") for cls in RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_matches_its_dataclass(cls):
    """repr, == and hash agree with the frozen dataclass of the same fields,
    positionally and by keyword."""
    vals = _values(cls)
    rec, twin = cls(*vals), _dataclass_twin(cls)(*vals)
    assert rec == cls(**dict(zip(cls._fields, vals)))
    assert hash(rec) == hash(twin) == hash(cls(*vals))
    if "__repr__" not in vars(cls):  # PadicNumber and ExtElement print their own
        assert repr(rec) == repr(twin)
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(cls._fields, vals)
                          if not f.startswith("_"))
        assert repr(rec) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_equality_stays_within_its_class(cls):
    vals = _values(cls)
    rec = cls(*vals)
    for i, name in enumerate(cls._fields):
        other = cls(*vals[:i], ((-1,),), *vals[i + 1:])
        if name.startswith("_"):
            assert other == rec and hash(other) == hash(rec) and repr(other) == repr(rec)
        else:
            assert other != rec
    for stranger in RECORDS:
        if stranger is not cls and len(stranger._fields) == len(cls._fields):
            assert stranger(*vals) != rec
    assert rec != tuple(vals) and rec != vals
    assert len({rec, cls(*vals)}) == 1


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_refuses_assignment(cls):
    rec = cls(*_values(cls))
    for name in (*cls._fields, "novel"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 1)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert rec == cls(*_values(cls))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_arguments_are_checked(cls):
    vals = _values(cls)
    with pytest.raises(TypeError):
        cls(*vals, 0)
    with pytest.raises(TypeError):
        cls(*vals, novel=0)
    with pytest.raises(TypeError):
        cls(*vals[1:], **{cls._fields[0]: vals[0]})  # the first field twice
    required = [f for f in cls._fields if f not in _defaults(cls)]
    if required:
        with pytest.raises(TypeError):
            cls(**{f: v for f, v in zip(cls._fields, vals) if f != required[-1]})


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_survives_copy_and_pickle(cls):
    rec = cls(*_values(cls))
    for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(twin) is cls and twin == rec and hash(twin) == hash(rec)
        if "__repr__" not in vars(cls):  # PadicNumber's repr needs real values
            assert repr(twin) == repr(rec)
        assert [getattr(twin, f) for f in cls._fields] == list(_values(cls))


def test_padic_values_survive_copy_and_pickle():
    """A PadicNumber, and the norms of two matrices over Q_3: one holding
    PadicNumbers (x^2 + x + 3 splits only 3-adically, so the norm's w holds
    them) and a rational one with a ram-2 block and a nilpotent block, whose
    integer read-out (_zrows, _zcols) and pieces (NormBlock._pi) are private
    fields.  Every copy, deep copy and pickled twin equals its original and
    gives the same norm_exp on seeded vectors and the same operator norm."""
    x = PadicNumber.from_rational(F(7, 3), 3)
    s = unimodular(random.Random(3), 4)
    blocks = [[F(0), F(3), F(0), F(0)], [F(1), F(0), F(0), F(0)],
              [F(0), F(0), F(0), F(1)], [F(0)] * 4]  # t^2 - 3 beside a nilpotent 2x2
    ctx = RationalContext(3)
    rational = polyalg.mat_mul(polyalg.mat_mul(s, blocks), polyalg.mat_inverse(s, ctx))
    ms = [[[F(0), F(-3)], [F(1), F(-1)]], rational]
    norms = [spectral.adapted_norm(m, 3) for m in ms]
    assert any(isinstance(c, PadicNumber) for row in norms[0].w for c in row)
    assert norms[1].ram == 2 and norms[1].blocks[-1].rho == INF and norms[1]._zrows
    for obj in (x, *norms):
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert twin == obj and hash(twin) == hash(obj) and repr(twin) == repr(obj)
    rng = random.Random(118)
    for m, n in zip(ms, norms):
        xs = [rand_vector(rng, 3, len(m)) for _ in range(8)]
        want = [n.norm_exp(v) for v in xs], spectral.operator_norm(m, 3, n)
        for twin in (copy.copy(n), copy.deepcopy(n), pickle.loads(pickle.dumps(n))):
            assert (twin._zrows, twin._zcols) == (n._zrows, n._zcols)
            assert [b._pi for b in twin.blocks] == [b._pi for b in n.blocks]
            assert ([twin.norm_exp(v) for v in xs], spectral.operator_norm(m, 3, twin)) == want


def test_defaults_and_linear_analysis_rows():
    b = SpectralBlock(F(1), 1, ((F(1),),))
    assert b._zbasis is None
    assert b == SpectralBlock(F(1), 1, ((F(1),),), _zbasis=[(1, [1])])
    an = LinearAnalysis([[F(2), F(0)], [F(0), F(1, 2)]], 2)
    assert an.precision == field.DEFAULT_PRECISION
    assert an.m == ((F(2), F(0)), (F(0), F(1, 2)))  # its constructor made rows tuples
    assert spectral.AdaptedNorm(2, 1, (), (), ()).eps_exp is None
    assert dynamics.MapAnalysis(dynamics.PolyMap(2, 1, ())).precision == field.DEFAULT_PRECISION


def test_cached_property_keeps_its_value():
    an = LinearAnalysis([[F(2), F(0)], [F(0), F(1, 2)]], 2)
    assert isinstance(vars(LinearAnalysis)["charpoly"], cached_property)
    cp = an.charpoly
    assert an.charpoly is cp and vars(an)["charpoly"] is cp
    assert an == LinearAnalysis([[F(2), F(0)], [F(0), F(1, 2)]], 2)


def test_padic_number_fields_are_slots():
    assert not hasattr(PadicNumber(3, F(1), 5, 10), "__dict__")
