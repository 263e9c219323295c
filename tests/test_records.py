"""The result records against the frozen dataclasses they replaced: built
from the same arguments, each pair agrees on the fields and the
``__init__`` signature, on every check and coercion, and on ``==``,
``hash``, ``repr`` and ``str``.  Equality holds only within one class and
ignores the fields the dataclass left out of comparison."""

import dataclasses
import inspect
import random
from fractions import Fraction

import pytest

from surfsat import (
    AffDim,
    Configuration,
    Divisor,
    FibreTypeReport,
    FibreVerdict,
    SchemeSaturationVerdict,
    SymmetricMatrix,
)
from surfsat import configuration, elliptic, fibres, linalg, mumford, nslattice
from surfsat import saturation, schema
from surfsat.configuration import CurveNode
from surfsat.elliptic import ECPoint, ObstructionReport, TorsionStatus, WeierstrassCurve
from surfsat.fibres import (
    FalseFibreClaim,
    GroupLawObstruction,
    UserAsserted,
    ZariskiViolation,
)
from surfsat.mumford import SingularPoint
from surfsat.nslattice import ClassRecord, NSLattice
from surfsat.saturation import CompactifiedSurface, SaturationPlan
from surfsat.schema import EllipticSection
from support import RECORD_ORACLES, diagonal

MODULES = (configuration, linalg, fibres, mumford, saturation, nslattice, elliptic, schema)
RECORDS = {
    name: cls
    for module in MODULES
    for name, cls in vars(module).items()
    if name in RECORD_ORACLES and cls.__module__ == module.__name__
}
# the records with a cached_property, which keep an instance dictionary
CACHED = {"CompactifiedSurface", "NSLattice", "ObstructionReport"}
DRAWS = 200

CHAIN = Configuration.build([("A", -2), ("B", -2), ("C", 1)], [(0, 1, 1), (1, 2, 1)])
PENCIL = Configuration.build([("F", 0, 1), ("S", -1)], [(0, 1, 1)])
IMPROPER = Configuration(
    [CurveNode(0, "A"), CurveNode(1, "U", proper=False)],
    diagonal([-2, -1]),
)
CURVE = WeierstrassCurve(0, 0, 1, -1, 0)
OTHER_CURVE = WeierstrassCurve(1, Fraction(1, 2), 0, 0, 3)
POINT = ECPoint.affine(0, 0)
CLAIM = FalseFibreClaim({0}, UserAsserted())
SURFACE = CompactifiedSurface(CHAIN, {2})
PLANE = NSLattice(("L",), SymmetricMatrix([[1]]), (-3,))
BLOWN_UP = NSLattice(("L", "E1"), diagonal([1, -1]), (-3, 1))
CUBIC = ClassRecord("C", (3,), genus=1)
EXCEPTIONAL = ClassRecord("E1", (0, 1))
COMPONENTS = [(), (frozenset({0}),), (frozenset({0}), frozenset({1, 2}))]

# field -> the values a draw picks from: few, so that equal draws are
# common, with the inputs each check refuses and each coercion converts
POOLS = {
    "CurveNode": dict(
        id=[0, 1], name=["A", "B"], genus=[0, 1, -1], proper=[True, False]
    ),
    "LDL": dict(
        order=[(0,), (1, 0)], inertia=[(0, 1, 0), (0, 2, 0)], scales=[(1,), (1, 2)],
        content=[1, 2], minors=[(1,), (1, -2)], pivots=[(-2,), (-2, 3)],
        columns=[((),), (((1, 1),), ()), [()]],
    ),
    "FibreTypeReport": dict(
        subject=[frozenset({0}), frozenset({0, 1})],
        verdict=[FibreVerdict.FIBRE_TYPE, FibreVerdict.NEGATIVE_DEFINITE],
        kernel=[None, Divisor({0: 1})], positive=[None, 0, 1],
    ),
    "UserAsserted": {},
    "NormalBundleNonTorsion": {},
    "GroupLawObstruction": dict(reference=["plain sum", "weighted sum"]),
    "FalseFibreClaim": dict(
        subject=[[0], {0, 1}, (1, 0), frozenset({0})],
        certificate=[UserAsserted(), GroupLawObstruction("plain sum")],
    ),
    "ZariskiViolation": dict(kind=["disconnected", "fibre-type"], subset=[(0,), (0, 1)]),
    "ZariskiReport": dict(
        status=["ok", "violations"],
        violations=[(), (ZariskiViolation("disconnected", (0, 1)),)], note=["", "n"],
    ),
    "ClaimsReport": dict(ok=[True, False], disjoint_triple=[None, (CLAIM,) * 3]),
    "ContractionContext": dict(
        ambient=[CHAIN, PENCIL], exceptional=[{0}, [0, 1], (1,), {0, 2}, {5}]
    ),
    "SingularPoint": dict(
        name=["q1", "q2"], contracted_nodes=[frozenset({0}), frozenset({0, 1})],
        contracted_names=[("A",), ("A", "B")],
    ),
    "ContractedConfiguration": dict(
        configuration=[CHAIN, PENCIL], ambient_ids=[(0,), (0, 1)],
        singular_points=[(), (SingularPoint("q1", frozenset({0}), ("A",)),)],
        pullbacks=[(), (Divisor({0: 1}),)],
    ),
    "CompactifiedSurface": dict(
        ambient=[CHAIN, PENCIL, IMPROPER], boundary=[{0}, [0, 1], (), {7}],
        isolated_boundary_points=[0, 2, -1], false_fibre_claims=[(), [CLAIM]],
        fibration_asserted=[False, True],
    ),
    "SaturationVerdict": dict(
        saturated=[True, False], offending_components=COMPONENTS,
        isolated_points=[0, 1], criterion=["no-negative-definite-component", "c"],
    ),
    "SaturationPlan": dict(
        d_minus=COMPONENTS, d_plus=COMPONENTS, points_to_remove=[0, 2],
        resulting_boundary_ok=[True, False],
    ),
    "AffDimReport": dict(
        verdict=[AffDim.ONE, AffDim.ONE_OR_ZERO], reasons=[(), (("tag", "why"),)]
    ),
    "SchemeSaturationReport": dict(
        verdict=[SchemeSaturationVerdict.UNKNOWN, SchemeSaturationVerdict.SCHEME_SATURATED],
        contractible=COMPONENTS, unknown=COMPONENTS, note=["", "n"],
    ),
    "ClassRecord": dict(
        name=["C", "E1"], vector=[(3,), [0, Fraction(1)], (Fraction(1, 2),), ("2", 0)],
        genus=[0, 1, -1],
    ),
    "NSLattice": dict(
        basis_names=[("L",), ("L", "E1")],
        gram=[
            SymmetricMatrix([[1]]), diagonal([1, -1]),
            diagonal([1, 1]), SymmetricMatrix([[Fraction(1, 2)]]),
        ],
        canonical=[(-3,), (-3, 1), [Fraction(-3)], (Fraction(1, 2),)],
    ),
    "BlowupResult": dict(
        lattice=[PLANE, BLOWN_UP], classes=[(), (CUBIC,)],
        exceptional=[EXCEPTIONAL, CUBIC],
    ),
    "WeierstrassCurve": {
        a: [0, 1, -1, Fraction(1, 2), "1/3", 0.5] for a in ("a1", "a2", "a3", "a4", "a6")
    },
    "ECPoint": dict(x=[None, 0, Fraction(1, 2), "2"], y=[None, 1, Fraction(-1)]),
    "TorsionStatus": dict(torsion=[True, False], order=[None, 1, 5], bound=[None, 16384]),
    "ObstructionReport": dict(
        found=[True, False], torsion=[TorsionStatus(True, 1), TorsionStatus(False)],
        curve=[CURVE, OTHER_CURVE], points=[(), ((POINT, 1),), ((POINT, 2),)],
    ),
    "HironakaReport": dict(
        n=[9, 10], lattice=[PLANE, BLOWN_UP], cubic_class=[CUBIC],
        exceptional_classes=[(), (EXCEPTIONAL,)],
        boundary_self_intersection=[Fraction(0), Fraction(-1)],
        surface=[SURFACE, CompactifiedSurface(PENCIL, {0})],
        obstruction=[ObstructionReport(False, TorsionStatus(True, 1), CURVE, ())],
        saturation=[None], plan=[SaturationPlan((), (), 0, True)],
        scheme_saturation=[None], affinisation=[None], claim=[None, CLAIM],
    ),
    "EllipticSection": dict(curve=[CURVE, OTHER_CURVE], points=[(), ((POINT, 1),)]),
    "Document": dict(
        surface=[SURFACE], elliptic=[None, EllipticSection(CURVE, ((POINT, 1),))]
    ),
}


def outcome(make):
    """What ``make()`` returns, or the type and message of what it raises."""
    try:
        return True, make()
    except Exception as exc:  # noqa: BLE001 -- both sides must raise alike
        return False, (type(exc), str(exc))


def parameters(init):
    """The (name, kind, default) of each parameter after ``self``."""
    return [
        (p.name, p.kind, p.default)
        for p in list(inspect.signature(init).parameters.values())[1:]
    ]


def draw(rng, name):
    """Arguments for the record ``name``: each field picked from its pool,
    passed by position or by keyword, a defaulted one sometimes left out."""
    fields = dataclasses.fields(RECORD_ORACLES[name])
    values = {f.name: rng.choice(POOLS[name][f.name]) for f in fields}
    for f in fields:
        defaulted = (f.default, f.default_factory) != (dataclasses.MISSING,) * 2
        if defaulted and rng.random() < 0.3:
            del values[f.name]
    if rng.random() < 0.5 or len(values) < len(fields):
        return (), values
    return tuple(values.values()), {}


def build(cls, arguments):
    args, kwargs = arguments
    return outcome(lambda: cls(*args, **kwargs))


def test_every_record_has_its_dataclass():
    assert len(RECORD_ORACLES) == 28
    assert sorted(RECORDS) == sorted(RECORD_ORACLES) == sorted(POOLS)


@pytest.mark.parametrize("name", sorted(RECORD_ORACLES))
def test_fields_and_signature_match_the_dataclass(name):
    new, old = RECORDS[name], RECORD_ORACLES[name]
    assert not dataclasses.is_dataclass(new)
    fields = dataclasses.fields(old)
    assert [n for n in new.__slots__ if n[0] != "_"] == [f.name for f in fields]
    assert list(new._shown) == [f.name for f in fields if f.repr]
    assert list(new._compared) == [f.name for f in fields if f.compare]
    if not fields:  # object's own __init__, which takes no argument either
        assert not outcome(lambda: new(0))[0] and not outcome(lambda: old(0))[0]
        return
    factory = {f.name: f.default_factory() for f in fields
               if f.default_factory is not dataclasses.MISSING}
    assert parameters(new.__init__) == [
        (n, kind, factory.get(n, default)) for n, kind, default in parameters(old.__init__)
    ]


@pytest.mark.parametrize("name", sorted(RECORD_ORACLES))
def test_records_agree_with_their_dataclasses(name):
    new_cls, old_cls = RECORDS[name], RECORD_ORACLES[name]
    rng = random.Random(name)
    built = []
    for _ in range(DRAWS):
        arguments = draw(rng, name)
        new, old = build(new_cls, arguments), build(old_cls, arguments)
        assert new[0] == old[0] and (new[0] or new[1] == old[1]), arguments
        if not new[0]:
            continue
        new, old = new[1], old[1]
        assert repr(new) == repr(old).removeprefix("Oracle")
        assert str(new) == str(old).removeprefix("Oracle")
        hashed = outcome(lambda: hash(new))
        assert hashed == outcome(lambda: hash(old))
        # equal to a fresh build, never to the dataclass or another class
        again = build(new_cls, arguments)[1]
        assert new == again and not new != again
        assert not hashed[0] or hash(again) == hashed[1]
        assert new != old and not new == old and new != object()
        assert hasattr(new, "__dict__") == (name in CACHED)
        built.append((new, old))
    assert len(built) >= 10
    for (a, a_old), (b, b_old) in zip(built, built[1:] + built[:1]):
        assert (a == b) == (a_old == b_old) and (a != b) == (a_old != b_old)


@pytest.mark.parametrize("records", [RECORDS, RECORD_ORACLES])
def test_equality_holds_within_one_class_only(records):
    # equal fields (none, or one reference) in two classes, or in a subclass
    assert records["UserAsserted"]() != records["NormalBundleNonTorsion"]()
    obstruction = records["GroupLawObstruction"]

    class Subclass(obstruction):
        pass

    assert Subclass("plain sum") != obstruction("plain sum")
    assert obstruction("plain sum") != Subclass("plain sum")
    assert obstruction("plain sum") == obstruction("plain sum")


def test_equality_ignores_the_fields_left_out_of_comparison():
    one = FibreTypeReport(frozenset({0}), FibreVerdict.FIBRE_TYPE, None, positive=0)
    other = FibreTypeReport(frozenset({0}), FibreVerdict.FIBRE_TYPE)
    assert one == other and hash(one) == hash(other)
    assert repr(one).endswith("positive=0)")
    status = TorsionStatus(False)
    report = ObstructionReport(True, status, CURVE, ((POINT, 1),))
    assert report == ObstructionReport(True, status, OTHER_CURVE, ())
    assert repr(report) == "ObstructionReport(found=True, torsion=" + repr(status) + ")"


@pytest.mark.parametrize(
    "make",
    [
        lambda m: m["CurveNode"](0, "A", genus=-1),
        lambda m: m["ECPoint"](1),
        lambda m: m["ECPoint"](y=1),
        lambda m: m["ECPoint"](0.5, 1),
        lambda m: m["WeierstrassCurve"](),
        lambda m: m["WeierstrassCurve"](a4=0.25),
        lambda m: m["CompactifiedSurface"](CHAIN, {3}),
        lambda m: m["CompactifiedSurface"](CHAIN, {0}, -1),
        lambda m: m["CompactifiedSurface"](IMPROPER, {0}),
        lambda m: m["ContractionContext"](CHAIN, {0, 1, 2}),
        lambda m: m["ContractionContext"](PENCIL, [0]),
        lambda m: m["NSLattice"](("L", "E1"), SymmetricMatrix([[1]]), (-3,)),
        lambda m: m["NSLattice"](("L",), SymmetricMatrix([[1]]), (-3, 1)),
        lambda m: m["NSLattice"](("L",), SymmetricMatrix([[Fraction(1, 2)]]), (-3,)),
        lambda m: m["NSLattice"](("L",), SymmetricMatrix([[-1]]), (-3,)),
        lambda m: m["NSLattice"](("L",), SymmetricMatrix([[1]]), (Fraction(1, 2),)),
        lambda m: m["ClassRecord"]("C", (3,), genus=-1),
        lambda m: m["ClassRecord"]("C", (Fraction(3, 2),)),
    ],
)
def test_each_check_refuses_alike(make):
    new, old = outcome(lambda: make(RECORDS)), outcome(lambda: make(RECORD_ORACLES))
    assert not new[0] and new[1] == old[1]


@pytest.mark.parametrize(
    "name, args",
    [
        ("ECPoint", (1, 2)),
        ("ECPoint", (Fraction(1, 2), "-3/4")),
        ("ECPoint", ()),
        ("WeierstrassCurve", (0, 0, 1, -1, 0)),
        ("WeierstrassCurve", ("1/2", Fraction(1, 3), 1, 0, "-2")),
        ("FalseFibreClaim", ([1, 0, 1], GroupLawObstruction("plain sum"))),
        ("FalseFibreClaim", (range(3), UserAsserted())),
        ("CompactifiedSurface", (CHAIN, [2, 2], 1, [CLAIM], True)),
        ("ContractionContext", (CHAIN, [1, 0])),
        ("ClassRecord", ("C", [Fraction(3), "-1", 0], 1)),
        ("NSLattice", (["L", "E1"], diagonal([1, -1]), [-3, "1"])),
    ],
)
def test_each_coercion_converts_alike(name, args):
    new, old = RECORDS[name](*args), RECORD_ORACLES[name](*args)
    assert repr(new) == repr(old).removeprefix("Oracle")
    assert [getattr(new, f) for f in new._shown] == [
        getattr(old, f.name) for f in dataclasses.fields(old) if f.repr
    ]
    assert [type(getattr(new, f)) for f in new._shown] == [
        type(getattr(old, f.name)) for f in dataclasses.fields(old) if f.repr
    ]


def test_cached_records_keep_an_instance_dictionary():
    surface = CompactifiedSurface(CHAIN, {0, 1})
    assert vars(surface) == {}
    reports = surface.component_reports
    assert vars(surface) == {"component_reports": reports}
    assert "_sparse_rows" not in vars(PLANE)
    PLANE.pair((1,), (1,))
    assert "_sparse_rows" in vars(PLANE)
    report = elliptic.sum_obstruction(CURVE, [(POINT, 1)])
    assert report.total == POINT and "total" in vars(report)
