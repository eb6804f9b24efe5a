"""The contract of confkit's public value classes.

One instance of each class pins its repr, equality and hash against an
equal and a differing instance, its immutability, its round trip through
pickle and copy, and its construction by position, by keyword and with
defaults.  No test here depends on how the classes are implemented.
"""

from __future__ import annotations

import copy
import pickle

import pytest

import confkit
from confkit import (
    INF,
    AbstractComponentId,
    ChildSlot,
    CompatReason,
    CompatVerdict,
    ComplianceFailure,
    ComplianceVerdict,
    Component,
    ComponentId,
    ComponentSpec,
    Configuration,
    ExtendChange,
    Interval,
    JournalEntry,
    NameSet,
    OriginSet,
    RemoveChange,
    SourceSpan,
    SpecSet,
    UpdateChange,
    ValidationReport,
    VersionSet,
    Violation,
)

CID = ComponentId("T", "n", "o", 1)
ROOT = ComponentId("R", "r", "o", 1)
ACI = AbstractComponentId("T", NameSet.of("n"), OriginSet.of("o"), VersionSet.of(1))
LEAF = Component(CID, elements=frozenset({"f"}))
FAILURE = ComplianceFailure("T", "total", "T contains 2..2 children, allowed 0..0")
VIOLATION = Violation("unique-root", ("T(n, o, v1)",), "configuration is empty")


# class -> (fields, positional arguments, a differing value)
CASES = {
    Interval: (("lo", "hi"), (1, 3), Interval(1, INF)),
    NameSet: (("literals", "prefixes", "is_any"),
              (frozenset({"a", "libc"}), frozenset({"lib"}), False), NameSet.everything()),
    OriginSet: (("values", "is_any"), (frozenset({"o"}), False), OriginSet.everything()),
    VersionSet: (("values", "span"), (frozenset({1, 2, 3}), None), VersionSet.of(1, 3)),
    ComponentId: (("ctype", "name", "origin", "version"), ("T", "n", "o", 1),
                  ComponentId("T", "n", "o", 2)),
    AbstractComponentId: (("ctype", "names", "origins", "versions"),
                          ("T", NameSet.of("n"), OriginSet.of("o"), VersionSet.of(1)),
                          AbstractComponentId("T")),
    Violation: (("condition", "subjects", "message", "severity"),
                ("unique-root", ("T(n, o, v1)",), "configuration is empty", "error"),
                Violation("unique-root", (), "configuration is empty", "warning")),
    ValidationReport: (("violations",), ((VIOLATION,),), ValidationReport()),
    Component: (("id", "dependencies", "elements", "children"),
                (CID, frozenset(), frozenset({"f"}), None),
                Component(CID, elements=frozenset({"g"}))),
    Configuration: (("components",), ((LEAF,),), Configuration()),
    ChildSlot: (("aci", "count"), (ACI, Interval(1, 1)), ChildSlot(ACI, Interval(0, 1))),
    ComponentSpec: (("aci", "dependencies", "children", "total"),
                    (ACI, frozenset(), frozenset(), Interval(0, 0)),
                    ComponentSpec(ACI, total=Interval(0, 1))),
    SpecSet: (("specs",), (frozenset({ComponentSpec(ACI)}),), SpecSet()),
    ExtendChange: (("components", "attachments"), ((LEAF,), ((CID, ROOT),)),
                   ExtendChange((), ())),
    UpdateChange: (("replacements",), (((CID, LEAF),),), UpdateChange(())),
    RemoveChange: (("ids",), ((CID,),), RemoveChange((ROOT,))),
    JournalEntry: (("change", "inverse", "seq", "undoes"),
                   (RemoveChange((CID,)), RemoveChange((ROOT,)), 3, None),
                   JournalEntry(RemoveChange((CID,)), RemoveChange((ROOT,)), 3, 1)),
    ComplianceFailure: (("subject", "clause", "detail"),
                        ("T", "total", "T contains 2..2 children, allowed 0..0"),
                        ComplianceFailure("T", "total", "other")),
    ComplianceVerdict: (("compliant", "failures"), (False, (FAILURE,)), ComplianceVerdict(True)),
    CompatReason: (("subject", "cause"), ("T", "no counterpart"), CompatReason("T", "older")),
    CompatVerdict: (("compatible", "reasons"), (True, ()),
                    CompatVerdict(False, (CompatReason("T", "older"),))),
    SourceSpan: (("file", "line", "column"), ("a.cg", 2, 7), SourceSpan("a.cg", 2, 8)),
}

REPRS = {
    Interval: "Interval(lo=1, hi=3)",
    NameSet: "NameSet(literals=frozenset({'a'}), prefixes=frozenset({'lib'}), is_any=False)",
    OriginSet: "OriginSet(values=frozenset({'o'}), is_any=False)",
    VersionSet: "VersionSet(values=frozenset({1, 2, 3}), span=None)",
    ComponentId: "ComponentId(ctype='T', name='n', origin='o', version=1)",
    AbstractComponentId: (
        "AbstractComponentId(ctype='T', "
        "names=NameSet(literals=frozenset({'n'}), prefixes=frozenset(), is_any=False), "
        "origins=OriginSet(values=frozenset({'o'}), is_any=False), "
        "versions=VersionSet(values=frozenset({1}), span=None))"),
    Violation: ("Violation(condition='unique-root', subjects=('T(n, o, v1)',), "
                "message='configuration is empty', severity='error')"),
    ValidationReport: (
        "ValidationReport(violations=(Violation(condition='unique-root', "
        "subjects=('T(n, o, v1)',), message='configuration is empty', severity='error'),))"),
    Component: ("Component(id=ComponentId(ctype='T', name='n', origin='o', version=1), "
                "dependencies=frozenset(), elements=frozenset({'f'}), children=None)"),
    Configuration: (
        "Configuration(components=(Component(id=ComponentId(ctype='T', name='n', origin='o', "
        "version=1), dependencies=frozenset(), elements=frozenset({'f'}), children=None),))"),
    ChildSlot: (
        "ChildSlot(aci=AbstractComponentId(ctype='T', "
        "names=NameSet(literals=frozenset({'n'}), prefixes=frozenset(), is_any=False), "
        "origins=OriginSet(values=frozenset({'o'}), is_any=False), "
        "versions=VersionSet(values=frozenset({1}), span=None)), count=Interval(lo=1, hi=1))"),
    ComponentSpec: (
        "ComponentSpec(aci=AbstractComponentId(ctype='T', "
        "names=NameSet(literals=frozenset({'n'}), prefixes=frozenset(), is_any=False), "
        "origins=OriginSet(values=frozenset({'o'}), is_any=False), "
        "versions=VersionSet(values=frozenset({1}), span=None)), "
        "dependencies=frozenset(), children=frozenset(), total=Interval(lo=0, hi=0))"),
    SpecSet: (
        "SpecSet(specs=frozenset({ComponentSpec(aci=AbstractComponentId(ctype='T', "
        "names=NameSet(literals=frozenset({'n'}), prefixes=frozenset(), is_any=False), "
        "origins=OriginSet(values=frozenset({'o'}), is_any=False), "
        "versions=VersionSet(values=frozenset({1}), span=None)), "
        "dependencies=frozenset(), children=frozenset(), total=Interval(lo=0, hi=0))}))"),
    ExtendChange: (
        "ExtendChange(components=(Component(id=ComponentId(ctype='T', name='n', origin='o', "
        "version=1), dependencies=frozenset(), elements=frozenset({'f'}), children=None),), "
        "attachments=((ComponentId(ctype='T', name='n', origin='o', version=1), "
        "ComponentId(ctype='R', name='r', origin='o', version=1)),))"),
    UpdateChange: (
        "UpdateChange(replacements=((ComponentId(ctype='T', name='n', origin='o', version=1), "
        "Component(id=ComponentId(ctype='T', name='n', origin='o', version=1), "
        "dependencies=frozenset(), elements=frozenset({'f'}), children=None)),))"),
    RemoveChange: "RemoveChange(ids=(ComponentId(ctype='T', name='n', origin='o', version=1),))",
    JournalEntry: (
        "JournalEntry(change=RemoveChange(ids=(ComponentId(ctype='T', name='n', origin='o', "
        "version=1),)), inverse=RemoveChange(ids=(ComponentId(ctype='R', name='r', origin='o', "
        "version=1),)), seq=3, undoes=None)"),
    ComplianceFailure: ("ComplianceFailure(subject='T', clause='total', "
                        "detail='T contains 2..2 children, allowed 0..0')"),
    ComplianceVerdict: (
        "ComplianceVerdict(compliant=False, failures=(ComplianceFailure(subject='T', "
        "clause='total', detail='T contains 2..2 children, allowed 0..0'),))"),
    CompatReason: "CompatReason(subject='T', cause='no counterpart')",
    CompatVerdict: "CompatVerdict(compatible=True, reasons=())",
    SourceSpan: "SourceSpan(file='a.cg', line=2, column=7)",
}

# class -> (positional arguments, keyword arguments, the defaults of the other fields)
DEFAULTS = {
    NameSet: ((), {}, {"literals": frozenset(), "prefixes": frozenset(), "is_any": False}),
    OriginSet: ((), {}, {"values": frozenset(), "is_any": False}),
    VersionSet: ((frozenset({1}),), {}, {"span": None}),
    AbstractComponentId: (("T",), {}, {"names": NameSet.everything(),
                                       "origins": OriginSet.everything(),
                                       "versions": VersionSet.everything()}),
    Violation: (("c", (), "m"), {}, {"severity": "error"}),
    ValidationReport: ((), {}, {"violations": ()}),
    Component: ((CID,), {"elements": frozenset({"f"})}, {"dependencies": frozenset(), "children": None}),
    Configuration: ((), {}, {"components": ()}),
    ComponentSpec: ((ACI,), {}, {"dependencies": frozenset(), "children": frozenset(),
                                 "total": Interval(0, 0)}),
    SpecSet: ((), {}, {"specs": frozenset()}),
    JournalEntry: ((RemoveChange(()), RemoveChange(())), {}, {"seq": 0, "undoes": None}),
    ComplianceVerdict: ((True,), {}, {"failures": ()}),
    CompatVerdict: ((True,), {}, {"reasons": ()}),
}

CLASSES = sorted(CASES, key=lambda cls: cls.__name__)


def build(cls):
    return cls(*CASES[cls][1])


def field_tuple(value) -> tuple:
    return tuple(getattr(value, f) for f in CASES[type(value)][0])


def test_every_public_value_class_is_covered():
    assert len(CASES) == len(REPRS) == 22
    assert set(CASES) == set(REPRS)


def test_every_public_name_resolves():
    for name in confkit.__all__:
        assert getattr(confkit, name) is not None, name


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_repr(cls):
    assert repr(build(cls)) == REPRS[cls]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equality_and_hash(cls):
    value, differing = build(cls), CASES[cls][2]
    assert value == build(cls) and not value != build(cls)
    assert hash(value) == hash(build(cls))
    assert value != differing and not value == differing
    assert hash(value) != hash(differing)
    if cls not in (VersionSet, Configuration):  # these two compare by denotation
        assert hash(value) == hash(field_tuple(value))


def test_denotational_equality():
    assert VersionSet.of(1, 2, 3) == VersionSet.between(1, 3)
    assert hash(VersionSet.of(1, 2, 3)) == hash(VersionSet.between(1, 3))
    other = ComponentId("T", "m", "o", 1)
    forwards = Configuration((LEAF, Component(other, elements=frozenset())))
    backwards = Configuration(tuple(reversed(forwards.components)))
    assert forwards == backwards and hash(forwards) == hash(backwards)
    assert NameSet(frozenset({"a", "libc"}), frozenset({"lib", "libx"})) == NameSet(
        frozenset({"a"}), frozenset({"lib"}))


def test_equality_never_holds_across_classes():
    values = [build(cls) for cls in CLASSES]
    for i, a in enumerate(values):
        assert a != field_tuple(a)
        for j, b in enumerate(values):
            if i != j:
                assert a != b and not a == b, (a, b)
    assert CompatReason("s", "c") != ComplianceFailure("s", "c", "")


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_values_are_immutable(cls):
    value = build(cls)
    for name in CASES[cls][0]:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == REPRS[cls]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_pickle_and_copy_round_trip(cls):
    value = build(cls)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(value, protocol))
        assert type(restored) is cls and restored == value and repr(restored) == REPRS[cls]
    for copied in (copy.copy(value), copy.deepcopy(value)):
        assert type(copied) is cls and copied == value and repr(copied) == REPRS[cls]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_positional_and_keyword_construction(cls):
    fields, args, _ = CASES[cls]
    by_keyword = cls(**dict(zip(fields, args)))
    assert by_keyword == build(cls) and repr(by_keyword) == REPRS[cls]
    assert field_tuple(by_keyword) == field_tuple(build(cls))


@pytest.mark.parametrize("cls", sorted(DEFAULTS, key=lambda cls: cls.__name__),
                         ids=lambda cls: cls.__name__)
def test_defaults(cls):
    args, kwargs, defaults = DEFAULTS[cls]
    value = cls(*args, **kwargs)
    for name, default in defaults.items():
        assert getattr(value, name) == default, name
    assert value == cls(*args, **kwargs, **defaults)


def test_construction_normalises_and_validates():
    assert LEAF.dependencies == frozenset() and Component.leaf(CID, ["f"]) == LEAF
    assert Configuration([LEAF]).components == (LEAF,)
    assert RemoveChange([ROOT, CID]).ids == (ROOT, CID)
    assert NameSet.everything() == NameSet(frozenset({"a"}), frozenset({"b"}), True)
    with pytest.raises(ValueError):
        Interval(2, 1)
    with pytest.raises(ValueError):
        ComponentId("T", "", "o", 1)
    with pytest.raises(ValueError):
        ComponentId("T", "n", "o", True)
    with pytest.raises(ValueError):
        Component(CID)
    with pytest.raises(ValueError):
        VersionSet()
    with pytest.raises(ValueError):
        AbstractComponentId("")


def test_a_subclass_has_its_parents_fields_first():
    class Tagged(ComponentId):
        __slots__ = ("tag",)

        def __init__(self, ctype, name, origin, version, tag):
            super().__init__(ctype, name, origin, version)
            object.__setattr__(self, "tag", tag)

    tagged = Tagged("T", "n", "o", 1, "x")
    assert tagged == Tagged("T", "n", "o", 1, "x")
    assert hash(tagged) == hash(("T", "n", "o", 1, "x"))
    assert tagged != Tagged("T", "n", "o", 2, "x") and tagged != Tagged("T", "n", "o", 1, "y")
    assert tagged != CID
    assert repr(tagged) == f"{Tagged.__qualname__}(ctype='T', name='n', origin='o', version=1, tag='x')"
    assert copy.deepcopy(tagged) == tagged
    assert tagged.replace(version=2) == Tagged("T", "n", "o", 2, "x")


def test_a_subclass_keeps_the_equality_and_hash_its_parent_defines():
    class ByName(ComponentId):
        __slots__ = ()

        def __eq__(self, other):
            return isinstance(other, ByName) and other.name == self.name

        def __hash__(self):
            return hash(self.name)

    class Tagged(ByName):
        __slots__ = ("tag",)

    assert Tagged.__eq__ is ByName.__eq__ and Tagged.__hash__ is ByName.__hash__
    assert Tagged("T", "n", "o", 1) == Tagged("U", "n", "p", 2) and hash(Tagged("T", "n", "o", 1)) == hash("n")


def test_a_subclass_without_slots_of_its_own():
    class Plain(ComponentId):
        __slots__ = ()

    plain = Plain("T", "n", "o", 1)
    assert plain == Plain("T", "n", "o", 1) and hash(plain) == hash(CID)
    assert plain != Plain("T", "n", "o", 2) and plain != CID
    assert repr(plain) == f"{Plain.__qualname__}(ctype='T', name='n', origin='o', version=1)"
    assert copy.deepcopy(plain) == plain and plain.replace(name="m") == Plain("T", "m", "o", 1)
