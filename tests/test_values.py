"""The contract of confkit's public value classes.

One instance of each class pins its repr, equality and hash against an
equal and a differing instance, its immutability, its round trip through
pickle and copy, and its construction by position, by keyword and with
defaults.  No test here depends on how the classes are implemented.
"""

from __future__ import annotations

import ast
import copy
import importlib
import inspect
import pickle
from pathlib import Path

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


MODULES = ("algebra", "inference", "lifecycle", "model", "textfmt", "typecheck")


def test_each_public_name_is_declared_once_in_its_defining_module():
    names = []
    for module in map(importlib.import_module, (f"confkit.{m}" for m in MODULES)):
        for name in module.__all__:
            value = getattr(module, name)  # raises if the name is not bound there
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module.__name__, name
            assert getattr(confkit, name) is value, name
        names += module.__all__
    assert len(names) == len(set(names))
    assert set(confkit.__all__) == set(names)


def test_textfmt_depends_only_on_algebra_and_model():
    """`textfmt` imports no `json` and, from the package, only `.algebra` and
    `.model` when it loads.  Its one other import is the lazy lookup in its
    module `__getattr__`, which answers only the two names below."""
    import confkit.lifecycle
    import confkit.textfmt

    tree = ast.parse(Path(confkit.textfmt.__file__).read_text(encoding="utf-8"))
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    absolute = {a.name for n in imports if isinstance(n, ast.Import) for a in n.names}
    absolute |= {n.module for n in imports if isinstance(n, ast.ImportFrom) and not n.level}
    assert not {m for m in absolute if m.split(".")[0] == "json"}
    loaded = [n for n in tree.body if isinstance(n, ast.ImportFrom) and n.level]
    assert sorted(n.module for n in loaded) == ["algebra", "model"]
    [hook] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "__getattr__"]
    assert [n for n in imports if n not in tree.body] == [
        n for n in ast.walk(hook) if isinstance(n, (ast.Import, ast.ImportFrom))]

    for name in ("parse_changeset", "parse_journal"):
        assert getattr(confkit.textfmt, name) is getattr(confkit.lifecycle, name)
    for name in ("print_changeset", "journal_entry_to_line", "no_such_name"):
        with pytest.raises(AttributeError):
            getattr(confkit.textfmt, name)


def test_keyword_options():
    def options(fn):
        return {p.name for p in inspect.signature(fn).parameters.values()
                if p.kind is inspect.Parameter.KEYWORD_ONLY}
    assert options(confkit.compatible) == {"relaxed"}
    for fn in (confkit.extend, confkit.update, confkit.remove):
        assert options(fn) == {"strict_lower_bounds", "seq"}
    assert options(confkit.print_config) == set()


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from confkit import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(confkit.__all__)


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


PARENT = ComponentSpec(AbstractComponentId("R"), children=frozenset({ChildSlot(ACI, Interval(1, 1))}),
                       total=Interval(1, 1))
NODE_FORMS = {"list": list, "tuple": tuple, "generator": lambda nodes: (n for n in nodes),
              "frozenset": frozenset}


@pytest.mark.parametrize("form", sorted(NODE_FORMS))
def test_spec_set_from_any_iterable_of_nodes(form):
    forwards, backwards = [PARENT, ComponentSpec(ACI)], [ComponentSpec(ACI), PARENT]
    one, other = SpecSet(NODE_FORMS[form](forwards)), SpecSet(NODE_FORMS[form](backwards))
    assert one == other == build(SpecSet).replace(specs=forwards)
    assert hash(one) == hash(other) == hash((frozenset(forwards),))
    assert one.specs == other.specs == frozenset(forwards) and len(one) == 2
    if form != "frozenset":  # iteration follows construction order
        assert list(one) == forwards and list(other) == backwards
    for value in (one, other):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(value, protocol)) == value
        assert copy.copy(value) == copy.deepcopy(value) == value.replace(specs=value.specs) == value


def test_spec_set_collapses_an_equal_node_and_refuses_two_of_one_ctype():
    first, twin = ComponentSpec(ACI), ComponentSpec(ACI.replace())
    assert first == twin and first is not twin
    collapsed = SpecSet([first, PARENT, twin])
    assert list(collapsed) == [first, PARENT] and list(collapsed)[0] is first
    assert collapsed == SpecSet([PARENT, first]) and hash(collapsed) == hash(SpecSet([PARENT, first]))
    with pytest.raises(ValueError, match="more than one spec node of ctype T"):
        SpecSet([first, PARENT, first.replace(total=Interval(0, 1))])


SLOTS = [ChildSlot(AbstractComponentId("U"), Interval(0, INF)), ChildSlot(ACI, Interval(1, 1))]


@pytest.mark.parametrize("form", sorted(NODE_FORMS))
def test_component_spec_from_any_iterable_of_slots(form):
    deps, total = frozenset({AbstractComponentId("D")}), Interval(1, INF)
    one, other = (ComponentSpec(PARENT.aci, deps, NODE_FORMS[form](slots), total)
                  for slots in (SLOTS, SLOTS[::-1]))
    assert one == other == build(ComponentSpec).replace(
        aci=PARENT.aci, dependencies=deps, children=SLOTS, total=total)
    assert hash(one) == hash(other) == hash((PARENT.aci, deps, frozenset(SLOTS), total))
    assert one.children == other.children == frozenset(SLOTS)
    assert f"children={one.children!r}, total=" in repr(one) and repr(one) == repr(other)
    for value in (one, other):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(value, protocol)) == value
        assert copy.copy(value) == copy.deepcopy(value) == value.replace(children=value.children) == value
        assert value.replace(children=SLOTS[:1]).children == frozenset(SLOTS[:1])


DEPS = [AbstractComponentId("U", NameSet.of("u")), AbstractComponentId("D")]


@pytest.mark.parametrize("form", sorted(NODE_FORMS))
def test_component_spec_from_any_iterable_of_dependency_entries(form):
    slots, total = frozenset(SLOTS), Interval(1, INF)
    one, other = (ComponentSpec(PARENT.aci, NODE_FORMS[form](deps), slots, total)
                  for deps in (DEPS, DEPS[::-1]))
    assert one == other == build(ComponentSpec).replace(
        aci=PARENT.aci, dependencies=DEPS, children=slots, total=total)
    assert hash(one) == hash(other) == hash((PARENT.aci, frozenset(DEPS), slots, total))
    assert one.dependencies == other.dependencies == frozenset(DEPS)
    assert list(one._deps) == list(other._deps) == ["D", "U"]  # in ctype order
    assert f"dependencies={one.dependencies!r}, children=" in repr(one) and repr(one) == repr(other)
    for value in (one, other):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(value, protocol)) == value
        assert copy.copy(value) == copy.deepcopy(value) == value.replace(
            dependencies=value.dependencies) == value
        assert value.replace(dependencies=DEPS[:1]).dependencies == frozenset(DEPS[:1])


def test_component_spec_collapses_an_equal_dependency_entry_and_refuses_two_of_one_ctype():
    first, twin = AbstractComponentId("D"), AbstractComponentId("D").replace()
    assert first == twin and first is not twin
    collapsed = ComponentSpec(PARENT.aci, [first, twin])
    assert collapsed == ComponentSpec(PARENT.aci, [first]) and len(collapsed.dependencies) == 1
    [kept] = collapsed.dependencies
    assert kept is first
    with pytest.raises(ValueError, match="R: more than one dependency entry of ctype D"):
        ComponentSpec(PARENT.aci, [first, first.replace(names=NameSet.of("d"))])


def test_component_spec_collapses_an_equal_slot_and_refuses_two_of_one_ctype():
    first, twin = ChildSlot(ACI, Interval(1, 1)), ChildSlot(ACI.replace(), Interval(1, 1))
    assert first == twin and first is not twin
    collapsed = ComponentSpec(PARENT.aci, children=[first, twin], total=Interval(1, 1))
    assert collapsed == PARENT and hash(collapsed) == hash(PARENT)
    [kept] = collapsed.children
    assert kept is first
    with pytest.raises(ValueError, match="R: more than one child slot of ctype T"):
        ComponentSpec(PARENT.aci, children=[first, first.replace(count=Interval(0, 1))])


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
