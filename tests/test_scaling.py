"""Scaling guard for the checking core and the parsers, without a wall clock.

Each core function is called on a root -> bins -> leaves configuration in
which every leaf depends on one shared `Lib`, at n = 50 and at 4n = 200
components; `parse_config` reads that configuration's text.  A second
shape, a root with k leaf children of k distinct ctypes, is checked at
k = 200 and 4k = 800 against its inferred spec, whose text `parse_spec`
reads.  The guard counts the Python and C function calls the call makes
(`sys.setprofile` "call" and "c_call" events): linear work gives a ratio
near 4 between the two sizes, quadratic work one near 16.  The ratio must
stay below 6.

A comprehension or generator that scans a list is one call however many
items it visits, so scans nested in a per-ctype loop can hide from the call
count.  The line-event guards count the lines the interpreter executes
(`sys.settrace` "line" events), each iteration included: `direct_check` on
the k-ctype shape, and `validate_spec` on k leaf nodes that each depend on
one `Lib`.

The hash guard counts `ComponentId.__hash__` calls per component at 4n:
each id is hashed a few times while a text is read and validated, and about
once by `compliant` on a validated configuration, which reads the id index
and root validation kept.  It fails if a pass that rebuilds an index or a
set of ids per call comes back (the code before had 8.8 and 4.0 here), or
if the reader resolves each dependency list again (3.0 per component when
equal lists share one set, 3.8 when each is resolved on its own).

The reader guard counts the calls `parse_config` makes per component at 4n.
The reader matches every `component` production with one `findall` and
builds the ids and components column by column: about 7 calls per
component.  Building each id and component with its own call made 18.7, a
reader that calls `match` once per production about 27, and one that also
built every id and component through the checking constructors 35.  The `ctype_order`
guard counts the ids it passes to `sorted`: each composite is sorted once
among its parent's children, and leaves only under the first bin, before
their ctype has been seen (sorting every child set gives 199).

A spec node holds its child slots once, by ctype, so `compliant` hashes
no `ChildSlot`: the slot guard makes hashing one raise while `compliant`
checks a seeded configuration of the benchmark's `scale` shape (hashing
each slot down to its version set cost about a tenth of `compliant`).

Two guards count calls into one function at 4n.  `infer` lifts each ctype's
identifier family once, and a child slot that holds every component of its
ctype shares that family: `lift_identifiers` runs once per ctype plus once
per dependency group, 5 times at n and at 4n (lifting every child slot and
each member's dependencies on their own made it 8).  `compliant` orders
its failures depth-first with `ctype_order`, and walks the tree for it only
when two or more ctypes fail (it used to walk it on every call).  A third
counts calls to `validate_configuration` while five engines check one fresh
configuration: the first validates it, and the others see the root that
validation kept (each engine validated it again before, 7 calls in all).
"""

from __future__ import annotations

import random
import sys

import pytest

from confkit import (
    AbstractComponentId,
    ChildSlot,
    Component,
    ComponentId,
    ComponentSpec,
    Configuration,
    Interval,
    NotAConfiguration,
    SpecSet,
    compliant,
    config_leq,
    direct_check,
    infer,
    parse_config,
    parse_spec,
    print_config,
    print_spec,
    root_of,
    validate_configuration,
    validate_spec,
)
from confkit import inference, model, textfmt, typecheck

from conftest import FIXTURES

LEAVES_PER_BIN = 5
SMALL_BINS, LARGE_BINS = 8, 33  # 2 + 6 * 8 = 50 and 2 + 6 * 33 = 200 components
MAX_RATIO = 6

SPEC_TEXT = """
spec tree {
  node Root { total: 1..*; contains { Bin: 0..*, Lib: 1..1 } }
  node Bin { total: 0..*; contains { Leaf: 0..* } }
  node Leaf { total: 0..0; depends { Lib } }
  node Lib { total: 0..0; }
  root Root;
}
"""
SPEC = parse_spec(SPEC_TEXT)


def tree(bins: int, version: int = 1) -> Configuration:
    """A fresh, not yet validated configuration of 2 + 6 * bins components."""
    lib = ComponentId("Lib", "lib.so", "o", 1)
    comps = [Component.leaf(lib, ["lib.so"])]
    bin_ids = []
    for b in range(bins):
        leaves = [ComponentId("Leaf", f"leaf{b}.{k}", "o", version) for k in range(LEAVES_PER_BIN)]
        comps += [Component.leaf(leaf, ["main"], [lib]) for leaf in leaves]
        bin_ids.append(ComponentId("Bin", f"bin{b}", "o", version))
        comps.append(Component.composite(bin_ids[-1], leaves))
    comps.append(Component.composite(ComponentId("Root", "root", "o", version), bin_ids + [lib]))
    return Configuration(tuple(comps))


def call_events(fn, *args, **kwargs) -> int:
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(previous)
    return count


def line_events(fn, *args, **kwargs) -> int:
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        fn(*args, **kwargs)
    finally:
        sys.settrace(previous)
    return count


CALLS = {
    "validate_configuration": lambda bins: (validate_configuration, tree(bins)),
    "infer": lambda bins: (infer, tree(bins)),
    "config_leq": lambda bins: (config_leq, tree(bins), tree(bins, version=2)),
    "compliant": lambda bins: (compliant, tree(bins), SPEC),
    "parse_config": lambda bins: (parse_config, print_config(tree(bins))),
}

SMALL_K, LARGE_K = 200, 800


def many_ctypes(k: int) -> Configuration:
    """A fresh root with k leaf children of k distinct ctypes."""
    leaves = [ComponentId(f"T{j}", f"leaf{j}", "o", 1) for j in range(k)]
    root = Component.composite(ComponentId("Root", "root", "o", 1), leaves)
    return Configuration(tuple([Component.leaf(leaf) for leaf in leaves] + [root]))


CTYPE_CALLS = {
    "compliant": lambda k: (compliant, many_ctypes(k), infer(many_ctypes(k))),
    "direct_check": lambda k: (direct_check, many_ctypes(k), infer(many_ctypes(k))),
    "parse_spec": lambda k: (parse_spec, print_spec(infer(many_ctypes(k)))),
}


def test_inputs_are_n_and_4n_compliant_components():
    assert 4 * len(tree(SMALL_BINS)) == len(tree(LARGE_BINS)) == 200
    assert compliant(tree(SMALL_BINS), SPEC).compliant


@pytest.mark.parametrize("name", sorted(CALLS))
def test_calls_grow_linearly(name):
    small, large = CALLS[name](SMALL_BINS), CALLS[name](LARGE_BINS)
    if name == "parse_config":
        parse_config(small[1])  # the reader's patterns compile once, outside the count
    ratio = call_events(*large) / call_events(*small)
    assert ratio < MAX_RATIO, f"{name}: {ratio:.1f}x the calls for 4x the components"


def test_many_ctypes_inputs_comply():
    assert compliant(many_ctypes(SMALL_K), infer(many_ctypes(SMALL_K))).compliant
    assert len(infer(many_ctypes(LARGE_K))) == LARGE_K + 1


@pytest.mark.parametrize("name", sorted(CTYPE_CALLS))
def test_calls_grow_linearly_in_distinct_ctypes(name):
    small, large = CTYPE_CALLS[name](SMALL_K), CTYPE_CALLS[name](LARGE_K)
    ratio = call_events(*large) / call_events(*small)
    assert ratio < MAX_RATIO, f"{name}: {ratio:.1f}x the calls for 4x the ctypes"


def dependent_leaves(k: int) -> list[ComponentSpec]:
    """Spec nodes, not yet validated: a root with k leaf children of k
    distinct ctypes, each leaf depending on one shared `Lib`."""
    lib = AbstractComponentId("Lib")
    leaves = [ComponentSpec(AbstractComponentId(f"T{j}"), dependencies=[lib]) for j in range(k)]
    slots = [ChildSlot(node.aci, Interval(1, 1)) for node in leaves] + [ChildSlot(lib, Interval(1, 1))]
    root = ComponentSpec(AbstractComponentId("Root"), children=slots, total=Interval(k + 1, k + 1))
    return leaves + [root, ComponentSpec(lib)]


LINE_CALLS = {
    "direct_check": lambda k: (direct_check, many_ctypes(k), infer(many_ctypes(k))),
    "validate_spec": lambda k: (validate_spec, dependent_leaves(k)),
}


def test_dependent_leaves_form_a_valid_spec():
    assert validate_spec(dependent_leaves(SMALL_K)).violations == ()


@pytest.mark.parametrize("name", sorted(LINE_CALLS))
def test_lines_grow_linearly_in_distinct_ctypes(name):
    small, large = LINE_CALLS[name](SMALL_K), LINE_CALLS[name](LARGE_K)
    ratio = line_events(*large) / line_events(*small)
    assert ratio < MAX_RATIO, f"{name}: {ratio:.1f}x the lines for 4x the ctypes"


def count_id_hashes(fn, *args) -> int:
    count = 0
    hash_id = ComponentId.__hash__

    def counted(self):
        nonlocal count
        count += 1
        return hash_id(self)

    ComponentId.__hash__ = counted
    try:
        fn(*args)
    finally:
        ComponentId.__hash__ = hash_id
    return count


def test_ids_are_hashed_a_bounded_number_of_times_per_component():
    text = print_config(tree(LARGE_BINS))
    assert count_id_hashes(parse_config, text) / 200 <= 3.5
    parsed = parse_config(text)
    assert count_id_hashes(compliant, parsed, SPEC) / 200 <= 1.5


def test_the_reader_makes_a_bounded_number_of_calls_per_component():
    text = print_config(tree(LARGE_BINS))
    parse_config(text)  # the reader's patterns compile once, outside the count
    assert call_events(parse_config, text) / 200 <= 9


def test_the_reader_builds_through_the_private_constructors(monkeypatch):
    # The grammar proved what the checking constructors would check again.
    # Both readers build through the column assembly: the lexeme parser
    # reads the commented text, which the production reader declines.
    text, built = print_config(tree(SMALL_BINS)), []
    commented = text.replace("{\n", "{ # the bins\n", 1)
    assert textfmt._read_productions(commented) is None
    for cls in (ComponentId, Component):
        monkeypatch.setattr(cls, "__init__", lambda self, *args, _init=cls.__init__, **kwargs:
                            built.append(self) or _init(self, *args, **kwargs))
    for source in (text, commented):
        assert len(parse_config(source)) == 50 and built == []


def test_ctype_order_sorts_only_children_that_can_add_a_ctype(monkeypatch):
    config = parse_config(print_config(tree(LARGE_BINS)))
    sorted_ids = []

    def counted(ids, **kwargs):
        sorted_ids.extend(ids)
        return sorted(ids, **kwargs)

    monkeypatch.setattr(typecheck, "sorted", counted, raising=False)
    assert typecheck.ctype_order(config) == ["Root", "Bin", "Leaf", "Lib"]
    composites = sum(1 for c in config if c.children)
    assert len(sorted_ids) <= composites + LEAVES_PER_BIN


def calls_into(module, name: str, fn, *args) -> int:
    """How many times `fn(*args)` calls `module.name`."""
    count = 0
    original = getattr(module, name)

    def counted(*a, **kw):
        nonlocal count
        count += 1
        return original(*a, **kw)

    setattr(module, name, counted)
    try:
        fn(*args)
    finally:
        setattr(module, name, original)
    return count


def scale_shaped(seed: int, bins: int, leaf_ctypes: int = 8, p: float = 0.3) -> tuple[Configuration, SpecSet]:
    """A fresh root -> bins -> leaves configuration drawn as the benchmark's
    `scale` workload draws one: 7-11 leaves a bin, of `leaf_ctypes` ctypes,
    each depending on a shared `Lib` with probability p; and its spec."""
    r = random.Random(seed)
    lib = ComponentId("Lib", "lib", "o", r.randint(1, 3))
    comps, bin_ids = [Component.leaf(lib)], []
    for b in range(bins):
        leaves = [ComponentId(f"L{r.randrange(leaf_ctypes)}", f"l{b}_{j}", "o", r.randint(1, 3))
                  for j in range(r.randint(7, 11))]
        comps += [Component.leaf(leaf, dependencies=[lib] if r.random() < p else []) for leaf in leaves]
        bin_ids.append(ComponentId("Bin", f"bin{b}", "o", r.randint(1, 3)))
        comps.append(Component.composite(bin_ids[-1], leaves))
    comps.append(Component.composite(ComponentId("Root", "root", "o", 1), bin_ids + [lib]))
    kinds = [f"L{t}" for t in range(leaf_ctypes)]
    spec = parse_spec("spec scale {\n"
                      "  node Root { total: 1..*; contains { Bin: 1..*, Lib: 1..1 } }\n"
                      f"  node Bin {{ total: 0..*; contains {{ {', '.join(f'{k}: 0..*' for k in kinds)} }} }}\n"
                      + "".join(f"  node {k} {{ total: 0..0; depends {{ Lib }} }}\n" for k in kinds)
                      + "  node Lib { total: 0..0; }\n  root Root;\n}\n")
    return Configuration(tuple(comps)), spec


def test_a_validated_configuration_is_not_validated_again():
    # Only a validation that passes keeps a root, and an engine given a
    # configuration that keeps one works on it without validating it again
    spec = parse_spec((FIXTURES / "psycho.csg").read_text())
    components = parse_config((FIXTURES / "psy1.cg").read_text()).components
    engines = (lambda c: compliant(c, spec), lambda c: direct_check(c, spec), infer,
               typecheck.ctype_order, root_of)
    config = Configuration(components)
    assert calls_into(model, "validate_configuration",
                      lambda: [engine(config) for engine in engines]) == 1
    # one that fails keeps its report and no root, and every engine raises with that report
    broken = Configuration(components[1:])
    reports = []
    for engine in engines:
        with pytest.raises(NotAConfiguration) as failure:
            engine(broken)
        reports.append(failure.value.report)
    assert broken._root is None and not broken._report.ok
    assert all(report is broken._report for report in reports)


@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
def test_compliant_hashes_no_child_slot(monkeypatch, strict):
    # A spec node keeps its dependency entries and child slots once, by
    # ctype: building the inferred nodes and refining them reads those stores
    # and hashes no slot and no family, such as the one the leaves share for Lib.
    config, spec = scale_shaped(seed=7, bins=50)
    expected = direct_check(config, spec, strict_lower_bounds=strict)
    assert expected.compliant and len(config) > 400

    def refuse(value):
        raise AssertionError(f"hashed {value!r}")

    monkeypatch.setattr(ChildSlot, "__hash__", refuse)
    monkeypatch.setattr(AbstractComponentId, "__hash__", refuse)
    assert compliant(config, spec, strict_lower_bounds=strict) == expected
    assert direct_check(config, spec, strict_lower_bounds=strict) == expected


def test_infer_lifts_each_family_once():
    # Root, Bin, Leaf and Lib, plus the leaves' dependencies on Lib; every
    # child slot holds all components of its ctype and shares their family
    assert [calls_into(inference, "lift_identifiers", infer, tree(bins))
            for bins in (SMALL_BINS, LARGE_BINS)] == [5, 5]


# spec edits -> the failures they cause on the 4n tree, in depth-first order
FAULTS = {
    (): [],
    (("Leaf: 0..*", "Leaf: 0..4"),): [("Bin", "child-interval")],
    (("Leaf: 0..*", "Leaf: 0..4"), ("depends { Lib }", "")):
        [("Bin", "child-interval"), ("Leaf", "dependencies")],
    (("depends { Lib }", ""), ("total: 1..*; contains { Bin: 0..*", "total: 1..5; contains { Bin: 0..4"),
     ("Leaf: 0..*", "Leaf: 0..4")):
        [("Root", "child-interval"), ("Bin", "child-interval"), ("Leaf", "dependencies")],
}


@pytest.mark.parametrize("edits", list(FAULTS), ids=lambda edits: f"{len(FAULTS[edits])}-failing")
def test_compliant_walks_the_tree_only_to_order_two_or_more_failures(edits):
    text = SPEC_TEXT
    for old, new in edits:
        text = text.replace(old, new)
    spec, config = parse_spec(text), tree(LARGE_BINS)
    verdict = compliant(config, spec)
    assert [(f.subject, f.clause) for f in verdict.failures] == FAULTS[edits]
    assert verdict == direct_check(config, spec)
    walks = calls_into(typecheck, "ctype_order", compliant, tree(LARGE_BINS), spec)
    assert walks == (1 if len(FAULTS[edits]) > 1 else 0)
