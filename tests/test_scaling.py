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
set of ids per call comes back (the code before had 8.8 and 4.0 here).

The reader guard counts the calls `parse_config` makes per component at 4n.
The reader matches every `component` production with one `findall`: about
20 calls per component.  A reader that calls `match` once per production
makes about 27, and the one before this guard, which also built every id
and component through the checking constructors, made 35.  The `ctype_order`
guard counts the ids it passes to `sorted`: each composite is sorted once
among its parent's children, and leaves only under the first bin, before
their ctype has been seen (sorting every child set gives 199).
"""

from __future__ import annotations

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
    compliant,
    config_leq,
    direct_check,
    infer,
    parse_config,
    parse_spec,
    print_config,
    print_spec,
    validate_configuration,
    validate_spec,
)
from confkit import typecheck

LEAVES_PER_BIN = 5
SMALL_BINS, LARGE_BINS = 8, 33  # 2 + 6 * 8 = 50 and 2 + 6 * 33 = 200 components
MAX_RATIO = 6

SPEC = parse_spec("""
spec tree {
  node Root { total: 1..*; contains { Bin: 0..*, Lib: 1..1 } }
  node Bin { total: 0..*; contains { Leaf: 0..* } }
  node Leaf { total: 0..0; depends { Lib } }
  node Lib { total: 0..0; }
  root Root;
}
""")


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
    assert count_id_hashes(parse_config, text) / 200 <= 5
    parsed = parse_config(text)
    assert count_id_hashes(compliant, parsed, SPEC) / 200 <= 1.5


def test_the_reader_makes_a_bounded_number_of_calls_per_component():
    text = print_config(tree(LARGE_BINS))
    parse_config(text)  # the reader's patterns compile once, outside the count
    assert call_events(parse_config, text) / 200 <= 24


def test_the_reader_builds_through_the_private_constructors(monkeypatch):
    # The grammar proved what the checking constructors would check again.
    text, built = print_config(tree(SMALL_BINS)), []
    for cls in (ComponentId, Component):
        monkeypatch.setattr(cls, "__init__", lambda self, *args, _init=cls.__init__, **kwargs:
                            built.append(self) or _init(self, *args, **kwargs))
    assert len(parse_config(text)) == 50 and built == []


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
