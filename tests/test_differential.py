"""The linear checking core against the algorithms it replaced.

`infer` builds one node per ctype in a grouped pass, `merge_identifiers`
and n-ary `merge` union every part once, and `_stand_in_reasons` looks
counterparts up in an index.  Each is compared here, on seeded random
inputs, with the quadratic algorithm it replaced, kept in this file as the
reference; the reference merge is a fold of binary unions written against
the public fields, so it shares no code with the unions it checks.  So is
`validate_configuration`, which walks a well-formed tree by counting and
keeps its id index and root on the value for `root_of`, `by_id` and
`ctype_order`, against the reachable-set walk and the fresh computations;
and `ctype_order`, which neither sorts nor pushes a child with no children
of a ctype already seen, against the DFS that sorts every child set.
Last, every component either configuration reader builds column by column
is rebuilt through the checking constructors and must be the same value,
as must every family `lift_identifiers` builds by setting its slots; every
node `infer` builds that way must keep its child slots in ctype order.
Both compliance engines, each of which checks a ctype in one function that
returns its first failing clause, are checked against `direct_check` as it
was before, a loop that carried a flag out of each clause.
The lifecycle kernel, whose branches return each change's inverse and raise
the removal guards, is checked against the derivation that ran after it.
`spec_root`, which reads the root node `validate_spec` kept, is checked
against the referenced-set rule it computed before, on valid and invalid specs.
"""

from __future__ import annotations

import copy
import itertools
import pickle
import random
from collections import Counter
from functools import reduce

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from confkit import (
    INF,
    AbstractComponentId,
    ChildSlot,
    ComplianceFailure,
    ComplianceVerdict,
    Component,
    ComponentId,
    ComponentSpec,
    Configuration,
    DependencyGuard,
    ExtendChange,
    Interval,
    InvalidSpec,
    JournalEntry,
    NameSet,
    NotAConfiguration,
    OriginSet,
    RemoveChange,
    RootRemoval,
    SpecSet,
    TypeMismatch,
    UnknownComponent,
    UpdateChange,
    VersionSet,
    WouldViolateSpec,
    ci_compat_leq,
    compliant,
    config_leq,
    direct_check,
    extend,
    infer,
    infer_component,
    lift_identifiers,
    merge_identifiers,
    print_config,
    remove,
    root_of,
    spec_root,
    sum_intervals,
    undo,
    unify,
    unify_dependencies,
    update,
    validate_configuration,
    validate_spec,
)
from confkit import textfmt
from confkit.lifecycle import _apply_raw
from confkit.model import _EMPTY, ValidationReport, Violation
from confkit.textfmt import ParseError
from confkit.typecheck import CompatReason, _stand_in_reasons, ctype_order

from conftest import build_cs_psycho, widened_spec_for
from strategies import configurations, layered_configurations, spec_sets

CTYPES = ("T", "U", "V")
NAMES = ("a", "b", "c")  # shared by every ctype
ORIGINS = ("o1", "o2")


# --------------------------------------------------------------------------
# References: the algorithms before the linear rewrite


def reference_infer_component(component: Component, faithful_leaf_rule: bool) -> SpecSet:
    aci = component.id.to_abstract()
    dep_groups: dict[str, list] = {}
    for dep in component.dependencies:
        dep_groups.setdefault(dep.ctype, []).append(dep)
    deps = frozenset(reference_merge(ci.to_abstract() for ci in members)
                     for members in dep_groups.values())
    if component.is_leaf:
        total = Interval(1, 1) if faithful_leaf_rule else Interval(0, 0)
        return SpecSet(frozenset({ComponentSpec(aci=aci, dependencies=deps, total=total)}))
    groups: dict[str, list] = {}
    for child in component.child_ids:
        groups.setdefault(child.ctype, []).append(child)
    slots = frozenset(
        ChildSlot(reference_merge(ci.to_abstract() for ci in members),
                  Interval(len(members), len(members)))
        for members in groups.values())
    k = len(component.child_ids)
    return SpecSet(frozenset({ComponentSpec(
        aci=aci, dependencies=deps, children=slots, total=Interval(k, k))}))


def reference_infer(config: Configuration, faithful_leaf_rule: bool) -> SpecSet:
    return reduce(unify, (reference_infer_component(c, faithful_leaf_rule) for c in config))


def reference_union(x: AbstractComponentId, y: AbstractComponentId) -> AbstractComponentId:
    """The binary merge of two families, on their public fields: names and
    origins union exactly unless either is "any"; versions union exactly
    between finite sets, an empty finite set is the identity, and anything
    else gives the smallest span enclosing both."""
    if x.ctype != y.ctype:
        raise TypeMismatch(f"cannot merge {x.ctype} with {y.ctype}")
    if x.names.is_any or y.names.is_any:
        names = NameSet.everything()
    else:
        names = NameSet(x.names.literals | y.names.literals, x.names.prefixes | y.names.prefixes)
    if x.origins.is_any or y.origins.is_any:
        origins = OriginSet.everything()
    else:
        origins = OriginSet(x.origins.values | y.origins.values)
    a, b = x.versions, y.versions
    if a.values is not None and b.values is not None:
        versions = VersionSet(values=a.values | b.values)
    elif a.values == frozenset():
        versions = b
    elif b.values == frozenset():
        versions = a
    else:
        ends = [(v.span.lo, v.span.hi) if v.span is not None else (min(v.values), max(v.values))
                for v in (a, b)]
        versions = VersionSet.between(min(lo for lo, _ in ends), max(hi for _, hi in ends))
    return AbstractComponentId(x.ctype, names, origins, versions)


def reference_merge(acis) -> AbstractComponentId:
    return reduce(reference_union, acis)


def reference_stand_in_reasons(a: Configuration, b: Configuration, relaxed: bool) -> list:
    reasons = []
    for ca in sorted(a, key=lambda c: c.sort_key):
        def stands_in(ci: ComponentId) -> bool:
            return any(ci_compat_leq(ci, cb.id, composite_a=not ca.is_leaf, relaxed=relaxed)
                       for cb in b)
        if stands_in(ca.id):
            continue
        # version 0 is older than every counterpart: is there one at all?
        older = stands_in(ca.id.replace(version=0))
        reasons.append(CompatReason(str(ca.id), "version-regression" if older else "no-counterpart"))
    return reasons


def reference_validate(components: list[Component]) -> ValidationReport:
    """The configuration conditions with a reachable set for the last one."""
    violations: list[Violation] = []
    ids = [c.id for c in components]
    declared = set(ids)
    if len(declared) < len(ids):
        times: dict[ComponentId, int] = {}
        for i in ids:
            times[i] = times.get(i, 0) + 1
        for i, n in times.items():
            if n > 1:
                violations.append(Violation(
                    "duplicate-id", (str(i),), f"component id {i} declared {n} times"))
    for c in components:
        for child in sorted(c.child_ids - declared, key=lambda i: i.sort_key):
            violations.append(Violation(
                "children-closure", (str(c.id), str(child)),
                f"{c.id} contains {child}, which is not in the configuration"))
        for dep in sorted(c.dependencies - declared, key=lambda i: i.sort_key):
            violations.append(Violation(
                "dependency-closure", (str(c.id), str(dep)),
                f"{c.id} depends on {dep}, which is not in the configuration"))
    referenced = {child for c in components for child in c.child_ids}
    root_ids = sorted(declared - referenced, key=lambda i: i.sort_key)
    if not components:
        violations.append(Violation("unique-root", (), "configuration is empty"))
    elif not root_ids:
        violations.append(Violation(
            "unique-root", (), "no root: every component is contained in another"))
    elif len(root_ids) > 1:
        violations.append(Violation(
            "unique-root", tuple(str(i) for i in root_ids),
            "more than one root: " + ", ".join(str(i) for i in root_ids)))
    parents: dict[ComponentId, set[ComponentId]] = {}
    for c in components:
        for child in c.child_ids:
            parents.setdefault(child, set()).add(c.id)
    for child in sorted((k for k, of in parents.items() if len(of) > 1), key=lambda i: i.sort_key):
        violations.append(Violation(
            "multiple-parents", (str(child),) + tuple(
                str(p) for p in sorted(parents[child], key=lambda i: i.sort_key)),
            f"{child} is contained in more than one component"))
    if len(root_ids) == 1 and not any(v.condition == "duplicate-id" for v in violations):
        by_id = {c.id: c for c in components}
        reachable: set[ComponentId] = set()
        stack = [root_ids[0]]
        while stack:
            current = stack.pop()
            if current in reachable or current not in by_id:
                continue
            reachable.add(current)
            stack.extend(by_id[current].child_ids)
        for c in components:
            if c.id not in reachable:
                violations.append(Violation(
                    "unreachable", (str(c.id),), f"{c.id} is not reachable from the root"))
    return ValidationReport(tuple(violations))


def reference_ctype_order(components: list[Component]) -> list[str]:
    by_id = {c.id: c for c in components}
    referenced = {child for c in components for child in c.child_ids}
    order: list[str] = []
    stack = [next(c for c in components if c.id not in referenced).id]
    while stack:
        current = by_id[stack.pop()]
        if current.id.ctype not in order:
            order.append(current.id.ctype)
        stack.extend(sorted(current.child_ids, key=lambda i: i.sort_key, reverse=True))
    return order


# --------------------------------------------------------------------------
# Seeded generators


def random_id(rng: random.Random) -> ComponentId:
    return ComponentId(rng.choice(CTYPES), rng.choice(NAMES), rng.choice(ORIGINS), rng.randrange(4))


def random_config(rng: random.Random, max_size: int = 12) -> Configuration:
    """A valid configuration: distinct ids in a tree rooted at the first,
    leaves and (possibly empty) composites of any ctype, dependencies on any
    member that is not a child, in shuffled order."""
    ids: list[ComponentId] = []
    seen: set[ComponentId] = set()
    for _ in range(rng.randint(1, max_size)):
        ci = random_id(rng)
        if ci not in seen:
            seen.add(ci)
            ids.append(ci)
    kids: dict[int, list[ComponentId]] = {i: [] for i in range(len(ids))}
    for i in range(1, len(ids)):
        kids[rng.randrange(i)].append(ids[i])
    comps = []
    for i, ci in enumerate(ids):
        candidates = [d for d in ids if d not in kids[i]]
        deps = rng.sample(candidates, min(len(candidates), rng.randint(0, 3)))
        if kids[i] or rng.random() < 0.3:
            comps.append(Component.composite(ci, kids[i], deps))
        else:
            comps.append(Component.leaf(ci, ["f"], deps))
    rng.shuffle(comps)
    config = Configuration(tuple(comps))
    assert validate_configuration(config).ok
    return config


def random_successor(rng: random.Random, a: Configuration) -> Configuration:
    """a with versions moved up and down, composites renamed, leaves
    dropped, and extra same-name components at other versions; each id is
    renamed consistently wherever it is referenced."""
    rename: dict[ComponentId, ComponentId] = {}
    taken: set[ComponentId] = set()
    for c in a.sorted_components():
        ci = c.id
        name = f"{ci.name}-renamed" if not c.is_leaf and rng.random() < 0.4 else ci.name
        version = max(0, ci.version + rng.choice((-1, 0, 0, 1)))
        new = ComponentId(ci.ctype, name, ci.origin, version)
        while new in taken:
            new = new.replace(version=new.version + 4)
        taken.add(new)
        rename[ci] = new
    dropped = {c.id for c in a if c.is_leaf and rng.random() < 0.2}

    def kept(ids):
        return [rename[i] for i in ids if i not in dropped]

    comps = []
    for c in a:
        if c.id in dropped:
            continue
        deps = kept(c.dependencies)
        if c.is_leaf:
            comps.append(Component.leaf(rename[c.id], c.elements, deps))
        else:
            comps.append(Component.composite(rename[c.id], kept(c.child_ids), deps))
    for c in rng.sample(list(a), min(len(a), 2)):
        extra = ComponentId(c.id.ctype, c.id.name, c.id.origin, rng.randrange(6))
        if extra not in taken:
            taken.add(extra)
            comps.append(Component.leaf(extra, ["extra"]))
    rng.shuffle(comps)
    return Configuration(tuple(comps))


def random_components(rng: random.Random) -> list[Component]:
    """A random configuration's components, broken a third of the time in
    one or two ways: a detached child-cycle, a child shared by two
    composites, a duplicated id, a dangling child or dependency, a dropped
    component; or no components at all."""
    if rng.random() < 0.03:
        return []
    comps = list(random_config(rng))
    fresh = (ComponentId("W", f"w{k}", "o1", 0) for k in range(100))
    for _ in range(rng.choice((0, 0, 1, 2))):
        if not comps:
            break
        fault = rng.randrange(6)
        if fault == 0:  # a detached cycle x -> y -> x, sometimes x -> x
            x, y = next(fresh), next(fresh)
            comps += ([Component.composite(x, [x])] if rng.random() < 0.3 else
                      [Component.composite(x, [y]), Component.composite(y, [x])])
        elif fault == 1 and len(comps) > 1:  # a second parent for a child
            c, child = rng.sample(comps, 2)
            comps[comps.index(c)] = Component.composite(
                c.id, c.child_ids | {child.id}, c.dependencies - {child.id})
        elif fault == 2:  # a duplicate id, same or other payload
            c = rng.choice(comps)
            comps.append(c if rng.random() < 0.5 else Component.leaf(c.id, ["dup"]))
        elif fault in (3, 4):  # a dangling child or dependency
            i = rng.randrange(len(comps))
            c = comps[i]
            if fault == 3:
                comps[i] = Component.composite(c.id, c.child_ids | {next(fresh)}, c.dependencies)
            elif c.is_leaf:
                comps[i] = Component.leaf(c.id, c.elements, c.dependencies | {next(fresh)})
            else:
                comps[i] = Component.composite(c.id, c.child_ids, c.dependencies | {next(fresh)})
        else:  # a dropped component: dangling references or a second root
            comps.pop(rng.randrange(len(comps)))
    rng.shuffle(comps)
    return comps


def random_aci(rng: random.Random, ctype: str = "T") -> AbstractComponentId:
    atoms = ("a", "ab", "abc", "b", "ba", "c")
    if rng.random() < 0.15:
        names = NameSet.everything()
    else:
        names = NameSet(frozenset(rng.sample(atoms, rng.randint(0, 3))),
                        frozenset(rng.sample(atoms, rng.randint(0, 2))))
    if rng.random() < 0.15:
        origins = OriginSet.everything()
    else:
        origins = OriginSet(frozenset(rng.sample(ORIGINS + ("o3",), rng.randint(0, 2))))
    kind = rng.randrange(4)
    if kind == 0:
        versions = VersionSet.everything()
    elif kind == 1:
        lo = rng.randrange(5)
        versions = VersionSet.between(lo, rng.choice((lo, lo + 2, INF)))
    else:  # finite, empty a quarter of the time
        versions = VersionSet(values=frozenset(rng.sample(range(7), rng.randint(0, 3))))
    return AbstractComponentId(ctype, names, origins, versions)


def same_representation(x: AbstractComponentId, y: AbstractComponentId) -> bool:
    # VersionSet equality is denotational; a span and a finite set must not swap
    return x == y and (x.versions.values, x.versions.span) == (y.versions.values, y.versions.span)


# --------------------------------------------------------------------------
# Differential tests


def slot_kinds(config: Configuration, inferred: SpecSet) -> dict[tuple[str, str], str]:
    """Per child slot of the inferred spec, keyed by (node ctype, slot
    ctype): "shared" if it holds every component of its ctype, which makes
    it reuse that ctype's family (the very object), "gathered" if it lifts
    its own ids.  Which one a slot should be is read off the configuration."""
    parent_types: dict[str, set] = {}  # ctype -> ctypes of its components' parents
    parent = {child: c.id.ctype for c in config for child in c.child_ids}
    for c in config:
        parent_types.setdefault(c.id.ctype, set()).add(parent.get(c.id))
    kinds = {}
    for node in inferred:
        for slot in node.children:
            shared = slot.aci is inferred.spec_for(slot.aci.ctype).aci
            assert shared == (parent_types[slot.aci.ctype] == {node.ctype}), (node, slot)
            kinds[node.ctype, slot.aci.ctype] = "shared" if shared else "gathered"
    return kinds


def assert_slots_in_ctype_order(specs: SpecSet) -> None:
    """`infer` sets each node's slots itself: they must be stored in ctype
    order, which equality and hashing cannot see, and a pickle, a copy and a
    `replace` of the node, which go through the constructor, must agree."""
    for node in specs:
        order = list(node._slots)
        assert order == sorted(node._slots), node
        for twin in (pickle.loads(pickle.dumps(node)), copy.copy(node), node.replace(total=node.total)):
            assert twin == node and list(twin._slots) == order


@pytest.mark.parametrize("faithful_leaf_rule", [False, True])
def test_grouped_infer_equals_the_unify_fold(faithful_leaf_rule):
    rng = random.Random(20101)
    shapes, slots = set(), {"shared": 0, "gathered": 0}
    for _ in range(400):
        config = random_config(rng)
        inferred = infer(config, faithful_leaf_rule=faithful_leaf_rule)
        reference = reference_infer(config, faithful_leaf_rule)
        assert inferred == reference and hash(inferred) == hash(reference)
        assert_slots_in_ctype_order(inferred)
        for kind in slot_kinds(config, inferred).values():
            slots[kind] += 1
        for c in config:
            one, reference = (infer_component(c, faithful_leaf_rule=faithful_leaf_rule),
                              reference_infer_component(c, faithful_leaf_rule))
            assert one == reference and hash(one) == hash(reference)
            assert_slots_in_ctype_order(one)
        kinds: dict[str, set] = {}
        for c in config:
            kinds.setdefault(c.id.ctype, set()).add(
                "leaf" if c.is_leaf else "composite" if c.child_ids else "empty")
        shapes.update(frozenset(k) for k in kinds.values())
    # the inputs mix leaves, composites and empty composites within one ctype,
    # and slots that share their ctype's family with slots that gather their ids
    assert frozenset({"leaf", "composite", "empty"}) in shapes
    assert min(slots.values()) >= 50, slots


def test_grouped_infer_on_slots_that_cannot_share_a_family():
    def ids(ctype, *names):
        return [ComponentId(ctype, name, "o", 1) for name in names]

    (r,), (a, a2), (b,), (x1, x2, x3) = ids("R", "r"), ids("A", "a", "a2"), ids("B", "b"), ids(
        "X", "x1", "x2", "x3")
    # X sits under two parent ctypes, so neither slot holds all of X; A's
    # slot for B holds every B, split over two members of A
    two_parents = Configuration((
        Component.composite(r, [a, a2, x3]), Component.composite(a, [x1, b]),
        Component.composite(a2, [x2]), Component.composite(b, []),
        Component.leaf(x1), Component.leaf(x2), Component.leaf(x3, dependencies=[b])))
    # the root's ctype recurs below the root, twice, once under its own ctype
    (r2, r3) = ids("R", "r2", "r3")
    recurring = Configuration((
        Component.composite(r, [b]), Component.composite(b, [r2]),
        Component.composite(r2, [r3]), Component.leaf(r3, dependencies=[b])))
    expected = {two_parents: {("R", "A"): "shared", ("R", "X"): "gathered",
                              ("A", "X"): "gathered", ("A", "B"): "shared"},
                recurring: {("R", "B"): "shared", ("B", "R"): "gathered", ("R", "R"): "gathered"}}
    for config, kinds in expected.items():
        for faithful_leaf_rule in (False, True):
            inferred = infer(config, faithful_leaf_rule=faithful_leaf_rule)
            assert inferred == reference_infer(config, faithful_leaf_rule)
            assert slot_kinds(config, inferred) == kinds
    # A lone composite's children lie outside its one-member family map: a
    # single child of its own ctype keeps its own family.
    for composite in (Component.composite(r, [r2]), Component.composite(r, [r2, r3, a]),
                      Component.composite(a, [x1, x2], dependencies=[b, r])):
        for faithful_leaf_rule in (False, True):
            assert infer_component(composite, faithful_leaf_rule=faithful_leaf_rule) == (
                reference_infer_component(composite, faithful_leaf_rule))
    [node] = infer_component(Component.composite(r, [r2]))
    assert node.slot_for("R").aci == r2.to_abstract() != node.aci


def test_lone_member_dependencies_merge_into_one_entry_per_ctype():
    # A node keys its dependency entries by ctype: a lone member's
    # dependencies on one ctype merge into one entry, as two members' do.
    lib_a, lib_b = ComponentId("Lib", "a", "o", 1), ComponentId("Lib", "b", "o", 2)
    app1, app2 = ComponentId("App", "x", "o", 1), ComponentId("App", "y", "o", 1)
    root = ComponentId("R", "r", "o", 1)
    libs = (Component.leaf(lib_a), Component.leaf(lib_b))
    one = Configuration((Component.composite(root, [app1, lib_a, lib_b]),
                         Component.leaf(app1, dependencies=[lib_a, lib_b])) + libs)
    two = Configuration((Component.composite(root, [app1, app2, lib_a, lib_b]),
                         Component.leaf(app1, dependencies=[lib_a]),
                         Component.leaf(app2, dependencies=[lib_b])) + libs)
    assert infer(one).spec_for("App").dependencies == frozenset(
        {lift_identifiers([lib_a, lib_b])})
    assert infer(two).spec_for("App").dependencies == frozenset(
        {lift_identifiers([lib_a, lib_b])})
    for config in (one, two):
        assert infer(config) == reference_infer(config, False)


def test_one_pass_merge_equals_the_pairwise_fold():
    rng = random.Random(20102)
    for _ in range(3000):
        acis = [random_aci(rng) for _ in range(rng.randint(1, 6))]
        expected = reference_merge(acis)
        assert same_representation(merge_identifiers(acis), expected)
        assert same_representation(merge_identifiers(iter(acis)), expected)
        assert same_representation(acis[0].merge(*acis[1:]), expected)


VERSION_PARTS = (VersionSet.of(), VersionSet.of(2), VersionSet.of(0, 6),
                 VersionSet.between(3, 4), VersionSet.between(5, INF), VersionSet.everything())


def test_many_part_merges_mix_every_kind_of_part():
    # every sequence of three empty, finite and span version sets, with
    # "any" names or origins in one part, or a fourth all-"any" part
    rng = random.Random(20106)
    everything = AbstractComponentId("T", versions=VersionSet.of())
    for versions in itertools.product(VERSION_PARTS, repeat=3):
        for variant in range(4):
            acis = [random_aci(rng).replace(versions=v) for v in versions]
            if variant == 1:
                acis[1] = acis[1].replace(names=NameSet.everything())
            elif variant == 2:
                acis[2] = acis[2].replace(origins=OriginSet.everything())
            elif variant == 3:
                acis.insert(rng.randrange(4), everything)
            expected = reference_merge(acis)
            assert same_representation(merge_identifiers(acis), expected)
            assert same_representation(acis[0].merge(*acis[1:]), expected)
            assert expected.names.is_any or variant not in (1, 3)
            assert expected.origins.is_any or variant not in (2, 3)


def test_many_part_merge_golden():
    parts = [AbstractComponentId("T", NameSet.of("a"), OriginSet.of("o1"), VersionSet.of()),
             AbstractComponentId("T", NameSet(prefixes={"b"}), OriginSet.of("o2"),
                                 VersionSet.of(6)),
             AbstractComponentId("T", NameSet.of("bc", "c"), OriginSet.of(), VersionSet.of(1))]
    assert same_representation(merge_identifiers(parts), AbstractComponentId(
        "T", NameSet({"a", "c"}, {"b"}), OriginSet.of("o1", "o2"), VersionSet.of(1, 6)))
    spanned = parts + [parts[0].replace(names=NameSet.everything(),
                                        versions=VersionSet.between(3, 4))]
    assert same_representation(merge_identifiers(spanned), AbstractComponentId(
        "T", NameSet.everything(), OriginSet.of("o1", "o2"), VersionSet.between(1, 6)))


def test_unify_dependencies_merges_each_ctype_once():
    rng = random.Random(20107)
    for _ in range(500):
        a = [random_aci(rng, rng.choice(CTYPES)) for _ in range(rng.randint(0, 4))]
        b = [random_aci(rng, rng.choice(CTYPES)) for _ in range(rng.randint(0, 4))]
        groups: dict[str, list] = {}
        for aci in a + b:
            groups.setdefault(aci.ctype, []).append(aci)
        expected = {ctype: reference_merge(group) for ctype, group in groups.items()}
        got = unify_dependencies(a, b)
        assert len(got) == len(expected)
        for aci in got:
            assert same_representation(aci, expected[aci.ctype])


def test_one_pass_merge_rejects_mixed_ctypes_like_the_fold():
    rng = random.Random(20103)
    acis = [random_aci(rng), random_aci(rng), random_aci(rng, "U"), random_aci(rng, "V")]
    with pytest.raises(TypeMismatch) as one_pass:
        merge_identifiers(acis)
    with pytest.raises(TypeMismatch) as fold:
        reference_merge(acis)
    assert str(one_pass.value) == str(fold.value) == "cannot merge T with U"
    with pytest.raises(ValueError):
        merge_identifiers([])


def test_lift_equals_merging_singleton_families():
    rng = random.Random(20104)
    for _ in range(500):
        ctype = rng.choice(CTYPES)
        ids = [random_id(rng).replace(ctype=ctype) for _ in range(rng.randint(1, 8))]
        assert same_representation(
            lift_identifiers(ids), reference_merge(ci.to_abstract() for ci in ids))
    with pytest.raises(TypeMismatch):
        lift_identifiers([ComponentId("T", "a", "o", 1), ComponentId("U", "a", "o", 1)])
    with pytest.raises(ValueError):
        lift_identifiers([])


same_ctype_ids = st.sampled_from(CTYPES).flatmap(lambda ctype: st.lists(st.builds(
    ComponentId, st.just(ctype), st.sampled_from(("a", "ab", "abc", "b", "ba")),
    st.sampled_from(ORIGINS), st.integers(min_value=0, max_value=6)), min_size=1, max_size=8))


@seed(20117)
@settings(max_examples=300, deadline=None, database=None)
@given(same_ctype_ids)
def test_lifted_family_is_the_one_the_checking_constructors_build(ids):
    # lift_identifiers sets the slots itself; names where one is a prefix of
    # another must stay literals, as NameSet keeps them
    built = AbstractComponentId(ids[0].ctype, NameSet(frozenset(ci.name for ci in ids)),
                                OriginSet(frozenset(ci.origin for ci in ids)),
                                VersionSet(values=frozenset(ci.version for ci in ids)))
    lifted = lift_identifiers(ids)
    assert lifted == built and hash(lifted) == hash(built) and repr(lifted) == repr(built)
    assert same_representation(lifted, built)


@pytest.mark.parametrize("relaxed", [True, False])
def test_indexed_stand_in_equals_the_pairwise_scan(relaxed):
    rng = random.Random(20105)
    causes = set()
    for _ in range(400):
        a = random_config(rng)
        for b in (random_successor(rng, a), random_config(rng), a):
            expected = reference_stand_in_reasons(a, b, relaxed)
            assert _stand_in_reasons(a, b, relaxed) == expected
            assert config_leq(a, b, relaxed=relaxed) == (not expected)
            causes.update(r.cause for r in expected)
    assert causes == {"no-counterpart", "version-regression"}


def test_counting_walk_and_kept_index_equal_fresh_computations():
    rng = random.Random(20109)
    seen = set()
    for _ in range(3000):
        comps = random_components(rng)
        expected = reference_validate(comps)
        config = Configuration(tuple(comps))
        assert validate_configuration(config) == expected == validate_configuration(comps)
        seen.update(v.condition for v in expected.violations)
        if not expected.ok:
            assert config._by_id is None and config._root is None
            continue
        seen.add("ok")
        referenced = {child for c in comps for child in c.child_ids}
        assert root_of(config) == next(c for c in comps if c.id not in referenced) == root_of(comps)
        assert print_config(config) == print_config(comps)
        index = config.by_id()
        assert index == {c.id: c for c in comps} and list(index) == [c.id for c in comps]
        assert ctype_order(config) == reference_ctype_order(comps)
    assert seen == {"ok", "duplicate-id", "children-closure", "dependency-closure",
                    "unique-root", "multiple-parents", "unreachable"}


def random_tree(rng: random.Random) -> Configuration:
    """A valid tree of 1 to 40 components of at most three ctypes, often
    deep: each component hangs under a recent composite, so one ctype
    recurs at several depths and many leaves meet a ctype already seen; a
    composite may have no children."""
    size = 1 if rng.random() < 0.1 else rng.randint(2, 40)
    ids = [ComponentId(rng.choice(CTYPES), f"c{k}", rng.choice(ORIGINS), rng.randrange(3))
           for k in range(size)]
    kids: dict[int, list[ComponentId]] = {k: [] for k in range(size)}
    for k in range(1, size):
        kids[rng.randrange(max(0, k - 4), k)].append(ids[k])
    comps = [Component.composite(ci, kids[k]) if kids[k] or rng.random() < 0.3 else Component.leaf(ci)
             for k, ci in enumerate(ids)]
    rng.shuffle(comps)
    return Configuration(tuple(comps))


def dfs_rows(components: list[Component]) -> list[tuple[str, int, bool, bool]]:
    """(ctype, depth, has no children, ctype already met) per component, in
    the order the sorted DFS pops them."""
    by_id = {c.id: c for c in components}
    referenced = {child for c in components for child in c.child_ids}
    stack = [(next(c for c in components if c.id not in referenced).id, 0)]
    seen, rows = set(), []
    while stack:
        ci, depth = stack.pop()
        kids = sorted(by_id[ci].child_ids, key=lambda i: i.sort_key, reverse=True)
        rows.append((ci.ctype, depth, not kids, ci.ctype in seen))
        seen.add(ci.ctype)
        stack.extend((kid, depth + 1) for kid in kids)
    return rows


def test_ctype_order_that_skips_seen_childless_children_equals_the_sorted_dfs():
    rng = random.Random(20111)
    depths, shapes = set(), dict.fromkeys(("single", "empty-composite", "ctype-at-several-depths"), 0)
    for _ in range(1500):
        config = random_tree(rng)
        comps = list(config.components)
        assert validate_configuration(config).ok
        assert ctype_order(config) == reference_ctype_order(comps)
        rows = dfs_rows(comps)
        depths |= {depth for _, depth, childless, met in rows if childless and met}
        shapes["single"] += len(comps) == 1
        shapes["empty-composite"] += any(c.children == frozenset() for c in comps)
        shapes["ctype-at-several-depths"] += any(
            len({depth for t, depth, *_ in rows if t == ctype}) > 1 for ctype in CTYPES)
    assert set(range(1, 9)) <= depths  # a seen ctype's leaf at every depth up to 8
    assert min(shapes.values()) > 50, shapes


def test_the_kept_index_cannot_be_corrupted_or_carried_over():
    rng = random.Random(20110)
    for _ in range(50):
        config = random_config(rng)
        first = next(iter(config)).id
        mine = config.by_id()
        mine.clear()
        mine[ComponentId("X", "x", "o1", 0)] = None
        assert config.by_id() == {c.id: c for c in config} and first in config
        for other in (copy.copy(config), copy.deepcopy(config), pickle.loads(pickle.dumps(config)),
                      config.replace()):
            assert other == config and other._report is None and other._by_id is None
        smaller = config.replace(components=config.components[1:])
        assert smaller._by_id is None and first not in smaller
        assert not smaller.components or validate_configuration(smaller) == reference_validate(
            list(smaller.components))


# --------------------------------------------------------------------------
# Column-built values against the public constructors


def assembled(text: str, lexeme_only: bool) -> list[Component]:
    """The components a configuration reader builds from `text`, whether or
    not they form a valid configuration; none for a text it refuses."""
    built: list[Component] = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(textfmt, "Configuration",
                      lambda components: built.extend(components) or Configuration(components))
        if lexeme_only:
            patch.setattr(textfmt, "_read_productions", lambda text: None)
        try:
            textfmt.check_config_text(text)
        except ParseError:
            pass
    return built


def public_id(i: ComponentId) -> ComponentId:
    return ComponentId(i.ctype, i.name, i.origin, i.version)


def public_component(c: Component) -> Component:
    return Component(public_id(c.id), map(public_id, c.dependencies),
                     None if c.elements is None else list(c.elements),
                     None if c.children is None else map(public_id, c.children))


def assert_same_value(built, public) -> None:
    assert built.__class__ is public.__class__
    assert built == public and hash(built) == hash(public)
    for mine, theirs in zip(built._astuple(built), public._astuple(public), strict=True):
        assert type(mine) is type(theirs) and (mine is _EMPTY) == (theirs is _EMPTY)


def assert_built_as_public(c: Component) -> None:
    assert_same_value(c, public_component(c))
    for i in (c.id, *c.dependencies, *c.child_ids):
        assert_same_value(i, public_id(i))
        assert tuple(map(type, i._astuple(i))) == (str, str, str, int)


def reader_texts() -> list[str]:
    from test_lexer_differential import CORPUS, LAYOUTS, _scale_config
    rnd = random.Random(0xC011)
    return [text for _, text in CORPUS] + LAYOUTS + [_scale_config(rnd) for _ in range(40)]


@pytest.mark.parametrize("lexeme_only", [False, True], ids=["productions", "lexemes"])
def test_column_built_components_equal_the_public_constructors(lexeme_only):
    components = 0
    for text in reader_texts():
        for c in assembled(text, lexeme_only):
            assert_built_as_public(c)
            components += 1
    assert components > 5_000


def test_copies_of_column_built_values_are_the_public_values():
    from test_lexer_differential import _scale_config
    rnd = random.Random(0xC0B1)
    for _ in range(20):
        for c in textfmt.parse_config(_scale_config(rnd)):
            for value, public in ((c, public_component(c)), (c.id, public_id(c.id))):
                for other in (copy.copy(value), copy.deepcopy(value),
                              pickle.loads(pickle.dumps(value)), value.replace()):
                    assert_same_value(other, public)
                    assert_same_value(value, other)


def test_equal_dependency_lists_share_one_set():
    from test_lexer_differential import _scale_config
    text = _scale_config(random.Random(3))
    for lexeme_only in (False, True):
        dependent = [c for c in assembled(text, lexeme_only) if c.dependencies]
        assert len(dependent) > 1 and len({id(c.dependencies) for c in dependent}) == 1


def test_columns_set_each_public_field_from_its_column():
    assert Interval._columns((1, 2), (3, INF)) == [Interval(1, 3), Interval(2, INF)]
    assert ComponentId._columns((), (), (), ()) == []


# --------------------------------------------------------------------------
# Failure order: `compliant` sorts two or more failures depth-first, as the
# oracle reports them

Parts = dict  # handle -> [ctype, name, child handles or None for a leaf, dependency handles]


def scale_parts(rng: random.Random, ntypes: int) -> Parts:
    """Root -> bins -> leaves of `ntypes` leaf ctypes and, in some bins, a
    Sub holding leaves of ctype M; the root also holds Lib, which leaves
    and Ms depend on at random."""
    parts: Parts = {"root": ["Root", "root", ["lib"], []], "lib": ["Lib", "lib", None, []]}
    for b in range(rng.randint(2, 10)):
        bin_ = f"bin{b}"
        parts[bin_] = ["Bin", bin_, [], []]
        parts["root"][2].append(bin_)
        for j in range(rng.randint(1, 9)):
            deps = ["lib"] if rng.random() < 0.5 else []
            parts[f"l{b}_{j}"] = [f"L{rng.randrange(ntypes)}", f"l{b}_{j}", None, deps]
            parts[bin_][2].append(f"l{b}_{j}")
        if rng.random() < 0.5:
            parts[f"sub{b}"] = ["Sub", f"sub{b}", [], []]
            parts[bin_][2].append(f"sub{b}")
            for j in range(rng.randint(0, 3)):
                deps = ["lib"] if rng.random() < 0.5 else []
                parts[f"m{b}_{j}"] = ["M", f"m{b}_{j}", None, deps]
                parts[f"sub{b}"][2].append(f"m{b}_{j}")
    return parts


def scale_spec_text(parts: Parts, ntypes: int) -> str:
    caps = [max(sum(1 for k in kids if parts[k][0] == f"L{t}")
                for kids in (p[2] for p in parts.values() if p[0] == "Bin"))
            for t in range(ntypes)]
    slots = ", ".join([f"L{t}: 0..{cap}" for t, cap in enumerate(caps)] + ["Sub: 0..1"])
    leaf_nodes = "\n".join(f'  node L{t} {{ name: "l"*; total: 0..0; depends {{ Lib }} }}'
                           for t in range(ntypes))
    return f"""spec scale {{
  node Root {{ name: "root"; total: 2..*; contains {{ Bin: 1..*, Lib: 1..1 }} }}
  node Bin {{ name: "bin"*; origin: "o"; total: 0..*; contains {{ {slots} }} }}
{leaf_nodes}
  node Sub {{ name: "sub"*; total: 0..*; contains {{ M: 0..* }} }}
  node M {{ name: "m"*; total: 0..0; depends {{ Lib }} }}
  node Lib {{ name: "lib"; total: 0..0; }}
  root Root;
}}
"""


def of_ctype(parts: Parts, where: str) -> list[str]:
    """The handles of ctype `where`, or of any leaf ctype L0, L1, ... for L."""
    return [h for h, p in parts.items() if p[0] == where or (where == "L" and p[0][1:].isdigit())]


def inject(rng: random.Random, parts: Parts, where: str) -> None:
    """One fault whose first failure is at ctype `where` (L for a leaf ctype);
    some also break a clause of the parent, or add a ctype."""
    pick = rng.choice(of_ctype(parts, where))
    fault = rng.randrange(2)
    if where in ("Root", "Lib", "Sub") or (where == "Bin" and fault == 0):
        parts[pick][1] = "x" + parts[pick][1]  # identifier, and the parent's child-identifier
    elif where == "Bin":  # child-interval, or a child of a ctype with no slot (and no node)
        extra = f"extra_{pick}"
        parts[extra] = ["LX", extra, None, []] if rng.random() < 0.5 else ["Sub", "sub" + extra, [], []]
        parts[pick][2].append(extra)
    elif fault == 0:
        parts[pick][1] = "x" + parts[pick][1]
    else:  # a dependency on a bin: no dependency entry matches it
        parts[pick][3] = parts[pick][3] + [rng.choice(of_ctype(parts, "Bin"))]


def assembled_config(rng: random.Random, parts: Parts) -> Configuration:
    ids = {h: ComponentId(p[0], p[1], "o", rng.randint(1, 3)) for h, p in parts.items()}
    comps = [Component.leaf(ids[h], ["f"], [ids[d] for d in deps]) if kids is None else
             Component.composite(ids[h], [ids[k] for k in kids], [ids[d] for d in deps])
             for h, (_, _, kids, deps) in parts.items()]
    rng.shuffle(comps)
    return Configuration(tuple(comps))


def test_compliant_orders_failures_as_the_oracle_does():
    from confkit import compliant, direct_check, parse_config, parse_spec
    rng = random.Random(20114)
    several, subjects, counts = 0, set(), set()
    for case in range(260):
        ntypes = rng.randint(1, 4)
        parts = scale_parts(rng, ntypes)
        spec = parse_spec(scale_spec_text(parts, ntypes))
        places = ["Root", "Bin", "Lib", "L"] + (["Sub", "M"] if of_ctype(parts, "M") else [])
        for where in rng.sample(places, rng.randint(2, min(4, len(places)))):
            inject(rng, parts, where)
        config = assembled_config(rng, parts)
        if case % 2:
            config = parse_config(print_config(config))
        flags = {"faithful_leaf_rule": rng.random() < 0.1, "strict_lower_bounds": rng.random() < 0.5}
        got, want = compliant(config, spec, **flags), direct_check(config, spec, **flags)
        assert got.failures == want.failures and got.compliant == want.compliant
        if len(got.failures) > 1:
            several += 1
            counts.add(min(len(got.failures), 5))
            subjects.update(f.subject for f in got.failures)
    assert several >= 200
    assert counts == {2, 3, 4, 5}
    # failures at every depth, from the root to the Ms under a Sub
    assert {"Root", "Bin", "Lib", "L0", "Sub", "M", "LX"} <= subjects


# --------------------------------------------------------------------------
# Compliance clauses: each engine checks one ctype in one function that
# returns its first failing clause.  The reference is `direct_check` as it
# was before, a loop that carried a flag out of each clause; it is compared
# with both engines, not only with one engine against the other, so a slip
# the two shared would still show.


def _checked_spec(spec: SpecSet) -> None:
    report = validate_spec(spec)
    if not report.ok:
        raise InvalidSpec(report)


def reference_direct_check(
    config: Configuration,
    spec: SpecSet,
    *,
    faithful_leaf_rule: bool = False,
    strict_lower_bounds: bool = False,
) -> ComplianceVerdict:
    """Compliance recomputed structurally from the components themselves.

    Same verdict as `compliant`, derived without building any inferred spec
    set: per ctype, fold the identifiers, group the dependencies, count the
    children.  Kept deliberately independent of the inference code path.
    """
    _checked_spec(spec)
    order = ctype_order(config)  # raises NotAConfiguration, through root_of

    grouped: dict[str, list] = {}
    for component in config:
        grouped.setdefault(component.id.ctype, []).append(component)

    failures: list[ComplianceFailure] = []
    for ctype in order:
        members = grouped[ctype]
        node = spec.spec_for(ctype)
        if node is None:
            failures.append(ComplianceFailure(
                ctype, "missing-spec-node", f"no spec node of ctype {ctype}"))
            continue

        if not all(c.id in node.aci for c in members):
            failures.append(ComplianceFailure(
                ctype, "identifier", f"{ctype} identifiers do not all match the spec node"))
            continue

        dep_groups: dict[str, list[ComponentId]] = {}
        for c in members:
            for dep in c.dependencies:
                dep_groups.setdefault(dep.ctype, []).append(dep)
        failed = False
        for dep_type in sorted(dep_groups):
            fold = merge_identifiers(d.to_abstract() for d in dep_groups[dep_type])
            if not any(fold <= entry for entry in node.dependencies):
                failures.append(ComplianceFailure(
                    ctype, "dependencies",
                    f"{ctype} dependencies on {dep_type} match no dependency entry"))
                failed = True
                break
        if failed:
            continue

        # Per child ctype: every member contributes its count (leaves count 0),
        # so one member without such children widens the group's lower bound to 0.
        counts: dict[str, list[int]] = {}
        ids_of: dict[str, list[ComponentId]] = {}
        for c in members:
            own: dict[str, list[ComponentId]] = {}
            for child in c.child_ids:
                own.setdefault(child.ctype, []).append(child)
            for child_type, ids in own.items():
                counts.setdefault(child_type, []).append(len(ids))
                ids_of.setdefault(child_type, []).extend(ids)
        for child_type in sorted(counts):
            slot = node.slot_for(child_type)
            if slot is None:
                failures.append(ComplianceFailure(
                    ctype, "unexpected-child-type",
                    f"{ctype} contains {child_type}, which has no child slot"))
                failed = True
                break
            if not all(i in slot.aci for i in ids_of[child_type]):
                failures.append(ComplianceFailure(
                    ctype, "child-identifier",
                    f"{ctype} children of ctype {child_type} do not all match the slot"))
                failed = True
                break
            n = counts[child_type]
            group = Interval(min(n) if len(n) == len(members) else 0, max(n))
            if not group.included_in(slot.count):
                failures.append(ComplianceFailure(
                    ctype, "child-interval",
                    f"{ctype} contains {group} of ctype {child_type}, allowed {slot.count}"))
                failed = True
                break
        if failed:
            continue

        per_leaf = 1 if faithful_leaf_rule else 0
        total = sum(per_leaf if c.is_leaf else len(c.child_ids) for c in members)
        if total not in node.total:
            failures.append(ComplianceFailure(
                ctype, "total",
                f"{ctype} contains {Interval(total, total)} children, allowed {node.total}"))
            continue

        if strict_lower_bounds:
            for slot in sorted(node.children, key=lambda s: s.aci.ctype):
                if slot.count.lo >= 1 and slot.aci.ctype not in counts:
                    failures.append(ComplianceFailure(
                        ctype, "missing-required-child",
                        f"{ctype} never contains {slot.aci.ctype}, "
                        f"required at least {slot.count.lo}"))
                    break

    return ComplianceVerdict.from_failures(failures)


def layered_random_config(rng: random.Random) -> Configuration:
    """`random_config` with each ctype replaced by the ctypes on its path
    from the root, "T", "TU", "TUV" and so on: the ctypes form a tree,
    which a spec can describe.  A dependency on a ctype that the depender's
    ctype contains, which no spec allows beside the containment, is dropped."""
    config = random_config(rng)
    by_id, root = config.by_id(), root_of(config)
    path, stack = {root.id: root.id.ctype}, [root]
    while stack:
        current = stack.pop()
        for i in current.child_ids:
            path[i] = path[current.id] + i.ctype
            stack.append(by_id[i])

    def moved(i: ComponentId) -> ComponentId:
        return i.replace(ctype=path[i])

    comps = []
    for c in config:
        deps = [moved(d) for d in c.dependencies if path[d][:-1] != path[c.id]]
        if c.is_leaf:
            comps.append(Component.leaf(moved(c.id), c.elements, deps))
        else:
            comps.append(Component.composite(moved(c.id), map(moved, c.child_ids), deps))
    return Configuration(tuple(comps))


def loosened_spec_for(config: Configuration, rng: random.Random, **flags) -> SpecSet:
    """The inferred spec with every identity widened to its ctype (a slot
    must name its node's family, so slots widen too) and, by a coin toss per
    node, its dependency entries; child counts are kept and each total
    covers the slots' sum.  It is valid more often than the inferred spec,
    and the clauses after the identifier are reached."""
    nodes = []
    for cs in infer(config, **flags):
        deps = cs.dependencies if rng.random() < 0.5 else {AbstractComponentId(d.ctype) for d in cs.dependencies}
        both = (cs.total, sum_intervals(slot.count for slot in cs.children))
        nodes.append(ComponentSpec(
            AbstractComponentId(cs.ctype), deps,
            {ChildSlot(AbstractComponentId(slot.aci.ctype), slot.count) for slot in cs.children},
            Interval(min(i.lo for i in both), max(i.hi for i in both))))
    return SpecSet(frozenset(nodes))


def engine_outcome(engine, config: Configuration, spec: SpecSet, flags: dict):
    try:
        return engine(config, spec, **flags)
    except InvalidSpec as exc:
        return InvalidSpec, str(exc)


def trimmed(config: Configuration, rng: random.Random) -> Configuration:
    """The configuration with about a third of its non-root leaves gone."""
    gone = {c.id for c in config if c.is_leaf and c.id != root_of(config).id and rng.random() < 0.3}
    return Configuration(tuple(
        Component.leaf(c.id, c.elements, c.dependencies - gone) if c.is_leaf
        else Component.composite(c.id, c.child_ids - gone, c.dependencies - gone)
        for c in config if c.id not in gone))


@pytest.mark.parametrize("faithful_leaf_rule", [False, True])
@pytest.mark.parametrize("strict_lower_bounds", [False, True])
def test_both_engines_return_the_reference_direct_check_verdict(faithful_leaf_rule, strict_lower_bounds):
    # each configuration meets the widened, tight and loosened specs of
    # itself, of itself with leaves gone (and the reverse) and of the
    # configuration before it, which break every clause between them
    flags = {"faithful_leaf_rule": faithful_leaf_rule, "strict_lower_bounds": strict_lower_bounds}
    rng = random.Random(20116)
    configs = [layered_random_config(rng) for _ in range(200)]
    seen: Counter = Counter()
    for before, config in zip(configs[-1:] + configs, configs):
        fewer = trimmed(config, rng)
        for checked, of in ((config, config), (config, fewer), (fewer, config), (config, before)):
            loosened = loosened_spec_for(of, rng, faithful_leaf_rule=faithful_leaf_rule)
            for spec in (widened_spec_for(of), tight_spec_for(of), loosened):
                want = engine_outcome(reference_direct_check, checked, spec, flags)
                assert engine_outcome(direct_check, checked, spec, flags) == want
                assert engine_outcome(compliant, checked, spec, flags) == want
                if isinstance(want, ComplianceVerdict):
                    seen.update(f.clause for f in want.failures)
                    seen["compliant" if want.compliant else f"{min(len(want.failures), 3)} failures"] += 1
    clauses = {"missing-spec-node", "identifier", "dependencies", "unexpected-child-type",
               "child-identifier", "child-interval", "total"}
    assert clauses | ({"missing-required-child"} if strict_lower_bounds else set()) <= set(seen)
    assert min(seen["compliant"], seen["1 failures"], seen["2 failures"], seen["3 failures"]) >= 50


# --------------------------------------------------------------------------
# Lifecycle kernel: each change kind's branch of `_apply_raw` returns the
# result and its inverse, and a removal's guards come from its one rewrite
# loop.  The reference derives them after the structural step, as `extend`,
# `update` and `remove` once did, walking the configuration again.


def reference_gate(result: Configuration, spec: SpecSet, **flags) -> None:
    try:
        verdict = compliant(result, spec, **flags)
    except NotAConfiguration as exc:
        raise WouldViolateSpec(f"change breaks the configuration: {exc.report.errors[0].message}") from exc
    if not verdict.compliant:
        raise WouldViolateSpec(f"result would not comply: {verdict.failures[0].detail}", verdict)


def reference_extend(config: Configuration, change: ExtendChange, spec: SpecSet, **flags):
    result = _apply_raw(config, change)[0]
    reference_gate(result, spec, **flags)
    inverse = RemoveChange(tuple(new_root for new_root, _ in change.attachments))
    return result, JournalEntry(change=change, inverse=inverse)


def reference_update(config: Configuration, change: UpdateChange, spec: SpecSet, **flags):
    result = _apply_raw(config, change)[0]
    reference_gate(result, spec, **flags)
    by_id = config.by_id()
    inverse = UpdateChange(tuple((new.id, by_id[old]) for old, new in change.replacements))
    return result, JournalEntry(change=change, inverse=inverse)


def reference_remove(config: Configuration, ids, spec: SpecSet, **flags):
    change = RemoveChange(tuple(ids))
    by_id = config.by_id()
    for i in change.ids:
        if i not in by_id:
            raise UnknownComponent(f"{i} is not in the configuration")
    closure: set[ComponentId] = set()
    stack = list(change.ids)
    while stack:
        current = stack.pop()
        if current not in closure and current in by_id:
            closure.add(current)
            stack.extend(by_id[current].child_ids)
    result = Configuration(
        Component.composite(c.id, c.child_ids - closure, c.dependencies) if c.child_ids & closure else c
        for c in config if c.id not in closure)

    parent_of = {child: c.id for c in config for child in c.child_ids}
    for i in change.ids:
        if i not in parent_of:
            raise RootRemoval(f"{i} is the configuration root")
    kept = {c.id for c in result}
    removed = [c for c in config if c.id not in kept]
    removed_ids = {c.id for c in removed}
    dependents = tuple(sorted((c.id for c in result if any(d in removed_ids for d in c.dependencies)),
                              key=lambda i: i.sort_key))
    if dependents:
        raise DependencyGuard(f"still depended on by {', '.join(str(i) for i in dependents)}", dependents)
    reference_gate(result, spec, **flags)
    inverse = ExtendChange(
        components=tuple(removed),
        attachments=tuple((i, parent_of[i]) for i in change.ids if parent_of[i] not in removed_ids))
    return result, JournalEntry(change=change, inverse=inverse)


def outcome(operation, config: Configuration, change, spec: SpecSet, flags: dict):
    """The components and entry an operation returns, or the class, text,
    dependents and verdict of what it raises."""
    try:
        result, entry = operation(config, change, spec, **flags)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "dependents", None), getattr(exc, "verdict", None)
    return result.components, entry


def victim_sets(cfg: Configuration, data) -> list[list[ComponentId]]:
    """Every single id (the root and each depended-on id among them), every
    parent with one of its children, every depended-on id with the ids that
    depend on it, an unknown id beside a known one, and three drawn triples."""
    ids = [c.id for c in cfg.sorted_components()]
    ghost = ComponentId("L0", "ghost", "acme", 9)
    sets = [[i] for i in ids] + [[ids[0], ghost]]
    sets += [[c.id, kid] for c in cfg.sorted_components() for kid in sorted(c.child_ids, key=lambda i: i.sort_key)]
    for i in ids:
        users = [c.id for c in cfg.sorted_components() if i in c.dependencies and c.id != i]
        if users:
            sets.append([i, *users[:2]])
    if len(ids) >= 3:
        sets += [data.draw(st.lists(st.sampled_from(ids), min_size=3, max_size=3, unique=True)) for _ in range(3)]
    return sets


def extend_changes(cfg: Configuration) -> list[ExtendChange]:
    """A fresh leaf under each component (a leaf parent is refused), a fresh
    composite holding a fresh leaf under the root, and a fresh copy of an
    id the configuration already has."""
    root, changes = root_of(cfg), []
    for parent in cfg.sorted_components():
        depth = int(parent.id.ctype[1:]) + 1
        fresh = Component.leaf(ComponentId(f"L{depth}", "fresh", "acme", 99))
        changes.append(ExtendChange.of([fresh], {fresh.id: parent.id}))
    leaf = Component.leaf(ComponentId("L2", "fresh-leaf", "zenith", 98))
    holder = Component.composite(ComponentId("L1", "fresh-bin", "zenith", 98), [leaf.id])
    changes.append(ExtendChange.of([holder, leaf], {holder.id: root.id}))
    copy_of_root = Component.leaf(root.id)
    changes.append(ExtendChange.of([copy_of_root], {copy_of_root.id: root.id}))
    return changes


def update_changes(cfg: Configuration) -> list[UpdateChange]:
    """A version bump of each component, one of all of them at once, a
    ctype change, and a rename onto an id that is kept."""
    comps = cfg.sorted_components()
    bump = {c.id: c.replace(id=c.id.replace(version=c.id.version + 10)) for c in comps}
    changes = [UpdateChange.of({old: new}) for old, new in bump.items()]
    changes.append(UpdateChange.of(bump))
    changes.append(UpdateChange.of({comps[0].id: comps[0].replace(id=comps[0].id.replace(ctype="L9"))}))
    if len(comps) > 1:
        changes.append(UpdateChange.of({comps[0].id: comps[0].replace(id=comps[1].id)}))
    return changes


def tight_spec_for(config: Configuration) -> SpecSet:
    """The inferred spec with every total widened to 0..*: it admits no new
    identity and, with strict lower bounds, no fewer children of a ctype.
    Where the inferred node repeats a dependency ctype it is no valid spec,
    and both sides raise `InvalidSpec`."""
    return SpecSet(frozenset(cs.replace(total=Interval(0, INF)) for cs in infer(config)))


@seed(20115)
@settings(max_examples=150, deadline=None, database=None)
@given(layered_configurations(), st.data())
def test_each_kernel_branch_returns_the_inverse_the_reference_derives_after_it(cfg, data):
    # the widened spec admits most results, and the tight one refuses most,
    # so the gate is reached after every structural guard passes
    specs = ((widened_spec_for(cfg), {}), (tight_spec_for(cfg), {"strict_lower_bounds": True}))
    cases = ([(remove, reference_remove, victims) for victims in victim_sets(cfg, data)]
             + [(extend, reference_extend, change) for change in extend_changes(cfg)]
             + [(update, reference_update, change) for change in update_changes(cfg)])
    for operation, reference, change in cases:
        for spec, flags in specs:
            got = outcome(operation, cfg, change, spec, flags)
            assert got == outcome(reference, cfg, change, spec, flags)
            if isinstance(got[1], JournalEntry):
                assert undo(Configuration(got[0]), got[1]) == cfg


# --------------------------------------------------------------------------
# The root node a spec keeps against the rule `spec_root` applied before


def reference_spec_root(spec: SpecSet) -> ComponentSpec | None:
    """The spec node referenced by no child slot, if exactly one exists."""
    referenced = {slot.aci.ctype for cs in spec for slot in cs.children}
    candidates = [cs for cs in spec.sorted_specs() if cs.ctype not in referenced]
    if len(candidates) == 1:
        return candidates[0]
    return None


SPEC_SOURCES = {
    "spec_sets": spec_sets(),
    # most inferred specs are invalid; each keeps its root all the same
    "inferred": configurations().map(infer),
    "inferred_layered": layered_configurations().map(infer),
}


@pytest.mark.parametrize("source", sorted(SPEC_SOURCES))
@seed(20116)
@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_kept_spec_root_equals_the_referenced_set_rule(source, data):
    spec = data.draw(SPEC_SOURCES[source])
    assert spec_root(spec) is reference_spec_root(spec)


def test_kept_spec_root_equals_the_referenced_set_rule_on_the_model_cases():
    two_roots = SpecSet(frozenset({
        ComponentSpec(AbstractComponentId("A")),
        ComponentSpec(AbstractComponentId("B")),
    }))
    for spec in (build_cs_psycho(), SpecSet(), two_roots):
        assert spec_root(spec) is reference_spec_root(spec)
