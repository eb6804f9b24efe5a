"""The linear checking core against the algorithms it replaced.

`infer` builds one node per ctype in a grouped pass, `merge_identifiers`
unions every part once, and `_stand_in_reasons` looks counterparts up in an
index.  Each is compared here, on seeded random inputs, with the quadratic
algorithm it replaced, kept in this file as the reference.  So is
`validate_configuration`, which walks a well-formed tree by counting and
keeps its id index and root on the value for `root_of`, `by_id` and
`ctype_order`, against the reachable-set walk and the fresh computations;
and `ctype_order`, which neither sorts nor pushes a child with no children
of a ctype already seen, against the DFS that sorts every child set.
"""

from __future__ import annotations

import copy
import pickle
import random
from functools import reduce

import pytest

from confkit import (
    INF,
    AbstractComponentId,
    ChildSlot,
    Component,
    ComponentId,
    ComponentSpec,
    Configuration,
    Interval,
    NameSet,
    OriginSet,
    SpecSet,
    TypeMismatch,
    VersionSet,
    ci_compat_leq,
    config_leq,
    infer,
    infer_component,
    lift_identifiers,
    merge_identifiers,
    print_config,
    root_of,
    unify,
    validate_configuration,
)
from confkit.model import ValidationReport, Violation
from confkit.typecheck import CompatReason, _stand_in_reasons, ctype_order

CTYPES = ("T", "U", "V")
NAMES = ("a", "b", "c")  # shared by every ctype
ORIGINS = ("o1", "o2")


# --------------------------------------------------------------------------
# References: the algorithms before the linear rewrite


def reference_infer_component(component: Component, faithful_leaf_rule: bool) -> SpecSet:
    aci = component.id.to_abstract()
    deps = frozenset(d.to_abstract() for d in component.dependencies)
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


def reference_merge(acis) -> AbstractComponentId:
    return reduce(lambda acc, aci: acc.merge(aci), acis)


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


@pytest.mark.parametrize("faithful_leaf_rule", [False, True])
def test_grouped_infer_equals_the_unify_fold(faithful_leaf_rule):
    rng = random.Random(20101)
    shapes = set()
    for _ in range(400):
        config = random_config(rng)
        assert infer(config, faithful_leaf_rule=faithful_leaf_rule) == reference_infer(
            config, faithful_leaf_rule)
        for c in config:
            assert infer_component(c, faithful_leaf_rule=faithful_leaf_rule) == (
                reference_infer_component(c, faithful_leaf_rule))
        kinds: dict[str, set] = {}
        for c in config:
            kinds.setdefault(c.id.ctype, set()).add(
                "leaf" if c.is_leaf else "composite" if c.child_ids else "empty")
        shapes.update(frozenset(k) for k in kinds.values())
    # the inputs mix leaves, composites and empty composites within one ctype
    assert frozenset({"leaf", "composite", "empty"}) in shapes


def test_lone_member_dependencies_stay_one_entry_per_id():
    # The fold passes a ctype with one member through untouched, so its
    # dependencies on one ctype stay separate entries; two members merge them.
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
        {lib_a.to_abstract(), lib_b.to_abstract()})
    assert infer(two).spec_for("App").dependencies == frozenset(
        {lift_identifiers([lib_a, lib_b])})
    for config in (one, two):
        assert infer(config) == reference_infer(config, False)


def test_one_pass_merge_equals_the_pairwise_fold():
    rng = random.Random(20102)
    for _ in range(3000):
        acis = [random_aci(rng) for _ in range(rng.randint(1, 6))]
        assert same_representation(merge_identifiers(acis), reference_merge(acis))
        assert same_representation(merge_identifiers(iter(acis)), reference_merge(acis))


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
