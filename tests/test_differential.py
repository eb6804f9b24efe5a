"""The linear checking core against the algorithms it replaced.

`infer` builds one node per ctype in a grouped pass, `merge_identifiers`
unions every part once, and `_stand_in_reasons` looks counterparts up in an
index.  Each is compared here, on seeded random inputs, with the quadratic
algorithm it replaced, kept in this file as the reference.
"""

from __future__ import annotations

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
    unify,
    validate_configuration,
)
from confkit.typecheck import CompatReason, _stand_in_reasons

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
