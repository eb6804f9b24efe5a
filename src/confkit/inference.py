"""Minimal-spec inference: from a configuration to the tightest spec set it obeys.

Each component yields a one-node spec set describing exactly itself; the specs
of a whole configuration are what folding `unify` over them gives, which
merges nodes of the same ctype: identifier families union, dependency entries
of one ctype merge, child slots widen to cover both sides, totals add.
`infer` builds that result in one grouped pass per ctype instead of the fold.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable

from .algebra import AbstractComponentId, ComponentId, Interval, lift_identifiers
from .model import (
    ChildSlot,
    ComponentSpec,
    Component,
    Configuration,
    SpecSet,
    _children_of,
    _dependencies_of,
    _valid,
)

__all__ = [
    "infer",
    "infer_component",
    "unify",
    "unify_children",
    "unify_dependencies",
]


def unify_dependencies(
    a: Iterable[AbstractComponentId], b: Iterable[AbstractComponentId]
) -> frozenset[AbstractComponentId]:
    """Union of two dependency sets, merging entries of the same ctype."""
    groups: dict[str, list[AbstractComponentId]] = {}
    for aci in (*a, *b):
        groups.setdefault(aci.ctype, []).append(aci)
    return frozenset(first.merge(*rest) for first, *rest in groups.values())


def unify_children(
    a: Iterable[ChildSlot], b: Iterable[ChildSlot]
) -> frozenset[ChildSlot]:
    """Cover both child maps: one-sided slots get their lower bound widened to 0,
    same-ctype slots merge identifiers and keep [min lo, max hi]."""
    left = {slot.aci.ctype: slot for slot in a}
    right = {slot.aci.ctype: slot for slot in b}
    out: list[ChildSlot] = []
    for ctype in sorted(left.keys() | right.keys()):
        ls, rs = left.get(ctype), right.get(ctype)
        if ls is None:
            assert rs is not None
            out.append(ChildSlot(rs.aci, Interval(0, rs.count.hi)))
        elif rs is None:
            out.append(ChildSlot(ls.aci, Interval(0, ls.count.hi)))
        else:
            count = Interval(min(ls.count.lo, rs.count.lo), max(ls.count.hi, rs.count.hi))
            out.append(ChildSlot(ls.aci.merge(rs.aci), count))
    return frozenset(out)


def unify(a: SpecSet, b: SpecSet) -> SpecSet:
    """Merge two spec sets; nodes present on one side only pass through."""
    left, right = a._nodes, b._nodes
    out: list[ComponentSpec] = []
    for ctype in sorted(left.keys() | right.keys()):
        ls, rs = left.get(ctype), right.get(ctype)
        if ls is None or rs is None:
            out.append(rs if ls is None else ls)
        else:
            out.append(ComponentSpec(
                aci=ls.aci.merge(rs.aci),
                dependencies=unify_dependencies(ls._deps.values(), rs._deps.values()),
                children=unify_children(ls._slots.values(), rs._slots.values()),
                total=ls.total + rs.total,
            ))
    return SpecSet(out)


# The slot stores of the values `infer` builds, bound once as `lift_identifiers` binds its own.
(_interval_lo, _interval_hi, _slot_aci, _slot_count, _node_aci, _node_total, _node_deps,
 _node_slots) = (member.__set__ for member in (
    Interval.lo, Interval.hi, ChildSlot.aci, ChildSlot.count, ComponentSpec.aci,
    ComponentSpec.total, ComponentSpec._deps, ComponentSpec._slots))


def _count(lo: int, hi: int) -> Interval:
    """[lo, hi] from naturals counted here, lo <= hi: set without `Interval`'s checks."""
    count = object.__new__(Interval)
    _interval_lo(count, lo)
    _interval_hi(count, hi)
    return count


def _group_spec(members: list[Component], families: dict[str, tuple[int, AbstractComponentId]],
                faithful_leaf_rule: bool) -> ComponentSpec:
    """The node the `unify` fold builds for one ctype's components, in one
    pass: dependencies merge per ctype, a child slot counts [min, max]
    over the members (0 for a member without such children), totals add.
    `families` maps a ctype to (number of ids, their family).  A slot of
    another ctype whose counts add up to that number holds exactly those
    ids, as each has one parent, so it shares the family; other slots, and
    one of the members' own ctype (its topmost member has no parent among
    them), lift the ids they gather."""
    own = members[0].id.ctype
    counts: dict[str, list[int]] = {}
    total = 0
    for c in members:
        kids = c.children
        if kids is None:
            total += 1 if faithful_leaf_rule else 0
            continue
        total += len(kids)
        tally: dict[str, int] = {}
        for child in kids:
            tally[child.ctype] = tally.get(child.ctype, 0) + 1
        for ctype, k in tally.items():
            counts.setdefault(ctype, []).append(k)
    deps_by_type: dict[str, list[ComponentId]] = {}
    for dep in frozenset().union(*map(_dependencies_of, members)):  # reuses kept hashes
        deps_by_type.setdefault(dep.ctype, []).append(dep)
    gathered: dict[str, list[ComponentId]] = {
        ctype: [] for ctype, ks in counts.items()
        if ctype == own or families.get(ctype, (0,))[0] != sum(ks)}
    if gathered:
        for child in chain.from_iterable(filter(None, map(_children_of, members))):
            if child.ctype in gathered:
                gathered[child.ctype].append(child)
    slots: dict[str, ChildSlot] = {}  # keyed in ctype order, as `ComponentSpec` keeps slots and entries
    for ctype in sorted(counts):
        ks = counts[ctype]
        slots[ctype] = slot = object.__new__(ChildSlot)
        _slot_aci(slot, lift_identifiers(gathered[ctype]) if ctype in gathered else families[ctype][1])
        _slot_count(slot, _count(min(ks) if len(ks) == len(members) else 0, max(ks)))
    node = object.__new__(ComponentSpec)
    _node_aci(node, families[own][1])
    _node_total(node, _count(total, total))
    _node_deps(node, {ctype: lift_identifiers(ids) for ctype, ids in sorted(deps_by_type.items())})
    _node_slots(node, slots)
    return node


def infer_component(component: Component, *, faithful_leaf_rule: bool = False) -> SpecSet:
    """The one-node spec set describing exactly this component.

    A leaf's own total is [0,0] by default; with faithful_leaf_rule it is
    [1,1], counting the leaf as occupying one slot of its own.
    """
    family = (1, lift_identifiers([component.id]))
    return SpecSet([_group_spec([component], {component.id.ctype: family}, faithful_leaf_rule)])


def infer(config: Configuration | Iterable[Component], *,
          faithful_leaf_rule: bool = False) -> SpecSet:
    """The minimal spec set a valid configuration complies with: one node
    per ctype, exactly what folding `unify` over `infer_component` gives."""
    groups: dict[str, list[Component]] = {}
    for component in _valid(config):
        groups.setdefault(component.id.ctype, []).append(component)
    families = {ctype: (len(members), lift_identifiers([c.id for c in members]))
                for ctype, members in groups.items()}
    return SpecSet(_group_spec(members, families, faithful_leaf_rule)
                   for members in groups.values())
