"""Minimal-spec inference: from a configuration to the tightest spec set it obeys.

Each component yields a one-node spec set describing exactly itself; the specs
of a whole configuration are what folding `unify` over them gives, which
merges nodes of the same ctype: identifier families union, dependency entries
of one ctype merge, child slots widen to cover both sides, totals add.
`infer` builds that result in one grouped pass per ctype instead of the fold.
"""

from __future__ import annotations

from typing import Iterable

from .algebra import AbstractComponentId, ComponentId, Interval, lift_identifiers
from .model import (
    ChildSlot,
    ComponentSpec,
    Component,
    Configuration,
    NotAConfiguration,
    SpecSet,
    validate_configuration,
)


def unify_dependencies(
    a: Iterable[AbstractComponentId], b: Iterable[AbstractComponentId]
) -> frozenset[AbstractComponentId]:
    """Union of two dependency sets, merging entries of the same ctype."""
    by_type: dict[str, AbstractComponentId] = {}
    for aci in sorted(list(a) + list(b), key=lambda x: x.ctype):
        if aci.ctype in by_type:
            by_type[aci.ctype] = by_type[aci.ctype].merge(aci)
        else:
            by_type[aci.ctype] = aci
    return frozenset(by_type.values())


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
    left = {cs.ctype: cs for cs in a}
    right = {cs.ctype: cs for cs in b}
    out: list[ComponentSpec] = []
    for ctype in sorted(left.keys() | right.keys()):
        ls, rs = left.get(ctype), right.get(ctype)
        if ls is None:
            assert rs is not None
            out.append(rs)
        elif rs is None:
            out.append(ls)
        else:
            out.append(ComponentSpec(
                aci=ls.aci.merge(rs.aci),
                dependencies=unify_dependencies(ls.dependencies, rs.dependencies),
                children=unify_children(ls.children, rs.children),
                total=ls.total + rs.total,
            ))
    return SpecSet(frozenset(out))


def _group_spec(members: list[Component], faithful_leaf_rule: bool) -> ComponentSpec:
    """The node the `unify` fold builds for one ctype's components, built in
    one pass: identifiers and each dependency ctype merge once, a child slot
    counts [min, max] over the members (0 for a member without such
    children), totals add.  A lone member keeps one dependency entry per
    id, as `infer_component` gives them and the fold passes them through."""
    deps_by_type: dict[str, list[ComponentId]] = {}
    kids_by_type: dict[str, list[ComponentId]] = {}
    counts: dict[str, list[int]] = {}
    total = 0
    for c in members:
        for dep in c.dependencies:
            deps_by_type.setdefault(dep.ctype, []).append(dep)
        kids = c.children
        if kids is None:
            total += 1 if faithful_leaf_rule else 0
            continue
        total += len(kids)
        tally: dict[str, int] = {}
        for child in kids:
            kids_by_type.setdefault(child.ctype, []).append(child)
            tally[child.ctype] = tally.get(child.ctype, 0) + 1
        for ctype, k in tally.items():
            counts.setdefault(ctype, []).append(k)
    if len(members) == 1:
        deps = frozenset(d.to_abstract() for d in members[0].dependencies)
    else:
        deps = frozenset(lift_identifiers(group) for group in deps_by_type.values())
    slots = frozenset(
        ChildSlot(
            lift_identifiers(kids_by_type[ctype]),
            Interval(min(ks) if len(ks) == len(members) else 0, max(ks)),
        )
        for ctype, ks in counts.items()
    )
    return ComponentSpec(
        aci=lift_identifiers(c.id for c in members),
        dependencies=deps, children=slots, total=Interval(total, total))


def infer_component(component: Component, *, faithful_leaf_rule: bool = False) -> SpecSet:
    """The one-node spec set describing exactly this component.

    A leaf's own total is [0,0] by default; with faithful_leaf_rule it is
    [1,1], counting the leaf as occupying one slot of its own.
    """
    return SpecSet(frozenset({_group_spec([component], faithful_leaf_rule)}))


def infer(config: Configuration, *, faithful_leaf_rule: bool = False) -> SpecSet:
    """The minimal spec set a valid configuration complies with: one node
    per ctype, exactly what folding `unify` over `infer_component` gives."""
    report = validate_configuration(config)
    if not report.ok:
        raise NotAConfiguration(report)
    groups: dict[str, list[Component]] = {}
    for component in config:
        groups.setdefault(component.id.ctype, []).append(component)
    return SpecSet(frozenset(_group_spec(members, faithful_leaf_rule)
                             for members in groups.values()))
