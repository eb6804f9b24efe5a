"""Subtyping, compliance, and upgrade compatibility.

A configuration complies with a spec when its inferred minimal spec set
refines the authored one node by node.  `direct_check` recomputes the same
verdict straight from the components, without going through inference, and
serves as an independent oracle for it.  Compatibility orders configurations
by "can stand in for": every component of the older one needs a counterpart
in the newer one at the same or a later version.
"""

from __future__ import annotations

from operator import attrgetter

from .algebra import ComponentId, Interval, _set, _Value, merge_identifiers
from .model import (
    ComponentSpec,
    Configuration,
    InvalidSpec,
    SpecSet,
    root_of,
    validate_spec,
)
from .inference import infer


class ComplianceFailure(_Value):
    __slots__ = ("subject", "clause", "detail")

    def __init__(self, subject: str, clause: str, detail: str) -> None:
        _set(self, "subject", subject)
        _set(self, "clause", clause)
        _set(self, "detail", detail)


class ComplianceVerdict(_Value):
    __slots__ = ("compliant", "failures")

    def __init__(self, compliant: bool, failures: tuple[ComplianceFailure, ...] = ()) -> None:
        _set(self, "compliant", compliant)
        _set(self, "failures", failures)

    @classmethod
    def from_failures(cls, failures: list[ComplianceFailure]) -> ComplianceVerdict:
        return cls(compliant=not failures, failures=tuple(failures))


class CompatReason(_Value):
    __slots__ = ("subject", "cause")

    def __init__(self, subject: str, cause: str) -> None:
        _set(self, "subject", subject)
        _set(self, "cause", cause)


class CompatVerdict(_Value):
    __slots__ = ("compatible", "reasons")

    def __init__(self, compatible: bool, reasons: tuple[CompatReason, ...] = ()) -> None:
        _set(self, "compatible", compatible)
        _set(self, "reasons", reasons)


_id_order = attrgetter("ctype", "name", "version", "origin")  # ComponentId.sort_key, in C


def ctype_order(config: Configuration) -> list[str]:
    """Ctypes in depth-first order from the root, children sorted, first seen
    wins; a childless child of a ctype already seen would add nothing, so it
    is not pushed.  Raises NotAConfiguration, through root_of, if the
    configuration is invalid."""
    stack = [root_of(config).id]
    by_id = config._by_id  # kept by the validation root_of ran
    order: dict[str, None] = {}  # the ctypes in first-seen order
    while stack:
        current = by_id[stack.pop()]
        order.setdefault(current.id.ctype)
        if current.children:
            fresh = [i for i in current.children if i.ctype not in order or by_id[i].children]
            stack.extend(sorted(fresh, key=_id_order, reverse=True))
    return list(order)


def _checked_spec(spec: SpecSet) -> None:
    report = validate_spec(spec)
    if not report.ok:
        raise InvalidSpec(report)


def _node_failures(
    inferred: ComponentSpec,
    node: ComponentSpec,
    *,
    strict_lower_bounds: bool,
) -> list[ComplianceFailure]:
    """First failing clause for one ctype, in a fixed clause order."""
    t = inferred.ctype
    if not inferred.aci <= node.aci:
        return [ComplianceFailure(t, "identifier", f"{t} identifiers do not all match the spec node")]

    unmatched = [dep.ctype for dep in inferred.dependencies
                 if not any(dep <= entry for entry in node.dependencies)]
    if unmatched:
        return [ComplianceFailure(
            t, "dependencies",
            f"{t} dependencies on {min(unmatched)} match no dependency entry")]

    for slot in sorted(inferred.children, key=lambda s: s.aci.ctype):
        match = node.slot_for(slot.aci.ctype)
        if match is None:
            return [ComplianceFailure(
                t, "unexpected-child-type",
                f"{t} contains {slot.aci.ctype}, which has no child slot")]
        if not slot.aci <= match.aci:
            return [ComplianceFailure(
                t, "child-identifier",
                f"{t} children of ctype {slot.aci.ctype} do not all match the slot")]
        if not slot.count.included_in(match.count):
            return [ComplianceFailure(
                t, "child-interval",
                f"{t} contains {slot.count} of ctype {slot.aci.ctype}, allowed {match.count}")]

    if not inferred.total.included_in(node.total):
        return [ComplianceFailure(
            t, "total", f"{t} contains {inferred.total} children, allowed {node.total}")]

    if strict_lower_bounds:
        present = {slot.aci.ctype for slot in inferred.children}
        for slot in sorted(node.children, key=lambda s: s.aci.ctype):
            if slot.count.lo >= 1 and slot.aci.ctype not in present:
                return [ComplianceFailure(
                    t, "missing-required-child",
                    f"{t} never contains {slot.aci.ctype}, required at least {slot.count.lo}")]
    return []


def component_spec_leq(a: ComponentSpec, b: ComponentSpec) -> bool:
    """a refines b: narrower identity, covered dependencies, included child
    slots and total."""
    return not _node_failures(a, b, strict_lower_bounds=False)


def spec_set_leq(a: SpecSet, b: SpecSet) -> bool:
    """Every node of a refines the node of b with the same ctype."""
    for cs in a:
        node = b.spec_for(cs.ctype)
        if node is None or not component_spec_leq(cs, node):
            return False
    return True


def compliant(
    config: Configuration,
    spec: SpecSet,
    *,
    faithful_leaf_rule: bool = False,
    strict_lower_bounds: bool = False,
) -> ComplianceVerdict:
    """Does the configuration comply with the spec?  Failures name the first
    broken clause per ctype, in depth-first order from the root."""
    _checked_spec(spec)
    inferred = infer(config, faithful_leaf_rule=faithful_leaf_rule)
    failures: list[ComplianceFailure] = []
    for ctype in ctype_order(config):
        mine = inferred.spec_for(ctype)
        assert mine is not None
        node = spec.spec_for(ctype)
        if node is None:
            failures.append(ComplianceFailure(
                ctype, "missing-spec-node", f"no spec node of ctype {ctype}"))
            continue
        failures.extend(_node_failures(
            mine, node, strict_lower_bounds=strict_lower_bounds))
    return ComplianceVerdict.from_failures(failures)


def direct_check(
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


def _counterpart(a: ComponentId, b: ComponentId, *, composite_a: bool, relaxed: bool) -> bool:
    """b is the same component as a, whatever its version: same ctype and
    origin, and the same name unless a is a composite under relaxed matching."""
    return (a.ctype == b.ctype and a.origin == b.origin
            and (a.name == b.name or (relaxed and composite_a)))


def ci_compat_leq(
    a: ComponentId,
    b: ComponentId,
    *,
    composite_a: bool = False,
    relaxed: bool = True,
) -> bool:
    """b can stand in for a: same identity, same or newer version.

    Composites are allowed to change name across releases unless relaxed
    matching is turned off.
    """
    return _counterpart(a, b, composite_a=composite_a, relaxed=relaxed) and a.version <= b.version


def _stand_in_reasons(a: Configuration, b: Configuration, relaxed: bool) -> list[CompatReason]:
    """Components of a, in sorted order, that have no counterpart in b or
    only counterparts at older versions.  The newest version of b per
    (ctype, origin, name), and per (ctype, origin) for the composites
    relaxed matching renames, is looked up instead of scanning b for each
    component of a; the relation is `_counterpart`'s."""
    by_name: dict[tuple, int] = {}
    by_origin: dict[tuple, int] = {}
    for cb in b:
        i = cb.id
        for index, key in ((by_name, (i.ctype, i.origin, i.name)), (by_origin, (i.ctype, i.origin))):
            index[key] = max(index.get(key, i.version), i.version)
    failing: list[tuple] = []  # (component of a, cause)
    for ca in a:
        i = ca.id
        if relaxed and not ca.is_leaf:
            best = by_origin.get((i.ctype, i.origin))
        else:
            best = by_name.get((i.ctype, i.origin, i.name))
        if best is None or best < i.version:
            failing.append((ca, "no-counterpart" if best is None else "version-regression"))
    failing.sort(key=lambda f: f[0].sort_key)  # stable: the order sorting all of a gives
    return [CompatReason(str(ca.id), cause) for ca, cause in failing]


def config_leq(a: Configuration, b: Configuration, *, relaxed: bool = True) -> bool:
    """Every component of a has a counterpart in b."""
    return not _stand_in_reasons(a, b, relaxed)


def compatible(
    a: Configuration,
    b: Configuration,
    spec: SpecSet,
    *,
    relaxed: bool = True,
    faithful_leaf_rule: bool = False,
    strict_lower_bounds: bool = False,
) -> CompatVerdict:
    """Is b a compatible successor of a under the spec?

    Both configurations must comply with the spec, and every component of a
    needs a counterpart in b at the same or a newer version.
    """
    reasons: list[CompatReason] = []
    for label, config in (("A", a), ("B", b)):
        verdict = compliant(
            config, spec,
            faithful_leaf_rule=faithful_leaf_rule,
            strict_lower_bounds=strict_lower_bounds)
        if not verdict.compliant:
            subject = verdict.failures[0].subject
            reasons.append(CompatReason(subject, f"not-compliant-{label}"))
    if not reasons:
        reasons = _stand_in_reasons(a, b, relaxed)
    return CompatVerdict(not reasons, tuple(reasons))
