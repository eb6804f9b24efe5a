"""Components, configurations, and configuration specifications.

A configuration is a finite set of components forming a tree via children
references, with dependencies pointing at other members.  A configuration
spec is a set of per-ctype nodes carrying identifier constraints, child
slots with count intervals, and dependency constraints.  Validation never
raises on bad input; it returns a report listing every violated condition.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Iterator

from .algebra import (
    AbstractComponentId,
    ComponentId,
    Interval,
    _new,
    _set,
    _Value,
    sum_intervals,
)


class Violation(_Value):
    __slots__ = ("condition", "subjects", "message", "severity")

    def __init__(self, condition: str, subjects: tuple[str, ...], message: str,
                 severity: str = "error") -> None:
        _set(self, "condition", condition)
        _set(self, "subjects", subjects)
        _set(self, "message", message)
        _set(self, "severity", severity)


class ValidationReport(_Value):
    __slots__ = ("violations",)

    def __init__(self, violations: tuple[Violation, ...] = ()) -> None:
        _set(self, "violations", violations)

    @property
    def ok(self) -> bool:
        return not any(v.severity == "error" for v in self.violations)

    @property
    def errors(self) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.severity == "error")

    @property
    def warnings(self) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.severity == "warning")

    def as_dicts(self) -> list[dict]:
        return [
            {
                "condition": v.condition,
                "subjects": list(v.subjects),
                "message": v.message,
                "severity": v.severity,
            }
            for v in self.violations
        ]


class NotAConfiguration(ValueError):
    """Raised where a valid configuration is required but validation fails."""

    def __init__(self, report: ValidationReport):
        self.report = report
        first = report.errors[0].message if report.errors else "invalid"
        super().__init__(f"not a valid configuration: {first}")


class InvalidSpec(ValueError):
    """Raised where a valid configuration spec is required but validation fails."""

    def __init__(self, report: ValidationReport):
        self.report = report
        first = report.errors[0].message if report.errors else "invalid"
        super().__init__(f"not a valid configuration spec: {first}")


# Most components have no dependencies and many leaves list no files: every
# empty set a component holds is this one object instead of a copy each.
_EMPTY: frozenset = frozenset()


_sort_key = attrgetter("sort_key")


def _frozen(items: Iterable) -> frozenset:
    return frozenset(items) or _EMPTY


class Component(_Value):
    """One deployed component: identifier, dependencies, and payload.

    Leaves carry a set of file elements; composites carry the ids of their
    children.  Exactly one of the two is present.
    """

    __slots__ = ("id", "dependencies", "elements", "children")

    def __init__(self, id: ComponentId, dependencies: Iterable[ComponentId] = _EMPTY,
                 elements: Iterable[str] | None = None,
                 children: Iterable[ComponentId] | None = None) -> None:
        dependencies = _frozen(dependencies)
        if (elements is None) == (children is None):
            raise ValueError(f"{id}: exactly one of elements/children required")
        self._fill(id, dependencies, None if elements is None else _frozen(elements),
                   None if children is None else _frozen(children))

    @classmethod
    def _trusted(cls, *fields: object) -> Component:
        """A component a parser read, whose grammar gave exactly one of
        elements/children; each empty set must be `_EMPTY`."""
        self = _new(cls)
        self._fill(*fields)
        return self

    def _fill(self, id: ComponentId, dependencies: frozenset[ComponentId],
              elements: frozenset[str] | None, children: frozenset[ComponentId] | None) -> None:
        overlap = children and dependencies & children
        if overlap:
            raise ValueError(f"{id}: dependencies overlap children: {sorted(str(i) for i in overlap)}")
        _set(self, "id", id)
        _set(self, "dependencies", dependencies)
        _set(self, "elements", elements)
        _set(self, "children", children)

    @classmethod
    def leaf(cls, id: ComponentId, elements: Iterable[str] = (), dependencies: Iterable[ComponentId] = ()) -> Component:
        return cls(id=id, dependencies=frozenset(dependencies), elements=frozenset(elements))

    @classmethod
    def composite(cls, id: ComponentId, children: Iterable[ComponentId], dependencies: Iterable[ComponentId] = ()) -> Component:
        return cls(id=id, dependencies=frozenset(dependencies), children=frozenset(children))

    @property
    def is_leaf(self) -> bool:
        return self.elements is not None

    @property
    def child_ids(self) -> frozenset[ComponentId]:
        return self.children if self.children is not None else _EMPTY

    @property
    def sort_key(self) -> tuple:
        payload = tuple(sorted(self.elements)) if self.is_leaf else tuple(sorted(i.sort_key for i in self.child_ids))
        return (self.id.sort_key, self.is_leaf, payload, tuple(sorted(d.sort_key for d in self.dependencies)))


class Configuration(_Value):
    """A set of components.  Construction is lenient; see validate_configuration."""

    # _report, and if it is ok _by_id and _root: kept by validate_configuration (immutable value)
    __slots__ = ("components", "_report", "_by_id", "_root")

    def __init__(self, components: Iterable[Component] = ()) -> None:
        _set(self, "components", tuple(components))
        _set(self, "_report", None)
        _set(self, "_by_id", None)
        _set(self, "_root", None)

    def __iter__(self) -> Iterator[Component]:
        return iter(self.components)

    def __len__(self) -> int:
        return len(self.components)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return sorted(c.sort_key for c in self) == sorted(c.sort_key for c in other)

    def __hash__(self) -> int:
        return hash(frozenset(self.components))

    def sorted_components(self) -> list[Component]:
        return sorted(self.components, key=lambda c: c.sort_key)

    def by_id(self) -> dict[ComponentId, Component]:
        """A fresh dict, copied from the index a valid configuration keeps."""
        return dict(self._by_id) if self._by_id is not None else {c.id: c for c in self.components}

    def __contains__(self, id: ComponentId) -> bool:
        return any(c.id == id for c in self.components)


class ChildSlot(_Value):
    """A child entry of a spec node: identifier family plus count bounds."""

    __slots__ = ("aci", "count")

    def __init__(self, aci: AbstractComponentId, count: Interval) -> None:
        _set(self, "aci", aci)
        _set(self, "count", count)


class ComponentSpec(_Value):
    """Spec node for one ctype: identity constraints, dependencies, children, total."""

    # _slots: the child slots by ctype, built with the value: it is immutable
    __slots__ = ("aci", "dependencies", "children", "total", "_slots")

    def __init__(self, aci: AbstractComponentId,
                 dependencies: Iterable[AbstractComponentId] = frozenset(),
                 children: Iterable[ChildSlot] = frozenset(),
                 total: Interval = Interval(0, 0)) -> None:
        children = frozenset(children)
        slots: dict[str, ChildSlot] = {}
        for slot in children:
            if slot.aci.ctype in slots:
                raise ValueError(f"{aci.ctype}: more than one child slot of ctype {slot.aci.ctype}")
            slots[slot.aci.ctype] = slot
        _set(self, "aci", aci)
        _set(self, "dependencies", frozenset(dependencies))
        _set(self, "children", children)
        _set(self, "total", total)
        _set(self, "_slots", slots)

    @property
    def ctype(self) -> str:
        return self.aci.ctype

    def slot_for(self, ctype: str) -> ChildSlot | None:
        return self._slots.get(ctype)

    @property
    def child_types(self) -> frozenset[str]:
        return frozenset(self._slots)


class SpecSet(_Value):
    """A set of spec nodes, at most one per ctype.

    Inference produces these; they are not required to satisfy the structural
    conditions a full configuration spec must meet (see validate_spec).
    """

    # _report: validate_spec's report, kept on first use: the value is immutable
    # _nodes: the nodes by ctype, built with the value
    __slots__ = ("specs", "_report", "_nodes")

    def __init__(self, specs: Iterable[ComponentSpec] = frozenset()) -> None:
        specs = frozenset(specs)
        nodes: dict[str, ComponentSpec] = {}
        for cs in specs:
            if cs.ctype in nodes:
                raise ValueError(f"more than one spec node of ctype {cs.ctype}")
            nodes[cs.ctype] = cs
        _set(self, "specs", specs)
        _set(self, "_report", None)
        _set(self, "_nodes", nodes)

    def __iter__(self) -> Iterator[ComponentSpec]:
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def spec_for(self, ctype: str) -> ComponentSpec | None:
        return self._nodes.get(ctype)

    @property
    def ctypes(self) -> frozenset[str]:
        return frozenset(self._nodes)

    def sorted_specs(self) -> list[ComponentSpec]:
        return sorted(self.specs, key=lambda cs: cs.ctype)


def validate_configuration(config: Configuration | Iterable[Component]) -> ValidationReport:
    """Check the configuration conditions; report every violation, raise nothing.
    A `Configuration` is checked once and keeps its report; a list every time.
    A valid `Configuration` also keeps its components by id and its root."""
    if isinstance(config, Configuration) and config._report is not None:
        return config._report
    components = list(config)
    violations: list[Violation] = []

    # Sets built from sets or dicts reuse the hashes kept there: each id is hashed
    # once here, membership is tested in bulk and only reported ids get sorted.
    ids = [c.id for c in components]
    by_id = dict(zip(ids, components))
    declared = set(by_id)
    if len(declared) < len(ids):
        # dicts keep insertion order: duplicates are reported in first-occurrence order
        times: dict[ComponentId, int] = {}
        for i in ids:
            times[i] = times.get(i, 0) + 1
        for i, n in times.items():
            if n > 1:
                violations.append(Violation(
                    "duplicate-id", (str(i),), f"component id {i} declared {n} times"))

    child_sets = [c.children or _EMPTY for c in components]
    referenced = frozenset().union(*child_sets)
    if not declared.issuperset(referenced.union(*[c.dependencies for c in components])):
        for c in components:
            for child in sorted(c.child_ids.difference(declared), key=_sort_key):
                violations.append(Violation(
                    "children-closure", (str(c.id), str(child)),
                    f"{c.id} contains {child}, which is not in the configuration"))
            for dep in sorted(c.dependencies.difference(declared), key=_sort_key):
                violations.append(Violation(
                    "dependency-closure", (str(c.id), str(dep)),
                    f"{c.id} depends on {dep}, which is not in the configuration"))

    root_ids = sorted(declared - referenced, key=_sort_key)
    if not components:
        violations.append(Violation("unique-root", (), "configuration is empty"))
    elif not root_ids:
        violations.append(Violation(
            "unique-root", (), "no root: every component is contained in another"))
    elif len(root_ids) > 1:
        violations.append(Violation(
            "unique-root", tuple(str(i) for i in root_ids),
            "more than one root: " + ", ".join(str(i) for i in root_ids)))

    if sum(map(len, child_sets)) > len(referenced):  # some id is listed as a child twice
        parents: dict[ComponentId, set[ComponentId]] = {}
        for c in components:
            for child in c.child_ids:
                parents.setdefault(child, set()).add(c.id)
        shared = [child for child, of in parents.items() if len(of) > 1]
        for child in sorted(shared, key=_sort_key):
            distinct = sorted(parents[child], key=_sort_key)
            violations.append(Violation(
                "multiple-parents", (str(child),) + tuple(str(p) for p in distinct),
                f"{child} is contained in more than one component"))

    # The four conditions above admit child-cycles detached from the root;
    # the parent relation is only a tree if everything is reachable from it.
    # When they all hold, the walk from the root meets no id twice, so it
    # need only count; when it falls short, the walk below names the rest.
    root = by_id[root_ids[0]] if len(root_ids) == 1 else None
    stack, walked = [root] if root is not None and not violations else [], 0
    while stack:
        walked += 1
        stack.extend(map(by_id.__getitem__, stack.pop().children or _EMPTY))
    if root is not None and walked < len(components) and not any(
            v.condition == "duplicate-id" for v in violations):
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
                    "unreachable", (str(c.id),),
                    f"{c.id} is not reachable from the root"))

    report = ValidationReport(tuple(violations))
    if isinstance(config, Configuration):
        _set(config, "_report", report)
        if report.ok:
            _set(config, "_by_id", by_id)
            _set(config, "_root", root)
    return report


def validate_spec(spec: SpecSet | Iterable[ComponentSpec]) -> ValidationReport:
    """Check the spec conditions; report every violation, raise nothing.
    A `SpecSet` is checked once and keeps its report; a list every time."""
    if isinstance(spec, SpecSet) and spec._report is not None:
        return spec._report
    nodes = list(spec)
    violations: list[Violation] = []

    declared: dict[str, int] = {}
    for cs in nodes:
        declared[cs.ctype] = declared.get(cs.ctype, 0) + 1
    for t in sorted(t for t, times in declared.items() if times > 1):
        violations.append(Violation(
            "duplicate-type", (t,), f"more than one spec node of ctype {t}"))

    acis = {cs.aci for cs in nodes}
    by_type: dict[str, ComponentSpec] = {}
    # `<=` holds only within one ctype, so a dependency is compared with
    # the identifier families of its own ctype
    families: dict[str, list[AbstractComponentId]] = {}
    for cs in nodes:
        by_type.setdefault(cs.ctype, cs)
        families.setdefault(cs.ctype, []).append(cs.aci)

    for cs in sorted(nodes, key=lambda cs: cs.ctype):
        for slot in sorted(cs.children, key=lambda s: s.aci.ctype):
            if slot.aci not in acis:
                violations.append(Violation(
                    "children-closure", (cs.ctype, slot.aci.ctype),
                    f"{cs.ctype} has a child slot for {slot.aci.ctype} "
                    "that matches no spec node"))
        dep_types: set[str] = set()
        for dep in sorted(cs.dependencies, key=lambda d: d.ctype):
            if dep.ctype in dep_types:
                violations.append(Violation(
                    "duplicate-dependency-type", (cs.ctype, dep.ctype),
                    f"{cs.ctype} has more than one dependency entry of ctype {dep.ctype}"))
            dep_types.add(dep.ctype)
            if not any(dep <= aci for aci in families.get(dep.ctype, ())):
                violations.append(Violation(
                    "dependency-coverage", (cs.ctype, dep.ctype),
                    f"{cs.ctype} depends on {dep.ctype} identifiers "
                    "covered by no spec node"))
            if cs.slot_for(dep.ctype) is not None:
                violations.append(Violation(
                    "dependency-child-overlap", (cs.ctype, dep.ctype),
                    f"{cs.ctype} both contains and depends on ctype {dep.ctype}"))

    referenced: dict[str, list[str]] = {}
    for cs in nodes:
        for slot in cs.children:
            if slot.aci.ctype in by_type:
                referenced.setdefault(slot.aci.ctype, []).append(cs.ctype)

    root_types = sorted(t for t in by_type if t not in referenced)
    if not nodes:
        violations.append(Violation("unique-root", (), "spec is empty"))
    elif not root_types:
        violations.append(Violation(
            "unique-root", (), "no root: every spec node is a child of another"))
    elif len(root_types) > 1:
        violations.append(Violation(
            "unique-root", tuple(root_types),
            "more than one root: " + ", ".join(root_types)))

    for child_type, parents in sorted(referenced.items()):
        distinct = sorted(set(parents))
        if len(distinct) > 1:
            violations.append(Violation(
                "multiple-parents", (child_type,) + tuple(distinct),
                f"{child_type} is a child slot of more than one spec node"))

    for cs in sorted(nodes, key=lambda cs: cs.ctype):
        child_sum = sum_intervals(slot.count for slot in cs.children)
        if not child_sum.included_in(cs.total):
            violations.append(Violation(
                "interval-sum", (cs.ctype,),
                f"{cs.ctype}: children counts sum to {child_sum}, "
                f"not included in total {cs.total}"))
        if cs.children:
            lows = sum(slot.count.lo for slot in cs.children)
            highs = sum_intervals(slot.count for slot in cs.children).hi
            if not (lows <= cs.total.lo and cs.total.hi <= highs):
                violations.append(Violation(
                    "child-sum-advisory", (cs.ctype,),
                    f"{cs.ctype}: total {cs.total} is not bracketed by "
                    f"the children sums [{lows}, {highs}]",
                    severity="warning"))

    report = ValidationReport(tuple(violations))
    if isinstance(spec, SpecSet):
        _set(spec, "_report", report)
    return report


def root_of(config: Configuration | Iterable[Component]) -> Component:
    """The unique component not contained in any other, kept by validation, which runs first."""
    config = config if isinstance(config, Configuration) else Configuration(config)
    report = validate_configuration(config)
    if not report.ok:
        raise NotAConfiguration(report)
    return config._root


def spec_root(spec: SpecSet) -> ComponentSpec | None:
    """The spec node referenced by no child slot, if exactly one exists."""
    referenced = {slot.aci.ctype for cs in spec for slot in cs.children}
    candidates = [cs for cs in spec.sorted_specs() if cs.ctype not in referenced]
    if len(candidates) == 1:
        return candidates[0]
    return None
