"""Guarded configuration changes: extend, update, remove, undo, and `apply`
for a change of any kind.

Every operation is pure: it takes a configuration, returns the changed one
plus a journal entry whose inverse restores the input exactly.  A change is
only accepted if the result is a valid, spec-compliant configuration —
otherwise the operation raises and nothing is observable.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .algebra import ComponentId, _set, _Value
from .model import (
    Component,
    Configuration,
    NotAConfiguration,
    SpecSet,
    validate_configuration,
)
from .typecheck import ComplianceVerdict, compliant


class LifecycleError(Exception):
    """Base class for rejected configuration changes."""


class WouldViolateSpec(LifecycleError):
    def __init__(self, message: str, verdict: ComplianceVerdict | None = None):
        super().__init__(message)
        self.verdict = verdict


class UnknownParent(LifecycleError):
    pass


class DuplicateComponentId(LifecycleError):
    pass


class UnknownComponent(LifecycleError):
    pass


class TypeChanged(LifecycleError):
    pass


class DependencyGuard(LifecycleError):
    def __init__(self, message: str, dependents: tuple[ComponentId, ...] = ()):
        super().__init__(message)
        self.dependents = dependents


class RootRemoval(LifecycleError):
    pass


class JournalMismatch(LifecycleError):
    pass


def _sorted_ids(ids: Iterable[ComponentId]) -> tuple[ComponentId, ...]:
    return tuple(sorted(ids, key=lambda i: i.sort_key))


def _sorted_components(components: Iterable[Component]) -> tuple[Component, ...]:
    return tuple(sorted(components, key=lambda c: c.sort_key))


class ExtendChange(_Value):
    """Add a forest of new components, attaching each fragment root to an
    existing composite."""

    __slots__ = ("components", "attachments")  # attachments: (new root, parent) pairs

    def __init__(self, components: Iterable[Component],
                 attachments: Iterable[tuple[ComponentId, ComponentId]]) -> None:
        components = _sorted_components(components)
        attachments = tuple(sorted(attachments, key=lambda p: (p[0].sort_key, p[1].sort_key)))
        ids = [c.id for c in components]
        if len(ids) != len(set(ids)):
            raise ValueError("extend payload repeats a component id")
        roots = [root for root, _ in attachments]
        if len(roots) != len(set(roots)):
            raise ValueError("extend payload attaches a component twice")
        _set(self, "components", components)
        _set(self, "attachments", attachments)

    @classmethod
    def of(cls, components: Iterable[Component], attachments: Mapping[ComponentId, ComponentId]) -> ExtendChange:
        return cls(tuple(components), tuple(attachments.items()))


class UpdateChange(_Value):
    """Replace components in place; references to the old ids are rewritten."""

    __slots__ = ("replacements",)  # (old id, new component) pairs

    def __init__(self, replacements: Iterable[tuple[ComponentId, Component]]) -> None:
        replacements = tuple(sorted(replacements, key=lambda p: p[0].sort_key))
        olds = [old for old, _ in replacements]
        news = [new.id for _, new in replacements]
        if len(olds) != len(set(olds)) or len(news) != len(set(news)):
            raise ValueError("update payload repeats a component id")
        _set(self, "replacements", replacements)

    @classmethod
    def of(cls, replacements: Mapping[ComponentId, Component]) -> UpdateChange:
        return cls(tuple(replacements.items()))


class RemoveChange(_Value):
    """Remove components (each with its whole subtree)."""

    __slots__ = ("ids",)

    def __init__(self, ids: Iterable[ComponentId]) -> None:
        ids = _sorted_ids(ids)
        if len(ids) != len(set(ids)):
            raise ValueError("remove payload repeats a component id")
        _set(self, "ids", ids)


ChangeSet = ExtendChange | UpdateChange | RemoveChange


class JournalEntry(_Value):
    """One accepted change and the change that reverts it.

    ``undoes`` marks a reversal entry: the seq of the entry it cancels.
    Reversals keep a journal append-only while letting consecutive undos
    walk back through the remaining open entries.
    """

    __slots__ = ("change", "inverse", "seq", "undoes")

    def __init__(self, change: ChangeSet, inverse: ChangeSet, seq: int = 0,
                 undoes: int | None = None) -> None:
        _set(self, "change", change)
        _set(self, "inverse", inverse)
        _set(self, "seq", seq)
        _set(self, "undoes", undoes)


def _gate(result: Configuration, spec: SpecSet, *, faithful_leaf_rule: bool, strict_lower_bounds: bool) -> None:
    try:
        verdict = compliant(
            result, spec,
            faithful_leaf_rule=faithful_leaf_rule,
            strict_lower_bounds=strict_lower_bounds)
    except NotAConfiguration as exc:
        first = exc.report.errors[0]
        raise WouldViolateSpec(f"change breaks the configuration: {first.message}") from exc
    if not verdict.compliant:
        first = verdict.failures[0]
        raise WouldViolateSpec(f"result would not comply: {first.detail}", verdict)


def _apply_raw(config: Configuration, change: ChangeSet) -> Configuration:
    """Apply a change structurally, without the spec gate.  Raises when the
    change does not fit the configuration: a duplicate or unknown id, a
    missing or leaf parent, or a changed ctype."""
    by_id = config.by_id()
    if isinstance(change, ExtendChange):
        for component in change.components:
            if component.id in by_id:
                raise DuplicateComponentId(f"{component.id} is already in the configuration")
        new_ids = {c.id for c in change.components}
        grafts: dict[ComponentId, set[ComponentId]] = {}
        for new_root, parent in change.attachments:
            if parent not in by_id:
                raise UnknownParent(f"attachment parent {parent} is not in the configuration")
            if by_id[parent].is_leaf:
                raise UnknownParent(f"attachment parent {parent} is a leaf component")
            if new_root not in new_ids:
                raise UnknownComponent(f"attachment root {new_root} is not in the extend payload")
            grafts.setdefault(parent, set()).add(new_root)
        rewritten = tuple(
            Component.composite(c.id, c.child_ids | grafts[c.id], c.dependencies) if c.id in grafts else c
            for c in config)
        return Configuration(rewritten + change.components)

    if isinstance(change, UpdateChange):
        id_map: dict[ComponentId, ComponentId] = {}
        for old, new in change.replacements:
            if old not in by_id:
                raise UnknownComponent(f"{old} is not in the configuration")
            if old.ctype != new.id.ctype:
                raise TypeChanged(f"{old} cannot become ctype {new.id.ctype}")
            id_map[old] = new.id
        for _, new in change.replacements:
            if new.id in by_id and new.id not in id_map:
                raise DuplicateComponentId(f"{new.id} is already in the configuration")
        replacement_of = dict(change.replacements)
        pieces = []
        for c in config:
            target = replacement_of.get(c.id, c)
            deps = frozenset(id_map.get(d, d) for d in target.dependencies)
            if target.is_leaf:
                pieces.append(Component.leaf(target.id, target.elements or (), deps))
            else:
                children = frozenset(id_map.get(i, i) for i in target.child_ids)
                pieces.append(Component.composite(target.id, children, deps))
        return Configuration(pieces)

    assert isinstance(change, RemoveChange)
    for i in change.ids:
        if i not in by_id:
            raise UnknownComponent(f"{i} is not in the configuration")
    removed: set[ComponentId] = set()
    stack = list(change.ids)
    while stack:
        current = stack.pop()
        if current not in removed and current in by_id:
            removed.add(current)
            stack.extend(by_id[current].child_ids)
    pieces = []
    for c in config:
        if c.id in removed:
            continue
        drop = c.child_ids & removed
        pieces.append(Component.composite(c.id, c.child_ids - drop, c.dependencies) if drop else c)
    return Configuration(pieces)


def extend(
    config: Configuration,
    change: ExtendChange,
    spec: SpecSet,
    *,
    faithful_leaf_rule: bool = False,
    strict_lower_bounds: bool = False,
    seq: int = 0,
) -> tuple[Configuration, JournalEntry]:
    result = _apply_raw(config, change)
    _gate(result, spec, faithful_leaf_rule=faithful_leaf_rule, strict_lower_bounds=strict_lower_bounds)
    inverse = RemoveChange(tuple(new_root for new_root, _ in change.attachments))
    return result, JournalEntry(change=change, inverse=inverse, seq=seq)


def update(
    config: Configuration,
    change: UpdateChange,
    spec: SpecSet,
    *,
    faithful_leaf_rule: bool = False,
    strict_lower_bounds: bool = False,
    seq: int = 0,
) -> tuple[Configuration, JournalEntry]:
    result = _apply_raw(config, change)
    _gate(result, spec, faithful_leaf_rule=faithful_leaf_rule, strict_lower_bounds=strict_lower_bounds)
    by_id = config.by_id()
    inverse = UpdateChange(tuple((new.id, by_id[old]) for old, new in change.replacements))
    return result, JournalEntry(change=change, inverse=inverse, seq=seq)


def remove(
    config: Configuration,
    ids: Iterable[ComponentId],
    spec: SpecSet,
    *,
    faithful_leaf_rule: bool = False,
    strict_lower_bounds: bool = False,
    seq: int = 0,
) -> tuple[Configuration, JournalEntry]:
    change = RemoveChange(tuple(ids))
    result = _apply_raw(config, change)
    parent_of = {child: c.id for c in config for child in c.child_ids}
    for i in change.ids:
        if i not in parent_of:
            raise RootRemoval(f"{i} is the configuration root")

    kept = {c.id for c in result}
    removed = [c for c in config if c.id not in kept]
    removed_ids = {c.id for c in removed}
    dependents = _sorted_ids(
        c.id for c in result if any(d in removed_ids for d in c.dependencies))
    if dependents:
        names = ", ".join(str(i) for i in dependents)
        raise DependencyGuard(f"still depended on by {names}", dependents)
    _gate(result, spec, faithful_leaf_rule=faithful_leaf_rule, strict_lower_bounds=strict_lower_bounds)

    # a requested id is top-level unless another requested subtree holds it
    inverse = ExtendChange(
        components=tuple(removed),
        attachments=tuple((i, parent_of[i]) for i in change.ids if parent_of[i] not in removed_ids),
    )
    return result, JournalEntry(change=change, inverse=inverse, seq=seq)


def apply(
    config: Configuration,
    change: ChangeSet,
    spec: SpecSet,
    *,
    seq: int = 0,
) -> tuple[Configuration, JournalEntry]:
    """Run the guarded operation for the change's kind."""
    if isinstance(change, ExtendChange):
        return extend(config, change, spec, seq=seq)
    if isinstance(change, UpdateChange):
        return update(config, change, spec, seq=seq)
    return remove(config, change.ids, spec, seq=seq)


def undo(config: Configuration, entry: JournalEntry) -> Configuration:
    """Apply the entry's inverse, restoring the configuration the entry was
    produced from.  No spec gate: the restored state was accepted before."""
    try:
        result = _apply_raw(config, entry.inverse)
    except (LifecycleError, ValueError) as exc:
        raise JournalMismatch(f"entry does not match this configuration: {exc}") from exc
    report = validate_configuration(result)
    if not report.ok:
        raise JournalMismatch(
            f"undo result is not a valid configuration: {report.errors[0].message}")
    return result
