"""Guarded configuration changes: extend, update, remove, undo, and `apply`
for a change of any kind; and the JSON codec of changesets and journals.

Every operation is pure: it takes a configuration, returns the changed one
plus a journal entry whose inverse restores the input exactly.  A change is
only accepted if the result is a valid, spec-compliant configuration —
otherwise the operation raises and nothing is observable.  A changeset file
holds one JSON object; a journal holds one JSON entry per line.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Callable, Iterable, Mapping

from .algebra import ComponentId, _set, _Value
from .model import (
    Component,
    Configuration,
    NotAConfiguration,
    SpecSet,
    validate_configuration,
)
from .textfmt import ParseError, SourceSpan, _brief, _cut
from .typecheck import ComplianceVerdict, compliant

__all__ = [
    "ChangeSet",
    "DependencyGuard",
    "DuplicateComponentId",
    "ExtendChange",
    "JournalEntry",
    "JournalMismatch",
    "LifecycleError",
    "RemoveChange",
    "RootRemoval",
    "TypeChanged",
    "UnknownComponent",
    "UnknownParent",
    "UpdateChange",
    "WouldViolateSpec",
    "apply",
    "extend",
    "parse_changeset",
    "parse_journal",
    "print_changeset",
    "remove",
    "undo",
    "update",
]


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


def _apply_raw(config: Configuration, change: ChangeSet) -> tuple[Configuration, ChangeSet]:
    """Apply a change structurally, without the spec gate, and return the
    result with the change that reverts it.  Raises when the change does not
    fit the configuration: a duplicate or unknown id, a missing or leaf
    parent, or a changed ctype.  A removal then refuses, in this order, to
    take the root or a component that a kept one depends on."""
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
        inverse = RemoveChange(tuple(new_root for new_root, _ in change.attachments))
        return Configuration(rewritten + change.components), inverse

    if isinstance(change, UpdateChange):
        replacement_of = dict(change.replacements)
        for old, new in change.replacements:
            if old not in by_id:
                raise UnknownComponent(f"{old} is not in the configuration")
            if old.ctype != new.id.ctype:
                raise TypeChanged(f"{old} cannot become ctype {new.id.ctype}")
        for _, new in change.replacements:
            if new.id in by_id and new.id not in replacement_of:
                raise DuplicateComponentId(f"{new.id} is already in the configuration")
        id_map = {old: new.id for old, new in change.replacements if new.id != old}  # the renamed ids
        pieces = []
        for c in config:
            if c.id not in replacement_of and id_map.keys().isdisjoint(chain(c.dependencies, c.child_ids)):
                pieces.append(c)
                continue
            target = replacement_of.get(c.id, c)
            deps = frozenset(id_map.get(d, d) for d in target.dependencies)
            if target.is_leaf:
                pieces.append(Component.leaf(target.id, target.elements or (), deps))
            else:
                children = frozenset(id_map.get(i, i) for i in target.child_ids)
                pieces.append(Component.composite(target.id, children, deps))
        inverse = UpdateChange(tuple((new.id, by_id[old]) for old, new in change.replacements))
        return Configuration(pieces), inverse

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
    # one pass: the kept components rewritten, the removed ones for the
    # inverse, each requested id's parent, and the kept dependents
    pieces, gone, dependents = [], [], []
    parent_of: dict[ComponentId, ComponentId] = {}
    for c in config:
        for i in c.child_ids.intersection(change.ids):
            parent_of[i] = c.id
        if c.id in removed:
            gone.append(c)
            continue
        if not removed.isdisjoint(c.dependencies):
            dependents.append(c.id)
        drop = c.child_ids & removed
        pieces.append(Component.composite(c.id, c.child_ids - drop, c.dependencies) if drop else c)
    for i in change.ids:
        if i not in parent_of:
            raise RootRemoval(f"{i} is the configuration root")
    if dependents:
        held = _sorted_ids(dependents)
        raise DependencyGuard(f"still depended on by {', '.join(map(str, held))}", held)
    # a requested id is top-level unless another requested subtree holds it
    attachments = ((i, parent) for i, parent in parent_of.items() if parent not in removed)
    return Configuration(pieces), ExtendChange(gone, attachments)


def _gated(config: Configuration, change: ChangeSet, spec: SpecSet, seq: int, *,
           strict_lower_bounds: bool) -> tuple[Configuration, JournalEntry]:
    """Apply the change, refuse a result that breaks the configuration or the
    spec, and journal the change with the inverse the kernel returned."""
    result, inverse = _apply_raw(config, change)
    try:
        verdict = compliant(result, spec, strict_lower_bounds=strict_lower_bounds)
    except NotAConfiguration as exc:
        first = exc.report.errors[0]
        raise WouldViolateSpec(f"change breaks the configuration: {first.message}") from exc
    if not verdict.compliant:
        first = verdict.failures[0]
        raise WouldViolateSpec(f"result would not comply: {first.detail}", verdict)
    return result, JournalEntry(change=change, inverse=inverse, seq=seq)


def extend(
    config: Configuration,
    change: ExtendChange,
    spec: SpecSet,
    *,
    strict_lower_bounds: bool = False,
    seq: int = 0,
) -> tuple[Configuration, JournalEntry]:
    return _gated(config, change, spec, seq, strict_lower_bounds=strict_lower_bounds)


def update(
    config: Configuration,
    change: UpdateChange,
    spec: SpecSet,
    *,
    strict_lower_bounds: bool = False,
    seq: int = 0,
) -> tuple[Configuration, JournalEntry]:
    return _gated(config, change, spec, seq, strict_lower_bounds=strict_lower_bounds)


def remove(
    config: Configuration,
    ids: Iterable[ComponentId],
    spec: SpecSet,
    *,
    strict_lower_bounds: bool = False,
    seq: int = 0,
) -> tuple[Configuration, JournalEntry]:
    return _gated(config, RemoveChange(tuple(ids)), spec, seq,
                  strict_lower_bounds=strict_lower_bounds)


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
    produced from.  No spec gate: the restored state was accepted before.
    An inverse that does not fit, or a removal that trips a guard, is a
    mismatch.

    The entry's change, applied again to the result, must give back `config`;
    otherwise `config` is not what the entry produced (it was edited where
    the change wrote) and undoing would keep only part of that edit."""
    try:
        result, _ = _apply_raw(config, entry.inverse)
    except (LifecycleError, ValueError) as exc:
        raise JournalMismatch(f"entry does not match this configuration: {exc}") from exc
    report = validate_configuration(result)
    if not report.ok:
        raise JournalMismatch(
            f"undo result is not a valid configuration: {report.errors[0].message}")
    try:
        redone = set(_apply_raw(result, entry.change)[0])
    except (LifecycleError, ValueError):
        redone = None
    if redone != set(config):
        raise JournalMismatch("configuration differs from what the entry produced")
    return result


# --------------------------------------------------------------------------
# JSON changesets and journals

def component_id_to_obj(ci: ComponentId) -> list:
    return [ci.ctype, ci.name, ci.origin, ci.version]


def component_id_from_obj(obj: object) -> ComponentId:
    if (not isinstance(obj, list) or len(obj) != 4
            or not all(isinstance(x, str) for x in obj[:3])
            or not isinstance(obj[3], int) or isinstance(obj[3], bool)):
        raise ValueError(f"a component id must be [type, name, origin, version]: {_brief(obj)}")
    return ComponentId(obj[0], obj[1], obj[2], obj[3])


def component_to_obj(c: Component) -> dict:
    obj: dict = {"id": component_id_to_obj(c.id)}
    if c.is_leaf:
        assert c.elements is not None
        obj["files"] = sorted(c.elements)
    else:
        obj["children"] = [component_id_to_obj(i) for i in _sorted_ids(c.child_ids)]
    if c.dependencies:
        obj["depends"] = [component_id_to_obj(i) for i in _sorted_ids(c.dependencies)]
    return obj


def component_from_obj(obj: object) -> Component:
    if not isinstance(obj, dict) or "id" not in obj:
        raise ValueError(f"a component must be an object with an 'id': {_brief(obj)}")
    extra = set(obj) - {"id", "files", "children", "depends"}
    if extra:
        raise ValueError(f"unknown component fields: {_brief(sorted(extra))}")
    ci = component_id_from_obj(obj["id"])
    if ("files" in obj) == ("children" in obj):
        raise ValueError(f"component {_cut(str(ci))} needs exactly one of 'files'/'children'")
    deps = frozenset(component_id_from_obj(d) for d in _as_list(obj.get("depends", []), "depends"))
    if "files" in obj:
        files = _as_list(obj["files"], "files")
        if not all(isinstance(f, str) for f in files):
            raise ValueError(f"component {_cut(str(ci))} files must be strings")
        return Component.leaf(ci, files, deps)
    children = frozenset(component_id_from_obj(c) for c in _as_list(obj["children"], "children"))
    return Component.composite(ci, children, deps)


def _as_list(obj: object, what: str) -> list:
    if not isinstance(obj, list):
        raise ValueError(f"'{what}' must be a list: {_brief(obj)}")
    return obj


def changeset_to_obj(change: ChangeSet) -> dict:
    if isinstance(change, ExtendChange):
        return {
            "op": "extend",
            "components": [component_to_obj(c) for c in change.components],
            "attachments": [[component_id_to_obj(a), component_id_to_obj(b)]
                            for a, b in change.attachments],
        }
    if isinstance(change, UpdateChange):
        return {
            "op": "update",
            "replacements": [[component_id_to_obj(old), component_to_obj(new)]
                             for old, new in change.replacements],
        }
    assert isinstance(change, RemoveChange)
    return {"op": "remove", "ids": [component_id_to_obj(i) for i in change.ids]}


def _pairs(obj: dict, key: str, rule: str, second: Callable[[object], object]) -> tuple:
    """The `key` list of a changeset object, its [id, x] entries read as (id, `second`(x))."""
    pairs = []
    for pair in _as_list(obj.get(key, []), key):
        pair = _as_list(pair, key[:-1])
        if len(pair) != 2:
            raise ValueError(f"{rule}: {_brief(pair)}")
        pairs.append((component_id_from_obj(pair[0]), second(pair[1])))
    return tuple(pairs)


def changeset_from_obj(obj: object) -> ChangeSet:
    if not isinstance(obj, dict) or "op" not in obj:
        raise ValueError(f"a changeset must be an object with an 'op': {_brief(obj)}")
    op = obj["op"]
    if op == "extend":
        components = tuple(component_from_obj(c)
                           for c in _as_list(obj.get("components", []), "components"))
        return ExtendChange(components, _pairs(
            obj, "attachments", "an attachment must be [child, parent]", component_id_from_obj))
    if op == "update":
        return UpdateChange(_pairs(
            obj, "replacements", "a replacement must be [old id, component]", component_from_obj))
    if op == "remove":
        return RemoveChange(component_id_from_obj(i) for i in _as_list(obj.get("ids", []), "ids"))
    raise ValueError(f"unknown op {_brief(op)}")


def _load_json(text: str, filename: str, lineno: int = 1) -> object:
    """`json.loads` with every failure raised as a ParseError; `lineno` is
    the line of the file on which `text` starts."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(SourceSpan(filename, lineno + exc.lineno - 1, exc.colno),
                         "valid JSON", exc.msg) from exc
    except RecursionError as exc:
        raise ParseError(SourceSpan(filename, lineno, 1),
                         "valid JSON", "nesting too deep") from exc
    except ValueError as exc:  # an integer with more digits than the interpreter converts
        raise ParseError(SourceSpan(filename, lineno, 1),
                         "valid JSON", "an integer with too many digits") from exc


def _changeset_at(obj: object, filename: str, lineno: int) -> ChangeSet:
    """`changeset_from_obj`, with its ValueError raised as a ParseError on line `lineno`."""
    try:
        return changeset_from_obj(obj)
    except ValueError as exc:
        raise ParseError(SourceSpan(filename, lineno, 1),
                         "a well-formed changeset", str(exc)) from exc


def parse_changeset(text: str, filename: str = "<changeset>") -> ChangeSet:
    """Read one JSON changeset; malformed input raises ParseError."""
    return _changeset_at(_load_json(text, filename), filename, 1)


def print_changeset(change: ChangeSet) -> str:
    return json.dumps(changeset_to_obj(change), indent=2, sort_keys=True) + "\n"


def journal_entry_to_line(entry: JournalEntry) -> str:
    obj = {"seq": entry.seq, "change": changeset_to_obj(entry.change),
           "inverse": changeset_to_obj(entry.inverse)}
    if entry.undoes is not None:
        obj["undoes"] = entry.undoes
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def parse_journal(text: str, filename: str = "<journal>") -> list[JournalEntry]:
    """Read a journal: one JSON entry per line, blank lines ignored."""
    entries: list[JournalEntry] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        obj = _load_json(line, filename, lineno)
        if not isinstance(obj, dict) or not {"seq", "change", "inverse"} <= set(obj):
            raise ParseError(SourceSpan(filename, lineno, 1),
                             "an entry with seq/change/inverse", _brief(obj))
        seq = obj["seq"]
        if not isinstance(seq, int) or isinstance(seq, bool):
            raise ParseError(SourceSpan(filename, lineno, 1),
                             "an integer seq", _brief(seq))
        undoes = obj.get("undoes")
        if undoes is not None and (not isinstance(undoes, int) or isinstance(undoes, bool)):
            raise ParseError(SourceSpan(filename, lineno, 1),
                             "an integer undoes", _brief(undoes))
        change = _changeset_at(obj["change"], filename, lineno)
        inverse = _changeset_at(obj["inverse"], filename, lineno)
        entries.append(JournalEntry(change=change, inverse=inverse, seq=seq, undoes=undoes))
    return entries


def _open_entries(entries: list[JournalEntry]) -> list[JournalEntry]:
    """Entries not yet cancelled by a reversal, oldest first."""
    open_stack: list[JournalEntry] = []
    for entry in entries:
        if entry.undoes is not None and open_stack and open_stack[-1].seq == entry.undoes:
            open_stack.pop()
        else:
            open_stack.append(entry)
    return open_stack
