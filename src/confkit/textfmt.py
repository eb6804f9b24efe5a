"""Text formats: `.csg` spec files, `.cg` configuration files, DOT export,
and the JSON encoding used for changesets and journals.

Parsing is total: any input yields a value or a ParseError pointing at the
offending token; structurally broken inputs that *parse* raise SpecInvalid or
ConfigInvalid carrying the full validation report.  Printing is canonical —
entries are sorted, so equal values produce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .algebra import (
    INF,
    AbstractComponentId,
    ComponentId,
    Interval,
    NameSet,
    OriginSet,
    VersionSet,
    sum_intervals,
)
from .lifecycle import (
    ChangeSet,
    ExtendChange,
    JournalEntry,
    RemoveChange,
    UpdateChange,
)
from .model import (
    ChildSlot,
    Component,
    ComponentSpec,
    Configuration,
    InvalidSpec,
    NotAConfiguration,
    SpecSet,
    ValidationReport,
    Violation,
    spec_root,
    validate_configuration,
    validate_spec,
)

SPEC_KEYWORDS = frozenset({
    "spec", "node", "root", "name", "origin", "version", "total",
    "contains", "depends", "any",
})
CONFIG_KEYWORDS = frozenset({"config", "component", "contains", "files", "depends"})
_RESERVED = SPEC_KEYWORDS | CONFIG_KEYWORDS


@dataclass(frozen=True, slots=True)
class SourceSpan:
    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


class ParseError(ValueError):
    """The input does not match the grammar at the given position."""

    def __init__(self, span: SourceSpan, expected: str, found: str):
        super().__init__(f"{span}: expected {expected}, found {found}")
        self.span = span
        self.expected = expected
        self.found = found


class SpecInvalid(InvalidSpec):
    """The file parses but is not a well-formed spec; carries the report."""


class ConfigInvalid(NotAConfiguration):
    """The file parses but is not a well-formed configuration."""


# --------------------------------------------------------------------------
# Lexer

_PUNCT = {"{", "}", "[", "]", "(", ")", ":", ";", ",", "|", "*"}


def _cut(text: str) -> str:
    """text, cut to at most 60 characters for an error message."""
    return text if len(text) <= 60 else text[:57] + "..."


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # IDENT | NAT | STRING | EOF | one of the punctuation strings
    value: str
    line: int
    column: int

    def describe(self) -> str:
        if self.kind == "EOF":
            return "end of input"
        if self.kind == "STRING":
            return f'string "{_cut(self.value)}"'
        return f"'{self.value}'"


def _tokenize(text: str, filename: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch == ".":
            if i + 1 < n and text[i + 1] == ".":
                tokens.append(_Token("..", "..", start_line, start_col))
                i += 2
                col += 2
                continue
            raise ParseError(SourceSpan(filename, line, col), "'..'", "'.'")
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch == '"':
            i += 1
            col += 1
            out: list[str] = []
            while True:
                if i >= n or text[i] == "\n":
                    raise ParseError(
                        SourceSpan(filename, start_line, start_col),
                        "a closing '\"'", "end of line")
                c = text[i]
                if c == '"':
                    i += 1
                    col += 1
                    break
                if c == "\\":
                    if i + 1 >= n or text[i + 1] not in ('"', "\\"):
                        raise ParseError(
                            SourceSpan(filename, line, col),
                            "an escape ('\\\"' or '\\\\')",
                            repr(text[i:i + 2]))
                    out.append(text[i + 1])
                    i += 2
                    col += 2
                    continue
                out.append(c)
                i += 1
                col += 1
            tokens.append(_Token("STRING", "".join(out), start_line, start_col))
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("NAT", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        raise ParseError(SourceSpan(filename, line, col), "a token", repr(ch))
    tokens.append(_Token("EOF", "", line, col))
    return tokens


# --------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, text: str, filename: str):
        self.filename = filename
        self.tokens = _tokenize(text, filename)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def span(self, tok: _Token) -> SourceSpan:
        return SourceSpan(self.filename, tok.line, tok.column)

    def fail(self, expected: str, tok: _Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(self.span(tok), expected, tok.describe())

    def expect(self, kind: str, expected: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise self.fail(expected or f"'{kind}'")
        return self.advance()

    def expect_keyword(self, word: str) -> _Token:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.value != word:
            raise self.fail(f"'{word}'")
        return self.advance()

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "IDENT" and tok.value == word

    # shared value productions ---------------------------------------------

    def parse_nat(self, what: str = "a natural number") -> int:
        tok = self.expect("NAT", what)
        try:
            return int(tok.value)
        except ValueError:  # more digits than the interpreter converts
            raise ParseError(self.span(tok), what, f"a {len(tok.value)}-digit number") from None

    def parse_list(self, kind: str, what: str) -> list[str]:
        """`[` items separated by `,` `]`; may be empty, may end with `,`."""
        self.expect("[")
        items: list[str] = []
        while self.peek().kind != "]":
            items.append(self.expect(kind, what).value)
            if self.peek().kind != ",":
                break
            self.advance()
        self.expect("]")
        return items

    def parse_upper(self, start: _Token, lo: int) -> float | int:
        """The `hi` or `*` of `lo..(hi|*)`, once `lo..` is read."""
        if self.peek().kind == "*":
            self.advance()
            return INF
        hi = self.parse_nat("an upper bound or '*'")
        if lo > hi:
            raise ParseError(
                self.span(start), "interval lower bound ≤ upper bound",
                f"'{lo}..{hi}'")
        return hi

    def parse_interval(self) -> Interval:
        start = self.peek()
        lo = self.parse_nat("an interval")
        self.expect("..", "'..'")
        return Interval(lo, self.parse_upper(start, lo))

    def parse_nameset(self) -> NameSet:
        if self.at_keyword("any"):
            self.advance()
            return NameSet.everything()
        literals: set[str] = set()
        prefixes: set[str] = set()
        while True:
            tok = self.expect("STRING", "a quoted name or 'any'")
            if self.peek().kind == "*":
                self.advance()
                if not tok.value:
                    raise ParseError(self.span(tok), "a non-empty prefix", '\'""*\'')
                prefixes.add(tok.value)
            else:
                literals.add(tok.value)
            if self.peek().kind != "|":
                break
            self.advance()
        return NameSet(frozenset(literals), frozenset(prefixes))

    def parse_originset(self) -> OriginSet:
        if self.at_keyword("any"):
            self.advance()
            return OriginSet.everything()
        literals: set[str] = set()
        while True:
            literals.add(self.expect("STRING", "a quoted origin or 'any'").value)
            if self.peek().kind != "|":
                break
            self.advance()
        return OriginSet(frozenset(literals))

    def parse_verset(self) -> VersionSet:
        if self.at_keyword("any"):
            self.advance()
            return VersionSet.everything()
        start = self.peek()
        first = self.parse_nat("a version, an interval, or 'any'")
        if self.peek().kind == "..":
            self.advance()
            return VersionSet.between(first, self.parse_upper(start, first))
        values = {first}
        while self.peek().kind == "|":
            self.advance()
            values.add(self.parse_nat())
        return VersionSet.of(*values)


# --------------------------------------------------------------------------
# Spec files

@dataclass(slots=True)
class _RawNode:
    ctype: str
    names: NameSet
    origins: OriginSet
    versions: VersionSet
    total: Interval | None
    contains: list[tuple[str, Interval]]
    depends: list[tuple[str, dict[str, object]]]


_IDENTITY_FIELDS = ("name", "origin", "version")


def _parse_dep_constraints(p: _Parser) -> dict[str, object]:
    fields: dict[str, object] = {}
    while not p.peek().kind == ")":
        tok = p.peek()
        if tok.kind != "IDENT" or tok.value not in _IDENTITY_FIELDS:
            raise p.fail("a name, origin, or version constraint")
        if tok.value in fields:
            raise p.fail("each constraint at most once", tok)
        p.advance()
        p.expect(":")
        if tok.value == "name":
            fields["name"] = p.parse_nameset()
        elif tok.value == "origin":
            fields["origin"] = p.parse_originset()
        else:
            fields["version"] = p.parse_verset()
        p.expect(";")
    return fields


def _parse_node(p: _Parser) -> _RawNode:
    p.expect_keyword("node")
    ctype = p.expect("IDENT", "a node type").value
    p.expect("{")
    names = NameSet.everything()
    origins = OriginSet.everything()
    versions = VersionSet.everything()
    total: Interval | None = None
    contains: list[tuple[str, Interval]] = []
    depends: list[tuple[str, dict[str, object]]] = []
    seen: set[str] = set()
    while p.peek().kind != "}":
        tok = p.peek()
        if tok.kind != "IDENT":
            raise p.fail("a field or '}'")
        if tok.value in seen:
            raise p.fail("each field at most once", tok)
        if tok.value == "name":
            p.advance()
            p.expect(":")
            names = p.parse_nameset()
            p.expect(";")
        elif tok.value == "origin":
            p.advance()
            p.expect(":")
            origins = p.parse_originset()
            p.expect(";")
        elif tok.value == "version":
            p.advance()
            p.expect(":")
            versions = p.parse_verset()
            p.expect(";")
        elif tok.value == "total":
            p.advance()
            p.expect(":")
            total = p.parse_interval()
            p.expect(";")
        elif tok.value == "contains":
            p.advance()
            p.expect("{")
            while True:
                t = p.expect("IDENT", "a child type")
                if any(t.value == u for u, _ in contains):
                    raise ParseError(p.span(t), "distinct child types", t.describe())
                p.expect(":")
                contains.append((t.value, p.parse_interval()))
                if p.peek().kind != ",":
                    break
                p.advance()
            p.expect("}")
        elif tok.value == "depends":
            p.advance()
            p.expect("{")
            while True:
                t = p.expect("IDENT", "a dependency type")
                if any(t.value == u for u, _ in depends):
                    raise ParseError(p.span(t), "distinct dependency types", t.describe())
                constraints: dict[str, object] = {}
                if p.peek().kind == "(":
                    p.advance()
                    constraints = _parse_dep_constraints(p)
                    p.expect(")")
                depends.append((t.value, constraints))
                if p.peek().kind != ",":
                    break
                p.advance()
            p.expect("}")
        else:
            raise p.fail(
                "'name', 'origin', 'version', 'total', 'contains', or 'depends'")
        seen.add(tok.value)
    p.expect("}")
    return _RawNode(ctype, names, origins, versions, total, contains, depends)


def _build_spec_nodes(raw: list[_RawNode]) -> list[ComponentSpec]:
    acis: dict[str, AbstractComponentId] = {}
    for node in raw:
        aci = AbstractComponentId(node.ctype, node.names, node.origins, node.versions)
        acis.setdefault(node.ctype, aci)
    built: list[ComponentSpec] = []
    for node in raw:
        slots = []
        for t, count in node.contains:
            target = acis.get(t, AbstractComponentId(t))
            slots.append(ChildSlot(target, count))
        deps = []
        for t, constraints in node.depends:
            base = acis.get(t, AbstractComponentId(t))
            deps.append(AbstractComponentId(
                t,
                constraints.get("name", base.names),       # type: ignore[arg-type]
                constraints.get("origin", base.origins),   # type: ignore[arg-type]
                constraints.get("version", base.versions),  # type: ignore[arg-type]
            ))
        total = node.total
        if total is None:
            total = sum_intervals(count for _, count in node.contains)
        built.append(ComponentSpec(
            aci=AbstractComponentId(node.ctype, node.names, node.origins, node.versions),
            dependencies=frozenset(deps),
            children=frozenset(slots),
            total=total,
        ))
    return built


def check_spec_text(text: str, filename: str = "<spec>") -> tuple[SpecSet | None, ValidationReport]:
    """Parse and validate; return (spec-or-None, full report).

    The spec is None exactly when the report has errors.  Raises only
    ParseError.
    """
    p = _Parser(text, filename)
    p.expect_keyword("spec")
    p.expect("IDENT", "a spec name")
    p.expect("{")
    raw: list[_RawNode] = []
    while p.at_keyword("node"):
        raw.append(_parse_node(p))
    if not raw:
        raise p.fail("'node'")
    p.expect_keyword("root")
    root_tok = p.expect("IDENT", "the root type")
    p.expect(";")
    p.expect("}")
    p.expect("EOF", "end of input")

    nodes = _build_spec_nodes(raw)
    # A SpecSet keeps its report, so compliant does not validate a parsed
    # spec again; nodes sharing a ctype cannot form one and stay a list.
    ctypes = {n.ctype for n in nodes}
    checked = SpecSet(frozenset(nodes)) if len(ctypes) == len(nodes) else nodes
    violations = list(validate_spec(checked).violations)
    declared = root_tok.value
    if declared not in ctypes:
        violations.append(Violation(
            "declared-root", (declared,),
            f"declared root {declared} has no node"))
    else:
        child_types = {slot.aci.ctype for n in nodes for slot in n.children}
        unrooted = sorted(ctypes - child_types)
        if len(unrooted) == 1 and unrooted[0] != declared:
            violations.append(Violation(
                "declared-root", (declared, unrooted[0]),
                f"declared root {declared} but the unreferenced node is {unrooted[0]}"))
    report = ValidationReport(tuple(violations))
    if not report.ok:
        return None, report
    assert isinstance(checked, SpecSet)  # repeated ctypes are errors
    return checked, report


def parse_spec(text: str, filename: str = "<spec>") -> SpecSet:
    """Parse a `.csg` file into a validated configuration spec."""
    spec, report = check_spec_text(text, filename)
    if spec is None:
        raise SpecInvalid(report)
    return spec


# --------------------------------------------------------------------------
# Configuration files

@dataclass(slots=True)
class _RawComp:
    handle: str
    ctype: str
    name: str
    origin: str
    version: int
    children: list[str] | None   # handles; None for leaves
    files: list[str] | None
    depends: list[str]


def _parse_component(p: _Parser) -> _RawComp:
    p.expect_keyword("component")
    handle = p.expect("IDENT", "a component handle").value
    p.expect(":")
    ctype = p.expect("IDENT", "a component type").value
    p.expect("(")
    name_tok = p.expect("STRING", "a component name")
    if not name_tok.value:
        raise ParseError(p.span(name_tok), "a non-empty name", '\'""\'')
    p.expect(",")
    origin_tok = p.expect("STRING", "an origin")
    if not origin_tok.value:
        raise ParseError(p.span(origin_tok), "a non-empty origin", '\'""\'')
    p.expect(",")
    version = p.parse_nat("a version")
    p.expect(")")

    children: list[str] | None = None
    files: list[str] | None = None
    if p.at_keyword("contains"):
        p.advance()
        children = p.parse_list("IDENT", "a component handle")
    elif p.at_keyword("files"):
        p.advance()
        files = p.parse_list("STRING", "a file name")
    else:
        raise p.fail("'contains' or 'files'")

    depends: list[str] = []
    if p.at_keyword("depends"):
        p.advance()
        depends = p.parse_list("IDENT", "a component handle")
    p.expect(";")
    return _RawComp(handle, ctype, name_tok.value, origin_tok.value, version,
                    children, files, depends)


def check_config_text(text: str, filename: str = "<config>") -> tuple[Configuration | None, ValidationReport]:
    """Parse and validate; return (configuration-or-None, full report)."""
    p = _Parser(text, filename)
    p.expect_keyword("config")
    p.expect("IDENT", "a configuration name")
    p.expect("{")
    raw: list[_RawComp] = []
    spans: list[SourceSpan] = []
    handles: set[str] = set()
    while p.at_keyword("component"):
        tok = p.peek()
        comp = _parse_component(p)
        if comp.handle in handles:
            raise ParseError(
                SourceSpan(p.filename, tok.line, tok.column),
                "an unused component handle", f"'{comp.handle}'")
        handles.add(comp.handle)
        raw.append(comp)
        spans.append(SourceSpan(p.filename, tok.line, tok.column))
    if not raw:
        raise p.fail("'component'")
    p.expect("}")
    p.expect("EOF", "end of input")

    by_handle = {c.handle: ComponentId(c.ctype, c.name, c.origin, c.version) for c in raw}

    def resolve(handle: str) -> ComponentId:
        # Unknown handles become placeholder ids so validation can report
        # the closure violation instead of the parser guessing.
        return by_handle.get(handle, ComponentId("?", handle, "?", 0))

    components: list[Component] = []
    for comp, span in zip(raw, spans):
        deps = frozenset(resolve(h) for h in comp.depends)
        try:
            if comp.children is not None:
                built = Component.composite(
                    by_handle[comp.handle],
                    frozenset(resolve(h) for h in comp.children), deps)
            else:
                built = Component.leaf(by_handle[comp.handle], comp.files or (), deps)
        except ValueError as exc:
            raise ParseError(span, "disjoint contains/depends lists", str(exc)) from exc
        components.append(built)

    config = Configuration(tuple(components))
    report = validate_configuration(config)
    if not report.ok:
        return None, report
    return config, report


def parse_config(text: str, filename: str = "<config>") -> Configuration:
    """Parse a `.cg` file into a validated configuration."""
    config, report = check_config_text(text, filename)
    if config is None:
        raise ConfigInvalid(report)
    return config


def kind_of(text: str, filename: str = "<input>") -> str:
    """'spec' or 'config', judged by the leading keyword."""
    tok = _tokenize(text, filename)[0]
    if tok.kind == "IDENT" and tok.value in ("spec", "config"):
        return tok.value
    raise ParseError(SourceSpan(filename, tok.line, tok.column),
                     "'spec' or 'config'", tok.describe())


# --------------------------------------------------------------------------
# Canonical printing

def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _sanitize(name: str) -> str:
    out = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    if not out:
        out = "c"
    if out[0].isdigit():
        out = "_" + out
    while out in _RESERVED:
        out += "_"
    return out


def _assign_handles(ids: list[ComponentId]) -> dict[ComponentId, str]:
    used: set[str] = set()
    handles: dict[ComponentId, str] = {}
    for ci in ids:
        base = _sanitize(ci.name)
        candidate, n = base, 2
        while candidate in used:
            candidate = f"{base}_{n}"
            n += 1
        used.add(candidate)
        handles[ci] = candidate
    return handles


def _fmt_nameset(ns: NameSet) -> str:
    if ns.is_any:
        return "any"
    parts = [_quote(s) for s in sorted(ns.literals)]
    parts += [_quote(p) + "*" for p in sorted(ns.prefixes)]
    if not parts:
        raise ValueError("an empty name set has no written form")
    return " | ".join(parts)


def _fmt_originset(os_: OriginSet) -> str:
    if os_.is_any:
        return "any"
    if not os_.values:
        raise ValueError("an empty origin set has no written form")
    return " | ".join(_quote(s) for s in sorted(os_.values))


def _fmt_verset(vs: VersionSet) -> str:
    if vs.is_any:
        return "any"
    kind, *rest = vs._key()
    if kind == "span":
        lo, hi = rest
        return str(Interval(lo, hi))
    values = rest[0]
    if not values:
        raise ValueError("an empty version set has no written form")
    return " | ".join(str(v) for v in values)


def _fmt_dep(dep: AbstractComponentId, base: AbstractComponentId) -> str:
    fields = []
    if dep.names != base.names:
        fields.append(f"name: {_fmt_nameset(dep.names)};")
    if dep.origins != base.origins:
        fields.append(f"origin: {_fmt_originset(dep.origins)};")
    if dep.versions != base.versions:
        fields.append(f"version: {_fmt_verset(dep.versions)};")
    if not fields:
        return dep.ctype
    return f"{dep.ctype}({' '.join(fields)})"


def print_spec(spec: SpecSet, *, name: str | None = None,
               root: str | None = None, header: str | None = None) -> str:
    """Canonical `.csg` text: nodes sorted by type, identity fields omitted
    when unconstrained, total always written.

    ``root`` overrides the root declaration (needed for spec sets whose
    parent/child structure does not single out a root on its own).
    """
    nodes = spec.sorted_specs()
    if root is None:
        root_node = spec_root(spec)
        if root_node is None:
            raise ValueError("spec set has no unique root; pass root=")
        root = root_node.ctype
    if name is None:
        name = _sanitize(root)
    lines: list[str] = []
    if header:
        lines.extend(f"# {h}".rstrip() for h in header.splitlines())
    lines.append(f"spec {name} {{")
    for node in nodes:
        lines.append(f"  node {node.ctype} {{")
        if not node.aci.names.is_any:
            lines.append(f"    name: {_fmt_nameset(node.aci.names)};")
        if not node.aci.origins.is_any:
            lines.append(f"    origin: {_fmt_originset(node.aci.origins)};")
        if not node.aci.versions.is_any:
            lines.append(f"    version: {_fmt_verset(node.aci.versions)};")
        lines.append(f"    total: {node.total};")
        if node.children:
            slots = sorted(node.children, key=lambda s: s.aci.ctype)
            inner = ", ".join(f"{s.aci.ctype}: {s.count}" for s in slots)
            lines.append(f"    contains {{ {inner} }}")
        if node.dependencies:
            rendered = []
            for dep in node.dependencies:
                target = spec.spec_for(dep.ctype)
                base = target.aci if target else AbstractComponentId(dep.ctype)
                rendered.append((dep.ctype, _fmt_dep(dep, base)))
            inner = ", ".join(text for _, text in sorted(rendered))
            lines.append(f"    depends {{ {inner} }}")
        lines.append("  }")
    lines.append(f"  root {root};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def print_config(config: Configuration, *, name: str | None = None) -> str:
    """Canonical `.cg` text: components sorted by identifier, handles derived
    from names."""
    comps = sorted(config, key=lambda c: c.id.sort_key)
    handles = _assign_handles([c.id for c in comps])
    if name is None:
        referenced = {child for c in comps for child in c.child_ids}
        roots = [c for c in comps if c.id not in referenced]
        name = _sanitize(roots[0].id.name) if len(roots) == 1 else "config"
    lines = [f"config {name} {{"]
    for c in comps:
        head = (f"  component {handles[c.id]} : {c.id.ctype} "
                f"({_quote(c.id.name)}, {_quote(c.id.origin)}, {c.id.version})")
        if c.is_leaf:
            assert c.elements is not None
            payload = f"files [{', '.join(_quote(e) for e in sorted(c.elements))}]"
        else:
            kids = sorted(c.child_ids, key=lambda i: i.sort_key)
            payload = f"contains [{', '.join(handles.get(i, _sanitize(i.name)) for i in kids)}]"
        dep_part = ""
        if c.dependencies:
            deps = sorted(c.dependencies, key=lambda i: i.sort_key)
            dep_part = f" depends [{', '.join(handles.get(i, _sanitize(i.name)) for i in deps)}]"
        lines.append(f"{head} {payload}{dep_part};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# DOT export

def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _config_to_dot(config: Configuration) -> str:
    comps = sorted(config, key=lambda c: c.id.sort_key)
    handles = _assign_handles([c.id for c in comps])
    lines = ["digraph config {", "  node [shape=box];"]
    for c in comps:
        label = "\\n".join((_dot_escape(f"{c.id.name} : {c.id.ctype}"),
                            _dot_escape(f"({c.id.origin}, v{c.id.version})")))
        lines.append(f'  {handles[c.id]} [label="{label}"];')
    for c in comps:
        for child in sorted(c.child_ids, key=lambda i: i.sort_key):
            if child in handles:
                lines.append(f"  {handles[c.id]} -> {handles[child]};")
    for c in comps:
        for dep in sorted(c.dependencies, key=lambda i: i.sort_key):
            if dep in handles:
                lines.append(f"  {handles[c.id]} -> {handles[dep]} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _plain_nameset(ns: NameSet) -> str:
    parts = sorted(ns.literals) + [p + "*" for p in sorted(ns.prefixes)]
    return ", ".join(parts)


def _spec_to_dot(spec: SpecSet) -> str:
    nodes = spec.sorted_specs()
    ids = {node.ctype: _sanitize(node.ctype) for node in nodes}
    lines = ["digraph spec {", "  node [shape=box];"]
    for node in nodes:
        label_lines = [f"{node.ctype} [{node.total}]"]
        if not node.aci.names.is_any:
            label_lines.append(f"name: {_plain_nameset(node.aci.names)}")
        if not node.aci.origins.is_any:
            label_lines.append(f"origin: {', '.join(sorted(node.aci.origins.values))}")
        if not node.aci.versions.is_any:
            label_lines.append(f"version: {_fmt_verset(node.aci.versions)}")
        label = "\\n".join(_dot_escape(line) for line in label_lines)
        lines.append(f'  {ids[node.ctype]} [label="{label}"];')
    for node in nodes:
        for slot in sorted(node.children, key=lambda s: s.aci.ctype):
            target = ids.get(slot.aci.ctype, _sanitize(slot.aci.ctype))
            lines.append(f'  {ids[node.ctype]} -> {target} [label="{slot.count}"];')
    for node in nodes:
        for dep in sorted(node.dependencies, key=lambda d: d.ctype):
            target = ids.get(dep.ctype, _sanitize(dep.ctype))
            lines.append(f"  {ids[node.ctype]} -> {target} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_dot(value: Configuration | SpecSet) -> str:
    """GraphViz rendering: solid arrows for composition, dashed for
    dependencies."""
    if isinstance(value, Configuration):
        return _config_to_dot(value)
    if isinstance(value, SpecSet):
        return _spec_to_dot(value)
    raise TypeError(f"cannot render {type(value).__name__} as DOT")


# --------------------------------------------------------------------------
# JSON changesets and journals

def _brief(value: object) -> str:
    """repr(value), cut to at most 60 characters for an error message."""
    return _cut(repr(value))


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
        obj["children"] = [component_id_to_obj(i)
                           for i in sorted(c.child_ids, key=lambda i: i.sort_key)]
    if c.dependencies:
        obj["depends"] = [component_id_to_obj(i)
                          for i in sorted(c.dependencies, key=lambda i: i.sort_key)]
    return obj


def component_from_obj(obj: object) -> Component:
    if not isinstance(obj, dict) or "id" not in obj:
        raise ValueError(f"a component must be an object with an 'id': {_brief(obj)}")
    known = {"id", "files", "children", "depends"}
    extra = set(obj) - known
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


def changeset_from_obj(obj: object) -> ChangeSet:
    if not isinstance(obj, dict) or "op" not in obj:
        raise ValueError(f"a changeset must be an object with an 'op': {_brief(obj)}")
    op = obj["op"]
    if op == "extend":
        components = tuple(component_from_obj(c)
                           for c in _as_list(obj.get("components", []), "components"))
        attachments = []
        for pair in _as_list(obj.get("attachments", []), "attachments"):
            pair = _as_list(pair, "attachment")
            if len(pair) != 2:
                raise ValueError(f"an attachment must be [child, parent]: {_brief(pair)}")
            attachments.append((component_id_from_obj(pair[0]),
                                component_id_from_obj(pair[1])))
        return ExtendChange(components, tuple(attachments))
    if op == "update":
        replacements = []
        for pair in _as_list(obj.get("replacements", []), "replacements"):
            pair = _as_list(pair, "replacement")
            if len(pair) != 2:
                raise ValueError(f"a replacement must be [old id, component]: {_brief(pair)}")
            replacements.append((component_id_from_obj(pair[0]),
                                 component_from_obj(pair[1])))
        return UpdateChange(tuple(replacements))
    if op == "remove":
        ids = tuple(component_id_from_obj(i) for i in _as_list(obj.get("ids", []), "ids"))
        return RemoveChange(ids)
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


def parse_changeset(text: str, filename: str = "<changeset>") -> ChangeSet:
    """Read one JSON changeset; malformed input raises ParseError."""
    obj = _load_json(text, filename)
    try:
        return changeset_from_obj(obj)
    except ValueError as exc:
        raise ParseError(SourceSpan(filename, 1, 1),
                         "a well-formed changeset", str(exc)) from exc


def print_changeset(change: ChangeSet) -> str:
    return json.dumps(changeset_to_obj(change), indent=2, sort_keys=True) + "\n"


def journal_entry_to_line(entry: JournalEntry) -> str:
    obj = {
        "seq": entry.seq,
        "change": changeset_to_obj(entry.change),
        "inverse": changeset_to_obj(entry.inverse),
    }
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
        try:
            change = changeset_from_obj(obj["change"])
            inverse = changeset_from_obj(obj["inverse"])
        except ValueError as exc:
            raise ParseError(SourceSpan(filename, lineno, 1),
                             "a well-formed changeset", str(exc)) from exc
        entries.append(JournalEntry(change=change, inverse=inverse, seq=seq, undoes=undoes))
    return entries
