"""Text formats: `.csg` spec files, `.cg` configuration files and DOT export.

Parsing is total: any input yields a value or a ParseError pointing at the
offending lexeme; structurally broken inputs that *parse* raise SpecInvalid
or ConfigInvalid carrying the full validation report.  Printing is
canonical — entries are sorted, so equal values produce identical bytes.

One compiled master pattern cuts a text into lexemes with `re.findall`, and
the parsers walk the resulting list of strings by index.  Lines and columns
are computed only when a ParseError is built.  The whole text is lexed
before the grammar runs, so a lexical error is reported before any grammar
error.  An ASCII configuration text is first read by one `findall` of its
`component` productions; the lexeme parser reads any text that fails there.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Callable, Sequence
from itertools import compress

from .algebra import (
    INF,
    AbstractComponentId,
    ComponentId,
    Interval,
    NameSet,
    OriginSet,
    VersionSet,
    _set,
    _Value,
    sum_intervals,
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
    _EMPTY,
    _valid,
    spec_root,
    validate_configuration,
    validate_spec,
)

__all__ = [
    "ConfigInvalid",
    "ParseError",
    "SourceSpan",
    "SpecInvalid",
    "kind_of",
    "parse_config",
    "parse_spec",
    "print_config",
    "print_spec",
    "to_dot",
]


def __getattr__(name: str) -> object:
    # perfbench/spans.py still records these two under "textfmt"; drop this when it names lifecycle
    if name in ("parse_changeset", "parse_journal"):
        from . import lifecycle
        return getattr(lifecycle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


SPEC_KEYWORDS = frozenset({
    "spec", "node", "root", "name", "origin", "version", "total",
    "contains", "depends", "any",
})
CONFIG_KEYWORDS = frozenset({"config", "component", "contains", "files", "depends"})
_RESERVED = SPEC_KEYWORDS | CONFIG_KEYWORDS


class SourceSpan(_Value):
    __slots__ = ("file", "line", "column")

    def __init__(self, file: str, line: int, column: int) -> None:
        _set(self, "file", file)
        _set(self, "line", line)
        _set(self, "column", column)

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

# Whitespace and comments; skipped before the first lexeme and after each.
_SKIP = r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*"
_LEADING = re.compile(_SKIP)
_STRING_BODY = r'[^"\\\n]*(?:\\["\\][^"\\\n]*)*'
_STRING_PREFIX = re.compile(_STRING_BODY)
_ESCAPE = re.compile(r"\\(.)")


@functools.lru_cache(maxsize=16)
def _lexer(odd: str) -> re.Pattern[str]:
    """The master pattern: one match per lexeme, the lexeme in group 1, the
    whitespace and comments after it in the match.  A character no lexeme
    starts with matches outside the group, so `findall` gives '' for it;
    the end of the text gives one last ''.

    `re` classes follow `str.isdecimal` (`\\d`) and `str.isalnum` (`\\w`),
    while numbers are runs of `str.isdigit` characters and identifiers
    start with a `str.isalpha` one.  `odd` holds the numeric characters of
    the text that are neither decimal nor letters: those that are digits
    extend numbers, and none of them starts an identifier.
    """
    digits = "".join(c for c in odd if c.isdigit())
    word = rf"(?![{odd}])[^\W\d]\w*" if odd else r"[^\W\d]\w*"
    return re.compile(rf'(?:(\.\.|[{{}}\[\]():;,|*]|"{_STRING_BODY}"|[\d{digits}]+|{word})'
                      rf"|(?s:.)){_SKIP}|\Z")


def _odd_numerics(text: str) -> str:
    return "".join(sorted(c for c in set(text)
                          if c.isnumeric() and not c.isdecimal() and not c.isalpha()))


def _cut(text: str) -> str:
    """text, cut to at most 60 characters for an error message."""
    return text if len(text) <= 60 else text[:57] + "..."


def _brief(value: object) -> str:
    """repr(value), cut to at most 60 characters for an error message."""
    return _cut(repr(value))


def _unquote(lexeme: str) -> str:
    body = lexeme[1:-1]
    return _ESCAPE.sub(r"\1", body) if "\\" in body else body


def _is_ident(lexeme: str) -> bool:
    return lexeme[:1].isalpha() or lexeme[:1] == "_"


def _is_string(lexeme: str) -> bool:
    return lexeme[:1] == '"'


def _describe(lexeme: str) -> str:
    if not lexeme:
        return "end of input"
    if lexeme[0] == '"':
        return f'string "{_cut(_unquote(lexeme))}"'
    return f"'{lexeme}'"


# --------------------------------------------------------------------------
# Parser

class _Parser:
    """The lexemes of one text and the index `i` of the next one to read.

    The kind of a lexeme follows from its first character: '' is the end of
    the input, '"' starts a string (quotes and escapes kept until read), a
    digit a natural number, a letter or '_' an identifier, and punctuation
    is the lexeme itself.  Line and column are computed only for an error.
    """

    def __init__(self, text: str, filename: str):
        self.text, self.filename = text, filename
        self.lexer = _lexer("" if text.isascii() else _odd_numerics(text))
        self.start = _LEADING.match(text).end()
        self.lex: list[str] = self.lexer.findall(text, self.start)
        self.i = 0
        first = self.lex.index("")
        if first < len(self.lex) - 1:  # the first lexical error beats any grammar error
            raise self._lexical_error(first)

    def _offset(self, k: int) -> int:
        """Where lexeme k starts.  Columns skip comment characters, so the
        end of input after a final comment sits at the comment's '#'."""
        text, gap = self.text, 0  # gap: where the text skipped before lexeme k begins
        for n, m in enumerate(self.lexer.finditer(text, self.start)):
            if n == k:
                break
            gap = m.end(1)
        at = m.start()
        if at == len(text):
            comment = text.find("#", max(gap, text.rfind("\n") + 1))
            return comment if comment >= 0 else at
        return at

    def _span_at(self, at: int) -> SourceSpan:
        line_start = self.text.rfind("\n", 0, at) + 1
        return SourceSpan(self.filename, self.text.count("\n", 0, at) + 1, at - line_start + 1)

    def span(self, k: int) -> SourceSpan:
        return self._span_at(self._offset(k))

    def _lexical_error(self, k: int) -> ParseError:
        text = self.text
        at = self._offset(k)
        if text[at] == ".":
            return ParseError(self._span_at(at), "'..'", "'.'")
        if text[at] != '"':
            return ParseError(self._span_at(at), "a token", repr(text[at]))
        stop = _STRING_PREFIX.match(text, at + 1).end()
        if stop == len(text) or text[stop] == "\n":
            return ParseError(self._span_at(at), "a closing '\"'", "end of line")
        return ParseError(self._span_at(stop), "an escape ('\\\"' or '\\\\')",
                          repr(text[stop:stop + 2]))

    def fail(self, expected: str) -> ParseError:
        return ParseError(self.span(self.i), expected, _describe(self.lex[self.i]))

    def skip(self, lexeme: str) -> bool:
        """Read `lexeme` if it comes next."""
        if self.lex[self.i] == lexeme:
            self.i += 1
            return True
        return False

    def take(self, lexeme: str, expected: str | None = None) -> None:
        """Read `lexeme`: a punctuation mark, a keyword or the end ('')."""
        if not self.skip(lexeme):
            raise self.fail(expected or f"'{lexeme}'")

    def ident(self, what: str) -> str:
        lexeme = self.lex[self.i]
        if not _is_ident(lexeme):
            raise self.fail(what)
        self.i += 1
        return lexeme

    def string(self, what: str) -> str:
        lexeme = self.lex[self.i]
        if not _is_string(lexeme):
            raise self.fail(what)
        self.i += 1
        return _unquote(lexeme)

    def nonempty(self, what: str, empty: str) -> str:
        if self.lex[self.i] == '""':
            raise ParseError(self.span(self.i), empty, '\'""\'')
        return self.string(what)

    def nat(self, what: str = "a natural number") -> int:
        lexeme = self.lex[self.i]
        if not lexeme[:1].isdigit():
            raise self.fail(what)
        try:
            value = int(lexeme)
        except ValueError:  # too many digits to convert, or a digit int() does not read ('²')
            raise ParseError(self.span(self.i), what, f"a {len(lexeme)}-digit number") from None
        self.i += 1
        return value

    def items(self, read: Callable[[str], str], what: str) -> tuple[str, ...]:
        """`[x, ...]`, each x given by `read(what)`; the list may be empty
        and end with `,`."""
        self.take("[")
        items: list[str] = []
        while self.lex[self.i] != "]":
            items.append(read(what))
            if not self.skip(","):
                break
        self.take("]")
        return tuple(items)

    # shared value productions ---------------------------------------------

    def parse_upper(self, start: int, lo: int) -> float | int:
        """The `hi` or `*` of `lo..(hi|*)`, once `lo..` is read from lexeme `start`."""
        if self.skip("*"):
            return INF
        hi = self.nat("an upper bound or '*'")
        if lo > hi:
            raise ParseError(self.span(start), "interval lower bound ≤ upper bound",
                             f"'{lo}..{hi}'")
        return hi

    def parse_interval(self) -> Interval:
        start = self.i
        lo = self.nat("an interval")
        self.take("..")
        return Interval(lo, self.parse_upper(start, lo))

    def parse_nameset(self) -> NameSet:
        if self.skip("any"):
            return NameSet.everything()
        literals: set[str] = set()
        prefixes: set[str] = set()
        while True:
            start = self.i
            value = self.string("a quoted name or 'any'")
            if self.skip("*"):
                if not value:
                    raise ParseError(self.span(start), "a non-empty prefix", '\'""*\'')
                prefixes.add(value)
            else:
                literals.add(value)
            if not self.skip("|"):
                return NameSet(frozenset(literals), frozenset(prefixes))

    def parse_originset(self) -> OriginSet:
        if self.skip("any"):
            return OriginSet.everything()
        literals = {self.string("a quoted origin or 'any'")}
        while self.skip("|"):
            literals.add(self.string("a quoted origin or 'any'"))
        return OriginSet(frozenset(literals))

    def parse_verset(self) -> VersionSet:
        if self.skip("any"):
            return VersionSet.everything()
        start = self.i
        first = self.nat("a version, an interval, or 'any'")
        if self.skip(".."):
            return VersionSet.between(first, self.parse_upper(start, first))
        values = {first}
        while self.skip("|"):
            values.add(self.nat())
        return VersionSet.of(*values)


# --------------------------------------------------------------------------
# Spec files

class _RawNode:
    """A spec node as read, before its identifier families are resolved."""

    __slots__ = ("ctype", "identity", "total", "contains", "depends")

    def __init__(self, ctype: str) -> None:
        self.ctype = ctype
        self.identity: dict[str, object] = {}  # the constrained AbstractComponentId fields
        self.total: Interval | None = None
        self.contains: dict[str, Interval] = {}  # by child type
        self.depends: dict[str, dict[str, object]] = {}  # constrained fields by dependency type


# field word -> (AbstractComponentId field, value production)
_IDENTITY_FIELDS = {
    "name": ("names", _Parser.parse_nameset),
    "origin": ("origins", _Parser.parse_originset),
    "version": ("versions", _Parser.parse_verset),
}


def _parse_dep_constraints(p: _Parser) -> dict[str, object]:
    fields: dict[str, object] = {}
    while p.lex[p.i] != ")":
        if p.lex[p.i] not in _IDENTITY_FIELDS:
            raise p.fail("a name, origin, or version constraint")
        attr, production = _IDENTITY_FIELDS[p.lex[p.i]]
        if attr in fields:
            raise p.fail("each constraint at most once")
        p.i += 1
        p.take(":")
        fields[attr] = production(p)
        p.take(";")
    return fields


def _parse_node(p: _Parser) -> _RawNode:
    p.take("node")
    node = _RawNode(p.ident("a node type"))
    p.take("{")
    seen: set[str] = set()
    while p.lex[p.i] != "}":
        field = p.lex[p.i]
        if not _is_ident(field):
            raise p.fail("a field or '}'")
        if field in seen:
            raise p.fail("each field at most once")
        if field in _IDENTITY_FIELDS or field == "total":
            p.i += 1
            p.take(":")
            if field == "total":
                node.total = p.parse_interval()
            else:
                attr, production = _IDENTITY_FIELDS[field]
                node.identity[attr] = production(p)
            p.take(";")
        elif field == "contains":
            p.i += 1
            p.take("{")
            while True:
                start = p.i
                t = p.ident("a child type")
                if t in node.contains:
                    raise ParseError(p.span(start), "distinct child types", _describe(t))
                p.take(":")
                node.contains[t] = p.parse_interval()
                if not p.skip(","):
                    break
            p.take("}")
        elif field == "depends":
            p.i += 1
            p.take("{")
            while True:
                start = p.i
                t = p.ident("a dependency type")
                if t in node.depends:
                    raise ParseError(p.span(start), "distinct dependency types", _describe(t))
                node.depends[t] = {}
                if p.skip("("):
                    node.depends[t] = _parse_dep_constraints(p)
                    p.take(")")
                if not p.skip(","):
                    break
            p.take("}")
        else:
            raise p.fail(
                "'name', 'origin', 'version', 'total', 'contains', or 'depends'")
        seen.add(field)
    p.take("}")
    return node


def _build_spec_nodes(raw: list[_RawNode]) -> list[ComponentSpec]:
    own = [AbstractComponentId(node.ctype, **node.identity) for node in raw]
    acis: dict[str, AbstractComponentId] = {}
    for aci in own:
        acis.setdefault(aci.ctype, aci)
    built: list[ComponentSpec] = []
    for node, aci in zip(raw, own):
        slots = [ChildSlot(acis.get(t) or AbstractComponentId(t), count)
                 for t, count in node.contains.items()]
        deps = [(acis.get(t) or AbstractComponentId(t)).replace(**constraints)
                for t, constraints in node.depends.items()]
        total = node.total
        if total is None:
            total = sum_intervals(node.contains.values())
        built.append(ComponentSpec(
            aci=aci, dependencies=frozenset(deps), children=frozenset(slots), total=total))
    return built


def check_spec_text(text: str, filename: str = "<spec>") -> tuple[SpecSet | None, ValidationReport]:
    """Parse and validate; return (spec-or-None, full report).

    The spec is None exactly when the report has errors.  Raises only
    ParseError.
    """
    p = _Parser(text, filename)
    p.take("spec")
    p.ident("a spec name")
    p.take("{")
    raw: list[_RawNode] = []
    while p.lex[p.i] == "node":
        raw.append(_parse_node(p))
    if not raw:
        raise p.fail("'node'")
    p.take("root")
    declared = p.ident("the root type")
    p.take(";")
    p.take("}")
    p.take("", "end of input")

    nodes = _build_spec_nodes(raw)
    # A SpecSet keeps its report, so compliant does not validate a parsed
    # spec again; nodes sharing a ctype cannot form one and stay a list.
    ctypes = {n.ctype for n in nodes}
    checked = SpecSet(frozenset(nodes)) if len(ctypes) == len(nodes) else nodes
    violations = list(validate_spec(checked).violations)
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

def _component(p: _Parser) -> tuple:
    """`component h : T ("name", "origin", v) (contains [h, ...] | files ["f", ...])
    (depends [h, ...])? ;`.  Returns the index of `component`, the handle,
    the id's fields, and the children's handles, the files and the
    dependencies' handles, each a tuple, or '' where the list is absent."""
    at = p.i
    p.take("component")
    handle = p.ident("a component handle")
    p.take(":")
    ctype = p.ident("a component type")
    p.take("(")
    name = p.nonempty("a component name", "a non-empty name")
    p.take(",")
    origin = p.nonempty("an origin", "a non-empty origin")
    p.take(",")
    version = p.nat("a version")
    p.take(")")
    children = files = ""
    if p.skip("contains"):
        children = p.items(p.ident, "a component handle")
    elif p.skip("files"):
        files = p.items(p.string, "a file name")
    else:
        raise p.fail("'contains' or 'files'")
    depends = p.items(p.ident, "a component handle") if p.skip("depends") else ""
    p.take(";")
    return at, handle, ctype, name, origin, version, children, files, depends


def _assemble(columns: Sequence, words: Callable = tuple, strings: Callable = tuple,
              p: _Parser | None = None, at: Sequence[int] = ()) -> tuple[Configuration | None, ValidationReport]:
    """Build and validate a configuration from its columns, one item per
    component: handles, ctypes, names, origins, versions, and the lists of
    children (handles), files and dependencies (handles), '' where absent.
    `words` and `strings` split a list into its items; each distinct list
    is split and resolved once, so equal lists share one set.  Overlapping
    contains/depends lists raise a ParseError at lexeme `at[k]` with `p`,
    else `Component`'s ValueError."""
    handles, *fields, children, files, depends = columns
    ids = ComponentId._columns(*fields)
    by_handle = dict(zip(handles, ids))

    def resolve(handle_list: object) -> frozenset[ComponentId]:
        # Unknown handles become placeholder ids so validation can report
        # the closure violation instead of the parser guessing.
        items = words(handle_list)
        found = frozenset(map(by_handle.get, items))
        if None in found:
            found = frozenset([by_handle.get(h) or ComponentId("?", h, "?", 0) for h in items])
        return found or _EMPTY

    def shared(build: Callable, lists: Sequence) -> list:
        table = {key: build(key) for key in set(lists)}
        return list(map(table.__getitem__, lists))

    kids = shared(lambda key: None if key == "" else resolve(key), children)
    elements = shared(lambda key: None if key == "" else frozenset(strings(key)) or _EMPTY, files)
    deps = shared(resolve, depends)
    for k in compress(range(len(ids)), kids):  # the composites with children
        if not deps[k].isdisjoint(kids[k]):
            try:
                Component(ids[k], deps[k], children=kids[k])  # raises the overlap
            except ValueError as exc:
                if p is None:
                    raise
                raise ParseError(p.span(at[k]), "disjoint contains/depends lists", str(exc)) from exc

    config = Configuration(Component._columns(ids, deps, elements, kids))
    report = validate_configuration(config)
    if not report.ok:
        return None, report
    return config, report


@functools.cache
def _productions() -> tuple[re.Pattern[str], ...]:
    """Compiled on the first configuration read: the `config NAME {` header,
    a `component` production (all of it, then handle, type, name and origin
    unquoted, version, and the bracketed children, files and dependencies in
    groups 1-9), a string (its content in group 1) and a word (a handle in
    such a list).  On ASCII text they match the lexemes the lexeme parser
    reads: blanks are the only separators, so a comment stops a match, and
    `\\b` ends a keyword."""
    s = r"[ \t\r\n]*"
    ident = r"[A-Za-z_]\w*"
    string = f'"{_STRING_BODY}"'
    # a list, brackets included: each item followed by ',' or by the closing ']'
    idents = rf"(\[{s}(?:{ident}{s}(?:,{s}|(?=\])))*\])"
    strings = rf"(\[{s}(?:{string}{s}(?:,{s}|(?=\])))*\])"
    return (re.compile(rf"{s}config\b{s}{ident}{s}\{{{s}"),
            re.compile(rf"(component\b{s}({ident}){s}:{s}({ident}){s}\({s}\"({_STRING_BODY})\"{s},{s}"
                       rf"\"({_STRING_BODY})\"{s},{s}([0-9]+){s}\){s}"
                       rf"(?:contains{s}{idents}|files{s}{strings}){s}"
                       rf"(?:depends{s}{idents}{s})?;{s})"),
            re.compile(f'"({_STRING_BODY})"'), re.compile(r"\w+"))


def _read_productions(text: str) -> tuple | None:
    """The columns of a configuration text and the splitters of its lists,
    for `_assemble`, read by one `findall` between the header and the final
    `}`; None for a text that is not ASCII, is not covered by the matches,
    repeats a handle or has a `""` name or origin.  A version int() does not
    convert raises ValueError."""
    if not text.isascii():
        return None
    header, production, string, word = _productions()
    m = header.match(text)
    end = len(text.rstrip(" \t\r\n")) - 1
    if m is None or text[end:end + 1] != "}":
        return None
    rows = production.findall(text, m.end(), end)
    if not rows:
        return None
    matched, handles, ctypes, names, origins, versions, children, files, depends = zip(*rows)
    # findall's matches do not overlap: they cover the body when their lengths add up to it
    if (sum(map(len, matched)) != end - m.end() or "" in names or "" in origins
            or len(set(handles)) < len(handles)):
        return None
    strings = string.findall
    if "\\" in text:
        unescape = functools.partial(_ESCAPE.sub, r"\1")
        names, origins = map(unescape, names), map(unescape, origins)
        strings = lambda f: map(unescape, string.findall(f))
    versions = list(map(int, versions))
    return (handles, ctypes, names, origins, versions, children, files, depends), word.findall, strings


def check_config_text(text: str, filename: str = "<config>") -> tuple[Configuration | None, ValidationReport]:
    """Parse and validate; return (configuration-or-None, full report).

    The production reader reads the usual texts; the lexeme parser reads
    the texts it declines or fails on, and reports every error."""
    try:
        read = _read_productions(text)
        if read is not None:
            return _assemble(*read)
    except ValueError:  # a version too long for int(), or overlapping contains/depends lists
        pass
    p = _Parser(text, filename)
    p.take("config")
    p.ident("a configuration name")
    p.take("{")
    handles: set[str] = set()
    rows = []
    while p.lex[p.i] == "component":
        rows.append(_component(p))
        at, handle = rows[-1][:2]
        if handle in handles:
            raise ParseError(p.span(at), "an unused component handle", f"'{handle}'")
        handles.add(handle)
    if not rows:
        raise p.fail("'component'")
    p.take("}")
    p.take("", "end of input")
    at, *columns = zip(*rows)
    return _assemble(columns, p=p, at=at)


def parse_config(text: str, filename: str = "<config>") -> Configuration:
    """Parse a `.cg` file into a validated configuration."""
    config, report = check_config_text(text, filename)
    if config is None:
        raise ConfigInvalid(report)
    return config


def kind_of(text: str, filename: str = "<input>") -> str:
    """'spec' or 'config', judged by the leading keyword.  Only that lexeme
    is read; the parse that follows reports any later lexical error."""
    first = _lexer("").match(text, _LEADING.match(text).end())
    if first and first.group(1) in ("spec", "config"):
        return first.group(1)
    raise _Parser(text, filename).fail("'spec' or 'config'")


# --------------------------------------------------------------------------
# Canonical printing

def _quote(text: str) -> str:
    if "\n" in text:  # a string lexeme ends at the line
        raise ValueError(f"the string {_brief(text)} has no written form: it holds a line break")
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _ctype(ctype: str) -> str:
    """A component type as written: one identifier (`\\w` is `isalnum` or '_')."""
    if _is_ident(ctype) and ctype.replace("_", "a").isalnum():
        return ctype
    raise ValueError(f"the component type {_brief(ctype)} has no written form: it is not an identifier")


def _sanitize(name: str) -> str:
    out = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    if not _is_ident(out):
        out = "_" + out
    while out in _RESERVED:
        out += "_"
    return out


def _assign_handles(config: Configuration) -> tuple[Component, list[Component], dict[ComponentId, str]]:
    """A valid configuration's root, its components sorted by identifier and a
    handle for each, derived from its name; raises NotAConfiguration otherwise."""
    config = _valid(config)
    comps = sorted(config, key=lambda c: c.id.sort_key)
    used: set[str] = set()
    handles: dict[ComponentId, str] = {}
    for c in comps:
        base = _sanitize(c.id.name)
        candidate, n = base, 2
        while candidate in used:
            candidate = f"{base}_{n}"
            n += 1
        used.add(candidate)
        handles[c.id] = candidate
    return config._root, comps, handles


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
        return _ctype(dep.ctype)
    return f"{_ctype(dep.ctype)}({' '.join(fields)})"


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
        lines.append(f"  node {_ctype(node.ctype)} {{")
        if not node.aci.names.is_any:
            lines.append(f"    name: {_fmt_nameset(node.aci.names)};")
        if not node.aci.origins.is_any:
            lines.append(f"    origin: {_fmt_originset(node.aci.origins)};")
        if not node.aci.versions.is_any:
            lines.append(f"    version: {_fmt_verset(node.aci.versions)};")
        lines.append(f"    total: {node.total};")
        if node.children:
            slots = sorted(node.children, key=lambda s: s.aci.ctype)
            inner = ", ".join(f"{_ctype(s.aci.ctype)}: {s.count}" for s in slots)
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
    lines.append(f"  root {_ctype(root)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def print_config(config: Configuration) -> str:
    """Canonical `.cg` text of a valid configuration: components sorted by
    identifier, handles derived from names, named after the root."""
    root, comps, handles = _assign_handles(config)
    lines = [f"config {_sanitize(root.id.name)} {{"]
    for c in comps:
        head = (f"  component {handles[c.id]} : {_ctype(c.id.ctype)} "
                f"({_quote(c.id.name)}, {_quote(c.id.origin)}, {c.id.version})")
        if c.is_leaf:
            assert c.elements is not None
            payload = f"files [{', '.join(_quote(e) for e in sorted(c.elements))}]"
        else:
            kids = sorted(c.child_ids, key=lambda i: i.sort_key)
            payload = f"contains [{', '.join(handles[i] for i in kids)}]"
        dep_part = ""
        if c.dependencies:
            deps = sorted(c.dependencies, key=lambda i: i.sort_key)
            dep_part = f" depends [{', '.join(handles[i] for i in deps)}]"
        lines.append(f"{head} {payload}{dep_part};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# DOT export

_DOT_KEYWORDS = frozenset({"node", "edge", "graph", "digraph", "subgraph", "strict"})


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _dot_id(handle: str) -> str:
    """A handle as a DOT id: DOT's keywords, in any case, are written quoted."""
    return f'"{handle}"' if handle.lower() in _DOT_KEYWORDS else handle


def _config_to_dot(config: Configuration) -> str:
    _, comps, handles = _assign_handles(config)
    ids = {i: _dot_id(h) for i, h in handles.items()}
    lines = ["digraph config {", "  node [shape=box];"]
    for c in comps:
        label = "\\n".join((_dot_escape(f"{c.id.name} : {c.id.ctype}"),
                            _dot_escape(f"({c.id.origin}, v{c.id.version})")))
        lines.append(f'  {ids[c.id]} [label="{label}"];')
    for c in comps:
        for child in sorted(c.child_ids, key=lambda i: i.sort_key):
            lines.append(f"  {ids[c.id]} -> {ids[child]};")
    for c in comps:
        for dep in sorted(c.dependencies, key=lambda i: i.sort_key):
            lines.append(f"  {ids[c.id]} -> {ids[dep]} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _plain_nameset(ns: NameSet) -> str:
    parts = sorted(ns.literals) + [p + "*" for p in sorted(ns.prefixes)]
    return ", ".join(parts)


def _spec_to_dot(spec: SpecSet) -> str:
    nodes = spec.sorted_specs()
    ids = {node.ctype: _dot_id(_sanitize(node.ctype)) for node in nodes}
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
            target = ids.get(slot.aci.ctype) or _dot_id(_sanitize(slot.aci.ctype))
            lines.append(f'  {ids[node.ctype]} -> {target} [label="{slot.count}"];')
    for node in nodes:
        for dep in sorted(node.dependencies, key=lambda d: d.ctype):
            target = ids.get(dep.ctype) or _dot_id(_sanitize(dep.ctype))
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
