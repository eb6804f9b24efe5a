"""The one-pattern lexer and the index-walking parser against what they replaced.

`reference_tokenize` below is the character-by-character tokenizer that
`textfmt` used before its master pattern.  On every input of a seeded
corpus, the lexemes `textfmt._Parser` reads must have the reference's token
kinds, values, lines and columns, and a text the reference rejects must
raise the same `ParseError` (span, expected, found).

The corpus is also parsed whole with `parse_spec` and `parse_config`.  Their
outcomes (the value printed canonically, the validation conditions, or the
`ParseError` with its span, expected and found) were recorded with the
token-object parser that the index-walking one replaced, and are kept here
as one digest per block of `BLOCK` inputs.  To compare a block by hand, run

    PYTHONPATH=<checkout>/src python tests/test_lexer_differential.py --dump N

in both checkouts and diff the output; without `--dump` it prints the
digests.

`check_config_text` first offers a text to the production reader, which
reads one `component` production per regex match.  Every corpus text, and
every text of a second, seeded set of layouts, must give the same outcome
with that reader as with the lexeme parser alone.
"""

from __future__ import annotations

import hashlib
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from confkit import (
    Component,
    ComponentId,
    ConfigInvalid,
    Configuration,
    ParseError,
    SourceSpan,
    SpecInvalid,
    kind_of,
    parse_config,
    parse_spec,
    print_config,
    print_spec,
)
from confkit import textfmt

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# --------------------------------------------------------------------------
# The reference: the tokenizer the master pattern replaced, unchanged


_PUNCT = {"{", "}", "[", "]", "(", ")", ":", ";", ",", "|", "*"}


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # IDENT | NAT | STRING | EOF | one of the punctuation strings
    value: str
    line: int
    column: int


def reference_tokenize(text: str, filename: str) -> list[_Token]:
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
# The corpus

# acceptance 9's fuzz alphabet, plus numeric characters that are digits but
# not decimal ('²', '①'), numeric but not digits ('½'), a decimal digit
# outside ASCII ('٣'), and letters of the two grammars
ALPHABET = ('abcxyz(){}[];:.,*"\\#\n\t 0123456789'
            + chr(0) + chr(7) + chr(127) + chr(233) + chr(0x2603))
EXTRA = "²½٣①_" + "specnodrotfigmp"
PINNED = [
    "",
    "config x { # comment",
    "spec s { # comment\n",
    "# only a comment",
    "spec\ts\t{\tnode\tT\t{\ttotal:\t0..0;\t}\troot\tT;\t}",
    'spec s { node T { name: "\\q"; total: 0..0; } root T; }',
    'config c { component a : T ("a\\"b\\\\", "o", 1) files ["x\\"y"]; }',
    'config c { component a : T ("a\\',
    "spec s { node T { total: 0 . 0; } root T; }",
    "spec s { node T { total: 0...0; } root T; }",
    'config c { component a : T ("abc, "o", 1) files []; }',
    "config c { component a : T (\"a\", \"o\", 1abc) files []; }",
    "config c { component 1abc : T (\"a\", \"o\", 1) files []; }",
    'config c { component é : Té ("é", "o", 1) files ["é"]; }',
    'config c { component a² : T ("a", "o", 1²) files []; }',
    'config c { component a : T ("a", "o", ²) files []; }',
    'config c { component a : T ("a", "o", ½) files []; }',
    'config c { component a½ : T ("a", "o", 1½) files []; }',
    'config c { component a : T ("a", "o", ٣) files []; }',
    'config c { component a : T ("a", "o", 1٣) files []; }',
    'config c { component ① : T ("a", "o", ①) files []; }',
    'config c { component a : T ("a", "o", 1) files []; } ☃',
    'config c { component a : T ("a", "o", 1) files ["\x00"]; }\x00',
    "spec s { node T { version: ²..3; total: 0..0; } root T; }",
    'config c {\r\n  component a : T ("a", "o", 1) files [];\r\n}\r\n',
]


def _mutate(rnd: random.Random, text: str) -> str:
    if not text:
        return text
    op = rnd.randrange(6)
    i = rnd.randrange(len(text))
    if op == 0:
        return text[:i]
    if op == 1:
        return text[:i] + text[min(len(text), i + rnd.randint(1, 12)):]
    if op == 2:
        return text[:i] + rnd.choice('"{}[];:.,*x0\\\n\t#\x00' + EXTRA + chr(233)) + text[i:]
    if op == 3:
        return text[:i] + chr(ord(text[i]) ^ (1 << rnd.randrange(7))) + text[i + 1:]
    if op == 4:
        return text[:i] + " # note" + text[i:]
    j = rnd.randrange(len(text))
    i, j = min(i, j), max(i, j)
    return text[:i] + text[i:j] * 2 + text[j:]


SCALE_SPEC = """spec Scale {
  node Bin { name: "bin"*; origin: "acme"; total: 0..*; contains { Leaf: 0..6 } }
  node Leaf { name: "l"*; origin: "acme"; version: 1..3; total: 0..0; depends { Lib } }
  node Lib { name: "lib"; origin: "acme"; total: 0..0; }
  node Root { name: "root"; origin: "acme"; total: 2..*; contains { Bin: 1..*, Lib: 1..1 } }
  root Root;
}
"""


def _scale_config(rnd: random.Random) -> str:
    """A root -> bins -> leaves configuration of 8 to 72 components, as
    the scale workload shapes them, in canonical text."""
    lib = ComponentId("Lib", "lib", "acme", 2)
    comps = [Component.leaf(lib)]
    bins = []
    for b in range(rnd.randint(3, 10)):
        leaves = [ComponentId("Leaf", f"l{b}_{k}", "acme", rnd.randint(1, 3))
                  for k in range(rnd.randint(1, 6))]
        comps += [Component.leaf(leaf, [f"f{k}"] if k % 3 else [],
                                 [lib] if rnd.random() < 0.5 else [])
                  for k, leaf in enumerate(leaves)]
        bins.append(ComponentId("Bin", f"bin{b}", "acme", rnd.randint(1, 3)))
        comps.append(Component.composite(bins[-1], leaves))
    comps.append(Component.composite(ComponentId("Root", "root", "acme", 3), bins + [lib]))
    return print_config(Configuration(tuple(comps)))


def corpus() -> list[tuple[str, str]]:
    """(section, text) pairs, the same on every run."""
    rnd = random.Random(0x1E7E5)
    out = [("pinned", text) for text in PINNED]
    for n in range(4000):
        alphabet = ALPHABET if n % 2 else ALPHABET + EXTRA
        text = "".join(rnd.choice(alphabet) for _ in range(rnd.randint(0, 40)))
        out.append(("alphabet", (("spec s { ", "config c { ", "")[n % 3]) + text))
    fixtures = [FIXTURES.joinpath(name).read_text()
                for name in ("psycho.csg", "psy1.cg", "psy2.cg")]
    for _ in range(2000):
        text = rnd.choice(fixtures)
        for _ in range(rnd.randint(1, 3)):
            text = _mutate(rnd, text)
        out.append(("fixtures", text))
    for n in range(300):
        text = SCALE_SPEC if n % 5 == 0 else _scale_config(rnd)
        if n % 3:
            text = _mutate(rnd, text)
        out.append(("scale", text))
    return out


LAYOUT_HANDLES = ("a", "b", "c", "top", "x1", "_y", "config", "component",
                  "contains", "files", "depends")
LAYOUT_STRINGS = ("a", "lib.so", "x y", 'q"uote', "back\\slash", '\\"', "%\t\r")


def _layout(rnd: random.Random) -> str:
    """A configuration text of 1-5 components in a seeded ASCII layout:
    every blank the lexer skips, trailing commas, empty lists, keywords as
    handles and escaped strings.  Now and then a keyword is glued to the
    handle after it, a name or origin is `""`, a handle repeats, a handle
    is both contained and depended on, a version has 4,301 digits, or a
    `\\f`, `\\v` or `#` comment appears between two lexemes."""
    def gap() -> str:
        return rnd.choice(("", "", " ", "  ", "\t", "\n", "\r\n", " \t\r\n "))

    def blank() -> str:  # between two words; sometimes none, gluing them
        return "" if rnd.random() < 0.03 else rnd.choice((" ", "\t", "\n", "\r\n", " \t "))

    def string(values=LAYOUT_STRINGS) -> str:
        value = "" if rnd.random() < 0.03 else rnd.choice(values)
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'

    def items(read, pool) -> str:
        chosen = [read(pool) for _ in range(rnd.choice((0, 0, 1, 2, 3)))]
        inner = f"{gap()},{gap()}".join(chosen)
        if chosen and rnd.random() < 0.3:
            inner += gap() + ","
        return f"[{gap()}{inner}{gap()}]"

    count = rnd.randint(1, 5)
    handles = rnd.sample(LAYOUT_HANDLES, count)
    if count > 1 and rnd.random() < 0.05:
        handles[-1] = handles[0]
    parts = [gap(), "config", blank(), rnd.choice(("c", "scale", "files")), gap(), "{"]
    for k, handle in enumerate(handles):
        others = handles[k + 1:] or ["b"]
        version = "1" + "0" * 4300 if rnd.random() < 0.02 else str(rnd.choice((0, 1, 7, 42, 100)))
        if rnd.random() < 0.5 and k + 1 < count:
            payload = "contains" + gap() + items(rnd.choice, others)
        else:
            payload = "files" + gap() + items(lambda _: string(), None)
        depends = ""
        if rnd.random() < 0.4:
            depends = gap() + "depends" + gap() + items(rnd.choice, handles)
        parts += [gap(), "component", blank(), handle, gap(), ":", gap(),
                  rnd.choice(("T", "Lib", "Bin", "contains")), gap(), "(", gap(), string(),
                  gap(), ",", gap(), string(("o", "acme")), gap(), ",", gap(), version,
                  gap(), ")", gap(), payload, depends, gap(), ";"]
    parts += [gap(), "}", gap()]
    if rnd.random() < 0.1:
        k = rnd.randrange(len(parts) + 1)
        parts.insert(k, rnd.choice(("\f", "\v", "# note\n")))
    return "".join(parts)


LAYOUTS = [_layout(random.Random(f"layout:{n}")) for n in range(1500)]


# --------------------------------------------------------------------------
# Lexemes against reference tokens


def _kind(lexeme: str) -> str:
    if not lexeme:
        return "EOF"
    if lexeme[0] == '"':
        return "STRING"
    if lexeme[0].isdigit():
        return "NAT"
    if lexeme[0].isalpha() or lexeme[0] == "_":
        return "IDENT"
    return lexeme


def _checked_positions(count: int) -> list[int]:
    """Every index of a short stream; a spread sample of a long one, whose
    positions each cost a rescan."""
    if count <= 80:
        return list(range(count))
    return sorted({*range(0, count, count // 24), count - 2, count - 1})


def _compare_lexemes(text: str) -> None:
    try:
        expected = reference_tokenize(text, "<t>")
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            textfmt._Parser(text, "<t>")
        assert (got.value.span, got.value.expected, got.value.found) == \
            (exc.span, exc.expected, exc.found), repr(text)
        return
    p = textfmt._Parser(text, "<t>")
    lexemes = p.lex[:p.lex.index("") + 1]
    kinds = [_kind(x) for x in lexemes]
    values = [textfmt._unquote(x) if kind == "STRING" else x for x, kind in zip(lexemes, kinds)]
    assert kinds == [t.kind for t in expected], repr(text)
    assert values == [t.value for t in expected], repr(text)
    for k in _checked_positions(len(lexemes)):
        span = p.span(k)
        assert (span.line, span.column) == (expected[k].line, expected[k].column), (repr(text), k)


CORPUS = corpus()


@pytest.mark.parametrize("section", ["pinned", "alphabet", "fixtures", "scale"])
def test_lexemes_match_the_reference_tokens(section):
    for name, text in CORPUS:
        if name == section:
            _compare_lexemes(text)


# --------------------------------------------------------------------------
# Whole parses against the outcomes recorded before the rewrite

BLOCK = 250
# sha256 of each block's outcomes, first 16 hex digits
RECORDED = [
    "b2882da3a1662b07",
    "30e56ba35fdb897b",
    "d991a9f42418e15b",
    "1efa6d23321ef0da",
    "d76319969eaae9d1",
    "23a13b66bd124fa3",
    "ad3231263b56da43",
    "f29d7c64eb11e0a4",
    "daebfe996bdf9975",
    "6bd5ab409fe1dee4",
    "495ffa1902f50c45",
    "d0cdcef77d4095a0",
    "e68489953a972d12",
    "5a13e6d8db356a38",
    "7b617b35922e7486",
    "37026a7d215cfcf8",
    "d0ce7fb2f92c1c23",
    "9302a8c04c18cc25",
    "e332177b572e9ab5",
    "17bfb7419a454fec",
    "571ba430573a57d7",
    "8e10926169e40209",
    "c568ca6b740b1eaa",
    "5340ec8747b14382",
    "38aa5e604fddfb53",
    "19b40b95a381fea1",
]


def outcome(parse, text: str) -> str:
    try:
        value = parse(text)
    except ParseError as exc:
        return (f"ParseError {exc.span.file}:{exc.span.line}:{exc.span.column} "
                f"{exc.expected!r} {exc.found!r} {exc}")
    except (SpecInvalid, ConfigInvalid) as exc:
        return f"{type(exc).__name__} {[v.condition for v in exc.report.violations]}"
    if isinstance(value, Configuration):
        return "config " + print_config(value)
    return "spec " + print_spec(value)


def block_outcomes(b: int) -> list[str]:
    return [outcome(parse, text)
            for _, text in CORPUS[b * BLOCK:(b + 1) * BLOCK]
            for parse in (parse_spec, parse_config)]


def block_digest(b: int) -> str:
    return hashlib.sha256("\n".join(block_outcomes(b)).encode()).hexdigest()[:16]


def test_corpus_has_the_recorded_size():
    assert len(RECORDED) == -(-len(CORPUS) // BLOCK)


@pytest.mark.parametrize("b", range(len(RECORDED)))
def test_parse_outcomes_match_the_recorded_ones(b):
    assert block_digest(b) == RECORDED[b], (
        f"outcomes of block {b} changed; compare `--dump {b}` across checkouts")


# --------------------------------------------------------------------------
# The production reader against the lexeme parser


def config_outcome(text: str) -> tuple:
    """What `check_config_text` gives: the components in text order and the
    report, or the ParseError's span, expected, found and message."""
    try:
        config, report = textfmt.check_config_text(text, "<t>")
    except ParseError as exc:
        return "ParseError", exc.span, exc.expected, exc.found, str(exc)
    return None if config is None else config.components, report


def lexeme_outcome(text: str) -> tuple:
    """`config_outcome` with the production reader declining every text."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(textfmt, "_read_productions", lambda text: None)
        return config_outcome(text)


@pytest.mark.parametrize("section", ["pinned", "alphabet", "fixtures", "scale", "layouts"])
def test_both_config_readers_agree(section):
    texts = LAYOUTS if section == "layouts" else [text for name, text in CORPUS if name == section]
    for text in texts:
        assert config_outcome(text) == lexeme_outcome(text), repr(text)


def read_by_productions(text: str) -> bool:
    try:
        return textfmt._read_productions(text) is not None
    except ValueError:  # a "" name or origin, or a version int() does not convert
        return False


def test_the_layouts_reach_both_readers():
    read = [read_by_productions(text) for text in LAYOUTS]
    valid = [lexeme_outcome(text)[0] not in (None, "ParseError") for text in LAYOUTS]
    assert sum(read) > len(LAYOUTS) // 3
    assert sum(valid) > len(LAYOUTS) // 10
    assert sum(not r for r in read) > len(LAYOUTS) // 10


def test_canonical_and_scale_texts_take_the_production_reader():
    rnd = random.Random(0x5CA1E)
    texts = [FIXTURES.joinpath(name).read_text() for name in ("psy1.cg", "psy2.cg")]
    texts += [print_config(parse_config(text)) for text in texts]
    texts += [_scale_config(rnd) for _ in range(20)]
    texts.append(print_config(Configuration((Component.leaf(
        ComponentId("T", 'sa"y \\ hi', "o", 1), ['we"ird\\file', "", "x, y"]),))))
    for text in texts:
        assert read_by_productions(text), text
        assert config_outcome(text)[0] is not None


# What a scale-shaped text gets between two productions or inside one; the
# reader declines or fails on most of them, the lexeme parser decides.
EDITS = ("comment", "formfeed", "stray", "duplicate-handle", "empty-name", "empty-origin",
         "huge-version", "contains-empty", "files-empty", "after-brace")


def _edited(rnd: random.Random, text: str, edit: str) -> str:
    """The canonical scale text with one edit, at a line boundary (between
    two productions) or at a blank inside a production, chosen at random."""
    lines = text.splitlines(keepends=True)
    k = rnd.randrange(1, len(lines) - 1)  # a production line
    line = lines[k]
    if edit in ("comment", "formfeed", "stray"):
        insert = {"comment": "# note\n", "formfeed": "\f",
                  "stray": rnd.choice(("%", "@", ";", ",", "component", "42", '"s"', "]"))}[edit]
        if rnd.random() < 0.5:
            lines.insert(k, insert)
        else:
            blank = rnd.choice([i for i, ch in enumerate(line) if ch == " "])
            lines[k] = line[:blank] + " " + insert + line[blank:]
    elif edit == "duplicate-handle":
        handle = lines[rnd.choice([j for j in range(1, len(lines) - 1) if j != k])].split()[1]
        lines[k] = line.replace(line.split()[1], handle, 1)
    elif edit in ("empty-name", "empty-origin"):
        name, origin = re.search(r'\("([^"]*)", "([^"]*)"', line).groups()
        lines[k] = (line.replace(f'("{name}"', '(""', 1) if edit == "empty-name"
                    else line.replace(f'"{origin}",', '"",', 1))
    elif edit == "huge-version":
        lines[k] = re.sub(r"\d+\)", "9" * 4301 + ")", line, count=1)
    elif edit == "contains-empty":
        lines.insert(k, f'  component extra : Bin ("bin{rnd.randrange(20)}", "acme", 1) contains [];\n')
    elif edit == "files-empty":
        lines[k] = re.sub(r"(contains|files) \[[^\]]*\]", "files []", line, count=1)
    else:  # after-brace
        lines.append(rnd.choice(("x", "}", ";", "component", "# trailing\n", "\f", "\n\n")))
    return "".join(lines)


def test_edited_scale_texts_get_the_lexeme_parsers_outcome():
    rnd = random.Random(0xED17)
    read = dict.fromkeys(EDITS, 0)
    for n in range(600):
        edit = EDITS[n % len(EDITS)]
        text = _edited(rnd, _scale_config(rnd), edit)
        assert config_outcome(text) == lexeme_outcome(text), (edit, text)
        read[edit] += read_by_productions(text)
    # the reader reads the texts that stay in its grammar, and declines the rest
    assert read["contains-empty"] == read["files-empty"] == 60
    assert read["comment"] == read["formfeed"] == read["stray"] == 0
    assert read["duplicate-handle"] == read["empty-name"] == read["empty-origin"] == 0


def test_the_reader_reads_every_canonical_text():
    # A reader that declined every text would agree with the lexeme parser
    # on every text above, and read nothing.
    rnd = random.Random(0xCA70)
    for _ in range(50):
        config = parse_config(_scale_config(rnd))
        assert textfmt._read_productions(print_config(config)) is not None


def test_trailing_comment_puts_the_end_at_its_hash():
    with pytest.raises(ParseError) as exc:
        parse_config("config x { # comment")
    assert str(exc.value) == "<config>:1:12: expected 'component', found end of input"


def test_a_lexical_error_beats_an_earlier_grammar_error():
    with pytest.raises(ParseError) as exc:
        parse_config("config x } %")
    assert (exc.value.expected, exc.value.found) == ("a token", "'%'")


def test_kind_of_reads_only_the_leading_lexeme():
    assert kind_of("config c { % }") == "config"
    with pytest.raises(ParseError) as exc:
        kind_of("module m { % }")
    assert exc.value.found == "'%'"  # the lexical error still comes first


@pytest.mark.parametrize("pattern", [
    textfmt._lexer("").pattern, textfmt._lexer("²½①").pattern,
    textfmt._LEADING.pattern, textfmt._STRING_PREFIX.pattern,
    *[p.pattern for p in textfmt._productions()],
])
def test_patterns_compile_on_python_3_10(pattern):
    # Possessive quantifiers and atomic groups came with Python 3.11, and
    # pyproject.toml admits 3.10, where compiling them fails at import.
    assert not re.search(r"[*+?}]\+|\(\?>", pattern)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--dump"]:
        print("\n".join(block_outcomes(int(sys.argv[2]))))
    else:
        print(",\n".join(f'    "{block_digest(b)}"' for b in range(-(-len(CORPUS) // BLOCK))))
