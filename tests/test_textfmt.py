"""Text formats: the spec and configuration grammars, canonical printing,
DOT export, and the JSON changeset/journal encoding."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confkit import (
    AbstractComponentId,
    ChildSlot,
    Component,
    ComponentId,
    ComponentSpec,
    ConfigInvalid,
    Configuration,
    ExtendChange,
    Interval,
    JournalEntry,
    NameSet,
    NotAConfiguration,
    OriginSet,
    ParseError,
    RemoveChange,
    SourceSpan,
    SpecInvalid,
    SpecSet,
    UpdateChange,
    VersionSet,
    kind_of,
    parse_changeset,
    parse_config,
    parse_journal,
    parse_spec,
    print_changeset,
    print_config,
    print_spec,
    to_dot,
    validate_spec,
)
from confkit.textfmt import (
    changeset_from_obj,
    changeset_to_obj,
    check_config_text,
    check_spec_text,
    component_from_obj,
    component_id_from_obj,
    component_id_to_obj,
    component_to_obj,
    journal_entry_to_line,
)

from conftest import (
    DEF_PSC,
    FIXTURES,
    IMSK,
    JULIB,
    MY_PSC,
    PSY1,
    PSY2,
    build_cs_psycho,
    build_extend_change,
    build_psy1,
    build_psy2,
    build_upgrade_change,
)
from strategies import configurations, layered_configurations, spec_sets


# --------------------------------------------------------------------------
# Fixtures on disk are the printers' own canonical output and parse back to
# the hand-built goldens


class TestFixtureFiles:
    def test_spec_fixture_round_trip(self):
        text = (FIXTURES / "psycho.csg").read_text()
        spec = parse_spec(text, "psycho.csg")
        assert spec == build_cs_psycho()
        assert print_spec(spec) == text

    def test_config_fixture_round_trips(self):
        for fname, golden in (("psy1.cg", build_psy1()), ("psy2.cg", build_psy2())):
            text = (FIXTURES / fname).read_text()
            cfg = parse_config(text, fname)
            assert cfg == golden
            assert print_config(cfg) == text

    def test_changeset_fixtures(self):
        upgrade = (FIXTURES / "upgrade-to-v2.json").read_text()
        assert parse_changeset(upgrade) == build_upgrade_change()
        assert print_changeset(build_upgrade_change()) == upgrade
        extend = (FIXTURES / "add-julia-effects.json").read_text()
        assert parse_changeset(extend) == build_extend_change()
        assert print_changeset(build_extend_change()) == extend

    def test_kind_of(self):
        assert kind_of((FIXTURES / "psycho.csg").read_text()) == "spec"
        assert kind_of((FIXTURES / "psy1.cg").read_text()) == "config"
        with pytest.raises(ParseError):
            kind_of("module x {}")


# --------------------------------------------------------------------------
# Grammar details


class TestSpecGrammar:
    def test_minimal_spec(self):
        spec = parse_spec("spec s { node T { total: 0..0; } root T; }")
        [node] = list(spec)
        assert node.ctype == "T"
        assert node.aci.names.is_any
        assert str(node.total) == "0..0"

    def test_comments_and_whitespace(self):
        text = (
            "# a comment\n"
            "spec s {  # trailing comment\n"
            "  node T { total: 0..0; }\n"
            "  root T;\n"
            "}\n"
        )
        assert parse_spec(text) == parse_spec("spec s { node T { total: 0..0; } root T; }")

    def test_identity_fields(self):
        text = (
            'spec s { node T {'
            ' name: "a" | "lib"*;'
            ' origin: "acme";'
            ' version: 1 | 3;'
            ' total: 0..0; }'
            ' root T; }'
        )
        [node] = list(parse_spec(text))
        assert "a" in node.aci.names and "libx" in node.aci.names
        assert "b" not in node.aci.names
        assert node.aci.origins.values == frozenset({"acme"})
        assert 1 in node.aci.versions and 2 not in node.aci.versions

    def test_version_spans(self):
        for src, member, outside in (
            ("0..*", 100, None),
            ("2..4", 3, 5),
            ("any", 7, None),
        ):
            text = f"spec s {{ node T {{ version: {src}; total: 0..0; }} root T; }}"
            [node] = list(parse_spec(text))
            assert member in node.aci.versions
            if outside is not None:
                assert outside not in node.aci.versions

    def test_contains_and_depends(self):
        text = (
            "spec s {"
            " node R { total: 1..2; contains { T: 1..2 } }"
            " node T { total: 0..0; depends { U } }"
            " node U { total: 0..0; }"
            " root R; }"
        )
        # U is contained nowhere, so R and U would both be roots; the
        # declared root only resolves ties it is a member of.
        spec, report = check_spec_text(text)
        assert spec is None
        assert any(v.condition == "unique-root" for v in report.violations)

    def test_dependency_constraints_replace_target_sets(self):
        text = (
            "spec s {"
            " node R { total: 1..1; contains { T: 1..1 } }"
            ' node T { name: "t"; total: 0..0;'
            '   depends { R(name: "r"*; version: 2..3;) } }'
            " root R; }"
        )
        spec = parse_spec(text)
        [dep] = list(spec.spec_for("T").dependencies)
        assert dep.ctype == "R"
        assert "rx" in dep.names and "t" not in dep.names
        assert 2 in dep.versions and 1 not in dep.versions
        assert dep.origins.is_any

    def test_interval_with_reversed_bounds(self):
        with pytest.raises(ParseError) as exc:
            parse_spec("spec s { node T { total: 0..0; contains { T: 2..1 } } root T; }")
        assert "empty interval" in exc.value.expected or "interval" in str(exc.value)

    def test_duplicate_field_rejected(self):
        with pytest.raises(ParseError):
            parse_spec("spec s { node T { total: 0..0; total: 1..1; } root T; }")

    def test_duplicate_contains_type_rejected(self):
        with pytest.raises(ParseError):
            parse_spec("spec s { node R { total: 2..2; contains { T: 1..1, T: 1..1 } } node T { total: 0..0; } root R; }")

    def test_duplicate_depends_type_rejected(self):
        with pytest.raises(ParseError):
            parse_spec("spec s { node T { total: 0..0; depends { T, T } } root T; }")

    def test_duplicate_dependency_constraint_rejected(self):
        with pytest.raises(ParseError, match="expected each constraint at most once"):
            parse_spec('spec s { node T { total: 0..0; depends { L(name: "a"; name: "b";) } } root T; }')

    def test_unknown_dependency_constraint_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_spec("spec s { node T { total: 0..0; depends { T(foo: 1;) } } root T; }")
        assert str(exc.value) == (
            "<spec>:1:44: expected a name, origin, or version constraint, found 'foo'")

    def test_empty_prefix_rejected(self):
        with pytest.raises(ParseError):
            parse_spec('spec s { node T { name: ""*; total: 0..0; } root T; }')

    def test_unterminated_string(self):
        with pytest.raises(ParseError) as exc:
            parse_spec('spec s { node T { name: "oops')
        assert str(exc.value) == '<spec>:1:25: expected a closing \'"\', found end of line'

    def test_bad_escape(self):
        with pytest.raises(ParseError):
            parse_spec(r'spec s { node T { name: "\q"; total: 0..0; } root T; }')

    def test_lone_dot(self):
        with pytest.raises(ParseError):
            parse_spec("spec s { node T { total: 0 . 0; } root T; }")

    def test_unknown_character(self):
        with pytest.raises(ParseError):
            parse_spec("spec s { node T { total: 0..0; } root T; } %")

    def test_error_positions(self):
        with pytest.raises(ParseError) as exc:
            parse_spec("spec s {\n  node T {\n    total 0..0;\n  }\n  root T;\n}")
        assert exc.value.span.line == 3
        assert str(exc.value).startswith("<spec>:3:")

    def test_declared_root_must_exist(self):
        text = "spec s { node T { total: 0..0; } root Zap; }"
        spec, report = check_spec_text(text)
        assert spec is None
        assert any(v.condition == "declared-root" for v in report.violations)
        with pytest.raises(SpecInvalid):
            parse_spec(text)

    def test_declared_root_must_match_the_actual_root(self):
        text = (
            "spec s {"
            " node R { total: 1..1; contains { T: 1..1 } }"
            " node T { total: 0..0; }"
            " root T; }"
        )
        spec, report = check_spec_text(text)
        assert spec is None
        assert [v.condition for v in report.violations] == ["declared-root"]

    def test_structural_violations_surface_as_reports(self):
        text = (
            'spec s { node PScr { name: "a"; total: 0..0; }'
            ' node PScr { name: "b"; total: 0..0; } root PScr; }'
        )
        spec, report = check_spec_text(text)
        assert spec is None
        assert any(v.condition == "duplicate-type" for v in report.violations)
        with pytest.raises(SpecInvalid) as exc:
            parse_spec(text)
        assert exc.value.report.errors

    def test_identical_nodes_of_one_ctype_are_still_duplicates(self):
        spec, report = check_spec_text(
            "spec s { node T { total: 0..0; } node T { total: 0..0; } root T; }")
        assert spec is None
        assert [v.condition for v in report.errors] == ["duplicate-type"]

    def test_a_parsed_spec_carries_its_report(self):
        spec, report = check_spec_text(FIXTURES.joinpath("psycho.csg").read_text())
        assert spec is not None and report.ok
        kept = spec._report
        assert kept is not None and kept.violations == report.violations
        assert validate_spec(spec) is kept


class TestConfigGrammar:
    def test_minimal_config(self):
        cfg = parse_config('config c { component r : T ("r", "o", 1) files []; }')
        [comp] = list(cfg)
        assert comp.id == ComponentId("T", "r", "o", 1)
        assert comp.is_leaf and comp.elements == frozenset()

    def test_contains_files_and_depends(self):
        text = (
            "config c {"
            ' component r : R ("r", "o", 1) contains [a, b];'
            ' component a : T ("a", "o", 1) files ["x", "y"];'
            ' component b : T ("b", "o", 2) files [] depends [a];'
            "}"
        )
        cfg = parse_config(text)
        by_name = {c.id.name: c for c in cfg}
        assert by_name["r"].child_ids == {by_name["a"].id, by_name["b"].id}
        assert by_name["a"].elements == frozenset({"x", "y"})
        assert by_name["b"].dependencies == frozenset({by_name["a"].id})

    def test_duplicate_handle_rejected(self):
        text = (
            "config c {"
            ' component x : T ("a", "o", 1) files [];'
            ' component x : T ("b", "o", 1) files [];'
            "}"
        )
        with pytest.raises(ParseError) as exc:
            parse_config(text)
        assert "x" in str(exc.value)

    def test_empty_identity_strings_rejected(self):
        with pytest.raises(ParseError):
            parse_config('config c { component r : T ("", "o", 1) files []; }')
        with pytest.raises(ParseError):
            parse_config('config c { component r : T ("r", "", 1) files []; }')

    def test_overlapping_contains_and_depends_rejected(self):
        text = (
            "config c {"
            ' component r : R ("r", "o", 1) contains [a] depends [a];'
            ' component a : T ("a", "o", 1) files [];'
            "}"
        )
        with pytest.raises(ParseError) as exc:
            parse_config(text)
        assert "disjoint" in str(exc.value)

    def test_undeclared_child_handle_is_a_closure_violation(self):
        text = 'config c { component r : R ("r", "o", 1) contains [ghost]; }'
        cfg, report = check_config_text(text)
        assert cfg is None
        assert any(v.condition == "children-closure" for v in report.violations)
        with pytest.raises(ConfigInvalid):
            parse_config(text)

    def test_structural_violations_surface_as_reports(self):
        text = (
            "config c {"
            ' component a : T ("a", "o", 1) files [];'
            ' component b : T ("b", "o", 1) files [];'
            "}"
        )
        cfg, report = check_config_text(text)
        assert cfg is None
        assert any(v.condition == "unique-root" for v in report.violations)

    def test_keyword_handles_are_tolerated(self):
        # Handles are local labels, discarded after parsing; every position a
        # handle can occupy is delimited by structure, so even reserved words
        # parse unambiguously.  (The printer still never emits them.)
        config = parse_config(
            'config c { component component : T ("a", "o", 1) files []; }')
        assert [c.id for c in config] == [ComponentId("T", "a", "o", 1)]


# --------------------------------------------------------------------------
# Printing


class TestPrinting:
    def test_spec_header_and_root_are_derived(self, cs_psycho):
        text = print_spec(cs_psycho)
        assert text.startswith("spec Psycho {\n")
        assert text.rstrip().endswith("}")
        assert "  root Psycho;" in text.splitlines()

    def test_spec_header_overrides(self, cs_psycho):
        text = print_spec(cs_psycho, name="mine", header="one\ntwo")
        assert text.startswith("# one\n# two\nspec mine {\n")

    def test_rootless_spec_set_needs_an_explicit_root(self):
        from confkit import AbstractComponentId, ComponentSpec, SpecSet

        two = SpecSet(frozenset({
            ComponentSpec(AbstractComponentId("A")),
            ComponentSpec(AbstractComponentId("B")),
        }))
        with pytest.raises(ValueError):
            print_spec(two)
        text = print_spec(two, root="A")
        assert "  root A;" in text.splitlines()

    def test_config_print_is_canonical_under_reordering(self, psy2):
        shuffled = Configuration(tuple(reversed(psy2.components)))
        assert print_config(shuffled) == print_config(psy2)

    def test_handle_collisions_get_suffixes(self):
        a = ComponentId("T", "lib.so", "o", 1)
        b = ComponentId("T", "lib_so", "o", 1)
        r = ComponentId("R", "r", "o", 1)
        cfg = Configuration((
            Component.composite(r, {a, b}),
            Component.leaf(a),
            Component.leaf(b),
        ))
        text = print_config(cfg)
        assert "component lib_so :" in text
        assert "component lib_so_2 :" in text
        assert parse_config(text) == cfg

    def test_reserved_words_and_digits_are_sanitized(self):
        r = ComponentId("R", "r", "o", 1)
        kw = ComponentId("T", "component", "o", 1)
        num = ComponentId("T", "9lives", "o", 1)
        cfg = Configuration((
            Component.composite(r, {kw, num}),
            Component.leaf(kw),
            Component.leaf(num),
        ))
        text = print_config(cfg)
        assert "component component_ :" in text
        assert "component _9lives :" in text
        assert parse_config(text) == cfg

    def test_names_starting_with_a_non_letter_numeric_round_trip(self):
        # '½' is alphanumeric, so a handle keeps it, but it is neither a
        # digit nor a letter, so no lexeme starts with it: the handle gets a '_'
        r = ComponentId("R", "r", "o", 1)
        half = ComponentId("T", "½x", "o", 1)
        cfg = Configuration((Component.composite(r, {half}), Component.leaf(half)))
        text = print_config(cfg)
        assert "component _½x :" in text
        assert parse_config(text) == cfg

    def test_string_escapes_round_trip(self):
        tricky = ComponentId("T", 'sa"y \\ hi', "o", 1)
        cfg = Configuration((Component.leaf(tricky, ['we"ird\\file']),))
        text = print_config(cfg)
        assert parse_config(text) == cfg

    @pytest.mark.parametrize("field", ["name", "origin", "file"])
    def test_a_line_break_in_a_string_has_no_written_form(self, field):
        # A string lexeme ends at the line, so the text could not be read back.
        ci = ComponentId("T", "a\nb" if field == "name" else "a",
                         "o\n" if field == "origin" else "o", 1)
        cfg = Configuration((Component.leaf(ci, ["x\ny"] if field == "file" else []),))
        with pytest.raises(ValueError, match="has no written form"):
            print_config(cfg)

    @pytest.mark.parametrize("ctype", ["my type", "9lives", "a-b", "½x", "T\n"])
    def test_a_ctype_that_is_not_an_identifier_has_no_written_form(self, ctype):
        # The text would not read back: `my type` parses as 'my' then 'type'.
        r = ComponentId("R", "r", "o", 1)
        odd = ComponentId(ctype, "a", "o", 1)
        for cfg in (Configuration((Component.leaf(odd),)),
                    Configuration((Component.composite(r, {odd}), Component.leaf(odd)))):
            with pytest.raises(ValueError, match="has no written form"):
                print_config(cfg)

    @pytest.mark.parametrize("where", ["node", "slot", "dependency", "root"])
    def test_a_spec_ctype_that_is_not_an_identifier_has_no_written_form(self, where):
        from confkit import AbstractComponentId, ChildSlot, ComponentSpec, Interval, SpecSet

        odd = AbstractComponentId("my type" if where in ("node", "slot", "dependency") else "T")
        nodes = {ComponentSpec(AbstractComponentId("R"), total=Interval(1, 1), children=(
            [ChildSlot(odd, Interval(1, 1))] if where == "slot" else []),
            dependencies=[odd] if where == "dependency" else [])}
        if where == "node":
            nodes.add(ComponentSpec(odd))
        with pytest.raises(ValueError, match="has no written form"):
            print_spec(SpecSet(frozenset(nodes)), root="R" if where != "root" else "my type")

    @pytest.mark.parametrize("field", ["names", "origins", "versions"])
    def test_an_empty_identity_set_has_no_written_form(self, field):
        from confkit import AbstractComponentId, ComponentSpec, NameSet, OriginSet, SpecSet, VersionSet

        empty = {"names": NameSet(), "origins": OriginSet(), "versions": VersionSet.of()}[field]
        node = ComponentSpec(AbstractComponentId("T", **{field: empty}))
        with pytest.raises(ValueError, match=f"an empty {field[:-1]} set has no written form"):
            print_spec(SpecSet(frozenset({node})))

    def test_a_ctype_of_word_characters_round_trips(self):
        r = ComponentId("Rö_2", "r", "o", 1)
        leaf = ComponentId("_x²", "a", "o", 1)
        cfg = Configuration((Component.composite(r, {leaf}), Component.leaf(leaf)))
        assert parse_config(print_config(cfg)) == cfg

    def test_a_line_break_in_a_spec_literal_has_no_written_form(self):
        from confkit import AbstractComponentId, ComponentSpec, NameSet, SpecSet

        node = ComponentSpec(AbstractComponentId("T", names=NameSet.of("a\nb")))
        with pytest.raises(ValueError, match="has no written form"):
            print_spec(SpecSet(frozenset({node})))

    def test_singleton_versions_print_as_spans(self, cs_psycho):
        # The reference spec pins no versions, so build one that does.
        from confkit import (
            AbstractComponentId, ComponentSpec, SpecSet, VersionSet,
        )

        node = ComponentSpec(AbstractComponentId("T", versions=VersionSet.of(2)))
        text = print_spec(SpecSet(frozenset({node})))
        assert "version: 2..2;" in text

    @pytest.mark.parametrize("render", [print_config, to_dot])
    def test_an_invalid_configuration_is_refused(self, render):
        # Neither text would read back: an undeclared member has no handle,
        # and a configuration with two roots has no name.
        r = ComponentId("R", "r", "o", 1)
        undeclared = Configuration((Component.composite(
            r, {ComponentId("T", "9 kid", "o", 1)}, [ComponentId("L", "lib.so", "o", 2)]),))
        two_roots = Configuration((Component.leaf(r), Component.leaf(ComponentId("R", "s", "o", 1))))
        for cfg, conditions in ((undeclared, {"children-closure", "dependency-closure"}),
                                (two_roots, {"unique-root"})):
            with pytest.raises(NotAConfiguration) as exc:
                render(cfg)
            assert {v.condition for v in exc.value.report.errors} == conditions

    def test_each_handle_is_sanitized_once(self, psy2, monkeypatch):
        import confkit.textfmt as textfmt

        calls = []
        sanitize = textfmt._sanitize
        monkeypatch.setattr(textfmt, "_sanitize", lambda name: calls.append(name) or sanitize(name))
        text = print_config(psy2)
        assert len(calls) <= len(psy2) + 1  # one per handle, one for the config name
        monkeypatch.undo()
        assert text == print_config(psy2)


# --------------------------------------------------------------------------
# Round-trip properties


class TestRoundTrips:
    @settings(max_examples=200)
    @given(spec_sets())
    def test_spec_print_parse_identity(self, spec):
        text = print_spec(spec)
        reparsed, report = check_spec_text(text)
        assert reparsed is not None, report
        assert reparsed.specs == spec.specs
        assert print_spec(reparsed) == text

    def test_any_fields_and_dependency_constraints_round_trip(self):
        # `name: any;` and `origin: any;` are read, in a node and in a
        # dependency entry, and printed as omitted fields; a dependency
        # narrower than its target's node prints all three constraints.
        text = (
            "spec s {"
            " node R { name: any; origin: any; total: 3..3;"
            "   contains { App: 1..1, Lib: 1..1, Tool: 1..1 } }"
            ' node App { origin: "acme"; total: 0..0;'
            '   depends { Lib(name: "libc"; origin: "gnu"; version: 2..3;),'
            "             Tool(name: any; origin: any; version: 1;) } }"
            ' node Lib { name: "lib"*; origin: "acme" | "gnu"; version: 1..5; total: 0..0; }'
            " node Tool { name: any; origin: any; total: 0..0; }"
            " root R; }"
        )
        spec = parse_spec(text)
        assert spec.spec_for("R").aci.names.is_any and spec.spec_for("R").aci.origins.is_any
        deps = {d.ctype: d for d in spec.spec_for("App").dependencies}
        assert deps["Tool"].names.is_any and deps["Tool"].origins.is_any
        printed = print_spec(spec)
        assert "any" not in printed
        assert ('    depends { Lib(name: "libc"; origin: "gnu"; version: 2..3;),'
                " Tool(version: 1..1;) }\n") in printed
        reparsed = parse_spec(printed)
        assert reparsed.specs == spec.specs
        assert print_spec(reparsed) == printed

    def test_a_dependency_wider_than_its_target_prints_any_fields(self):
        # such a spec is invalid; printing it keeps the violation readable
        lib = ComponentSpec(AbstractComponentId(
            "Lib", NameSet.of("a.so"), OriginSet.of("o"), VersionSet.of(1)))
        app = ComponentSpec(AbstractComponentId("App"), dependencies=[AbstractComponentId("Lib")])
        root = ComponentSpec(AbstractComponentId("R"), total=Interval(2, 2), children=[
            ChildSlot(app.aci, Interval(1, 1)), ChildSlot(lib.aci, Interval(1, 1))])
        spec = SpecSet([root, app, lib])
        printed = print_spec(spec)
        assert "    depends { Lib(name: any; origin: any; version: any;) }\n" in printed
        reparsed, report = check_spec_text(printed)
        assert reparsed is None
        assert [v.condition for v in report.errors] == ["dependency-coverage"]
        assert report.violations == validate_spec(spec).violations

    @settings(max_examples=200)
    @given(configurations())
    def test_config_print_parse_identity(self, cfg):
        text = print_config(cfg)
        reparsed = parse_config(text)
        assert reparsed == cfg
        assert print_config(reparsed) == text

    @settings(max_examples=100)
    @given(layered_configurations())
    def test_layered_config_print_parse_identity(self, cfg):
        text = print_config(cfg)
        assert parse_config(text) == cfg


# --------------------------------------------------------------------------
# DOT export


class TestDot:
    def test_config_dot_shape(self, psy1):
        dot = to_dot(psy1)
        assert dot.startswith("digraph config {\n  node [shape=box];\n")
        assert dot.count("[label=") == 6
        assert dot.count("];\n") >= 6
        solid = [l for l in dot.splitlines() if "->" in l and "dashed" not in l]
        dashed = [l for l in dot.splitlines() if "style=dashed" in l]
        assert len(solid) == 5
        assert dashed == []
        assert '  psy1 [label="psy1 : Psycho\\n(IMsk, v1)"];' in dot.splitlines()

    def test_config_dot_dependencies_are_dashed(self, psy2):
        dot = to_dot(psy2)
        assert "  my_psc -> julib_so [style=dashed];" in dot.splitlines()
        solid = [l for l in dot.splitlines() if "->" in l and "dashed" not in l]
        assert len(solid) == 7  # 8 components, 7 containment edges

    def test_spec_dot_shape(self, cs_psycho):
        dot = to_dot(cs_psycho)
        assert dot.startswith("digraph spec {\n")
        assert '  Psycho -> Bin [label="1..1"];' in dot.splitlines()
        assert '  Psycho -> PScr [label="1..*"];' in dot.splitlines()
        assert "  PScr -> CGLib [style=dashed];" in dot.splitlines()
        assert "  PScr -> PScr [style=dashed];" in dot.splitlines()
        assert '"Psycho [2..*]\\nname: psy*\\norigin: IMsk"' in dot

    def test_spec_dot_labels_a_version_span(self):
        from confkit import AbstractComponentId, ComponentSpec, SpecSet, VersionSet

        node = ComponentSpec(AbstractComponentId("T", versions=VersionSet.between(1, 2)))
        assert '  T [label="T [0..0]\\nversion: 1..2"];' in to_dot(SpecSet(frozenset({node}))).splitlines()

    def test_dot_keywords_in_any_case_are_quoted_ids(self):
        # Unquoted, `Node [label=...]` would set the attributes of every node.
        root = ComponentId("Graph", "edge", "o", 1)
        strict, graph, edges = (ComponentId("Node", n, "o", 1) for n in ("Strict", "GRAPH", "edges"))
        cfg = Configuration((Component.composite(root, {strict, graph, edges}),
                             Component.leaf(strict, dependencies=[graph]),
                             Component.leaf(graph), Component.leaf(edges)))
        assert to_dot(cfg).splitlines()[2:] == [
            '  "edge" [label="edge : Graph\\n(o, v1)"];',
            '  "GRAPH" [label="GRAPH : Node\\n(o, v1)"];',
            '  "Strict" [label="Strict : Node\\n(o, v1)"];',
            '  edges [label="edges : Node\\n(o, v1)"];',
            '  "edge" -> "GRAPH";',
            '  "edge" -> "Strict";',
            '  "edge" -> edges;',
            '  "Strict" -> "GRAPH" [style=dashed];',
            "}",
        ]
        assert "component edge : Graph" in print_config(cfg)  # `.cg` handles stay bare
        spec = parse_spec("spec s { node Graph { total: 2..2; contains { Node: 1..1, Nodes: 1..1 } }"
                          " node Node { total: 0..0; depends { Nodes } } node Nodes { total: 0..0; }"
                          " root Graph; }")
        assert to_dot(spec).splitlines()[2:] == [
            '  "Graph" [label="Graph [2..2]"];',
            '  "Node" [label="Node [0..0]"];',
            '  Nodes [label="Nodes [0..0]"];',
            '  "Graph" -> "Node" [label="1..1"];',
            '  "Graph" -> Nodes [label="1..1"];',
            '  "Node" -> Nodes [style=dashed];',
            "}",
        ]

    def test_dot_rejects_other_values(self):
        with pytest.raises(TypeError):
            to_dot("nonsense")

    def test_dot_is_deterministic(self, psy2, cs_psycho):
        assert to_dot(psy2) == to_dot(Configuration(tuple(reversed(psy2.components))))
        assert to_dot(cs_psycho) == to_dot(build_cs_psycho())


# --------------------------------------------------------------------------
# JSON changesets


class TestChangesetJson:
    def test_component_id_codec(self):
        obj = component_id_to_obj(DEF_PSC)
        assert obj == ["PScr", "def.psc", "IMsk", 1]
        assert component_id_from_obj(obj) == DEF_PSC

    @pytest.mark.parametrize("bad", [
        "nope",
        ["T", "n", "o"],
        ["T", "n", "o", "1"],
        ["T", "n", "o", True],
        ["T", "n", 3, 1],
        ["T", "n", "o", 1, "extra"],
        ["T", "n", "o", -1],
    ])
    def test_component_id_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            component_id_from_obj(bad)

    def test_component_codec(self):
        comp = Component.leaf(MY_PSC, ["a.fx"], [JULIB])
        obj = component_to_obj(comp)
        assert obj == {
            "id": ["PScr", "my.psc", "Jane", 2],
            "files": ["a.fx"],
            "depends": [["CGLib", "julib.so", "Jack", 1]],
        }
        assert component_from_obj(obj) == comp

    @pytest.mark.parametrize("bad", [
        {"id": ["T", "n", "o", 1]},
        {"id": ["T", "n", "o", 1], "files": [], "children": []},
        {"id": ["T", "n", "o", 1], "files": [], "bogus": 1},
        {"id": ["T", "n", "o", 1], "files": [1]},
        {"id": ["T", "n", "o", 1], "files": "x"},
        {"id": ["T", "n", "o", 1], "children": [["U", "c", "o", 1]],
         "depends": [["U", "c", "o", 1]]},
        [],
    ])
    def test_component_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            component_from_obj(bad)

    def test_changeset_codecs_round_trip(self):
        for change in (
            build_upgrade_change(),
            build_extend_change(),
            RemoveChange((MY_PSC, JULIB)),
        ):
            assert changeset_from_obj(changeset_to_obj(change)) == change
            assert parse_changeset(print_changeset(change)) == change

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            changeset_from_obj({"op": "rename"})
        with pytest.raises(ParseError):
            parse_changeset('{"op": "rename"}')

    def test_parse_changeset_reports_json_positions(self):
        with pytest.raises(ParseError) as exc:
            parse_changeset('{"op": "remove",\n "ids": [}', "ch.json")
        assert exc.value.span.file == "ch.json"
        assert exc.value.span.line == 2

    def test_parse_changeset_survives_deep_nesting(self):
        deep = "[" * 100_000 + "]" * 100_000
        with pytest.raises(ParseError):
            parse_changeset(deep)

    def test_parse_changeset_rejects_non_objects(self):
        with pytest.raises(ParseError):
            parse_changeset("[1, 2, 3]")
        with pytest.raises(ParseError):
            parse_changeset("null")


class TestJournalJson:
    def entry(self) -> JournalEntry:
        return JournalEntry(
            change=RemoveChange((MY_PSC,)),
            inverse=ExtendChange((Component.leaf(MY_PSC, dependencies={JULIB}),),
                                 ((MY_PSC, PSY2),)),
            seq=3,
        )

    def test_line_round_trip(self):
        line = journal_entry_to_line(self.entry())
        assert "\n" not in line
        [back] = parse_journal(line + "\n")
        assert back == self.entry()

    def test_undoes_is_kept_only_when_set(self):
        plain = journal_entry_to_line(self.entry())
        assert "undoes" not in plain
        reversal = JournalEntry(
            change=self.entry().inverse, inverse=self.entry().change,
            seq=4, undoes=3)
        line = journal_entry_to_line(reversal)
        assert '"undoes":3' in line
        [back] = parse_journal(line)
        assert back.undoes == 3

    def test_blank_lines_are_skipped(self):
        text = "\n" + journal_entry_to_line(self.entry()) + "\n\n"
        assert len(parse_journal(text)) == 1

    def test_journal_errors_carry_line_numbers(self):
        good = journal_entry_to_line(self.entry())
        with pytest.raises(ParseError) as exc:
            parse_journal(good + "\n{broken\n", "j.log")
        assert exc.value.span.line == 2
        assert exc.value.span.file == "j.log"

    @pytest.mark.parametrize("bad", [
        '{"seq": 1}',
        '{"seq": true, "change": {"op": "remove", "ids": []}, "inverse": {"op": "remove", "ids": []}}',
        '{"seq": 1, "change": {"op": "remove", "ids": []}, "inverse": {"op": "zap"}}',
        '{"seq": 1, "undoes": "x", "change": {"op": "remove", "ids": []}, "inverse": {"op": "remove", "ids": []}}',
        '[]',
    ])
    def test_malformed_entries_rejected(self, bad):
        with pytest.raises(ParseError):
            parse_journal(bad)

    def test_multi_entry_journal(self):
        lines = [journal_entry_to_line(JournalEntry(
            change=RemoveChange((MY_PSC,)),
            inverse=RemoveChange((JULIB,)),
            seq=i)) for i in range(3)]
        entries = parse_journal("\n".join(lines) + "\n")
        assert [e.seq for e in entries] == [0, 1, 2]


# --------------------------------------------------------------------------
# The parsers never crash


class TestParserRobustness:
    @settings(max_examples=300)
    @given(st.text(alphabet='specconfignodroot{}[]();:,"|*.#\\\n 0123456789abcT', max_size=80))
    def test_arbitrary_text_raises_parse_errors_at_worst(self, text):
        for fn in (parse_spec, parse_config, kind_of):
            try:
                fn(text)
            except (ParseError, SpecInvalid, ConfigInvalid):
                pass

    @settings(max_examples=200)
    @given(st.text(max_size=60))
    def test_arbitrary_json_raises_parse_errors_at_worst(self, text):
        try:
            parse_changeset(text)
        except ParseError:
            pass
        try:
            parse_journal(text)
        except ParseError:
            pass

    def test_parse_journal_survives_deep_nesting(self):
        with pytest.raises(ParseError) as exc:
            parse_journal("\n" + "[" * 200_000, "j.log")
        assert exc.value.span.line == 2

    # integers longer than the interpreter's str -> int conversion limit
    HUGE = "9" * 5000

    def test_parse_config_rejects_an_overlong_version(self):
        text = f'config c {{\n  component a : T ("a", "o", {self.HUGE}) files [];\n}}\n'
        with pytest.raises(ParseError) as exc:
            parse_config(text, "c.cg")
        assert (exc.value.span.line, exc.value.span.column) == (2, 30)
        assert "5000-digit" in exc.value.found

    @pytest.mark.parametrize("field", [f"version: {HUGE};", f"total: 0..{HUGE};"],
                             ids=["version", "total"])
    def test_parse_spec_rejects_overlong_numbers(self, field):
        with pytest.raises(ParseError):
            parse_spec(f"spec s {{\n  node T {{ {field} }}\n  root T;\n}}\n")

    def test_parse_changeset_rejects_an_overlong_integer(self):
        with pytest.raises(ParseError):
            parse_changeset(f'{{"op": "remove", "ids": [["T", "a", "o", {self.HUGE}]]}}')

    # a 100,001-element list where something short is expected: the error
    # text quotes a cut-down repr of it, not the whole value
    LONG = "[" + "1," * 100_000 + "1]"

    @pytest.mark.parametrize("template", [
        "{long}",
        '{{"op": {long}}}',
        '{{"op": "remove", "ids": "{text}"}}',
        '{{"op": "remove", "ids": [{long}]}}',
        '{{"op": "extend", "components": [{long}]}}',
        '{{"op": "extend", "components": [{{"id": ["T", "a", "o", 1], {fields}}}]}}',
        '{{"op": "extend", "attachments": [{long}]}}',
        '{{"op": "update", "replacements": [{long}]}}',
    ], ids=["changeset", "op", "as-list", "component-id", "component", "fields",
            "attachment", "replacement"])
    def test_parse_changeset_error_text_is_bounded(self, template):
        text = template.format(
            long=self.LONG, text="x" * 300_000,
            fields=", ".join(f'"f{i}": 0' for i in range(20_000)))
        with pytest.raises(ParseError) as exc:
            parse_changeset(text)
        assert len(str(exc.value)) < 300

    @pytest.mark.parametrize("line", [
        '{{"seq": 0, "change": {long}, "inverse": {{}}}}',
        '{{"seq": {long}, "change": {{}}, "inverse": {{}}}}',
        '{{"seq": 0, "undoes": {long}, "change": {{}}, "inverse": {{}}}}',
    ], ids=["change", "seq", "undoes"])
    def test_parse_journal_error_text_is_bounded(self, line):
        with pytest.raises(ParseError) as exc:
            parse_journal(line.format(long=self.LONG))
        assert len(str(exc.value)) < 300

    # a 100,000-character name: the error text quotes at most 60 of them
    NAME = "n" * 100_000

    def test_parse_config_string_token_quote_is_bounded(self):
        with pytest.raises(ParseError) as exc:
            parse_config(f'config "{self.NAME}" {{ }}')
        assert len(str(exc.value)) < 200
        assert exc.value.found.startswith('string "nnn')

    def test_parse_spec_string_token_quote_is_bounded(self):
        with pytest.raises(ParseError) as exc:
            parse_spec(f'spec s {{ node T {{ name: "a" "{self.NAME}"; total: 0..0; }} root T; }}')
        assert len(str(exc.value)) < 200
        assert exc.value.found.startswith('string "nnn')

    @pytest.mark.parametrize("fields", ['', ', "files": [1]'], ids=["payload", "files"])
    def test_parse_changeset_component_id_quote_is_bounded(self, fields):
        with pytest.raises(ParseError) as exc:
            parse_changeset(
                f'{{"op": "extend", "components": [{{"id": ["T", "{self.NAME}", "o", 1]{fields}}}]}}')
        assert len(str(exc.value)) < 200
        assert "T(nnn" in str(exc.value)

    def test_parse_journal_rejects_an_overlong_integer(self):
        with pytest.raises(ParseError) as exc:
            parse_journal(f'\n{{"seq": {self.HUGE}, "change": {{}}, "inverse": {{}}}}', "j.log")
        assert exc.value.span.line == 2
