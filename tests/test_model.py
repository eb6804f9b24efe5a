"""Structural model: components, configurations, specs, and their
well-formedness conditions."""

from __future__ import annotations

import pytest
from hypothesis import given

from confkit import (
    INF,
    AbstractComponentId,
    ChildSlot,
    Component,
    ComponentId,
    ComponentSpec,
    Configuration,
    Interval,
    InvalidSpec,
    NameSet,
    NotAConfiguration,
    SpecSet,
    Violation,
    compliant,
    root_of,
    spec_root,
    validate_configuration,
    validate_spec,
)

from conftest import (
    ACI_APP,
    ACI_CGLIB,
    BIN1,
    DEF_PSC,
    GLIB1,
    IMSK,
    PSY1,
    build_cs_psycho,
    build_psy1,
)
from strategies import configurations, spec_sets


def conditions(report) -> list[str]:
    return [v.condition for v in report.violations]


def replace_component(config: Configuration, cid: ComponentId, **changes) -> list[Component]:
    return [
        c.replace(**changes) if c.id == cid else c
        for c in config.components
    ]


def replace_node(spec, ctype: str, **changes) -> list[ComponentSpec]:
    return [
        cs.replace(**changes) if cs.ctype == ctype else cs
        for cs in spec.sorted_specs()
    ]


# --------------------------------------------------------------------------
# Components and configurations as values


class TestComponent:
    def test_payload_is_exclusive(self):
        with pytest.raises(ValueError):
            Component(id=PSY1)
        with pytest.raises(ValueError):
            Component(id=PSY1, elements=frozenset(), children=frozenset())

    def test_dependencies_may_not_repeat_children(self):
        with pytest.raises(ValueError):
            Component.composite(PSY1, children=[BIN1], dependencies=[BIN1])

    def test_leaf_and_composite(self):
        leaf = Component.leaf(DEF_PSC, ["a", "b"])
        assert leaf.is_leaf
        assert leaf.elements == frozenset({"a", "b"})
        assert leaf.child_ids == frozenset()
        comp = Component.composite(PSY1, [BIN1, DEF_PSC])
        assert not comp.is_leaf
        assert comp.child_ids == frozenset({BIN1, DEF_PSC})


class TestConfigurationValue:
    def test_equality_ignores_order(self, psy1):
        shuffled = Configuration(tuple(reversed(psy1.components)))
        assert psy1 == shuffled
        assert hash(psy1) == hash(shuffled)

    def test_distinct_configurations_differ(self, psy1, psy2):
        assert psy1 != psy2

    def test_mapping_helpers(self, psy1):
        assert len(psy1) == 6
        assert PSY1 in psy1
        assert ComponentId("Psycho", "psy9", IMSK, 1) not in psy1
        assert psy1.by_id()[BIN1].child_ids == frozenset(
            {ComponentId("App", "psycho", IMSK, 1), GLIB1, ComponentId("MLib", "mlib.so", IMSK, 1)})


# --------------------------------------------------------------------------
# Configuration conditions


class TestConfigurationConditions:
    def test_reference_configurations_are_valid(self, psy1, psy2):
        for cfg in (psy1, psy2):
            report = validate_configuration(cfg)
            assert report.ok
            assert report.violations == ()

    def test_children_closure(self, psy1):
        remaining = [c for c in psy1.components if c.id != GLIB1]
        report = validate_configuration(remaining)
        assert not report.ok
        assert conditions(report) == ["children-closure"]
        assert str(BIN1) in report.violations[0].subjects
        assert str(GLIB1) in report.violations[0].subjects

    def test_dependency_closure(self, psy1):
        ghost = ComponentId("CGLib", "ghost.so", IMSK, 1)
        mutated = replace_component(psy1, DEF_PSC, dependencies=frozenset({ghost}))
        report = validate_configuration(mutated)
        assert conditions(report) == ["dependency-closure"]
        assert str(ghost) in report.violations[0].subjects

    def test_unique_root_extra_root(self, psy1):
        stray = Component.leaf(ComponentId("PScr", "stray.psc", IMSK, 1))
        report = validate_configuration(list(psy1.components) + [stray])
        assert conditions(report) == ["unique-root"]
        assert str(PSY1) in report.violations[0].subjects
        assert str(stray.id) in report.violations[0].subjects

    def test_unique_root_empty(self):
        report = validate_configuration(Configuration())
        assert conditions(report) == ["unique-root"]

    def test_unique_root_no_root(self):
        a = ComponentId("T", "a", "o", 1)
        b = ComponentId("T", "b", "o", 1)
        cycle = [Component.composite(a, [b]), Component.composite(b, [a])]
        report = validate_configuration(cycle)
        assert conditions(report) == ["unique-root"]
        assert "no root" in report.violations[0].message

    def test_multiple_parents(self, psy1):
        root = psy1.by_id()[PSY1]
        mutated = replace_component(
            psy1, PSY1, children=root.child_ids | {GLIB1})
        report = validate_configuration(mutated)
        assert conditions(report) == ["multiple-parents"]
        assert report.violations[0].subjects[0] == str(GLIB1)

    def test_duplicate_id(self, psy1):
        report = validate_configuration(
            list(psy1.components) + [Component.leaf(DEF_PSC, ["copy"])])
        assert conditions(report) == ["duplicate-id"]

    def test_detached_cycle_is_unreachable(self, psy1):
        # A two-component containment cycle off to the side passes the
        # closure, root, and parent-count checks; only reachability from the
        # root exposes it.
        a = ComponentId("CGLib", "a.so", IMSK, 1)
        b = ComponentId("CGLib", "b.so", IMSK, 1)
        cycle = [Component.composite(a, [b]), Component.composite(b, [a])]
        report = validate_configuration(list(psy1.components) + cycle)
        assert not report.ok
        assert conditions(report) == ["unreachable", "unreachable"]
        assert {v.subjects[0] for v in report.violations} == {str(a), str(b)}

    def test_violations_come_in_a_fixed_order(self):
        # x three times and y twice, interleaved: duplicates are reported in
        # first-occurrence order with their counts, then the closure checks
        # per component in input order.
        x, y = ComponentId("L", "x", "o", 1), ComponentId("L", "y", "o", 1)
        r, m, d = (ComponentId("R", "r", "o", 1), ComponentId("M", "m", "o", 1),
                   ComponentId("D", "d", "o", 1))
        report = validate_configuration([
            Component.leaf(x), Component.leaf(y, dependencies=[d]), Component.leaf(x),
            Component.composite(r, [x, y, m]), Component.leaf(y), Component.leaf(x),
        ])
        assert report.violations == (
            Violation("duplicate-id", (str(x),), f"component id {x} declared 3 times"),
            Violation("duplicate-id", (str(y),), f"component id {y} declared 2 times"),
            Violation("dependency-closure", (str(y), str(d)),
                      f"{y} depends on {d}, which is not in the configuration"),
            Violation("children-closure", (str(r), str(m)),
                      f"{r} contains {m}, which is not in the configuration"),
        )

    def test_unreachable_components_come_in_input_order(self):
        r, leaf = ComponentId("R", "r", "o", 1), ComponentId("L", "x", "o", 1)
        a, b = ComponentId("C", "b", "o", 1), ComponentId("C", "a", "o", 1)
        report = validate_configuration([
            Component.composite(r, [leaf]), Component.composite(a, [b]),
            Component.leaf(leaf), Component.composite(b, [a]),
        ])
        assert report.violations == (
            Violation("unreachable", (str(a),), f"{a} is not reachable from the root"),
            Violation("unreachable", (str(b),), f"{b} is not reachable from the root"),
        )

    def test_undeclared_children_do_not_hide_a_detached_cycle(self):
        # Three missing children reached from the root must not count as
        # reachable members: the cycle a <-> b is still reported.
        r = ComponentId("R", "r", "o", 1)
        ghosts = [ComponentId("G", f"g{k}", "o", 1) for k in range(3)]
        a, b = ComponentId("C", "a", "o", 1), ComponentId("C", "b", "o", 1)
        report = validate_configuration([
            Component.composite(r, ghosts), Component.composite(a, [b]),
            Component.composite(b, [a]),
        ])
        assert conditions(report) == ["children-closure"] * 3 + ["unreachable"] * 2
        assert [v.subjects[1] for v in report.violations[:3]] == [str(g) for g in ghosts]

    def test_multiple_parents_are_sorted_by_child_then_parent(self):
        # Children and parents are given against their sort order.
        r = ComponentId("R", "r", "o", 1)
        p, q = ComponentId("P", "p", "o", 1), ComponentId("P", "q", "o", 1)
        x, y = ComponentId("L", "x", "o", 1), ComponentId("L", "y", "o", 1)
        report = validate_configuration([
            Component.composite(r, [q, p, y]), Component.composite(q, [y, x]),
            Component.composite(p, [x, y]), Component.leaf(y), Component.leaf(x),
        ])
        assert report.violations == (
            Violation("multiple-parents", (str(x), str(p), str(q)),
                      f"{x} is contained in more than one component"),
            Violation("multiple-parents", (str(y), str(p), str(q), str(r)),
                      f"{y} is contained in more than one component"),
        )

    @given(configurations())
    def test_generated_configurations_are_valid(self, cfg):
        assert validate_configuration(cfg).ok


# --------------------------------------------------------------------------
# Spec conditions


class TestSpecConditions:
    def test_reference_spec_is_valid(self, cs_psycho):
        report = validate_spec(cs_psycho)
        assert report.ok
        assert report.violations == ()

    def test_duplicate_type(self, cs_psycho):
        extra = ComponentSpec(AbstractComponentId("PScr", NameSet.of("other")))
        report = validate_spec(list(cs_psycho.sorted_specs()) + [extra])
        assert "duplicate-type" in conditions(report)
        assert ("PScr",) in [v.subjects for v in report.violations]

    def test_children_closure(self, cs_psycho):
        bin_node = cs_psycho.spec_for("Bin")
        orphan_slot = ChildSlot(AbstractComponentId("Zap"), Interval(1, 1))
        mutated = replace_node(
            cs_psycho, "Bin",
            children=frozenset(bin_node.children) | {orphan_slot},
            total=Interval(4, 4))
        report = validate_spec(mutated)
        assert conditions(report) == ["children-closure"]
        assert report.violations[0].subjects == ("Bin", "Zap")

    def test_dependency_coverage_unknown_type(self, cs_psycho):
        mutated = replace_node(
            cs_psycho, "PScr",
            dependencies=frozenset({AbstractComponentId("Ghost")}))
        report = validate_spec(mutated)
        assert conditions(report) == ["dependency-coverage"]

    def test_dependency_coverage_wider_than_node(self, cs_psycho):
        # An App dependency allowing any name is broader than the App node,
        # so some identifiers it admits match no node.
        mutated = replace_node(
            cs_psycho, "PScr",
            dependencies=frozenset({AbstractComponentId("App")}))
        report = validate_spec(mutated)
        assert conditions(report) == ["dependency-coverage"]

    def test_unique_root(self, cs_psycho):
        remaining = [cs for cs in cs_psycho.sorted_specs() if cs.ctype != "Psycho"]
        report = validate_spec(remaining)
        assert conditions(report) == ["unique-root"]
        assert report.violations[0].subjects == ("Bin", "CGLib", "PScr")

    def test_unique_root_empty(self):
        report = validate_spec(SpecSet())
        assert conditions(report) == ["unique-root"]

    def test_multiple_parents(self, cs_psycho):
        mutated = replace_node(
            cs_psycho, "PScr",
            children=frozenset({ChildSlot(ACI_APP, Interval(0, 0))}))
        report = validate_spec(mutated)
        assert conditions(report) == ["multiple-parents"]
        assert report.violations[0].subjects[0] == "App"

    def test_interval_sum(self, cs_psycho):
        mutated = replace_node(cs_psycho, "Psycho", total=Interval(3, INF))
        report = validate_spec(mutated)
        assert conditions(report) == ["interval-sum"]
        assert report.violations[0].subjects == ("Psycho",)

    def test_duplicate_dependency_type(self, cs_psycho):
        narrowed = AbstractComponentId("CGLib", NameSet.of("julib.so"))
        node = cs_psycho.spec_for("PScr")
        mutated = replace_node(
            cs_psycho, "PScr",
            dependencies=frozenset(node.dependencies) | {narrowed})
        report = validate_spec(mutated)
        assert conditions(report) == ["duplicate-dependency-type"]
        assert report.violations[0].subjects == ("PScr", "CGLib")

    def test_dependency_child_overlap(self, cs_psycho):
        mutated = replace_node(
            cs_psycho, "Bin", dependencies=frozenset({ACI_APP}))
        report = validate_spec(mutated)
        assert conditions(report) == ["dependency-child-overlap"]

    def test_child_sum_advisory_is_a_warning(self, cs_psycho):
        # Total wider than the children can account for: well-formed, but
        # flagged.
        mutated = replace_node(cs_psycho, "Bin", total=Interval(2, 5))
        report = validate_spec(mutated)
        assert report.ok
        assert [v.condition for v in report.warnings] == ["child-sum-advisory"]
        assert conditions(validate_spec(replace_node(cs_psycho, "Bin", total=Interval(3, 3)))) == []

    def test_report_serialization(self, cs_psycho):
        report = validate_spec(replace_node(cs_psycho, "Psycho", total=Interval(3, INF)))
        [entry] = report.as_dicts()
        assert entry["condition"] == "interval-sum"
        assert entry["severity"] == "error"
        assert entry["subjects"] == ["Psycho"]

    @given(spec_sets())
    def test_generated_specs_are_valid(self, spec):
        assert validate_spec(spec).ok


# --------------------------------------------------------------------------
# Duplicate guards on the value types themselves


class TestValueGuards:
    def test_spec_set_rejects_duplicate_ctype(self):
        with pytest.raises(ValueError):
            SpecSet(frozenset({
                ComponentSpec(AbstractComponentId("T", NameSet.of("a"))),
                ComponentSpec(AbstractComponentId("T", NameSet.of("b"))),
            }))

    def test_component_spec_rejects_duplicate_slot_ctype(self):
        with pytest.raises(ValueError):
            ComponentSpec(
                AbstractComponentId("T"),
                children=frozenset({
                    ChildSlot(AbstractComponentId("U", NameSet.of("a")), Interval(1, 1)),
                    ChildSlot(AbstractComponentId("U", NameSet.of("b")), Interval(1, 1)),
                }))


# --------------------------------------------------------------------------
# Validation runs once per value; the report is kept on it


class TestValidationMemo:
    def test_a_value_keeps_its_report(self, psy1, cs_psycho):
        assert validate_configuration(psy1) is validate_configuration(psy1)
        assert validate_spec(cs_psycho) is validate_spec(cs_psycho)

    def test_validated_values_equal_unvalidated_ones(self, psy1, cs_psycho):
        assert validate_configuration(psy1).ok and validate_spec(cs_psycho).ok
        fresh_config, fresh_spec = build_psy1(), build_cs_psycho()
        assert psy1 == fresh_config and hash(psy1) == hash(fresh_config)
        assert cs_psycho == fresh_spec and hash(cs_psycho) == hash(fresh_spec)
        assert repr(cs_psycho) == repr(fresh_spec)

    def test_an_invalid_value_raises_on_every_call(self, psy1, cs_psycho):
        broken = Configuration(tuple(c for c in psy1.components if c.id != GLIB1))
        for _ in range(2):
            with pytest.raises(NotAConfiguration):
                compliant(broken, cs_psycho)
        ghost = SpecSet(frozenset({ComponentSpec(
            AbstractComponentId("A"),
            children=frozenset({ChildSlot(AbstractComponentId("Ghost"), Interval(1, 1))}),
            total=Interval(1, 1))}))
        for _ in range(2):
            with pytest.raises(InvalidSpec):
                compliant(psy1, ghost)

    def test_plain_lists_are_checked_each_time(self, psy1, cs_psycho):
        components, nodes = list(psy1.components), list(cs_psycho.specs)
        assert validate_configuration(components) == validate_configuration(psy1)
        assert validate_spec(nodes) == validate_spec(cs_psycho)
        assert validate_configuration(components) is not validate_configuration(components)
        assert not validate_configuration(components[1:]).ok

    def test_replace_builds_a_new_value_that_is_checked_again(self, psy1):
        assert validate_configuration(psy1).ok
        broken = psy1.replace(components=[c for c in psy1 if c.id != GLIB1])
        assert broken == Configuration(tuple(c for c in psy1 if c.id != GLIB1))
        assert not validate_configuration(broken).ok and validate_configuration(psy1).ok
        with pytest.raises(ValueError):
            BIN1.replace(version=-1)
        with pytest.raises(ValueError):
            next(c for c in psy1 if c.is_leaf).replace(elements=None)


# --------------------------------------------------------------------------
# Root helpers


class TestRoots:
    def test_root_of(self, psy1, psy2):
        assert root_of(psy1).id == PSY1
        assert root_of(psy2).id.name == "psy2"

    def test_root_of_requires_valid_configuration(self, psy1):
        broken = [c for c in psy1.components if c.id != GLIB1]
        with pytest.raises(NotAConfiguration) as exc:
            root_of(Configuration(tuple(broken)))
        assert exc.value.report.errors

    def test_spec_root(self, cs_psycho):
        assert spec_root(cs_psycho).ctype == "Psycho"
        assert spec_root(SpecSet()) is None
        two_roots = SpecSet(frozenset({
            ComponentSpec(AbstractComponentId("A")),
            ComponentSpec(AbstractComponentId("B")),
        }))
        assert spec_root(two_roots) is None

    def test_exceptions_carry_reports(self, psy1):
        report = validate_configuration(list(psy1.components) * 2)
        err = NotAConfiguration(report)
        assert err.report is report
        assert "not a valid configuration" in str(err)
        spec_report = validate_spec([
            ComponentSpec(AbstractComponentId("T", NameSet.of("a"))),
            ComponentSpec(AbstractComponentId("T", NameSet.of("b"))),
        ])
        err2 = InvalidSpec(spec_report)
        assert "not a valid configuration spec" in str(err2)
