"""Compliance checking, its independent structural oracle, and upgrade
compatibility."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

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
    VersionSet,
    ci_compat_leq,
    compatible,
    compliant,
    component_spec_leq,
    config_leq,
    direct_check,
    infer,
    root_of,
    spec_set_leq,
    validate_spec,
)
from confkit.typecheck import ctype_order

from conftest import (
    ACI_CGLIB,
    ACI_PSCR,
    APP2,
    BIN1,
    DEF_PSC,
    GLIB1,
    IMSK,
    JULIB,
    MY_PSC,
    PSY1,
    build_psy1,
    build_psy2,
)
from strategies import component_ids, configurations, spec_sets


def remap_id(config: Configuration, old: ComponentId, new: ComponentId) -> Configuration:
    def swap(ids):
        return frozenset(new if i == old else i for i in ids)

    out = []
    for c in config:
        out.append(c.replace(
            id=new if c.id == old else c.id,
            dependencies=swap(c.dependencies),
            children=swap(c.children) if c.children is not None else None,
        ))
    return Configuration(tuple(out))


def with_extra(config: Configuration, parent: ComponentId, extra: Component) -> Configuration:
    out = []
    for c in config:
        if c.id == parent:
            c = c.replace(children=c.children | {extra.id})
        out.append(c)
    out.append(extra)
    return Configuration(tuple(out))


def with_random_dependencies(config: Configuration, rnd: random.Random) -> Configuration:
    """The same tree; PScr components depend on a random subset of the other
    PScr and CGLib members, any other component on one random member with
    probability 1/20."""
    ids = sorted((c.id for c in config), key=lambda i: i.sort_key)
    out = []
    for c in config:
        candidates = [i for i in ids if i != c.id and i not in c.child_ids]
        if c.id.ctype == "PScr":
            pool = [i for i in candidates if i.ctype in ("PScr", "CGLib")]
            deps = rnd.sample(pool, rnd.randint(0, len(pool)))
        else:
            deps = rnd.sample(candidates, 1) if rnd.random() < 0.05 else []
        out.append(c.replace(dependencies=frozenset(deps)))
    return Configuration(tuple(out))


def clauses(verdict) -> list[tuple[str, str]]:
    return [(f.subject, f.clause) for f in verdict.failures]


# --------------------------------------------------------------------------
# Spec-level subtyping


class TestSpecSubtyping:
    def test_inferred_specs_refine_the_authored_one(self, psy1, psy2, cs_psycho):
        assert spec_set_leq(infer(psy1), cs_psycho)
        assert spec_set_leq(infer(psy2), cs_psycho)

    def test_reflexive_on_goldens(self, cs_psycho):
        assert spec_set_leq(cs_psycho, cs_psycho)

    def test_total_must_be_included(self):
        a = ComponentSpec(AbstractComponentId("T"), total=Interval(0, 3))
        b = ComponentSpec(AbstractComponentId("T"), total=Interval(1, 3))
        assert not component_spec_leq(a, b)
        assert component_spec_leq(b, a)

    def test_dependencies_must_be_covered(self):
        dep = AbstractComponentId("D", NameSet.of("x"))
        a = ComponentSpec(AbstractComponentId("T"), dependencies=frozenset({dep}))
        b = ComponentSpec(AbstractComponentId("T"))
        wide = ComponentSpec(
            AbstractComponentId("T"),
            dependencies=frozenset({AbstractComponentId("D")}))
        assert not component_spec_leq(a, b)
        assert component_spec_leq(a, wide)
        assert component_spec_leq(b, wide)  # no dependencies to cover

    def test_child_slots_must_match(self):
        slot = ChildSlot(AbstractComponentId("U"), Interval(1, 2))
        a = ComponentSpec(AbstractComponentId("T"), children=frozenset({slot}), total=Interval(1, 2))
        no_slot = ComponentSpec(AbstractComponentId("T"), total=Interval(0, 5))
        narrow = ComponentSpec(
            AbstractComponentId("T"),
            children=frozenset({ChildSlot(AbstractComponentId("U"), Interval(2, 2))}),
            total=Interval(0, 5))
        wide = ComponentSpec(
            AbstractComponentId("T"),
            children=frozenset({ChildSlot(AbstractComponentId("U"), Interval(0, 4))}),
            total=Interval(0, 5))
        assert not component_spec_leq(a, no_slot)
        assert not component_spec_leq(a, narrow)
        assert component_spec_leq(a, wide)


# --------------------------------------------------------------------------
# Compliance goldens


class TestCompliance:
    def test_reference_configurations_comply(self, psy1, psy2, cs_psycho):
        for cfg in (psy1, psy2):
            verdict = compliant(cfg, cs_psycho)
            assert verdict.compliant
            assert verdict.failures == ()

    def test_missing_script_breaks_the_root_total(self, psy1, cs_psycho):
        without = Configuration(tuple(
            c.replace(children=c.children - {DEF_PSC}) if c.id == PSY1 else c
            for c in psy1 if c.id != DEF_PSC))
        verdict = compliant(without, cs_psycho)
        assert not verdict.compliant
        assert clauses(verdict) == [("Psycho", "total")]
        assert verdict.failures[0].detail == "Psycho contains 1..1 children, allowed 2..*"

    def test_identifier_clause(self, psy1, cs_psycho):
        renamed = remap_id(psy1, BIN1, BIN1.replace(name="zin1"))
        verdict = compliant(renamed, cs_psycho)
        assert clauses(verdict) == [("Psycho", "child-identifier"), ("Bin", "identifier")]

    def test_dependency_clause(self, psy2, cs_psycho):
        mutated = Configuration(tuple(
            c.replace(dependencies=frozenset({JULIB, APP2})) if c.id == MY_PSC else c
            for c in psy2))
        verdict = compliant(mutated, cs_psycho)
        assert clauses(verdict) == [("PScr", "dependencies")]
        assert "App" in verdict.failures[0].detail

    def test_unexpected_child_type(self, psy2, cs_psycho):
        doc = Component.leaf(ComponentId("Doc", "readme", IMSK, 1))
        psycho_id = next(c.id for c in psy2 if c.id.ctype == "Psycho")
        grown = with_extra(psy2, psycho_id, doc)
        verdict = compliant(grown, cs_psycho)
        assert clauses(verdict) == [
            ("Psycho", "unexpected-child-type"), ("Doc", "missing-spec-node")]

    def test_child_interval_clause(self, psy2, cs_psycho):
        bin3 = Component.composite(ComponentId("Bin", "bin3", IMSK, 1), [])
        grown = with_extra(psy2, next(c.id for c in psy2 if c.id.ctype == "Psycho"), bin3)
        verdict = compliant(grown, cs_psycho)
        assert clauses(verdict) == [
            ("Psycho", "child-interval"), ("Bin", "child-interval")]
        assert verdict.failures[0].detail == "Psycho contains 2..2 of ctype Bin, allowed 1..1"

    def test_faithful_leaf_rule_rejects_zero_total_leaves(self, psy1, cs_psycho):
        verdict = compliant(psy1, cs_psycho, faithful_leaf_rule=True)
        assert not verdict.compliant
        assert clauses(verdict) == [
            ("App", "total"), ("GLib", "total"), ("MLib", "total"), ("PScr", "total")]

    def test_strict_lower_bounds(self):
        r = ComponentId("R", "r", "o", 1)
        b = ComponentId("B", "b", "o", 1)
        spec = SpecSet(frozenset({
            ComponentSpec(
                AbstractComponentId("R"),
                children=frozenset({
                    ChildSlot(AbstractComponentId("S"), Interval(1, 1)),
                    ChildSlot(AbstractComponentId("B"), Interval(0, 1)),
                }),
                total=Interval(1, 2)),
            ComponentSpec(AbstractComponentId("S")),
            ComponentSpec(AbstractComponentId("B")),
        }))
        cfg = Configuration((
            Component.composite(r, [b]),
            Component.leaf(b),
        ))
        assert compliant(cfg, spec).compliant
        verdict = compliant(cfg, spec, strict_lower_bounds=True)
        assert clauses(verdict) == [("R", "missing-required-child")]
        assert "S" in verdict.failures[0].detail

    def test_spec_must_be_valid(self, psy1):
        broken = SpecSet(frozenset({
            ComponentSpec(AbstractComponentId("A"),
                          children=frozenset({ChildSlot(AbstractComponentId("Ghost"), Interval(1, 1))}),
                          total=Interval(1, 1)),
        }))
        with pytest.raises(InvalidSpec):
            compliant(psy1, broken)

    def test_configuration_must_be_valid(self, cs_psycho):
        with pytest.raises(NotAConfiguration):
            compliant(Configuration(), cs_psycho)

    def test_compliance_equals_subtyping_of_inferred_spec(self, psy1, psy2, cs_psycho):
        # Besides the goldens: seeded variants of psy2 with random dependencies,
        # against the authored spec and against one whose PScr node admits
        # only PScr dependencies at version 1.
        narrowed = SpecSet(frozenset(
            cs.replace(dependencies=frozenset({
                AbstractComponentId("PScr", versions=VersionSet.of(1)), ACI_CGLIB}))
            if cs.ctype == "PScr" else cs
            for cs in cs_psycho))
        cases = [(psy1, cs_psycho), (psy2, cs_psycho)]
        rnd = random.Random(4)
        for _ in range(150):
            cfg = with_random_dependencies(psy2, rnd)
            cases += [(cfg, cs_psycho), (cfg, narrowed)]
        verdicts = set()
        for cfg, spec in cases:
            verdict = compliant(cfg, spec).compliant
            assert verdict == spec_set_leq(infer(cfg), spec)
            verdicts.add(verdict)
        assert verdicts == {True, False}


# --------------------------------------------------------------------------
# The independent oracle must agree, verdicts and details alike


class TestDirectCheckAgreement:
    def assert_agrees(self, cfg, spec, **kw):
        assert compliant(cfg, spec, **kw) == direct_check(cfg, spec, **kw)

    def test_agreement_on_goldens(self, psy1, psy2, cs_psycho):
        self.assert_agrees(psy1, cs_psycho)
        self.assert_agrees(psy2, cs_psycho)
        self.assert_agrees(psy1, cs_psycho, faithful_leaf_rule=True)
        self.assert_agrees(psy2, cs_psycho, strict_lower_bounds=True)

    def test_agreement_on_mutants(self, psy1, psy2, cs_psycho):
        without_script = Configuration(tuple(
            c.replace(children=c.children - {DEF_PSC}) if c.id == PSY1 else c
            for c in psy1 if c.id != DEF_PSC))
        renamed = remap_id(psy1, BIN1, BIN1.replace(name="zin1"))
        bad_dep = Configuration(tuple(
            c.replace(dependencies=frozenset({JULIB, APP2})) if c.id == MY_PSC else c
            for c in psy2))
        psycho_id = next(c.id for c in psy2 if c.id.ctype == "Psycho")
        with_doc = with_extra(psy2, psycho_id, Component.leaf(ComponentId("Doc", "readme", IMSK, 1)))
        second_bin = with_extra(
            psy2, psycho_id, Component.composite(ComponentId("Bin", "bin3", IMSK, 1), []))
        for cfg in (without_script, renamed, bad_dep, with_doc, second_bin):
            self.assert_agrees(cfg, cs_psycho)
            self.assert_agrees(cfg, cs_psycho, faithful_leaf_rule=True)
            self.assert_agrees(cfg, cs_psycho, strict_lower_bounds=True)

    @settings(max_examples=300)
    @given(configurations(), spec_sets(ctypes=("T", "U", "V")))
    def test_agreement_on_generated_pairs(self, cfg, spec):
        self.assert_agrees(cfg, spec)

    @settings(max_examples=100)
    @given(configurations(), spec_sets(ctypes=("T", "U", "V")))
    def test_agreement_under_both_flags(self, cfg, spec):
        self.assert_agrees(cfg, spec, faithful_leaf_rule=True)
        self.assert_agrees(cfg, spec, strict_lower_bounds=True)


# --------------------------------------------------------------------------
# Compatibility


class TestCiCompat:
    def test_goldens(self):
        a = ComponentId("T", "n", "o", 1)
        assert ci_compat_leq(a, a)
        assert ci_compat_leq(a, a.replace(version=2))
        assert not ci_compat_leq(a.replace(version=2), a)
        assert not ci_compat_leq(a, a.replace(origin="other"))
        assert not ci_compat_leq(a, a.replace(ctype="U"))
        renamed = a.replace(name="m")
        assert not ci_compat_leq(a, renamed)  # leaves keep their name
        assert ci_compat_leq(a, renamed, composite_a=True)
        assert not ci_compat_leq(a, renamed, composite_a=True, relaxed=False)

    def test_strict_variant_is_antisymmetric(self):
        a = ComponentId("T", "n", "o", 1)
        b = ComponentId("T", "n", "o", 2)
        assert ci_compat_leq(a, b, relaxed=False)
        assert not ci_compat_leq(b, a, relaxed=False)

    def test_relaxed_composite_order_is_not_antisymmetric(self):
        a = ComponentId("T", "one", "o", 1)
        b = ComponentId("T", "two", "o", 1)
        assert ci_compat_leq(a, b, composite_a=True)
        assert ci_compat_leq(b, a, composite_a=True)
        assert a != b

    @given(component_ids(), component_ids(), component_ids())
    def test_transitive_for_each_fixed_mode(self, a, b, c):
        for kw in ({}, {"composite_a": True}, {"relaxed": False}):
            if ci_compat_leq(a, b, **kw) and ci_compat_leq(b, c, **kw):
                assert ci_compat_leq(a, c, **kw)

    @given(component_ids(), component_ids())
    def test_strict_antisymmetry(self, a, b):
        if ci_compat_leq(a, b, relaxed=False) and ci_compat_leq(b, a, relaxed=False):
            assert a == b


class TestConfigCompat:
    def test_upgrade_is_compatible(self, psy1, psy2, cs_psycho):
        verdict = compatible(psy1, psy2, cs_psycho)
        assert verdict.compatible
        assert verdict.reasons == ()

    def test_downgrade_is_not(self, psy1, psy2, cs_psycho):
        verdict = compatible(psy2, psy1, cs_psycho)
        assert not verdict.compatible
        by_cause = {}
        for r in verdict.reasons:
            by_cause.setdefault(r.cause, []).append(r.subject)
        assert by_cause["no-counterpart"] == [str(JULIB), str(MY_PSC)]
        assert len(by_cause["version-regression"]) == 5
        assert set(by_cause) == {"no-counterpart", "version-regression"}

    def test_strict_names_reject_renamed_composites(self, psy1, psy2, cs_psycho):
        verdict = compatible(psy1, psy2, cs_psycho, relaxed=False)
        assert not verdict.compatible
        assert [(r.subject, r.cause) for r in verdict.reasons] == [
            (str(BIN1), "no-counterpart"),
            (str(PSY1), "no-counterpart"),
        ]

    def test_noncompliant_sides_are_reported(self, psy1, psy2, cs_psycho):
        psycho_id = next(c.id for c in psy1 if c.id.ctype == "Psycho")
        bad = with_extra(psy1, psycho_id, Component.leaf(ComponentId("Doc", "readme", IMSK, 1)))
        as_a = compatible(bad, psy2, cs_psycho)
        assert [r.cause for r in as_a.reasons] == ["not-compliant-A"]
        as_b = compatible(psy1, bad, cs_psycho)
        assert [r.cause for r in as_b.reasons] == ["not-compliant-B"]
        both = compatible(bad, bad, cs_psycho)
        assert [r.cause for r in both.reasons] == ["not-compliant-A", "not-compliant-B"]

    def test_config_leq_goldens(self, psy1, psy2):
        assert config_leq(psy1, psy2)
        assert not config_leq(psy2, psy1)
        assert config_leq(psy1, psy1)

    def test_config_order_is_not_antisymmetric(self):
        # Two configurations that can each stand in for the other without
        # being equal: the doubled script on one side finds its counterpart
        # in the single newer script on the other.
        r = ComponentId("R", "root", "o", 1)
        s1 = ComponentId("T", "a", "o", 1)
        s2 = ComponentId("T", "a", "o", 3)
        a = Configuration((
            Component.composite(r, [s1, s2]),
            Component.leaf(s1),
            Component.leaf(s2),
        ))
        b = Configuration((
            Component.composite(r, [s2]),
            Component.leaf(s2),
        ))
        assert config_leq(a, b)
        assert config_leq(b, a)
        assert a != b

    @given(configurations())
    def test_config_leq_is_reflexive(self, cfg):
        assert config_leq(cfg, cfg)
        assert config_leq(cfg, cfg, relaxed=False)


# --------------------------------------------------------------------------
# Every form of a configuration gets the verdicts its `Configuration` gets


def every_result(fresh, spec: SpecSet) -> tuple:
    """What each engine returns, given a new argument from `fresh()` per call."""
    return (compliant(fresh(), spec), direct_check(fresh(), spec),
            compatible(fresh(), fresh(), spec), infer(fresh()),
            ctype_order(fresh()), root_of(fresh()))


def test_a_list_tuple_or_iterator_of_components_gets_the_configurations_results(psy2, cs_psycho):
    # psy2 has two PScr members, one depending on a CGLib: with one PScr
    # allowed, depending on PScr only, both Psycho and PScr fail, so
    # `compliant` orders its failures by walking the tree.
    def narrowed(cs: ComponentSpec) -> ComponentSpec:
        if cs.ctype == "Psycho":
            return cs.replace(children=frozenset(
                s.replace(count=Interval(1, 1)) if s.aci == ACI_PSCR else s for s in cs.children))
        if cs.ctype == "PScr":
            return cs.replace(dependencies=frozenset({ACI_PSCR}))
        return cs

    two_fail = SpecSet(frozenset(map(narrowed, cs_psycho)))
    assert validate_spec(two_fail).ok
    components = psy2.components
    for spec in (cs_psycho, two_fail):
        expected = every_result(lambda: Configuration(components), spec)
        for form in (Configuration, list, tuple, iter):
            assert every_result(lambda: form(components), spec) == expected, (spec, form)
    assert compliant(psy2, cs_psycho).compliant and compatible(psy2, psy2, cs_psycho).compatible
    assert clauses(compliant(psy2, two_fail)) == [("Psycho", "child-interval"), ("PScr", "dependencies")]
