"""Minimal-spec inference and the unify fold."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from confkit import (
    AbstractComponentId,
    ChildSlot,
    Component,
    ComponentId,
    ComponentSpec,
    Configuration,
    Interval,
    NameSet,
    NotAConfiguration,
    OriginSet,
    SpecSet,
    VersionSet,
    infer,
    infer_component,
    unify,
    unify_children,
    unify_dependencies,
    validate_spec,
)

from conftest import build_inferred_psy1, build_inferred_psy2
from strategies import configurations, spec_sets


def spec_a(slots: dict[str, Interval], total: Interval) -> ComponentSpec:
    return ComponentSpec(
        AbstractComponentId("A", NameSet.of("a"), OriginSet.of("o"), VersionSet.of(1)),
        children=frozenset(
            ChildSlot(AbstractComponentId(t), count) for t, count in slots.items()),
        total=total,
    )


def leaf_node(ctype: str) -> ComponentSpec:
    return ComponentSpec(AbstractComponentId(ctype))


# --------------------------------------------------------------------------
# Golden inferences


class TestGoldenInference:
    def test_inferred_spec_of_psy2(self, psy2):
        assert infer(psy2) == build_inferred_psy2()

    def test_inferred_spec_of_psy1(self, psy1):
        assert infer(psy1) == build_inferred_psy1()

    def test_faithful_leaf_rule_counts_each_leaf(self, psy2):
        # Every leaf contributes [1,1] instead of [0,0]; the two script
        # leaves merge into a [2,2] total.
        leaf_totals = {"PScr": Interval(2, 2), "CGLib": Interval(1, 1),
                       "App": Interval(1, 1), "MLib": Interval(1, 1),
                       "GLib": Interval(1, 1)}
        expected = SpecSet(frozenset(
            cs.replace(total=leaf_totals.get(cs.ctype, cs.total))
            for cs in build_inferred_psy2()
        ))
        assert infer(psy2, faithful_leaf_rule=True) == expected

    def test_inference_requires_a_valid_configuration(self):
        with pytest.raises(NotAConfiguration):
            infer(Configuration())
        dangling = Component.composite(
            ComponentId("T", "r", "o", 1), [ComponentId("T", "missing", "o", 1)])
        with pytest.raises(NotAConfiguration):
            infer(Configuration((dangling,)))


class TestInferComponent:
    def test_leaf(self):
        dep = ComponentId("U", "lib", "o", 2)
        leaf = Component.leaf(ComponentId("T", "x", "o", 1), ["f"], [dep])
        [node] = infer_component(leaf)
        assert node.aci == ComponentId("T", "x", "o", 1).to_abstract()
        assert node.dependencies == frozenset({dep.to_abstract()})
        assert node.children == frozenset()
        assert node.total == Interval(0, 0)
        [faithful] = infer_component(leaf, faithful_leaf_rule=True)
        assert faithful.total == Interval(1, 1)

    def test_composite_groups_children_by_ctype(self):
        kids = [
            ComponentId("U", "u1", "o", 1),
            ComponentId("U", "u2", "o", 2),
            ComponentId("V", "v1", "o", 1),
        ]
        comp = Component.composite(ComponentId("T", "t", "o", 1), kids)
        [node] = infer_component(comp)
        slots = {slot.aci.ctype: slot for slot in node.children}
        assert slots["U"].count == Interval(2, 2)
        assert slots["U"].aci.names == NameSet.of("u1", "u2")
        assert slots["U"].aci.versions == VersionSet.of(1, 2)
        assert slots["V"].count == Interval(1, 1)
        assert node.total == Interval(3, 3)

    def test_empty_composite(self):
        comp = Component.composite(ComponentId("T", "t", "o", 1), [])
        [node] = infer_component(comp)
        assert node.children == frozenset()
        assert node.total == Interval(0, 0)


# --------------------------------------------------------------------------
# Unify


class TestUnify:
    def test_disjoint_ctypes_pass_through(self):
        a = SpecSet(frozenset({leaf_node("A")}))
        b = SpecSet(frozenset({leaf_node("B")}))
        assert unify(a, b) == SpecSet(frozenset({leaf_node("A"), leaf_node("B")}))

    def test_totals_add(self):
        a = SpecSet(frozenset({leaf_node("A").replace(total=Interval(1, 2))}))
        b = SpecSet(frozenset({leaf_node("A").replace(total=Interval(3, 3))}))
        [node] = unify(a, b)
        assert node.total == Interval(4, 5)

    def test_one_sided_slots_widen_to_zero(self):
        # The third unify example: a parent seen once with two Bs and once
        # with three Cs admits zero of either, but its size stays the sum.
        a = SpecSet(frozenset({spec_a({"B": Interval(2, 2)}, Interval(2, 2)), leaf_node("B")}))
        b = SpecSet(frozenset({spec_a({"C": Interval(3, 3)}, Interval(3, 3)), leaf_node("C")}))
        assert validate_spec(a).ok
        assert validate_spec(b).ok
        u = unify(a, b)
        node = u.spec_for("A")
        slots = {slot.aci.ctype: slot.count for slot in node.children}
        assert slots == {"B": Interval(0, 2), "C": Interval(0, 3)}
        assert node.total == Interval(5, 5)

    def test_unify_of_valid_specs_can_be_invalid(self):
        # Regression pin for the boundary above: the widened children sum to
        # [0,5], which the inherited total [5,5] does not contain, so the
        # unified spec fails the interval-sum condition.
        a = SpecSet(frozenset({spec_a({"B": Interval(2, 2)}, Interval(2, 2)), leaf_node("B")}))
        b = SpecSet(frozenset({spec_a({"C": Interval(3, 3)}, Interval(3, 3)), leaf_node("C")}))
        report = validate_spec(unify(a, b))
        assert [v.condition for v in report.errors] == ["interval-sum"]
        assert report.errors[0].subjects == ("A",)

    def test_both_sided_slots_merge(self):
        a = SpecSet(frozenset({
            ComponentSpec(
                AbstractComponentId("A"),
                children=frozenset({ChildSlot(
                    AbstractComponentId("B", NameSet.of("x"), OriginSet.of("o"), VersionSet.of(1)),
                    Interval(1, 1))}),
                total=Interval(1, 1)),
        }))
        b = SpecSet(frozenset({
            ComponentSpec(
                AbstractComponentId("A"),
                children=frozenset({ChildSlot(
                    AbstractComponentId("B", NameSet.of("y"), OriginSet.of("o"), VersionSet.of(2)),
                    Interval(2, 2))}),
                total=Interval(2, 2)),
        }))
        [slot] = unify(a, b).spec_for("A").children
        assert slot.count == Interval(1, 2)
        assert slot.aci.names == NameSet.of("x", "y")
        assert slot.aci.versions == VersionSet.of(1, 2)

    def test_dependencies_merge_per_ctype(self):
        dep1 = AbstractComponentId("D", NameSet.of("a"), OriginSet.of("o"), VersionSet.of(1))
        dep2 = AbstractComponentId("D", NameSet.of("b"), OriginSet.of("o"), VersionSet.of(2))
        other = AbstractComponentId("E")
        merged = unify_dependencies([dep1, other], [dep2])
        assert merged == frozenset({dep1.merge(dep2), other})

    def test_unify_children_goldens(self):
        b1 = ChildSlot(AbstractComponentId("B", NameSet.of("x")), Interval(2, 2))
        b2 = ChildSlot(AbstractComponentId("B", NameSet.of("y")), Interval(1, 3))
        c = ChildSlot(AbstractComponentId("C"), Interval(1, 1))
        out = {slot.aci.ctype: slot for slot in unify_children([b1], [b2, c])}
        assert out["B"].count == Interval(1, 3)
        assert out["B"].aci.names == NameSet.of("x", "y")
        assert out["C"].count == Interval(0, 1)

    @given(spec_sets(), spec_sets())
    def test_unify_commutes(self, a, b):
        assert unify(a, b) == unify(b, a)

    @given(spec_sets(), spec_sets(), spec_sets())
    def test_unify_is_associative(self, a, b, c):
        assert unify(unify(a, b), c) == unify(a, unify(b, c))


# --------------------------------------------------------------------------
# Whole-configuration properties


class TestInferenceProperties:
    @given(configurations(), st.randoms(use_true_random=False))
    def test_component_order_does_not_matter(self, cfg, rng):
        shuffled = list(cfg.components)
        rng.shuffle(shuffled)
        assert infer(Configuration(tuple(shuffled))) == infer(cfg)

    @given(configurations())
    def test_inference_is_deterministic(self, cfg):
        assert infer(cfg) == infer(cfg)

    @given(configurations())
    def test_every_ctype_gets_exactly_one_entry(self, cfg):
        inferred = infer(cfg)
        assert inferred.ctypes == frozenset(c.id.ctype for c in cfg)

    @given(configurations())
    def test_every_component_matches_its_entry(self, cfg):
        inferred = infer(cfg)
        for comp in cfg:
            node = inferred.spec_for(comp.id.ctype)
            assert comp.id in node.aci
