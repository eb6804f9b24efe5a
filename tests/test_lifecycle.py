"""Guarded configuration changes and their journalled inverses."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confkit import (
    Component,
    ComponentId,
    Configuration,
    DependencyGuard,
    DuplicateComponentId,
    ExtendChange,
    JournalEntry,
    JournalMismatch,
    RemoveChange,
    RootRemoval,
    TypeChanged,
    UnknownComponent,
    UnknownParent,
    UpdateChange,
    WouldViolateSpec,
    apply,
    extend,
    remove,
    root_of,
    undo,
    update,
)

from conftest import (
    APP2,
    BIN1,
    BIN2,
    DEF_PSC,
    GLIB1,
    IMSK,
    JULIB,
    MY_PSC,
    PSY1,
    PSY2,
    build_extend_change,
    build_psy2,
    build_upgrade_change,
    widened_spec_for,
)
from strategies import layered_configurations


# --------------------------------------------------------------------------
# The worked upgrade: update then extend reproduces the new release


class TestWorkedUpgrade:
    def test_update_then_extend_reaches_psy2(self, psy1, cs_psycho):
        stepped, entry1 = update(psy1, build_upgrade_change(), cs_psycho)
        assert root_of(stepped).id == PSY2
        final, entry2 = extend(stepped, build_extend_change(), cs_psycho, seq=1)
        assert final == build_psy2()
        assert entry1.seq == 0 and entry2.seq == 1
        assert entry2.inverse == RemoveChange((JULIB, MY_PSC))

    def test_update_inverse_restores_originals(self, psy1, cs_psycho):
        _, entry = update(psy1, build_upgrade_change(), cs_psycho)
        assert isinstance(entry.inverse, UpdateChange)
        restored = dict(entry.inverse.replacements)
        assert set(restored) == {PSY2, BIN2, APP2,
                                 ComponentId("MLib", "mlib.so", IMSK, 3),
                                 ComponentId("GLib", "glib.so", IMSK, 2)}
        assert restored[BIN2] == psy1.by_id()[BIN1]

    def test_undo_chain_restores_the_original(self, psy1, cs_psycho):
        stepped, entry1 = update(psy1, build_upgrade_change(), cs_psycho)
        final, entry2 = extend(stepped, build_extend_change(), cs_psycho, seq=1)
        assert undo(final, entry2) == stepped
        assert undo(stepped, entry1) == psy1

    def test_operations_do_not_mutate_their_input(self, psy1, cs_psycho):
        before = Configuration(psy1.components)
        update(psy1, build_upgrade_change(), cs_psycho)
        assert psy1 == before


class TestApply:
    def test_apply_runs_the_operation_of_each_kind(self, psy1, cs_psycho):
        stepped, entry1 = apply(psy1, build_upgrade_change(), cs_psycho)
        assert (stepped, entry1) == update(psy1, build_upgrade_change(), cs_psycho)
        final, entry2 = apply(stepped, build_extend_change(), cs_psycho, seq=1)
        assert (final, entry2) == extend(stepped, build_extend_change(), cs_psycho, seq=1)
        back, entry3 = apply(final, entry2.inverse, cs_psycho, seq=2)
        assert (back, entry3) == remove(final, [JULIB, MY_PSC], cs_psycho, seq=2)
        assert back == stepped

    def test_apply_keeps_the_guards(self, psy2, cs_psycho):
        with pytest.raises(DependencyGuard):
            apply(psy2, RemoveChange((JULIB,)), cs_psycho)


# --------------------------------------------------------------------------
# Gates


class TestSpecGate:
    def test_second_binary_is_rejected(self, psy2, cs_psycho):
        bin3 = Component.composite(ComponentId("Bin", "bin3", IMSK, 1), [])
        change = ExtendChange.of([bin3], {bin3.id: PSY2})
        with pytest.raises(WouldViolateSpec) as exc:
            extend(psy2, change, cs_psycho)
        assert exc.value.verdict is not None
        assert not exc.value.verdict.compliant

    def test_renaming_outside_the_name_family_is_rejected(self, psy1, cs_psycho):
        zin = Component.composite(ComponentId("Bin", "zin1", IMSK, 1),
                                  psy1.by_id()[BIN1].child_ids)
        with pytest.raises(WouldViolateSpec):
            update(psy1, UpdateChange.of({BIN1: zin}), cs_psycho)

    def test_invalid_result_is_rejected_with_the_first_error(self, psy1, cs_psycho):
        ghost = ComponentId("GLib", "ghost.so", IMSK, 1)
        leaf = Component.leaf(ComponentId("PScr", "extra.psc", IMSK, 1), dependencies={ghost})
        with pytest.raises(WouldViolateSpec) as exc:
            extend(psy1, ExtendChange.of([leaf], {leaf.id: PSY1}), cs_psycho)
        assert str(exc.value).startswith("change breaks the configuration: ")
        assert "ghost.so" in str(exc.value)
        assert exc.value.verdict is None

    def test_strict_lower_bounds_guard_subtree_removal(self, psy2, cs_psycho):
        removed, entry = remove(psy2, [BIN2], cs_psycho)
        assert len(removed) == 4
        assert undo(removed, entry) == psy2
        with pytest.raises(WouldViolateSpec):
            remove(psy2, [BIN2], cs_psycho, strict_lower_bounds=True)


class TestStructuralGuards:
    def test_extend_rejects_existing_id(self, psy1, cs_psycho):
        change = ExtendChange.of([Component.leaf(DEF_PSC)], {DEF_PSC: PSY1})
        with pytest.raises(DuplicateComponentId):
            extend(psy1, change, cs_psycho)

    def test_extend_rejects_unknown_parent(self, psy1, cs_psycho):
        leaf = Component.leaf(ComponentId("PScr", "extra.psc", IMSK, 1))
        ghost = ComponentId("Psycho", "ghost", IMSK, 9)
        with pytest.raises(UnknownParent):
            extend(psy1, ExtendChange.of([leaf], {leaf.id: ghost}), cs_psycho)

    def test_extend_rejects_leaf_parent(self, psy1, cs_psycho):
        leaf = Component.leaf(ComponentId("PScr", "extra.psc", IMSK, 1))
        with pytest.raises(UnknownParent):
            extend(psy1, ExtendChange.of([leaf], {leaf.id: GLIB1}), cs_psycho)

    def test_extend_rejects_dangling_attachment(self, psy1, cs_psycho):
        leaf = Component.leaf(ComponentId("PScr", "extra.psc", IMSK, 1))
        stranger = ComponentId("PScr", "other.psc", IMSK, 1)
        with pytest.raises(UnknownComponent):
            extend(psy1, ExtendChange((leaf,), ((stranger, PSY1),)), cs_psycho)

    def test_update_rejects_unknown_component(self, psy1, cs_psycho):
        ghost = ComponentId("GLib", "ghost.so", IMSK, 1)
        with pytest.raises(UnknownComponent):
            update(psy1, UpdateChange.of({ghost: Component.leaf(ghost)}), cs_psycho)

    def test_update_rejects_ctype_changes(self, psy1, cs_psycho):
        impostor = Component.leaf(ComponentId("MLib", "glib.so", IMSK, 2))
        with pytest.raises(TypeChanged):
            update(psy1, UpdateChange.of({GLIB1: impostor}), cs_psycho)

    def test_update_rejects_collisions_with_untouched_ids(self, psy2, cs_psycho):
        with pytest.raises(DuplicateComponentId):
            update(psy2, UpdateChange.of({DEF_PSC: Component.leaf(MY_PSC, dependencies={JULIB})}), cs_psycho)

    def test_remove_guards_dependencies(self, psy2, cs_psycho):
        with pytest.raises(DependencyGuard) as exc:
            remove(psy2, [JULIB], cs_psycho)
        assert exc.value.dependents == (MY_PSC,)
        assert "my.psc" in str(exc.value)

    def test_remove_with_dependents_included_succeeds(self, psy2, cs_psycho):
        removed, entry = remove(psy2, [MY_PSC, JULIB], cs_psycho)
        assert JULIB not in removed and MY_PSC not in removed
        assert root_of(removed).child_ids == {BIN2, DEF_PSC}
        # The inverse is exactly the extend change that grew psy2.
        assert entry.inverse == build_extend_change()
        assert undo(removed, entry) == psy2

    def test_remove_rejects_the_root(self, psy1, cs_psycho):
        with pytest.raises(RootRemoval):
            remove(psy1, [PSY1], cs_psycho)

    def test_remove_rejects_unknown_ids(self, psy1, cs_psycho):
        with pytest.raises(UnknownComponent):
            remove(psy1, [ComponentId("GLib", "ghost.so", IMSK, 1)], cs_psycho)

    def test_remove_of_nested_ids_keeps_one_attachment(self, psy2, cs_psycho):
        removed, entry = remove(psy2, [BIN2, APP2], cs_psycho)
        assert len(removed) == 4
        assert isinstance(entry.inverse, ExtendChange)
        assert entry.inverse.attachments == ((BIN2, PSY2),)
        assert undo(removed, entry) == psy2


# --------------------------------------------------------------------------
# Change-set payload validation


class TestChangeSetPayloads:
    def test_extend_payload_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            ExtendChange((Component.leaf(DEF_PSC), Component.leaf(DEF_PSC, ["x"])), ())

    def test_extend_payload_rejects_double_attachment(self):
        leaf = Component.leaf(DEF_PSC)
        with pytest.raises(ValueError):
            ExtendChange((leaf,), ((DEF_PSC, PSY1), (DEF_PSC, PSY2)))

    def test_update_payload_rejects_duplicates(self):
        with pytest.raises(ValueError):
            UpdateChange(((DEF_PSC, Component.leaf(MY_PSC)), (DEF_PSC, Component.leaf(JULIB))))
        with pytest.raises(ValueError):
            UpdateChange(((DEF_PSC, Component.leaf(MY_PSC)), (JULIB, Component.leaf(MY_PSC))))

    def test_remove_payload_rejects_duplicates(self):
        with pytest.raises(ValueError):
            RemoveChange((DEF_PSC, DEF_PSC))

    def test_payloads_normalize_order(self):
        a = RemoveChange((MY_PSC, JULIB))
        b = RemoveChange((JULIB, MY_PSC))
        assert a == b
        assert a.ids == (JULIB, MY_PSC)


# --------------------------------------------------------------------------
# Undo against the wrong state


class TestUndoMismatch:
    def test_foreign_entry_is_rejected(self, psy1, psy2, cs_psycho):
        _, entry = remove(psy2, [MY_PSC, JULIB], cs_psycho)
        with pytest.raises(JournalMismatch):
            undo(psy1, entry)

    def test_undo_refuses_to_produce_invalid_configurations(self, psy1):
        dangling = Component.composite(
            DEF_PSC.replace(version=9),
            {ComponentId("GLib", "ghost.so", IMSK, 1)})
        entry = JournalEntry(
            change=UpdateChange.of({DEF_PSC.replace(version=9): Component.leaf(DEF_PSC)}),
            inverse=UpdateChange.of({DEF_PSC: dangling}),
        )
        with pytest.raises(JournalMismatch):
            undo(psy1, entry)

    def test_double_undo_of_the_same_entry_fails(self, psy2, cs_psycho):
        removed, entry = remove(psy2, [MY_PSC, JULIB], cs_psycho)
        restored = undo(removed, entry)
        assert restored == psy2
        with pytest.raises(JournalMismatch):
            undo(restored, entry)


# --------------------------------------------------------------------------
# Apply/undo round-trips over generated configurations


class TestRoundTripProperties:
    @settings(max_examples=120, deadline=None)
    @given(layered_configurations(), st.data())
    def test_remove_then_undo_is_identity(self, cfg, data):
        spec = widened_spec_for(cfg)
        root = root_of(cfg)
        non_root = [c.id for c in cfg.sorted_components() if c.id != root.id]
        if not non_root:
            return
        victim = data.draw(st.sampled_from(non_root))
        try:
            removed, entry = remove(cfg, [victim], spec)
        except DependencyGuard:
            return  # somebody outside the subtree depends on it; guard holds
        assert victim not in removed
        assert undo(removed, entry) == cfg

    @settings(max_examples=120, deadline=None)
    @given(layered_configurations(), st.data())
    def test_update_then_undo_is_identity(self, cfg, data):
        spec = widened_spec_for(cfg)
        target = data.draw(st.sampled_from(sorted(
            (c.id for c in cfg), key=lambda i: i.sort_key)))
        bumped = target.replace(version=target.version + 10)
        old = cfg.by_id()[target]
        replacement = old.replace(id=bumped)
        stepped, entry = update(cfg, UpdateChange.of({target: replacement}), spec)
        assert bumped in stepped
        assert target not in stepped
        assert undo(stepped, entry) == cfg

    @settings(max_examples=120, deadline=None)
    @given(layered_configurations(), st.data())
    def test_extend_then_undo_is_identity(self, cfg, data):
        spec = widened_spec_for(cfg)
        composites = [c for c in cfg.sorted_components() if not c.is_leaf]
        if not composites:
            return
        parent = data.draw(st.sampled_from(composites))
        child_ctype = sorted(i.ctype for i in parent.child_ids)[0]
        fresh = Component.leaf(ComponentId(child_ctype, "fresh", "acme", 99))
        stepped, entry = extend(
            cfg, ExtendChange.of([fresh], {fresh.id: parent.id}), spec)
        assert fresh.id in stepped
        assert undo(stepped, entry) == cfg
