"""Shared golden objects: the worked Psycho example, built by hand.

Everything here is constructed directly from first principles (ids, trees,
constraint sets written out literally) so the tests compare library output
against an independent transcription rather than against the library itself.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import pytest

from confkit import (
    INF,
    AbstractComponentId,
    ChildSlot,
    Component,
    ComponentId,
    ComponentSpec,
    Configuration,
    Interval,
    NameSet,
    OriginSet,
    SpecSet,
    VersionSet,
)

# Hypothesis imports this module only to report a failing example.  It may
# import libcst, whose import emits a DeprecationWarning that
# `filterwarnings = ["error"]` would raise inside pytest's report hook,
# ending the session with INTERNALERROR instead of the example.  Importing
# it once here, with that warning ignored, leaves the setting as it is.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

IMSK = "IMsk"

# --- concrete identifiers -------------------------------------------------

PSY1 = ComponentId("Psycho", "psy1", IMSK, 1)
BIN1 = ComponentId("Bin", "bin1", IMSK, 1)
DEF_PSC = ComponentId("PScr", "def.psc", IMSK, 1)
APP1 = ComponentId("App", "psycho", IMSK, 1)
MLIB1 = ComponentId("MLib", "mlib.so", IMSK, 1)
GLIB1 = ComponentId("GLib", "glib.so", IMSK, 1)

PSY2 = ComponentId("Psycho", "psy2", IMSK, 2)
BIN2 = ComponentId("Bin", "bin2", IMSK, 2)
MY_PSC = ComponentId("PScr", "my.psc", "Jane", 2)
JULIB = ComponentId("CGLib", "julib.so", "Jack", 1)
APP2 = ComponentId("App", "psycho", IMSK, 2)
MLIB3 = ComponentId("MLib", "mlib.so", IMSK, 3)
GLIB2 = ComponentId("GLib", "glib.so", IMSK, 2)


def build_psy1() -> Configuration:
    return Configuration((
        Component.composite(PSY1, {BIN1, DEF_PSC}),
        Component.composite(BIN1, {APP1, MLIB1, GLIB1}),
        Component.leaf(DEF_PSC),
        Component.leaf(APP1),
        Component.leaf(MLIB1),
        Component.leaf(GLIB1),
    ))


def build_psy2() -> Configuration:
    return Configuration((
        Component.composite(PSY2, {BIN2, DEF_PSC, MY_PSC, JULIB}),
        Component.composite(BIN2, {APP2, MLIB3, GLIB2}),
        Component.leaf(DEF_PSC),
        Component.leaf(MY_PSC, dependencies={JULIB}),
        Component.leaf(JULIB),
        Component.leaf(APP2),
        Component.leaf(MLIB3),
        Component.leaf(GLIB2),
    ))


# --- the authored specification ------------------------------------------

ACI_PSYCHO = AbstractComponentId(
    "Psycho", NameSet(prefixes=frozenset({"psy"})), OriginSet.of(IMSK))
ACI_BIN = AbstractComponentId(
    "Bin", NameSet(prefixes=frozenset({"bin"})), OriginSet.of(IMSK))
ACI_PSCR = AbstractComponentId("PScr")
ACI_CGLIB = AbstractComponentId("CGLib")
ACI_APP = AbstractComponentId("App", NameSet.of("psycho"), OriginSet.of(IMSK))
ACI_MLIB = AbstractComponentId("MLib", NameSet.of("mlib.so"), OriginSet.of(IMSK))
ACI_GLIB = AbstractComponentId("GLib", NameSet.of("glib.so"), OriginSet.of(IMSK))


def build_cs_psycho() -> SpecSet:
    return SpecSet(frozenset({
        ComponentSpec(
            ACI_PSYCHO,
            frozenset(),
            frozenset({
                ChildSlot(ACI_BIN, Interval(1, 1)),
                ChildSlot(ACI_PSCR, Interval(1, INF)),
                ChildSlot(ACI_CGLIB, Interval(0, INF)),
            }),
            Interval(2, INF)),
        ComponentSpec(
            ACI_BIN,
            frozenset(),
            frozenset({
                ChildSlot(ACI_APP, Interval(1, 1)),
                ChildSlot(ACI_MLIB, Interval(1, 1)),
                ChildSlot(ACI_GLIB, Interval(1, 1)),
            }),
            Interval(3, 3)),
        ComponentSpec(ACI_PSCR, frozenset({ACI_PSCR, ACI_CGLIB}), frozenset(), Interval(0, 0)),
        ComponentSpec(ACI_CGLIB, frozenset(), frozenset(), Interval(0, 0)),
        ComponentSpec(ACI_APP, frozenset(), frozenset(), Interval(0, 0)),
        ComponentSpec(ACI_MLIB, frozenset(), frozenset(), Interval(0, 0)),
        ComponentSpec(ACI_GLIB, frozenset(), frozenset(), Interval(0, 0)),
    }))


# --- expected inference results, transcribed by hand ----------------------

def _lift(ci: ComponentId) -> AbstractComponentId:
    return AbstractComponentId(
        ci.ctype, NameSet.of(ci.name), OriginSet.of(ci.origin), VersionSet.of(ci.version))


def build_inferred_psy2() -> SpecSet:
    """The seven-entry minimal spec of psy2: merged script entry depending on
    the graphics library, root total [4,4]."""
    merged_pscr = AbstractComponentId(
        "PScr", NameSet.of("def.psc", "my.psc"),
        OriginSet.of(IMSK, "Jane"), VersionSet.of(1, 2))
    return SpecSet(frozenset({
        ComponentSpec(
            _lift(PSY2),
            frozenset(),
            frozenset({
                ChildSlot(_lift(BIN2), Interval(1, 1)),
                ChildSlot(merged_pscr, Interval(2, 2)),
                ChildSlot(_lift(JULIB), Interval(1, 1)),
            }),
            Interval(4, 4)),
        ComponentSpec(
            _lift(BIN2),
            frozenset(),
            frozenset({
                ChildSlot(_lift(APP2), Interval(1, 1)),
                ChildSlot(_lift(MLIB3), Interval(1, 1)),
                ChildSlot(_lift(GLIB2), Interval(1, 1)),
            }),
            Interval(3, 3)),
        ComponentSpec(merged_pscr, frozenset({_lift(JULIB)}), frozenset(), Interval(0, 0)),
        ComponentSpec(_lift(JULIB), frozenset(), frozenset(), Interval(0, 0)),
        ComponentSpec(_lift(APP2), frozenset(), frozenset(), Interval(0, 0)),
        ComponentSpec(_lift(MLIB3), frozenset(), frozenset(), Interval(0, 0)),
        ComponentSpec(_lift(GLIB2), frozenset(), frozenset(), Interval(0, 0)),
    }))


def build_inferred_psy1() -> SpecSet:
    """The six-entry minimal spec of psy1 (one entry per ctype present)."""
    return SpecSet(frozenset({
        ComponentSpec(
            _lift(PSY1),
            frozenset(),
            frozenset({
                ChildSlot(_lift(BIN1), Interval(1, 1)),
                ChildSlot(_lift(DEF_PSC), Interval(1, 1)),
            }),
            Interval(2, 2)),
        ComponentSpec(
            _lift(BIN1),
            frozenset(),
            frozenset({
                ChildSlot(_lift(APP1), Interval(1, 1)),
                ChildSlot(_lift(MLIB1), Interval(1, 1)),
                ChildSlot(_lift(GLIB1), Interval(1, 1)),
            }),
            Interval(3, 3)),
        ComponentSpec(_lift(DEF_PSC), frozenset(), frozenset(), Interval(0, 0)),
        ComponentSpec(_lift(APP1), frozenset(), frozenset(), Interval(0, 0)),
        ComponentSpec(_lift(MLIB1), frozenset(), frozenset(), Interval(0, 0)),
        ComponentSpec(_lift(GLIB1), frozenset(), frozenset(), Interval(0, 0)),
    }))


# --- the worked upgrade, as two change sets -------------------------------

def build_upgrade_change():
    """Version bump of every original component; the composites pick up the
    new child ids."""
    from confkit import UpdateChange

    return UpdateChange.of({
        APP1: Component.leaf(APP2),
        BIN1: Component.composite(BIN2, {APP2, GLIB2, MLIB3}),
        GLIB1: Component.leaf(GLIB2),
        MLIB1: Component.leaf(MLIB3),
        PSY1: Component.composite(PSY2, {BIN2, DEF_PSC}),
    })


def build_extend_change():
    """Graft the new script and the graphics library it uses onto the root."""
    from confkit import ExtendChange

    return ExtendChange.of(
        [Component.leaf(JULIB), Component.leaf(MY_PSC, dependencies={JULIB})],
        {JULIB: PSY2, MY_PSC: PSY2},
    )


def widened_spec_for(config: Configuration) -> SpecSet:
    """A deliberately permissive spec the configuration complies with:
    identity constraints dropped, all counts 0..*, dependency ctypes kept.

    Only well-formed when the configuration's ctype-level containment graph
    is itself a tree (as layered_configurations guarantees).
    """
    from confkit import infer

    nodes = []
    for cs in infer(config):
        nodes.append(ComponentSpec(
            aci=AbstractComponentId(cs.ctype),
            dependencies=frozenset(
                AbstractComponentId(d.ctype) for d in cs.dependencies),
            children=frozenset(
                ChildSlot(AbstractComponentId(slot.aci.ctype), Interval(0, INF))
                for slot in cs.children),
            total=Interval(0, INF),
        ))
    return SpecSet(frozenset(nodes))


# --- fixtures -------------------------------------------------------------

@pytest.fixture
def psy1() -> Configuration:
    return build_psy1()


@pytest.fixture
def psy2() -> Configuration:
    return build_psy2()


@pytest.fixture
def cs_psycho() -> SpecSet:
    return build_cs_psycho()
