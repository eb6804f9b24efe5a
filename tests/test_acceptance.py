"""The acceptance gate: nine end-to-end criteria, one test and one printed
pass/fail line each.

Unlike the per-module suites, everything here is deterministic (seeded
`random.Random`, no hypothesis) so a run either reproduces the documented
behaviour exactly or fails loudly.  The golden objects come from
``conftest`` and were transcribed by hand, independently of the library
code they check.
"""
from __future__ import annotations

import itertools
import json
import random
import time

from confkit import (
    INF,
    AbstractComponentId,
    ChildSlot,
    Component,
    ComponentId,
    ComponentSpec,
    Configuration,
    DependencyGuard,
    ExtendChange,
    Interval,
    NameSet,
    OriginSet,
    SpecSet,
    UpdateChange,
    VersionSet,
    ci_compat_leq,
    compatible,
    compliant,
    component_spec_leq,
    config_leq,
    direct_check,
    extend,
    infer,
    remove,
    root_of,
    spec_set_leq,
    sum_intervals,
    undo,
    unify,
    update,
    validate_spec,
)
from confkit.textfmt import (
    ConfigInvalid,
    ParseError,
    SpecInvalid,
    parse_changeset,
    parse_config,
    parse_journal,
    parse_spec,
    print_config,
    print_spec,
)

from conftest import (
    FIXTURES,
    JULIB,
    build_cs_psycho,
    build_inferred_psy2,
    build_psy1,
    build_psy2,
    widened_spec_for,
)


def _report(num: int, title: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance {num} — {title}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


# --------------------------------------------------------------------------
# deterministic generators (mirrors of the hypothesis strategies)

CID_POOL = tuple(
    ComponentId(t, n, o, v)
    for t in ("T", "U", "V")
    for n in ("alpha", "beta", "gamma.so", "delta")
    for o in ("acme", "zenith")
    for v in range(5)
)


class Gen:
    """Seeded value generator for the deterministic sweeps."""

    def __init__(self, seed: int) -> None:
        self.r = random.Random(seed)

    def interval(self) -> Interval:
        lo = self.r.randint(0, 4)
        if self.r.random() < 0.2:
            return Interval(lo, INF)
        return Interval(lo, lo + self.r.randint(0, 4))

    def nameset(self) -> NameSet:
        if self.r.random() < 0.25:
            return NameSet.everything()
        lits = frozenset(self.r.sample(("alpha", "beta", "gamma.so", "delta"),
                                       self.r.randint(0, 2)))
        prefs = frozenset(self.r.sample(("al", "ga", "de"), self.r.randint(0, 1)))
        if not lits and not prefs:
            return NameSet.everything()
        return NameSet(lits, prefs)

    def originset(self) -> OriginSet:
        if self.r.random() < 0.3:
            return OriginSet.everything()
        return OriginSet(frozenset(self.r.sample(("acme", "zenith", "orbit"),
                                                 self.r.randint(1, 2))))

    def versionset(self) -> VersionSet:
        roll = self.r.random()
        if roll < 0.25:
            return VersionSet.everything()
        if roll < 0.6:
            lo = self.r.randint(0, 3)
            return VersionSet.between(lo, lo + self.r.randint(0, 3))
        return VersionSet.of(*self.r.sample(range(5), self.r.randint(1, 3)))

    def aci(self, ctype: str) -> AbstractComponentId:
        return AbstractComponentId(ctype, self.nameset(), self.originset(),
                                   self.versionset())

    def config(self, max_size: int = 6) -> Configuration:
        size = self.r.randint(1, max_size)
        pool = self.r.sample(CID_POOL, size)
        parent = {i: self.r.randrange(i) for i in range(1, size)}
        kids: dict[int, list[int]] = {i: [] for i in range(size)}
        for i, p in parent.items():
            kids[p].append(i)
        comps = []
        for i in range(size):
            own = {pool[j] for j in kids[i]}
            candidates = [pool[j] for j in range(size) if j != i and pool[j] not in own]
            deps = frozenset(self.r.sample(
                candidates, self.r.randint(0, min(2, len(candidates)))))
            if kids[i]:
                comps.append(Component.composite(pool[i], frozenset(own),
                                                 dependencies=deps))
            elif self.r.random() < 0.3:
                comps.append(Component.composite(pool[i], frozenset(),
                                                 dependencies=deps))
            else:
                files = tuple(f"f{j}" for j in range(self.r.randint(0, 2)))
                comps.append(Component.leaf(pool[i], elements=files,
                                            dependencies=deps))
        self.r.shuffle(comps)
        return Configuration(tuple(comps))

    def layered_config(self, max_size: int = 8) -> Configuration:
        """A configuration whose ctype equals its tree depth, so the
        all-accepting spec built by ``widened_spec_for`` is well formed."""
        size = self.r.randint(1, max_size)
        depth = {0: 0}
        parent: dict[int, int] = {}
        for i in range(1, size):
            p = self.r.randrange(i)
            parent[i] = p
            depth[i] = depth[p] + 1
        ids = [ComponentId(f"L{depth[i]}", f"n{i}",
                           self.r.choice(("acme", "zenith")), self.r.randint(0, 4))
               for i in range(size)]
        kids: dict[int, list[int]] = {i: [] for i in range(size)}
        for i, p in parent.items():
            kids[p].append(i)
        comps = []
        for i in range(size):
            candidates = [ids[j] for j in range(size)
                          if j != i and depth[j] != depth[i] + 1]
            deps = frozenset(self.r.sample(
                candidates, self.r.randint(0, min(2, len(candidates)))))
            if kids[i]:
                comps.append(Component.composite(
                    ids[i], frozenset(ids[j] for j in kids[i]), dependencies=deps))
            else:
                comps.append(Component.leaf(ids[i], dependencies=deps))
        self.r.shuffle(comps)
        return Configuration(tuple(comps))

    def spec_set(self, max_nodes: int = 4, prefix: str = "S") -> SpecSet:
        n = self.r.randint(1, max_nodes)
        ctypes = [f"{prefix}{i}" for i in range(n)]
        acis = {t: self.aci(t) for t in ctypes}
        parent = {i: self.r.randrange(i) for i in range(1, n)}
        slots_of: dict[int, list[int]] = {i: [] for i in range(n)}
        for i, p in parent.items():
            slots_of[p].append(i)
        nodes = []
        for i, t in enumerate(ctypes):
            slots = frozenset(ChildSlot(acis[ctypes[j]], self.interval())
                              for j in slots_of[i])
            child_ts = {ctypes[j] for j in slots_of[i]}
            dep_candidates = [u for u in ctypes if u not in child_ts]
            deps = frozenset(acis[u] for u in self.r.sample(
                dep_candidates, self.r.randint(0, min(2, len(dep_candidates)))))
            base = sum_intervals(s.count for s in slots)
            lo = base.lo - self.r.randint(0, base.lo)
            if base.hi == INF or self.r.random() < 0.2:
                hi = INF
            else:
                hi = base.hi + self.r.randint(0, 3)
            nodes.append(ComponentSpec(acis[t], deps, slots, Interval(lo, hi)))
        return SpecSet(frozenset(nodes))


# widening helpers: produce a value the original is guaranteed to refine

def widen_interval(g: Gen, iv: Interval) -> Interval:
    lo = max(0, iv.lo - g.r.randint(0, 2))
    if iv.hi == INF or g.r.random() < 0.15:
        return Interval(lo, INF)
    return Interval(lo, iv.hi + g.r.randint(0, 2))


def widen_nameset(g: Gen, ns: NameSet) -> NameSet:
    if ns.is_any or g.r.random() < 0.2:
        return NameSet.everything()
    extra_l = frozenset(g.r.sample(("omega", "beta"), g.r.randint(0, 1)))
    extra_p = frozenset(g.r.sample(("al", "z"), g.r.randint(0, 1)))
    return NameSet(ns.literals | extra_l, ns.prefixes | extra_p)


def widen_originset(g: Gen, os_: OriginSet) -> OriginSet:
    if os_.is_any or g.r.random() < 0.2:
        return OriginSet.everything()
    extra = frozenset(g.r.sample(("orbit", "acme"), g.r.randint(0, 1)))
    return OriginSet(os_.values | extra)


def widen_versionset(g: Gen, vs: VersionSet) -> VersionSet:
    if vs.is_any or g.r.random() < 0.2:
        return VersionSet.everything()
    if vs.values is not None:
        if g.r.random() < 0.5:
            return VersionSet.of(*(vs.values | {max(vs.values) + g.r.randint(0, 2)}))
        return VersionSet.between(max(0, min(vs.values) - 1),
                                  max(vs.values) + g.r.randint(0, 2))
    lo, hi = vs.span.lo, vs.span.hi
    new_hi = INF if hi == INF else hi + g.r.randint(0, 2)
    return VersionSet.between(max(0, lo - g.r.randint(0, 1)), new_hi)


def widen_aci(g: Gen, a: AbstractComponentId) -> AbstractComponentId:
    return AbstractComponentId(a.ctype, widen_nameset(g, a.names),
                               widen_originset(g, a.origins),
                               widen_versionset(g, a.versions))


def widen_node(g: Gen, cs: ComponentSpec) -> ComponentSpec:
    return ComponentSpec(
        widen_aci(g, cs.aci),
        frozenset(widen_aci(g, d) for d in cs.dependencies),
        frozenset(ChildSlot(widen_aci(g, s.aci), widen_interval(g, s.count))
                  for s in cs.children),
        widen_interval(g, cs.total))


def widen_spec_set(g: Gen, ss: SpecSet) -> SpecSet:
    nodes = {widen_node(g, cs) for cs in ss.specs}
    if g.r.random() < 0.3 and all(cs.ctype != "Xtra" for cs in nodes):
        nodes.add(ComponentSpec(g.aci("Xtra"), frozenset(), frozenset(),
                                g.interval()))
    return SpecSet(frozenset(nodes))


def bumped(config: Configuration, delta: int) -> Configuration:
    """The same configuration with every version raised by delta."""
    mapping = {c.id: ComponentId(c.id.ctype, c.id.name, c.id.origin,
                                 c.id.version + delta) for c in config}
    comps = []
    for c in config:
        deps = frozenset(mapping[d] for d in c.dependencies)
        if c.is_leaf:
            comps.append(Component.leaf(mapping[c.id], elements=c.elements,
                                        dependencies=deps))
        else:
            comps.append(Component.composite(
                mapping[c.id], frozenset(mapping[k] for k in c.child_ids),
                dependencies=deps))
    return Configuration(tuple(comps))


# --------------------------------------------------------------------------
# 1. golden inference


def test_1_minimal_spec_inference_golden():
    psy2 = build_psy2()
    t0 = time.perf_counter()
    inferred = infer(psy2)
    elapsed = time.perf_counter() - t0

    expected = build_inferred_psy2()
    by_ctype = {cs.ctype: cs for cs in inferred.specs}
    ok = (
        inferred == expected
        and len(inferred.specs) == 7
        and by_ctype["Psycho"].total == Interval(4, 4)
        and any(d.ctype == "CGLib" for d in by_ctype["PScr"].dependencies)
        and all(by_ctype[t].total == Interval(0, 0)
                for t in ("App", "MLib", "GLib", "CGLib", "PScr"))
        and elapsed < 1.0
    )
    _report(1, "minimal-spec inference reproduces the seven-entry golden result",
            ok, f"{elapsed * 1e3:.1f} ms")


# --------------------------------------------------------------------------
# 2. golden compliance


def test_2_compliance_golden():
    spec = build_cs_psycho()
    t0 = time.perf_counter()
    v1 = compliant(build_psy1(), spec)
    v2 = compliant(build_psy2(), spec)
    elapsed = time.perf_counter() - t0
    ok = (v1.compliant and not v1.failures
          and v2.compliant and not v2.failures
          and elapsed < 1.0)
    _report(2, "both example configurations comply with the authored spec",
            ok, f"{elapsed * 1e3:.1f} ms")


# --------------------------------------------------------------------------
# 3. golden compatibility asymmetry


def test_3_compatibility_asymmetry():
    spec = build_cs_psycho()
    forward = compatible(build_psy1(), build_psy2(), spec)
    backward = compatible(build_psy2(), build_psy1(), spec)
    dropped = {r.subject for r in backward.reasons if r.cause == "no-counterpart"}
    ok = (
        forward.compatible
        and not backward.compatible
        and "CGLib(julib.so, Jack, v1)" in dropped
        and "PScr(my.psc, Jane, v2)" in dropped
    )
    _report(3, "the upgrade stands in for the original but not conversely",
            ok, "cites julib.so and my.psc")


# --------------------------------------------------------------------------
# 4. compliance agrees with the independent direct checker, exhaustively


def _probe_spec() -> SpecSet:
    aci_a = AbstractComponentId("A", NameSet.everything(),
                                OriginSet(frozenset({"p"})), VersionSet.everything())
    aci_b = AbstractComponentId("B", NameSet(frozenset({"x"}), frozenset()),
                                OriginSet.everything(), VersionSet.of(1))
    aci_c = AbstractComponentId("C", NameSet.everything(), OriginSet.everything(),
                                VersionSet.everything())
    dep_b = AbstractComponentId("B", NameSet(frozenset({"x"}), frozenset()),
                                OriginSet(frozenset({"p"})), VersionSet.of(1))
    return SpecSet(frozenset({
        ComponentSpec(aci_a, frozenset(),
                      frozenset({ChildSlot(aci_b, Interval(1, 2))}), Interval(1, 2)),
        ComponentSpec(aci_b, frozenset({dep_b}),
                      frozenset({ChildSlot(aci_c, Interval(0, 2))}), Interval(0, 2)),
        ComponentSpec(aci_c, frozenset(), frozenset(), Interval(0, 0)),
    }))


POOL24 = tuple(ComponentId(t, n, o, v)
               for t in "ABC" for n in "xy" for o in "pq" for v in (1, 2))
POOL12 = tuple(ci for ci in POOL24 if ci.origin == "p")


def _subsets(items: tuple) -> list[frozenset]:
    out = []
    for k in range(len(items) + 1):
        out.extend(frozenset(c) for c in itertools.combinations(items, k))
    return out


def _payload(ci: ComponentId, empty_composite: bool) -> Component:
    if empty_composite:
        return Component.composite(ci, frozenset())
    return Component.leaf(ci)


def _rooted_trees(n: int) -> list[tuple[int, dict[int, int]]]:
    """All labeled rooted trees on n nodes as (root, parent-map) pairs."""
    out = []
    for root in range(n):
        others = [i for i in range(n) if i != root]
        for ps in itertools.product(range(n), repeat=n - 1):
            par = dict(zip(others, ps))
            ok = True
            for o in others:
                seen = set()
                cur = o
                while cur != root:
                    if cur in seen:
                        ok = False
                        break
                    seen.add(cur)
                    cur = par[cur]
                if not ok:
                    break
            if ok:
                out.append((root, par))
    return out


def _universe():
    """Every configuration in the frozen exhaustive universe.

    Sizes 1-2 are fully enumerated over the 24-id pool (3 ctypes x 2 names
    x 2 origins x 2 versions) including payload-kind and dependency
    variants; size 3 adds every rooted shape with payload-kind splits over
    the full pool and every dependency pattern over the single-origin pool;
    size 4 covers all 64 labeled rooted tree shapes over the single-origin
    pool.  Self-dependencies are excluded as degenerate.
    """
    for ci in POOL24:
        yield Configuration((Component.leaf(ci),))
        yield Configuration((Component.composite(ci, frozenset()),))
    for root_id, child_id in itertools.permutations(POOL24, 2):
        for child_composite in (False, True):
            for dep_on_root in (False, True):
                deps = (root_id,) if dep_on_root else ()
                child = (Component.composite(child_id, frozenset(), dependencies=deps)
                         if child_composite
                         else Component.leaf(child_id, dependencies=deps))
                yield Configuration((
                    Component.composite(root_id, frozenset({child_id})), child))
    for combo in itertools.combinations(POOL24, 3):
        for r in range(3):
            rest = [combo[j] for j in range(3) if j != r]
            a, b = rest
            for ka in (False, True):
                for kb in (False, True):
                    yield Configuration((
                        Component.composite(combo[r], frozenset({a, b})),
                        _payload(a, ka), _payload(b, kb)))
            for m, l in ((a, b), (b, a)):
                for kl in (False, True):
                    yield Configuration((
                        Component.composite(combo[r], frozenset({m})),
                        Component.composite(m, frozenset({l})),
                        _payload(l, kl)))
    for combo in itertools.combinations(POOL12, 3):
        for r in range(3):
            rest = [combo[j] for j in range(3) if j != r]
            a, b = rest
            rid = combo[r]
            for da in _subsets((rid, b)):
                for db in _subsets((rid, a)):
                    yield Configuration((
                        Component.composite(rid, frozenset({a, b})),
                        Component.leaf(a, dependencies=da),
                        Component.leaf(b, dependencies=db)))
            for m, l in ((a, b), (b, a)):
                for dr in _subsets((l,)):
                    for dm in _subsets((rid,)):
                        for dl in _subsets((rid, m)):
                            yield Configuration((
                                Component.composite(rid, frozenset({m}),
                                                    dependencies=dr),
                                Component.composite(m, frozenset({l}),
                                                    dependencies=dm),
                                Component.leaf(l, dependencies=dl)))
    trees4 = _rooted_trees(4)
    assert len(trees4) == 64
    for combo in itertools.combinations(POOL12, 4):
        for root, par in trees4:
            kids: dict[int, list[int]] = {i: [] for i in range(4)}
            for o, p in par.items():
                kids[p].append(o)
            yield Configuration(tuple(
                Component.composite(combo[i],
                                    frozenset(combo[j] for j in kids[i]))
                if kids[i] else Component.leaf(combo[i])
                for i in range(4)))


def test_4_compliance_oracle_equivalence():
    spec = _probe_spec()
    assert validate_spec(spec).ok
    mismatches: list[str] = []
    total = 0
    t0 = time.perf_counter()
    for cfg in _universe():
        total += 1
        if compliant(cfg, spec) != direct_check(cfg, spec):
            mismatches.append(print_config(cfg))
            if len(mismatches) >= 3:
                break
    elapsed = time.perf_counter() - t0
    ok = not mismatches and total == 114_192 and elapsed < 60.0
    detail = f"{total} configurations, {elapsed:.1f} s"
    if mismatches:
        detail += f"; first disagreement:\n{mismatches[0]}"
    _report(4, "inference-based and direct compliance verdicts agree everywhere",
            ok, detail)


# --------------------------------------------------------------------------
# 5. inference is order-independent


def test_5_inference_order_independence():
    g = Gen(50_2026)
    checked = 0
    for _ in range(1000):
        cfg = g.config()
        permuted = Configuration(tuple(g.r.sample(cfg.components,
                                                  len(cfg.components))))
        assert infer(permuted) == infer(cfg)
        assert infer(permuted, faithful_leaf_rule=True) == \
            infer(cfg, faithful_leaf_rule=True)
        checked += 1
    _report(5, "inferred specs are invariant under component reordering",
            checked == 1000, f"{checked} configurations")


# --------------------------------------------------------------------------
# 6. the recorded unification boundary case


def test_6_unification_child_sum_boundary():
    any_a = AbstractComponentId("A", NameSet.everything(), OriginSet.everything(),
                                VersionSet.everything())
    aci_b = AbstractComponentId("B", NameSet.everything(), OriginSet.everything(),
                                VersionSet.everything())
    aci_c = AbstractComponentId("C", NameSet.everything(), OriginSet.everything(),
                                VersionSet.everything())
    s1 = SpecSet(frozenset({
        ComponentSpec(any_a, frozenset(),
                      frozenset({ChildSlot(aci_b, Interval(2, 2))}), Interval(2, 2)),
        ComponentSpec(aci_b, frozenset(), frozenset(), Interval(0, 0)),
    }))
    s2 = SpecSet(frozenset({
        ComponentSpec(any_a, frozenset(),
                      frozenset({ChildSlot(aci_c, Interval(3, 3))}), Interval(3, 3)),
        ComponentSpec(aci_c, frozenset(), frozenset(), Interval(0, 0)),
    }))
    assert validate_spec(s1).ok and validate_spec(s2).ok

    unified = unify(s1, s2)
    node_a = next(cs for cs in unified.specs if cs.ctype == "A")
    child_sum = sum_intervals(s.count for s in node_a.children)
    report = validate_spec(unified)
    ok = (
        child_sum == Interval(0, 5)
        and node_a.total == Interval(5, 5)
        and not child_sum.included_in(node_a.total)
        and not report.ok
        and "interval-sum" in {v.condition for v in report.violations}
    )
    _report(6, "unifying two valid specs can break the child-sum condition",
            ok, "children 0..5 vs total 5..5")


# --------------------------------------------------------------------------
# 7. order and monoid laws


def _order_laws(g: Gen, n: int, values, leq, label: str,
                widen, errors: list[str]) -> None:
    """Reflexivity, constructed-chain transitivity, and antisymmetry."""
    pool = [values() for _ in range(25)]
    # inject independently built equal values so antisymmetry is exercised
    pool += pool[:5]
    hits = 0
    for i in range(n):
        x = values()
        if not leq(x, x):
            errors.append(f"{label}: not reflexive on {x!r}")
            return
        y, z = widen(x), None
        z = widen(y)
        if not (leq(x, y) and leq(y, z)):
            errors.append(f"{label}: widening did not produce a chain")
            return
        if not leq(x, z):
            errors.append(f"{label}: transitivity failed: {x!r} / {z!r}")
            return
        p, q = g.r.choice(pool), g.r.choice(pool)
        if leq(p, q) and leq(q, p):
            hits += 1
            if p != q:
                errors.append(f"{label}: antisymmetry failed: {p!r} vs {q!r}")
                return
    if hits < 10:
        errors.append(f"{label}: antisymmetry premise hit only {hits} times")


def test_7_order_and_monoid_laws():
    g = Gen(70_2026)
    errors: list[str] = []
    n = 1000

    _order_laws(g, n, g.interval,
                lambda a, b: a.included_in(b), "interval inclusion",
                lambda iv: widen_interval(g, iv), errors)
    _order_laws(g, n, lambda: g.aci("T"),
                lambda a, b: a <= b, "identifier order",
                lambda a: widen_aci(g, a), errors)

    def node():
        aci = g.aci("N")
        slots = frozenset(ChildSlot(g.aci(f"K{i}"), g.interval())
                          for i in range(g.r.randint(0, 2)))
        deps = frozenset(g.aci(f"D{i}") for i in range(g.r.randint(0, 2)))
        return ComponentSpec(aci, deps, slots,
                             widen_interval(g, sum_intervals(
                                 s.count for s in slots)))

    _order_laws(g, n, node, component_spec_leq, "node refinement",
                lambda cs: widen_node(g, cs), errors)
    _order_laws(g, n, g.spec_set, spec_set_leq, "spec-set refinement",
                lambda ss: widen_spec_set(g, ss), errors)

    def strict_leq(a, b):
        return ci_compat_leq(a, b, relaxed=False)

    _order_laws(g, n, lambda: self_id(g), strict_leq, "strict stand-in order",
                lambda ci: ComponentId(ci.ctype, ci.name, ci.origin,
                                       ci.version + g.r.randint(0, 2)), errors)

    # the relaxed stand-in order and configuration-level stand-in order are
    # preorders: reflexive and (kind-preserving) transitive, but two renamed
    # composites dominate each other without being equal
    for _ in range(n):
        ci = self_id(g)
        if not ci_compat_leq(ci, ci):
            errors.append("relaxed stand-in order: not reflexive")
            break
        b = ComponentId(ci.ctype, "renamed", ci.origin, ci.version + 1)
        c = ComponentId(ci.ctype, "renamed2", ci.origin, b.version + 1)
        if ci_compat_leq(ci, b, composite_a=True) and \
                ci_compat_leq(b, c, composite_a=True):
            if not ci_compat_leq(ci, c, composite_a=True):
                errors.append("relaxed stand-in order: transitivity failed")
                break
    x = ComponentId("T", "a", "o", 1)
    y = ComponentId("T", "b", "o", 1)
    if not (ci_compat_leq(x, y, composite_a=True)
            and ci_compat_leq(y, x, composite_a=True) and x != y):
        errors.append("relaxed stand-in order: expected preorder counterexample")

    for _ in range(n):
        cfg = g.layered_config(max_size=5)
        if not config_leq(cfg, cfg):
            errors.append("configuration stand-in order: not reflexive")
            break
        middle = bumped(cfg, g.r.randint(0, 2))
        newest = bumped(middle, g.r.randint(0, 2))
        if not (config_leq(cfg, middle) and config_leq(middle, newest)
                and config_leq(cfg, newest)):
            errors.append("configuration stand-in order: "
                          "kind-preserving transitivity failed")
            break
    cfg_a = Configuration((Component.composite(ComponentId("T", "a", "o", 1),
                                               frozenset()),))
    cfg_b = Configuration((Component.composite(ComponentId("T", "b", "o", 1),
                                               frozenset()),))
    if not (config_leq(cfg_a, cfg_b) and config_leq(cfg_b, cfg_a)
            and cfg_a != cfg_b):
        errors.append("configuration stand-in order: "
                      "expected antisymmetry counterexample")
    # general transitivity genuinely fails when a leaf's counterpart is a
    # composite: the composite may later be renamed, which a leaf cannot be
    kf_a = Configuration((Component.leaf(ComponentId("T", "n", "o", 1)),))
    kf_b = Configuration((Component.composite(ComponentId("T", "n", "o", 1),
                                              frozenset()),))
    kf_c = Configuration((Component.composite(ComponentId("T", "m", "o", 2),
                                              frozenset()),))
    if not (config_leq(kf_a, kf_b) and config_leq(kf_b, kf_c)
            and not config_leq(kf_a, kf_c)):
        errors.append("configuration stand-in order: "
                      "expected kind-flip transitivity counterexample")

    for _ in range(n):
        x = g.spec_set(prefix=g.r.choice(("S", "S", "T")))
        y = g.spec_set(prefix=g.r.choice(("S", "S", "T")))
        z = g.spec_set(prefix=g.r.choice(("S", "S", "T")))
        if unify(x, y) != unify(y, x):
            errors.append("unification: commutativity failed")
            break
        if unify(unify(x, y), z) != unify(x, unify(y, z)):
            errors.append("unification: associativity failed")
            break

    _report(7, "order laws hold; documented preorder counterexamples stand",
            not errors, errors[0] if errors else f"{n} cases per relation")


def self_id(g: Gen) -> ComponentId:
    return g.r.choice(CID_POOL)


# --------------------------------------------------------------------------
# 8. lifecycle reversibility


def test_8_lifecycle_reversibility():
    g = Gen(80_2026)
    errors: list[str] = []
    guard_hits = 0
    applied_ops = 0
    rounds = 500
    for i in range(rounds):
        original = g.layered_config()
        spec = widened_spec_for(original)
        baseline = print_config(original)
        current = original
        entries = []
        for step in range(g.r.randint(1, 3)):
            op = g.r.choice(("update", "extend", "remove"))
            if op == "update":
                mapping = {c.id: bumped_component(c, 10) for c in current}
                current, entry = update(current, UpdateChange.of(mapping), spec)
            elif op == "extend":
                parents = [c for c in current if c.child_ids]
                if not parents:
                    continue
                parent = g.r.choice(sorted(parents, key=lambda c: c.sort_key))
                child_ctype = sorted(k.ctype for k in parent.child_ids)[0]
                fresh = ComponentId(child_ctype, f"fresh{i}.{step}", "acme", 99)
                change = ExtendChange.of([Component.leaf(fresh)],
                                         {fresh: parent.id})
                current, entry = extend(current, change, spec)
            else:
                victims = [c for c in current if c is not root_of(current)]
                if not victims:
                    continue
                victim = g.r.choice(sorted(victims, key=lambda c: c.sort_key))
                try:
                    current, entry = remove(current, {victim.id}, spec)
                except DependencyGuard:
                    guard_hits += 1
                    continue
            entries.append(entry)
            applied_ops += 1
        for entry in reversed(entries):
            current = undo(current, entry)
        if print_config(current) != baseline:
            errors.append(f"round {i}: rollback did not restore the "
                          f"canonical bytes")
            break

    julib_guard = False
    try:
        remove(build_psy2(), {JULIB}, build_cs_psycho())
    except DependencyGuard as exc:
        julib_guard = "my.psc" in str(exc)

    ok = (not errors and applied_ops >= rounds and guard_hits >= 5
          and julib_guard)
    _report(8, "applied changes undo back to byte-identical configurations",
            ok, (errors[0] if errors else
                 f"{rounds} sequences, {applied_ops} ops, "
                 f"{guard_hits} guarded removals; julib.so removal names my.psc"))


def bumped_component(c: Component, delta: int) -> Component:
    lift = lambda i: ComponentId(i.ctype, i.name, i.origin, i.version + delta)
    deps = frozenset(lift(d) for d in c.dependencies)
    if c.is_leaf:
        return Component.leaf(lift(c.id), elements=c.elements, dependencies=deps)
    return Component.composite(lift(c.id),
                               frozenset(lift(k) for k in c.child_ids),
                               dependencies=deps)


# --------------------------------------------------------------------------
# 9. format round-trips and parser robustness


def _mutate(rnd: random.Random, text: str) -> str:
    op = rnd.randrange(5)
    if not text:
        return text
    if op == 0:
        return text[:rnd.randrange(len(text))]
    if op == 1:
        i = rnd.randrange(len(text))
        j = min(len(text), i + rnd.randint(1, 12))
        return text[:i] + text[j:]
    if op == 2:
        i = rnd.randrange(len(text))
        return text[:i] + rnd.choice('"{}[];:.,*x0\\\n\x00') + text[i:]
    if op == 3:
        i = rnd.randrange(len(text))
        return text[:i] + chr(ord(text[i]) ^ (1 << rnd.randrange(7))) + text[i + 1:]
    i, j = sorted((rnd.randrange(len(text)), rnd.randrange(len(text))))
    return text[:i] + text[i:j] * 2 + text[j:]


def _overlong(rnd: random.Random, text: str) -> str:
    """Replace one digit of the text with an integer longer than the
    interpreter's 4,300-digit str -> int conversion limit."""
    k = rnd.choice([k for k, ch in enumerate(text) if ch.isdigit()])
    return text[:k] + rnd.choice("123456789") * rnd.randint(4301, 6000) + text[k + 1:]


def test_9_format_round_trip_and_fuzz():
    g = Gen(90_2026)
    errors: list[str] = []

    for name in ("psycho.csg", "psy1.cg", "psy2.cg"):
        text = (FIXTURES / name).read_text()
        printed = (print_spec(parse_spec(text)) if name.endswith(".csg")
                   else print_config(parse_config(text)))
        if printed != text:
            errors.append(f"{name}: canonical print differs from the file")

    for _ in range(500):
        spec = g.spec_set()
        if parse_spec(print_spec(spec)).specs != spec.specs:
            errors.append("spec round-trip changed the value")
            break
    for _ in range(500):
        cfg = g.config()
        if parse_config(print_config(cfg)) != cfg:
            errors.append("configuration round-trip changed the value")
            break

    rnd = random.Random(0xC0FFEE)
    spec_text = (FIXTURES / "psycho.csg").read_text()
    config_texts = [(FIXTURES / "psy1.cg").read_text(),
                    (FIXTURES / "psy2.cg").read_text()]
    alphabet = ('abcxyz(){}[];:.,*"\\#\n\t 0123456789'
                + chr(0) + chr(7) + chr(127) + chr(233) + chr(0x2603))
    crashes = 0
    fuzzed = 0
    t0 = time.perf_counter()
    for i in range(100_000):
        mode = i % 4
        if mode in (0, 1):
            s = "".join(rnd.choice(alphabet) for _ in range(rnd.randint(0, 40)))
            target = parse_spec if mode == 0 else parse_config
        elif mode == 2:
            s = _mutate(rnd, spec_text)
            target = parse_spec
        else:
            s = _mutate(rnd, rnd.choice(config_texts))
            target = parse_config
        fuzzed += 1
        try:
            target(s)
        except (ParseError, SpecInvalid, ConfigInvalid):
            pass
        except Exception as exc:  # noqa: BLE001 - any other escape is the bug
            crashes += 1
            errors.append(f"parser crash: {type(exc).__name__}: {exc} "
                          f"on input {s[:80]!r}")
            break

    # Integers past the conversion limit, in every text and JSON format.
    changeset_text = (FIXTURES / "upgrade-to-v2.json").read_text()
    change_obj = json.loads(changeset_text)
    journal_line = json.dumps({"seq": 0, "change": change_obj, "inverse": change_obj})
    overlong_targets = [(parse_spec, spec_text), (parse_config, config_texts[0]),
                        (parse_config, config_texts[1]), (parse_changeset, changeset_text),
                        (parse_journal, journal_line)]
    rnd = random.Random(0xB16)
    overlong = 0
    for _ in range(1_000):
        target, base = rnd.choice(overlong_targets)
        s = _overlong(rnd, base)
        overlong += 1
        try:
            target(s)
        except (ParseError, SpecInvalid, ConfigInvalid):
            pass
        except Exception as exc:  # noqa: BLE001 - any other escape is the bug
            crashes += 1
            errors.append(f"parser crash on an over-long integer: {type(exc).__name__}: "
                          f"{str(exc)[:80]} in {target.__name__}")
            break
    elapsed = time.perf_counter() - t0

    ok = not errors and fuzzed == 100_000 and overlong == 1_000 and crashes == 0
    _report(9, "printers and parsers round-trip; fuzzing never escapes "
               "the reported-error contract",
            ok, (errors[0] if errors else
                 f"1000 round-trips, {fuzzed} fuzz inputs, {overlong} over-long "
                 f"integers, {elapsed:.1f} s"))
