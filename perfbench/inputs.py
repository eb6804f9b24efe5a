"""Seeded input generators for the confkit benchmark.

Everything here is plain data and text built from a `random.Random` seeded
with a string, so the same seed gives byte-identical inputs on every run and
every machine.  Nothing is imported from confkit or from the test suite: the
labels each input carries (expected compliance failures, expected
compatibility verdict, expected exit code of a CLI step) follow from how the
input was constructed, not from the code being timed.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, field

# --------------------------------------------------------------------------
# sweep: tiny configurations from the families of the exhaustive oracle sweep

# ids are (ctype, name, origin, version) tuples
POOL24 = tuple((t, n, o, v) for t in "ABC" for n in "xy" for o in "pq" for v in (1, 2))
POOL12 = tuple(ci for ci in POOL24 if ci[2] == "p")

# The fixed probe spec of the oracle sweep, written out as `.csg` text.
SWEEP_SPEC = """\
spec Probe {
  node A {
    origin: "p";
    total: 1..2;
    contains { B: 1..2 }
  }
  node B {
    name: "x";
    version: 1;
    total: 0..2;
    contains { C: 0..2 }
    depends { B(origin: "p";) }
  }
  node C {
    total: 0..0;
  }
  root A;
}
"""

# A component description: (kind, id, children, dependencies), kind "leaf" or
# "composite"; children and dependencies are tuples of ids.


def _leaf(ci, deps=()):
    return ("leaf", ci, (), tuple(deps))


def _composite(ci, kids, deps=()):
    return ("composite", ci, tuple(kids), tuple(deps))


def _payload(ci, empty_composite: bool):
    return _composite(ci, ()) if empty_composite else _leaf(ci)


def _coin(r: random.Random) -> bool:
    return r.random() < 0.5


def _subset(r: random.Random, items) -> tuple:
    return tuple(i for i in items if _coin(r))


def _single(r):
    return [_payload(r.choice(POOL24), _coin(r))]


def _pair(r):
    root, child = r.sample(POOL24, 2)
    deps = (root,) if _coin(r) else ()
    kid = _composite(child, (), deps) if _coin(r) else _leaf(child, deps)
    return [_composite(root, (child,)), kid]


def _wide(r):
    root, a, b = r.sample(POOL24, 3)
    return [_composite(root, (a, b)), _payload(a, _coin(r)), _payload(b, _coin(r))]


def _chain(r):
    root, m, leaf = r.sample(POOL24, 3)
    return [_composite(root, (m,)), _composite(m, (leaf,)), _payload(leaf, _coin(r))]


def _wide_deps(r):
    root, a, b = r.sample(POOL12, 3)
    return [_composite(root, (a, b)),
            _leaf(a, _subset(r, (root, b))),
            _leaf(b, _subset(r, (root, a)))]


def _chain_deps(r):
    root, m, leaf = r.sample(POOL12, 3)
    return [_composite(root, (m,), _subset(r, (leaf,))),
            _composite(m, (leaf,), _subset(r, (root,))),
            _leaf(leaf, _subset(r, (root, m)))]


def _tree4(r):
    ids = r.sample(POOL12, 4)
    while True:  # rejection sampling: uniform over the 64 labelled rooted trees
        root = r.randrange(4)
        parent = {i: r.randrange(4) for i in range(4) if i != root}
        if all(_reaches(i, root, parent) for i in parent):
            break
    kids = {i: [ids[j] for j, p in parent.items() if p == i] for i in range(4)}
    return [_composite(ids[i], kids[i]) if kids[i] else _leaf(ids[i]) for i in range(4)]


def _reaches(node: int, root: int, parent: dict) -> bool:
    seen = set()
    while node != root:
        if node in seen:
            return False
        seen.add(node)
        node = parent[node]
    return True


# (family, sampler, number of configurations of the family in the 114,192
# configuration universe); sampling weights follow the universe.
SWEEP_FAMILIES = (
    ("single", _single, 48),
    ("pair", _pair, 2208),
    ("wide", _wide, 24288),
    ("chain", _chain, 24288),
    ("wide_deps", _wide_deps, 10560),
    ("chain_deps", _chain_deps, 21120),
    ("tree4", _tree4, 31680),
)


def _allocate(total: int, weights: list[int]) -> list[int]:
    """Split `total` in proportion to `weights` by largest remainder."""
    whole = sum(weights)
    quotas = [total * w / whole for w in weights]
    counts = [math.floor(q) for q in quotas]
    by_remainder = sorted(range(len(weights)), key=lambda i: counts[i] - quotas[i])
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


SWEEP_COUNT = 4096


def sweep_inputs(seed: int) -> list[tuple[str, list]]:
    """`SWEEP_COUNT` (family, components) samples; family shares are fixed by
    the universe weights, the draws inside each family by the seed."""
    r = random.Random(f"sweep:{seed}")
    counts = _allocate(SWEEP_COUNT, [w for _, _, w in SWEEP_FAMILIES])
    out = [(name, sampler(r))
           for (name, sampler, _), n in zip(SWEEP_FAMILIES, counts)
           for _ in range(n)]
    r.shuffle(out)
    return out


# --------------------------------------------------------------------------
# scale and apply: root -> bins -> leaves, with one shared Lib

ORIGIN = "acme"


@dataclass
class Leaf:
    name: str
    ctype: int          # index of the leaf ctype L<i>
    version: int
    deps: list[str]     # handles: "lib" or a bin name


@dataclass
class Bin:
    name: str
    version: int
    leaves: list[Leaf]


@dataclass
class Shape:
    """A root -> bins -> leaves configuration plus the caps of its spec."""

    root_name: str
    root_version: int
    lib_version: int
    ntypes: int
    bins: list[Bin]
    caps: list[int] = field(default_factory=list)   # per leaf ctype, per bin

    @property
    def size(self) -> int:
        return 2 + len(self.bins) + sum(len(b.leaves) for b in self.bins)

    def count(self, b: Bin, t: int) -> int:
        return sum(1 for leaf in b.leaves if leaf.ctype == t)

    def leaves(self):
        return [leaf for b in self.bins for leaf in b.leaves]


def _shape(r: random.Random, target: int, k: int, t: int, p: float) -> Shape:
    """`target` components: bins of about `k` leaves of `t` leaf ctypes, each
    leaf depending on Lib with probability `p`."""
    width = max(1, round((target - 2) / (1 + k)))
    counts = [r.randint(max(1, k - 2), k + 2) for _ in range(width)]
    while sum(counts) != max(width, target - 2 - width):   # hit the target size exactly
        i = r.randrange(width)
        if sum(counts) < target - 2 - width:
            counts[i] += 1
        elif counts[i] > 1:
            counts[i] -= 1
    bins = []
    for i, count in enumerate(counts):
        leaves = [Leaf(f"l{i}_{j}", r.randrange(t), r.randint(1, 3),
                       ["lib"] if r.random() < p else [])
                  for j in range(count)]
        bins.append(Bin(f"bin{i}", r.randint(1, 3), leaves))
    shape = Shape("root", r.randint(1, 3), r.randint(1, 3), t, bins)
    shape.caps = [max(shape.count(b, u) for b in bins) + r.randint(0, 2) for u in range(t)]
    return shape


def config_text(shape: Shape) -> str:
    kids = ", ".join([b.name for b in shape.bins] + ["lib"])
    lines = [
        "config scale {",
        f'  component top : Root ("{shape.root_name}", "{ORIGIN}", {shape.root_version}) contains [{kids}];',
        f'  component lib : Lib ("lib", "{ORIGIN}", {shape.lib_version}) files [];',
    ]
    for b in shape.bins:
        leaves = ", ".join(leaf.name for leaf in b.leaves)
        lines.append(f'  component {b.name} : Bin ("{b.name}", "{ORIGIN}", {b.version}) contains [{leaves}];')
    for leaf in shape.leaves():
        deps = f" depends [{', '.join(leaf.deps)}]" if leaf.deps else ""
        lines.append(f'  component {leaf.name} : L{leaf.ctype} ("{leaf.name}", "{ORIGIN}", '
                     f"{leaf.version}) files []{deps};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def spec_text(shape: Shape, bin_total_hi: int | None = None) -> str:
    slots = ", ".join(f"L{t}: 0..{cap}" for t, cap in enumerate(shape.caps))
    bin_total = "*" if bin_total_hi is None else str(bin_total_hi)
    lines = [
        "spec Scale {",
        "  node Bin {",
        '    name: "bin"*;',
        f'    origin: "{ORIGIN}";',
        f"    total: 0..{bin_total};",
        f"    contains {{ {slots} }}",
        "  }",
    ]
    for t in range(shape.ntypes):
        lines += [
            f"  node L{t} {{",
            '    name: "l"*;',
            f'    origin: "{ORIGIN}";',
            "    total: 0..0;",
            "    depends { Lib }",
            "  }",
        ]
    lines += [
        "  node Lib {",
        '    name: "lib";',
        f'    origin: "{ORIGIN}";',
        "    total: 0..0;",
        "  }",
        "  node Root {",
        '    name: "root";',
        f'    origin: "{ORIGIN}";',
        "    total: 2..*;",
        "    contains { Bin: 1..*, Lib: 1..1 }",
        "  }",
        "  root Root;",
        "}",
    ]
    return "\n".join(lines) + "\n"


def _vdc(i: int) -> float:
    """Van der Corput radical inverse in base 2: every prefix of the sequence
    covers [0, 1) evenly."""
    out, denom = 0.0, 1.0
    while i:
        denom *= 2
        out += (i & 1) / denom
        i >>= 1
    return out


SIZE_RANGE = (64, 512)


def _sizes(count: int) -> list[int]:
    """Log-uniform target sizes in `SIZE_RANGE` along a van der Corput
    sequence, so every prefix of the list covers the range evenly.  The sizes
    are the same for every seed: seeds differ in shapes, not in how large
    inputs are."""
    lo, hi = SIZE_RANGE
    return [round(lo * (hi / lo) ** (_vdc(i) + 0.5 / count)) for i in range(count)]


def _shapes(r: random.Random, sizes: list[int]):
    """One shape per size.  Leaves per bin (2-12), leaf ctypes (1-4) and
    dependency share (0.2-0.9) come from balanced, seed-shuffled decks, so
    every seed draws each value equally often."""
    n = len(sizes)
    ks = [2 + i % 11 for i in range(n)]
    ts = [1 + i % 4 for i in range(n)]
    ps = [0.2 + 0.7 * (i + r.random()) / n for i in range(n)]
    for deck in (ks, ts, ps):
        r.shuffle(deck)
    for params in zip(sizes, ks, ts, ps):
        yield _shape(r, *params)


FAULTS = ("identifier", "dependencies", "child-interval", "total")


@dataclass
class ScaleOp:
    """One `scale` operation and its constructed answer.

    kind "check": texts = (spec, config); expect = [(subject, clause), ...]
    kind "compat": texts = (spec, config A, config B);
                   expect = (compatible, [(subject, cause), ...])
    """

    kind: str
    texts: tuple[str, ...]
    expect: object
    size: int
    fault: str | None = None


def _inject(r: random.Random, shape: Shape, fault: str) -> tuple[str, list, int | None]:
    """Apply one fault; return (fault applied, expected failures, Bin total hi)."""
    if fault == "total":
        leaves = len(shape.leaves())
        if leaves - 1 >= sum(shape.caps):   # the spec must stay well formed
            return fault, [("Bin", "total")], leaves - 1
        fault = "child-interval"
    if fault == "identifier":
        shape.root_name = "toor"
        return fault, [("Root", "identifier")], None
    if fault == "dependencies":
        victim = r.choice(shape.leaves())
        victim.deps = sorted(victim.deps + [r.choice(shape.bins).name])
        return fault, [(f"L{victim.ctype}", "dependencies")], None
    b = r.choice(shape.bins)
    t = r.randrange(shape.ntypes)
    for j in range(shape.caps[t] + 1 - shape.count(b, t)):
        b.leaves.append(Leaf(f"lx_{b.name}_{j}", t, 1, ["lib"]))
    return "child-interval", [("Bin", "child-interval")], None


def _successor(r: random.Random, shape: Shape, regress: bool) -> tuple[Shape, list]:
    """A copy with versions bumped by 0-2; with `regress`, one leaf goes down."""
    new = copy.deepcopy(shape)
    new.root_version += r.randint(0, 2)
    new.lib_version += r.randint(0, 2)
    for b in new.bins:
        b.version += r.randint(0, 2)
        for leaf in b.leaves:
            leaf.version += r.randint(0, 2)
    if not regress:
        return new, []
    i = r.randrange(len(shape.leaves()))
    old, changed = shape.leaves()[i], new.leaves()[i]
    old.version = max(old.version, 2)
    changed.version = old.version - 1
    subject = f"L{old.ctype}({old.name}, {ORIGIN}, v{old.version})"
    return new, [(subject, "version-regression")]


N_COMPAT = 64


def scale_inputs(seed: int) -> list[ScaleOp]:
    """3 checks then 1 compat, repeated `N_COMPAT` times; half the checks
    carry one fault and half the compat pairs one version regression, in
    seeded order."""
    r = random.Random(f"scale:{seed}")
    n_compat = N_COMPAT
    n_check = 3 * n_compat
    faulty = [i % 2 == 1 for i in range(n_check)]
    r.shuffle(faulty)
    kinds = [FAULTS[i % len(FAULTS)] for i in range(n_check // 2)]
    r.shuffle(kinds)
    regress = [i % 2 == 1 for i in range(n_compat)]
    r.shuffle(regress)

    checks = []
    for shape in _shapes(r, _sizes(n_check)):
        fault, expect, bin_total = None, [], None
        if faulty[len(checks)]:
            fault, expect, bin_total = _inject(r, shape, kinds.pop())
        checks.append(ScaleOp("check", (spec_text(shape, bin_total), config_text(shape)),
                              expect, shape.size, fault))
    compats = []
    for shape in _shapes(r, _sizes(n_compat)):
        newer, reasons = _successor(r, shape, regress[len(compats)])
        compats.append(ScaleOp("compat",
                               (spec_text(shape), config_text(shape), config_text(newer)),
                               (not reasons, reasons), shape.size,
                               "version-regression" if reasons else None))
    return [op for i in range(n_compat) for op in checks[3 * i: 3 * i + 3] + [compats[i]]]


# --------------------------------------------------------------------------
# apply: a seeded script of CLI commands with known exit codes

CONFIG, SPEC, CHANGES = "config.cg", "spec.csg", "change.json"
APPLY_SIZE = 150
# guard name -> text its rejection message carries on stderr
GUARD_TEXT = {"DependencyGuard": "still depended on by",
              "WouldViolateSpec": "would not comply"}


@dataclass
class Step:
    kind: str                   # update | extend | remove | remove-lib | undo | check
    argv: list[str]             # confkit arguments; paths relative to the work dir
    changeset: str | None       # JSON written to CHANGES before the step
    expect: int                 # exit code known by construction
    guard: str | None = None    # expected guard when expect == 1
    size: int = 0               # components in the configuration before the step


def _cid(ctype: str, name: str, version: int) -> list:
    return [ctype, name, ORIGIN, version]


class ApplyScript:
    """The starting files plus an endless seeded stream of steps.

    The script keeps its own model of the configuration (bins, leaves, Lib
    version, the stack of states that `undo` returns to), so it knows each
    step's exit code before confkit runs it.
    """

    def __init__(self, seed: int):
        self.r = random.Random(f"apply:{seed}")
        r = self.r
        self.shape = _shape(r, APPLY_SIZE, r.randint(4, 8), r.randint(2, 3), r.uniform(0.4, 0.8))
        # tight caps: the fullest bin of each leaf ctype starts at its cap
        self.shape.caps = [max(self.shape.count(b, t) for b in self.shape.bins)
                           for t in range(self.shape.ntypes)]
        self.config_text = config_text(self.shape)
        self.spec_text = spec_text(self.shape)
        self.open: list[Shape] = []
        self.fresh = itertools.count()

    def ids(self) -> set[tuple]:
        """Component ids of the modelled current configuration."""
        s = self.shape
        out = {("Root", s.root_name, ORIGIN, s.root_version), ("Lib", "lib", ORIGIN, s.lib_version)}
        for b in s.bins:
            out.add(("Bin", b.name, ORIGIN, b.version))
            out.update((f"L{leaf.ctype}", leaf.name, ORIGIN, leaf.version) for leaf in b.leaves)
        return out

    def _leaf_obj(self, leaf: Leaf) -> dict:
        obj = {"id": _cid(f"L{leaf.ctype}", leaf.name, leaf.version), "files": []}
        if leaf.deps:
            obj["depends"] = [_cid("Lib", "lib", self.shape.lib_version)]
        return obj

    def _apply(self, kind: str, change: dict, accepted: bool, guard: str | None = None) -> Step:
        argv = ["apply", CONFIG, CHANGES, "--spec", SPEC]
        return Step(kind, argv, json.dumps(change, sort_keys=True), 0 if accepted else 1, guard)

    def _push(self) -> None:
        self.open.append(copy.deepcopy(self.shape))

    def _update(self) -> Step:
        s = self.shape
        leaves = self.r.sample(s.leaves(), self.r.randint(1, 3))
        pairs = [[_cid(f"L{leaf.ctype}", leaf.name, leaf.version),
                  {**self._leaf_obj(leaf),
                   "id": _cid(f"L{leaf.ctype}", leaf.name, leaf.version + 1)}]
                 for leaf in leaves]
        bump_lib = self.r.random() < 0.15
        if bump_lib:
            pairs.append([_cid("Lib", "lib", s.lib_version),
                          {"id": _cid("Lib", "lib", s.lib_version + 1), "files": []}])
        step = self._apply("update", {"op": "update", "replacements": pairs}, True)
        self._push()
        for leaf in leaves:
            leaf.version += 1
        s.lib_version += bump_lib
        return step

    def _extend(self, full: bool = False) -> Step:
        s = self.shape
        slots = [(b, t) for b in s.bins for t in range(s.ntypes)]
        if full:
            slots = [(b, t) for b, t in slots if s.count(b, t) >= s.caps[t]] or slots
        b, t = self.r.choice(slots)
        leaf = Leaf(f"lx{next(self.fresh)}", t, 1, ["lib"] if self.r.random() < 0.5 else [])
        change = {"op": "extend", "components": [self._leaf_obj(leaf)],
                  "attachments": [[_cid(f"L{leaf.ctype}", leaf.name, 1), _cid("Bin", b.name, b.version)]]}
        if s.count(b, leaf.ctype) >= s.caps[leaf.ctype]:
            return self._apply("extend", change, False, "WouldViolateSpec")
        step = self._apply("extend", change, True)
        self._push()
        b.leaves.append(leaf)
        return step

    def _overfill(self) -> Step:
        """Extend a bin whose slot is already full, if there is one."""
        return self._extend(full=True)

    def _remove(self) -> Step:
        s = self.shape
        dependents = [leaf for leaf in s.leaves() if leaf.deps]
        # keep one Lib dependent, so removing Lib always meets DependencyGuard
        pool = [leaf for leaf in s.leaves() if not (leaf.deps and len(dependents) == 1)]
        leaf = self.r.choice(pool)
        step = self._apply("remove", {"op": "remove", "ids": [_cid(f"L{leaf.ctype}", leaf.name, leaf.version)]}, True)
        self._push()
        for b in s.bins:
            if leaf in b.leaves:
                b.leaves.remove(leaf)
        return step

    def _remove_lib(self) -> Step:
        change = {"op": "remove", "ids": [_cid("Lib", "lib", self.shape.lib_version)]}
        return self._apply("remove-lib", change, False, "DependencyGuard")

    def _undo(self) -> Step:
        self.shape = self.open.pop()
        return Step("undo", ["undo", CONFIG], None, 0)

    def _check(self) -> Step:
        return Step("check", ["check", CONFIG, SPEC], None, 0)

    def steps(self):
        # Each block of 50 steps holds every kind in fixed proportion, in
        # seeded order, so every seed runs the same mix.
        deck = ([self._update] * 14 + [self._extend] * 11 + [self._overfill] * 4 + [self._remove] * 7
                + [self._remove_lib] * 3 + [self._undo] * 8 + [self._check] * 3)
        while True:
            self.r.shuffle(deck)
            for make in deck:
                if make == self._undo and not self.open:
                    make = self._check
                size = self.shape.size
                step = make()
                step.size = size
                yield step


def digest(items) -> str:
    """Stable digest of a list of generated inputs, to prove a seed
    reproduces them."""
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item, sort_keys=True, default=repr).encode())
    return h.hexdigest()
