"""confkit benchmark: one workload, one closed-loop client, one process.

usage: python3 perfbench/run.py --workload {sweep,scale,apply} --seed N
                                --seconds S --trace {0,1}

Run from the root of a checkout; confkit is imported from its `src/`.
`--trace 0` measures the end-to-end metrics with nothing instrumented.
`--trace 1` runs every operation twice, once with confkit's public
functions wrapped in span recorders and once without, alternating which
goes first, and reports per-layer metrics plus the tracing overhead.
Every operation's output is checked against the answer its input was
constructed with.  The last line of stdout is one JSON object; the full
result, with machine info and repeat counts, is also written to
perfbench/results/.  The exit code is 1 when any check failed, so a run
with a wrong answer fails even though it still prints its metrics.  See
README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
RESULTS = HERE / "results"
SETUP_REPEATS = 5


def load_confkit():
    """Import confkit from this checkout's src/, or exit with status 1."""
    sys.path.insert(0, str(SRC))
    try:
        import confkit
        import confkit.cli
    except ImportError as exc:
        sys.exit(f"error: cannot import confkit from {SRC}: {exc}")
    if Path(confkit.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: confkit was imported from {confkit.__file__}, not from {SRC}")
    return confkit


class Sweep:
    """compliant and direct_check on one tiny configuration; the op fails if
    the two verdicts differ."""

    def __init__(self, confkit, seed: int):
        self.ck, self.seed = confkit, seed

    def setup(self) -> str:
        ck = self.ck
        samples = inputs.sweep_inputs(self.seed)
        self.spec = ck.textfmt.parse_spec(inputs.SWEEP_SPEC)
        self.configs = [(family, self.build(components)) for family, components in samples]
        self.run_op(0)
        return inputs.digest(samples)

    def build(self, components):
        ck = self.ck
        out = []
        for kind, ci, kids, deps in components:
            deps = [ck.ComponentId(*d) for d in deps]
            if kind == "leaf":
                out.append(ck.Component.leaf(ck.ComponentId(*ci), dependencies=deps))
            else:
                out.append(ck.Component.composite(
                    ck.ComponentId(*ci), [ck.ComponentId(*k) for k in kids], deps))
        return ck.Configuration(tuple(out))

    def run_op(self, i: int):
        family, config = self.configs[i % len(self.configs)]
        typecheck = self.ck.typecheck
        start = time.perf_counter_ns()
        by_inference = typecheck.compliant(config, self.spec)
        direct = typecheck.direct_check(config, self.spec)
        ns = time.perf_counter_ns() - start
        verdict = "compliant" if direct.compliant else "failing"
        return by_inference == direct, ns, len(config), f"{family}/{verdict}"

    def finish(self) -> bool:
        return True


class Scale:
    """Parse from text and check (3 of 4 ops) or compare (1 of 4) configs of
    64-512 components; outputs must match the constructed labels."""

    def __init__(self, confkit, seed: int):
        self.ck, self.seed = confkit, seed

    def setup(self) -> str:
        self.ops = None  # hold one generation at a time
        self.ops = inputs.scale_inputs(self.seed)
        smallest = min((op for op in self.ops if op.kind == "check"), key=lambda op: op.size)
        self._run(smallest)
        return inputs.digest(self.ops)

    def _run(self, op):
        textfmt, typecheck = self.ck.textfmt, self.ck.typecheck
        start = time.perf_counter_ns()
        spec = textfmt.parse_spec(op.texts[0])
        if op.kind == "check":
            verdict = typecheck.compliant(textfmt.parse_config(op.texts[1]), spec)
            ns = time.perf_counter_ns() - start
            got = [(f.subject, f.clause) for f in verdict.failures]
        else:
            older = textfmt.parse_config(op.texts[1])
            newer = textfmt.parse_config(op.texts[2])
            verdict = typecheck.compatible(older, newer, spec)
            ns = time.perf_counter_ns() - start
            got = (verdict.compatible, [(r.subject, r.cause) for r in verdict.reasons])
        return got == op.expect, ns

    def run_op(self, i: int):
        op = self.ops[i % len(self.ops)]
        ok, ns = self._run(op)
        label = op.fault or ("compliant" if op.kind == "check" else "compatible")
        return ok, ns, op.size, f"{op.kind}/{label}"

    def finish(self) -> bool:
        return True


_COMPONENT = re.compile(r'^  component \S+ : (\S+) \("([^"]*)", "([^"]*)", (\d+)\)', re.M)


class Apply:
    """One confkit CLI command per op, each in a fresh interpreter, driven by
    a seeded script whose exit codes are known by construction."""

    def __init__(self, confkit, seed: int, recorder: spans.Recorder | None = None):
        self.ck, self.seed, self.recorder = confkit, seed, recorder
        self.dir: Path | None = None
        # Children may write .pyc files, so after the warm-up command every
        # command imports compiled confkit, as it would from an installed copy.
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPATH"] = str(SRC)
        self.import_ms: list[float] = []

    @property
    def command(self) -> list[str]:
        if self.recorder is None:
            return [sys.executable, "-c", "from confkit.cli import run; run()"]
        return [sys.executable, str(HERE / "launch.py"), "spans.json"]

    def setup(self) -> str:
        self.cleanup()
        self.dir = Path(tempfile.mkdtemp(dir=WORK))
        self.script = inputs.ApplyScript(self.seed)
        textfmt = self.ck.textfmt
        # canonical text, so undoing every change must restore these bytes
        self.start = textfmt.print_config(textfmt.parse_config(self.script.config_text))
        (self.dir / inputs.CONFIG).write_text(self.start, encoding="utf-8")
        (self.dir / inputs.SPEC).write_text(self.script.spec_text, encoding="utf-8")
        self.steps = self.script.steps()
        warm = subprocess.run(self.command + ["check", inputs.CONFIG, inputs.SPEC],
                              cwd=self.dir, env=self.env, capture_output=True)
        if warm.returncode != 0:
            raise RuntimeError(f"warm-up check failed: {warm.stderr.decode()}")
        preview = inputs.ApplyScript(self.seed)
        first = [vars(step) for step, _ in zip(preview.steps(), range(32))]
        return inputs.digest([self.script.config_text, self.script.spec_text, first])

    def run_op(self, i: int):
        step = next(self.steps)
        if step.changeset is not None:
            (self.dir / inputs.CHANGES).write_text(step.changeset, encoding="utf-8")
        start = time.perf_counter_ns()
        proc = subprocess.run(self.command + step.argv, cwd=self.dir, env=self.env,
                              capture_output=True, text=True)
        ns = time.perf_counter_ns() - start
        ok = proc.returncode == step.expect
        if step.guard is not None:
            ok = ok and proc.stderr.startswith("rejected:") and inputs.GUARD_TEXT[step.guard] in proc.stderr
        if self.recorder is not None:
            traced = json.loads((self.dir / "spans.json").read_text(encoding="utf-8"))
            self.import_ms.append(traced["import_ms"])
            self.recorder.add(traced["spans"])
        outcome = "ok" if step.expect == 0 else f"rejected:{step.guard}"
        return ok, ns, step.size, f"{step.kind}/{outcome}"

    def finish(self) -> bool:
        """The file holds the modelled components, and undoing every open
        entry restores the starting bytes exactly."""
        config = self.dir / inputs.CONFIG
        found = {(t, n, o, int(v)) for t, n, o, v in _COMPONENT.findall(config.read_text(encoding="utf-8"))}
        ok = found == self.script.ids()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for _ in self.script.open:
                ok = self.ck.cli.main(["undo", str(config)]) == 0 and ok
        return ok and config.read_text(encoding="utf-8") == self.start

    def cleanup(self) -> None:
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None


def _new_run() -> dict:
    return {"latencies": [], "sizes": [], "tags": Counter(), "failed": 0}


def _record(run: dict, workload, i: int) -> None:
    """Run op `i` of `workload` and add its outcome to `run`."""
    start = time.perf_counter_ns()
    try:
        ok, ns, size, tag = workload.run_op(i)
    except Exception:  # a crashing op is a failed op; keep measuring
        print(f"op {i} raised:", file=sys.stderr)
        traceback.print_exc()
        ok, ns, size, tag = False, time.perf_counter_ns() - start, 1, "raised"
    run["latencies"].append(ns)
    run["sizes"].append(size)
    run["tags"][tag] += 1
    run["failed"] += not ok


def loop(workload, seconds: float) -> dict:
    """Closed loop: run ops back to back for `seconds`."""
    run = _new_run()
    start = time.perf_counter()
    while time.perf_counter() < start + seconds:
        _record(run, workload, len(run["latencies"]))
    run["wall"] = time.perf_counter() - start
    return run


def paired_loop(traced, plain, recorder: spans.Recorder, seconds: float,
                wrap: bool) -> tuple[dict, dict]:
    """Run every op twice, once in the traced lane and once in the plain one,
    swapping which goes first on each op, so that drift in machine speed and
    warm caches hit both lanes alike.  With `wrap`, confkit's functions are
    wrapped only while the traced lane runs (in-process workloads)."""
    runs = {"traced": _new_run(), "plain": _new_run()}
    start = time.perf_counter()
    i = 0
    while time.perf_counter() < start + seconds:
        for lane in ("traced", "plain") if i % 2 == 0 else ("plain", "traced"):
            if lane == "plain":
                _record(runs[lane], plain, i)
                continue
            recorder.op = i
            if wrap:
                recorder.install()
            try:
                _record(runs[lane], traced, i)
            finally:
                if wrap:
                    recorder.uninstall()
        i += 1
    return runs["traced"], runs["plain"]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: at least (1 - q) * n samples lie above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "cpu": cpu, "nproc": len(os.sched_getaffinity(0)), "arch": platform.machine()}


def input_properties(run: dict) -> dict:
    n = len(run["sizes"])
    sizes = sorted(run["sizes"])
    return {
        "ops": n,
        "share": {tag: count / n for tag, count in sorted(run["tags"].items())},
        "size": {"min": sizes[0], "p10": percentile(sizes, 0.1), "p50": percentile(sizes, 0.5),
                 "p90": percentile(sizes, 0.9), "max": sizes[-1]},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("sweep", "scale", "apply"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    confkit = load_confkit()
    WORK.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(parents=True, exist_ok=True)

    recorder = spans.Recorder() if args.trace else None
    if args.workload == "apply":
        workload = Apply(confkit, args.seed, recorder)
    else:
        workload = {"sweep": Sweep, "scale": Scale}[args.workload](confkit, args.seed)

    setup_s, digests = [], set()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        digests.add(workload.setup())
        setup_s.append(time.perf_counter() - start)
    reproducible = len(digests) == 1

    lanes = [workload]
    try:
        if not args.trace:
            run = loop(workload, args.seconds)
            plain = None
        elif isinstance(workload, Apply):
            lanes.append(Apply(confkit, args.seed))
            lanes[1].setup()
            run, plain = paired_loop(workload, lanes[1], recorder, args.seconds, wrap=False)
        else:
            run, plain = paired_loop(workload, workload, recorder, args.seconds, wrap=True)
        finished = all([lane.finish() for lane in lanes])
    finally:
        for lane in lanes:
            if isinstance(lane, Apply):
                lane.cleanup()

    attempted = len(run["latencies"]) + (len(plain["latencies"]) if plain else 0)
    failed = run["failed"] + (plain["failed"] if plain else 0)
    lat_ms = [ns / 1e6 for ns in run["latencies"]]
    n = len(lat_ms)
    if args.trace:
        metrics = spans.layer_metrics(recorder.spans, run["sizes"])
        import_ms = workload.import_ms if isinstance(workload, Apply) else []
        metrics["cli.import_ms"] = (statistics.median(import_ms) if import_ms else 0.0, "ms")
        applies = {tag: c for tag, c in run["tags"].items()
                   if tag.split("/")[0] in ("update", "extend", "remove", "remove-lib")}
        applied = sum(c for tag, c in applies.items() if tag.endswith("/ok"))
        metrics["lifecycle.applied_frac"] = (applied / sum(applies.values()) if applies else 0.0, "frac")
        traced_ns, plain_ns = sum(run["latencies"]), sum(plain["latencies"])
        metrics["trace.overhead_frac"] = ((traced_ns - plain_ns) / plain_ns, "frac")
        notes = [f"{n} ops, each run traced and untraced in alternating order",
                 f"lifecycle.applied_frac base: {sum(applies.values())} apply commands, {applied} applied"]
        recorder.dump(RESULTS / f"spans_{args.workload}_seed{args.seed}.jsonl.gz")
    else:
        rusage = resource.RUSAGE_CHILDREN if args.workload == "apply" else resource.RUSAGE_SELF
        metrics = {
            "ops_per_s": (n / run["wall"], "1/s"),
            "latency_ms_p50": (statistics.median(lat_ms), "ms"),
            "latency_ms_p90": (percentile(lat_ms, 0.9), "ms"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(rusage).ru_maxrss / 1024, "MB"),
        }
        notes = [f"{n} ops in {run['wall']:.3f} s; latency samples n={n}, "
                 f"{n - math.ceil(0.9 * n)} beyond p90",
                 f"failed_frac {failed / attempted:.6f} ({failed} of {attempted})",
                 f"setup_s is the median of {SETUP_REPEATS} set-ups: "
                 + ", ".join(f"{s:.4f}" for s in setup_s)]
    correct = failed == 0 and reproducible and finished
    properties = input_properties(run)

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine(),
        "repeats": {"setup": SETUP_REPEATS, "ops": n, "attempted": attempted},
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "reproducible_inputs": reproducible, "end_checks": finished,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "inputs": properties,
    }
    kind = "traced" if args.trace else "e2e"
    (RESULTS / f"BENCH_{args.workload}_seed{args.seed}_{kind}.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(f"confkit benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, {'traced' if args.trace else 'untraced'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.4f} {unit}")
    for note in notes:
        print(f"  {note}")
    print("  inputs: " + ", ".join(f"{tag} {share:.3f}" for tag, share in properties["share"].items()))
    print("  sizes: " + ", ".join(f"{k} {v}" for k, v in properties["size"].items()))
    print(f"  correct {correct} (inputs reproducible {reproducible}, end checks {finished})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
