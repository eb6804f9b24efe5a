"""Self-check of the benchmark's input generators.

usage: python3 perfbench/selfcheck.py [--seed N]

Checks, for one seed, that
- each generator gives byte-identical inputs when run twice;
- every `sweep` sample is a valid configuration;
- every `scale` check label (compliant, or the fault's ctype and clause)
  equals the failures `direct_check`, the independent oracle, reports, and
  every compat pair has two compliant configurations and the constructed
  `compatible` verdict;
- every one of the first `SELFCHECK_STEPS` `apply` script steps exits as the script expects
  when replayed in-process through `confkit.cli.main`, and undoing every
  open entry afterwards restores the starting bytes.
Exits 0 when everything holds, 1 otherwise.  A generator that labels its
inputs wrongly fails here before it can make a benchmark run fail.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys

import inputs
import run

SELFCHECK_STEPS = 200


def check_sweep(ck, seed: int) -> list[str]:
    samples = inputs.sweep_inputs(seed)
    errors = []
    if inputs.digest(samples) != inputs.digest(inputs.sweep_inputs(seed)):
        errors.append("sweep: inputs differ between two generations")
    sweep = run.Sweep(ck, seed)
    for family, components in samples:
        if not ck.validate_configuration(sweep.build(components)).ok:
            errors.append(f"sweep: invalid {family} sample {components}")
    return errors


def check_scale(ck, seed: int) -> list[str]:
    ops = inputs.scale_inputs(seed)
    errors = []
    if inputs.digest(ops) != inputs.digest(inputs.scale_inputs(seed)):
        errors.append("scale: inputs differ between two generations")
    for i, op in enumerate(ops):
        spec = ck.parse_spec(op.texts[0])
        configs = [ck.parse_config(text) for text in op.texts[1:]]
        verdicts = [[(f.subject, f.clause) for f in ck.direct_check(c, spec).failures] for c in configs]
        if op.kind == "check":
            if verdicts[0] != op.expect:
                errors.append(f"scale op {i}: label {op.expect}, direct_check {verdicts[0]}")
            continue
        if verdicts != [[], []]:
            errors.append(f"scale op {i}: compat pair not compliant: {verdicts}")
        v = ck.compatible(configs[0], configs[1], spec)
        got = (v.compatible, [(r.subject, r.cause) for r in v.reasons])
        if got != op.expect:
            errors.append(f"scale op {i}: label {op.expect}, compatible {got}")
    return errors


def check_apply(ck, seed: int) -> list[str]:
    errors = []
    if inputs.ApplyScript(seed).config_text != inputs.ApplyScript(seed).config_text:
        errors.append("apply: starting configuration differs between two generations")
    apply = run.Apply(ck, seed)
    run.WORK.mkdir(parents=True, exist_ok=True)
    apply.setup()
    try:
        with contextlib.chdir(apply.dir):
            for i in range(SELFCHECK_STEPS):
                step = next(apply.steps)
                if step.changeset is not None:
                    (apply.dir / inputs.CHANGES).write_text(step.changeset, encoding="utf-8")
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = ck.cli.main(step.argv)
                if code != step.expect:
                    errors.append(f"apply step {i} ({step.kind}): expected exit {step.expect}, "
                                  f"got {code}: {err.getvalue().strip()[:200]}")
                elif step.guard and inputs.GUARD_TEXT[step.guard] not in err.getvalue():
                    errors.append(f"apply step {i} ({step.kind}): expected {step.guard}, "
                                  f"got {err.getvalue().strip()[:200]}")
        if not apply.finish():
            errors.append("apply: final configuration or undo-all round trip does not match the model")
    finally:
        apply.cleanup()
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    ck = run.load_confkit()
    errors = check_sweep(ck, args.seed) + check_scale(ck, args.seed) + check_apply(ck, args.seed)
    for error in errors:
        print(error)
    print(f"selfcheck seed {args.seed}: {'ok' if not errors else f'{len(errors)} errors'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
