"""Command-line frontend.

Exit codes are the machine contract: 0 for ok/compliant/compatible, 1 for a
failed check or a rejected change, 2 for parse, usage, or I/O errors.
`--format json` switches stdout to stable JSON payloads; the CONFKIT_FORMAT
environment variable overrides the flag.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .inference import infer
from .lifecycle import (
    DependencyGuard,
    JournalEntry,
    JournalMismatch,
    LifecycleError,
    RootRemoval,
    TypeChanged,
    WouldViolateSpec,
    _open_entries,
    apply,
    journal_entry_to_line,
    parse_changeset,
    parse_journal,
    undo,
)
from .model import InvalidSpec, NotAConfiguration, ValidationReport, root_of
from .textfmt import (
    ParseError,
    check_config_text,
    check_spec_text,
    kind_of,
    parse_config,
    parse_spec,
    print_config,
    print_spec,
    to_dot,
)
from .typecheck import compatible, compliant

_GUARDS = (WouldViolateSpec, DependencyGuard, JournalMismatch, RootRemoval, TypeChanged)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _commit(path: str, text: str, journal_path: str, entry: JournalEntry) -> None:
    """Rewrite the configuration and append its journal entry.  The journal
    is opened first, so one that cannot be written leaves the file untouched."""
    with open(journal_path, "a", encoding="utf-8") as journal:
        _write(path, text)
        journal.write(journal_entry_to_line(entry) + "\n")


def _violation_lines(report: ValidationReport) -> list[str]:
    return [f"  {'warning' if v.severity == 'warning' else 'violation'} [{v.condition}] {v.message}"
            for v in report.violations]


def _emit(fmt: str, payload: dict, lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def cmd_validate(args: argparse.Namespace, fmt: str) -> int:
    if args.spec:
        path, kind = args.spec, "spec"
        _, report = check_spec_text(_read(path), path)
    else:
        path, kind = args.config, "configuration"
        _, report = check_config_text(_read(path), path)
    payload = {
        "command": "validate",
        "kind": kind,
        "path": path,
        "ok": report.ok,
        "violations": report.as_dicts(),
    }
    lines = []
    if report.ok:
        lines.append(f"ok: {path} is a well-formed {kind}")
    else:
        lines.append(f"invalid {kind}: {path}")
    _emit(fmt, payload, lines + _violation_lines(report))
    return 0 if report.ok else 1


def cmd_check(args: argparse.Namespace, fmt: str) -> int:
    config = parse_config(_read(args.config), args.config)
    spec = parse_spec(_read(args.spec), args.spec)
    verdict = compliant(
        config, spec,
        faithful_leaf_rule=args.faithful_leaf_rule,
        strict_lower_bounds=args.strict_lower_bounds,
    )
    payload = {
        "command": "check",
        "compliant": verdict.compliant,
        "failures": [{"subject": f.subject, "clause": f.clause, "detail": f.detail}
                     for f in verdict.failures],
    }
    if verdict.compliant:
        lines = [f"compliant: {args.config} satisfies {args.spec}"]
    else:
        lines = [f"not compliant: {args.config} does not satisfy {args.spec}"]
        if args.explain:
            for f in verdict.failures:
                lines.append(f"  [{f.clause}] {f.detail}")
    _emit(fmt, payload, lines)
    return 0 if verdict.compliant else 1


def cmd_infer(args: argparse.Namespace, fmt: str) -> int:
    config = parse_config(_read(args.config), args.config)
    inferred = infer(config, faithful_leaf_rule=args.faithful_leaf_rule)
    root = root_of(config)
    text = print_spec(
        inferred,
        root=root.id.ctype,
        header="inferred minimal specification (not validated)",
    )
    payload = {"command": "infer", "spec": text}
    _emit(fmt, payload, [text.rstrip("\n")])
    return 0


def cmd_compat(args: argparse.Namespace, fmt: str) -> int:
    config_a = parse_config(_read(args.config_a), args.config_a)
    config_b = parse_config(_read(args.config_b), args.config_b)
    spec = parse_spec(_read(args.spec), args.spec)
    verdict = compatible(config_a, config_b, spec, relaxed=not args.strict_names)
    payload = {
        "command": "compat",
        "compatible": verdict.compatible,
        "reasons": [{"subject": r.subject, "cause": r.cause} for r in verdict.reasons],
    }
    if verdict.compatible:
        lines = [f"compatible: {args.config_b} can stand in for {args.config_a}"]
    else:
        lines = [f"not compatible: {args.config_b} cannot stand in for {args.config_a}"]
        for r in verdict.reasons:
            lines.append(f"  [{r.cause}] {r.subject}")
    _emit(fmt, payload, lines)
    return 0 if verdict.compatible else 1


def _journal(args: argparse.Namespace) -> tuple[str, list[JournalEntry]]:
    """The journal's path and entries; a journal not yet written has none."""
    path = args.journal if args.journal else args.config + ".journal"
    return path, parse_journal(_read(path), path) if os.path.exists(path) else []


def cmd_apply(args: argparse.Namespace, fmt: str) -> int:
    config = parse_config(_read(args.config), args.config)
    spec = parse_spec(_read(args.spec), args.spec)
    change = parse_changeset(_read(args.changeset), args.changeset)
    journal_path, entries = _journal(args)
    seq = len(entries)
    result, entry = apply(config, change, spec, seq=seq)
    text = print_config(result)
    payload = {
        "command": "apply",
        "dry_run": args.dry_run,
        "seq": seq,
        "config": text,
    }
    if args.dry_run:
        _emit(fmt, payload, [text.rstrip("\n")])
        return 0
    _commit(args.config, text, journal_path, entry)
    _emit(fmt, payload, [f"applied: {args.config} rewritten (journal seq {seq})"])
    return 0


def cmd_undo(args: argparse.Namespace, fmt: str) -> int:
    config = parse_config(_read(args.config), args.config)
    journal_path, entries = _journal(args)
    open_stack = _open_entries(entries)
    if not open_stack:
        raise JournalMismatch(f"journal {journal_path} has nothing left to undo")
    target = open_stack[-1]
    restored = undo(config, target)
    text = print_config(restored)
    reversal = JournalEntry(change=target.inverse, inverse=target.change,
                            seq=len(entries), undoes=target.seq)
    _commit(args.config, text, journal_path, reversal)
    payload = {
        "command": "undo",
        "undone_seq": target.seq,
        "seq": reversal.seq,
        "config": text,
    }
    _emit(fmt, payload, [f"undid entry {target.seq}: {args.config} restored (journal seq {reversal.seq})"])
    return 0


def cmd_dot(args: argparse.Namespace, fmt: str) -> int:
    text = _read(args.path)
    if kind_of(text, args.path) == "spec":
        value = parse_spec(text, args.path)
    else:
        value = parse_config(text, args.path)
    dot = to_dot(value)
    payload = {"command": "dot", "dot": dot}
    _emit(fmt, payload, [dot.rstrip("\n")])
    return 0


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=["json", "text"], default="text",
                        help="output format (CONFKIT_FORMAT overrides)")

    parser = argparse.ArgumentParser(
        prog="confkit",
        description="Validate configurations against typed configuration specs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[shared],
                       help="check well-formedness of a spec or configuration")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec", metavar="PATH")
    group.add_argument("--config", metavar="PATH")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("check", parents=[shared],
                       help="check that a configuration complies with a spec")
    p.add_argument("config", metavar="CONFIG")
    p.add_argument("spec", metavar="SPEC")
    p.add_argument("--strict-lower-bounds", action="store_true",
                   help="also require missing mandatory children")
    p.add_argument("--faithful-leaf-rule", action="store_true",
                   help="infer leaf totals as [1,1] instead of [0,0]")
    p.add_argument("--explain", action="store_true",
                   help="print each failing clause")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("infer", parents=[shared],
                       help="print the minimal spec a configuration satisfies")
    p.add_argument("config", metavar="CONFIG")
    p.add_argument("--faithful-leaf-rule", action="store_true")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("compat", parents=[shared],
                       help="check that the second configuration can stand in for the first")
    p.add_argument("config_a", metavar="CONFIG_A")
    p.add_argument("config_b", metavar="CONFIG_B")
    p.add_argument("--spec", metavar="PATH", required=True)
    p.add_argument("--strict-names", action="store_true",
                   help="require equal names for composite counterparts too")
    p.set_defaults(func=cmd_compat)

    p = sub.add_parser("apply", parents=[shared],
                       help="apply a changeset to a configuration file")
    p.add_argument("config", metavar="CONFIG")
    p.add_argument("changeset", metavar="CHANGESET")
    p.add_argument("--spec", metavar="PATH", required=True)
    p.add_argument("--dry-run", action="store_true",
                   help="print the result without writing anything")
    p.add_argument("--journal", metavar="PATH",
                   help="journal file (default: CONFIG.journal)")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("undo", parents=[shared],
                       help="revert the last journaled change")
    p.add_argument("config", metavar="CONFIG")
    p.add_argument("--journal", metavar="PATH")
    p.set_defaults(func=cmd_undo)

    p = sub.add_parser("dot", parents=[shared],
                       help="render a spec or configuration as GraphViz DOT")
    p.add_argument("path", metavar="PATH")
    p.set_defaults(func=cmd_dot)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0

    env_format = os.environ.get("CONFKIT_FORMAT")
    if env_format is not None:
        if env_format not in ("json", "text"):
            print(f"error: CONFKIT_FORMAT must be 'json' or 'text', not {env_format!r}",
                  file=sys.stderr)
            return 2
        fmt = env_format
    else:
        fmt = args.format

    try:
        return args.func(args, fmt)
    except _GUARDS as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 1
    except (NotAConfiguration, InvalidSpec) as exc:
        print("\n".join([f"error: {exc}", *_violation_lines(exc.report)]), file=sys.stderr)
        return 2
    except (ParseError, LifecycleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
