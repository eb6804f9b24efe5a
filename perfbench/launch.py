"""Run one confkit CLI command with span recording (traced `apply` runs).

usage: PYTHONPATH=src python3 perfbench/launch.py SPANS.json CONFKIT-ARGS...

Times `import confkit.cli` before anything else is imported, installs the
span recorder of spans.py, runs `confkit.cli.main` on the remaining
arguments, writes the import time and the spans to SPANS.json, and exits
with the command's exit code.
"""

import sys
import time


def main(argv: list[str]) -> int:
    start = time.perf_counter_ns()
    import confkit.cli
    import_ms = (time.perf_counter_ns() - start) / 1e6

    import json

    import spans

    recorder = spans.Recorder()
    recorder.install()
    try:
        return confkit.cli.main(argv[1:])
    finally:
        with open(argv[0], "w", encoding="utf-8") as fh:
            json.dump({"import_ms": import_ms, "spans": recorder.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
