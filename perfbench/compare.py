"""Compare benchmark result files of one workload taken on one machine.

usage: python3 perfbench/compare.py BASE.json [BASE.json ...] -- NEW.json [NEW.json ...]

Each side is one or more result files written by run.py (one per seed).
Prints, per metric, the median of each side and the change of the new
median relative to the base median.  Refuses (exit 2) to compare files from
different machines, workloads, run lengths or trace modes.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SAME = ("machine", "workload", "seconds", "trace")


def main(argv: list[str]) -> int:
    if "--" not in argv:
        sys.exit(__doc__)
    cut = argv.index("--")
    sides = [[json.loads(Path(path).read_text(encoding="utf-8")) for path in paths]
             for paths in (argv[:cut], argv[cut + 1:])]
    if not all(sides):
        sys.exit(__doc__)
    first = sides[0][0]
    for result in sides[0] + sides[1]:
        for key in SAME:
            if result[key] != first[key]:
                print(f"refusing to compare: {key} differs: {first[key]!r} vs {result[key]!r}",
                      file=sys.stderr)
                return 2
    print(f"workload {first['workload']}, machine {first['machine']}")
    print(f"  runs: base {len(sides[0])}, new {len(sides[1])}")
    for name, metric in first["metrics"].items():
        base, new = (statistics.median(r["metrics"][name]["value"] for r in side) for side in sides)
        change = f"{new / base - 1:+.2%}" if base else "n/a"
        print(f"  {name:44s} {base:14.4f} {new:14.4f} {change:>9s} {metric['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
