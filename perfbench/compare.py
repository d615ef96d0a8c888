"""Compare two result records written by ``perfbench/run.py``.

    python3 perfbench/compare.py BASE.json NEW.json

Refuses (exit 2) to compare records whose schema, workload, seed, read
targets, cell order, repetition count or trace mode differ: such numbers
measure different work, not a change in speed. Also refuses a record
whose output check failed: its numbers do not count. Otherwise prints
each metric of both records and the ratio NEW / BASE.
"""

from __future__ import annotations

import json
import sys

# Fields that must match for two records to measure the same work.
MUST_MATCH = ("schema", "workload", "seed", "read_targets", "cell_order",
              "reps", "trace")


def mismatches(base: dict, new: dict) -> list:
    problems = [f"{key}: {base.get(key)!r} != {new.get(key)!r}"
                for key in MUST_MATCH if base.get(key) != new.get(key)]
    for name, record in (("base", base), ("new", new)):
        if record.get("correct") is not True or record.get("failed"):
            problems.append(f"{name}: output check failed "
                            f"({record.get('failed')} cells failed)")
    return problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path) as handle:
            records.append(json.load(handle))
    base, new = records
    problems = mismatches(base, new)
    if problems:
        print("refusing to compare: the records measure different work "
              "or failed their output check", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 2
    print(f"{base['workload']} seed {base['seed']}: "
          f"{base.get('src_digest')} -> {new.get('src_digest')}")
    for name, metric in base["metrics"].items():
        other = new["metrics"].get(name)
        if other is None:
            continue
        ratio = (f"{other['value'] / metric['value']:.3f}x"
                 if metric["value"] else "-")
        print(f"  {name:<40} {metric['value']:>14.6g} {other['value']:>14.6g}"
              f" {metric['unit']:<12} {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
