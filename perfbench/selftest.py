#!/usr/bin/env python3
"""Self-test of the benchmark on a few configurations per workload.

For each workload it makes one untraced and one traced run and checks that

- both runs are correct, with no failed operation;
- the traced run's artifacts are byte-identical to its untraced passes
  (a mismatch would be a failed operation) and to the untraced run's, which
  for sweep-sectors ran as a `--jobs 2` subprocess;
- every end-to-end metric of BENCHMARK.json is emitted by the untraced run
  and every per-layer metric by the traced run, each with its unit and
  nothing else;
- the spectra and sectors counts are zero on solve-grid.

Usage, from the root of a checkout: python3 perfbench/selftest.py
Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import run

SUBSETS = {
    "solve-grid": ((1, 2.0, 1.0), (2, 3.0, 4.0)),
    "verify-fixed": ((1, 2.0, 1.0),),
    "sweep-sectors": ((2, "2.0", (2.0,), 2),),
}


def fingerprints(lines) -> dict:
    return {line.rsplit(" ", 1)[0]: line.rsplit(" ", 1)[1]
            for line in lines if line.startswith("fingerprint ")}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for name, calls in SUBSETS.items():
        prints = {}
        for trace in (False, True):
            result, lines = run.run(name, run.DEFAULT_SEED, 0.0, trace, calls,
                                    setup_reps=1)
            tag = f"{name} trace={int(trace)}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: {result['failed']} failed operations")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want[trace]) - set(got))}, "
                                f"extra {sorted(set(got) - set(want[trace]))}, "
                                f"units {sorted(k for k in got if want[trace].get(k, got[k]) != got[k])}")
            if trace and name == "solve-grid":
                nonzero = [k for k, v in result["metrics"].items()
                           if k.startswith(("spectra.", "sectors.")) and v["value"]]
                if nonzero:
                    problems.append(f"{tag}: nonzero on solve-grid: {nonzero}")
            prints[trace] = fingerprints(lines)
        if not prints[False] or prints[False] != prints[True]:
            problems.append(f"{name}: artifacts differ between untraced and traced runs")
        print(f"selftest {name}: {len(prints[False])} fingerprints checked")
    for p in problems:
        print(f"selftest FAILED {p}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
