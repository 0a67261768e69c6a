"""Run the benchmark over several seeds and write one result file.

    python3 bench/sweep.py --seeds 1-10 --out base.json
    python3 bench/sweep.py --seeds 11-15 --workloads corpus --trace 1 --out t.json

Each run is its own process, one after another, with the command and run
length of ``BENCHMARK.json``.  The summary gives, per end-to-end metric,
the median and the spread (inter-quartile distance as a share of the
median) next to the metric's bound.  ``diff.py`` compares two such files.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import diff

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    spec = diff.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="run the benchmark over several seeds")
    parser.add_argument("--seeds", default="1-10", type=seed_list)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    runs: dict[str, list] = {}
    for workload in args.workloads.split(","):
        if workload not in names:
            parser.error(f"unknown workload {workload!r}")
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1]) if lines else None
            except json.JSONDecodeError:
                result = None
            runs.setdefault(workload, []).append({"seed": seed, "exit": proc.returncode, "result": result})
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
            print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr, flush=True)

    data = {"seconds": spec["run_seconds"], "trace": args.trace, "runs": runs}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    for workload in runs:
        for m in metrics:
            values = [v for _, v in diff.series(data, workload, m["name"])]
            if not values:
                continue
            s = diff.spread(values)
            bound = m.get("bound")
            verdict = "" if bound is None else ("steady" if s < bound / 3 else "NOT STEADY")
            print(f"{workload:<11} {m['name']:<28} median {statistics.median(values):<12.6g} "
                  f"spread {s:6.1%}" + (f"  bound {bound:.0%} {verdict}" if bound else ""))
    bad = diff.failures(data)
    for b in bad:
        print(f"failed run: {b}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
