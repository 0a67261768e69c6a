"""Compare two result files written by ``sweep.py``, workload by workload.

    python3 bench/diff.py base.json change.json

For each end-to-end metric of ``BENCHMARK.json`` the change's median is
compared with the base's.  A metric is

* ``regressed`` when it is worse than the base by more than its bound;
* ``unresolved`` when the base's own run-to-run spread (distance between
  the quartiles, as a share of the median) exceeds the bound; then the
  metric is ``improved`` only if every run of the change beats every run of
  the base, and ``regressed`` only if every run of the change is worse than
  every run of the base;
* ``improved`` when the change wins at least nine tenths of the seed-paired
  runs and the medians differ by more than the base's spread;
* ``unchanged`` otherwise.

Per-layer metrics, found in traced runs, have no bound and are listed with
their medians only.  The two files must come from runs of the same length
and the same ``--trace`` setting.  The last line counts each status.  The
exit code is 1 if anything regressed or any run failed, 2 if the files
cannot be compared, 3 if some metric is unresolved and nothing regressed,
and 0 otherwise.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_spec(path: Path = SPEC) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (inf if undefined)."""
    if len(values) < 2:
        return float("inf")
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else float("inf")


def series(result_file: dict, workload: str, metric: str) -> list[tuple[int, float]]:
    """(seed, value) of every run of ``workload`` that reported ``metric``."""
    out = []
    for run in result_file["runs"].get(workload, []):
        metrics = (run.get("result") or {}).get("metrics", {})
        if metric in metrics:
            out.append((run["seed"], metrics[metric]["value"]))
    return out


def judge(base: list[tuple[int, float]], change: list[tuple[int, float]],
          bound: float, lower_is_better: bool) -> dict:
    a = [v for _, v in base]
    b = [v for _, v in change]
    ma, mb = statistics.median(a), statistics.median(b)

    def better(x: float, y: float) -> bool:
        return x < y if lower_is_better else x > y

    worse_by = (mb - ma) / ma if lower_is_better else (ma - mb) / ma
    s = spread(a)
    paired = dict(base)
    wins = [better(v, paired[seed]) for seed, v in change if seed in paired]
    if s > bound:
        if all(better(x, y) for x in b for y in a):
            status = "improved"
        elif all(better(y, x) for x in b for y in a):
            status = "regressed"
        else:
            status = "unresolved"
    elif worse_by > bound:
        status = "regressed"
    elif wins and sum(wins) >= 0.9 * len(wins) and -worse_by > s:
        status = "improved"
    else:
        status = "unchanged"
    return {"base": ma, "change": mb, "worse_by": worse_by, "spread": s, "status": status}


def failures(result_file: dict) -> list[str]:
    bad = []
    for workload, runs in result_file["runs"].items():
        for run in runs:
            result = run.get("result")
            if run.get("exit") != 0 or not result or not result["correct"] or result["failed"]:
                bad.append(f"{workload} seed {run['seed']}")
    return bad


def compare(base: dict, change: dict, spec: dict) -> list[dict]:
    for key in ("seconds", "trace"):
        if base.get(key) != change.get(key):
            raise ValueError(f"the files differ in {key!r}: {base.get(key)} and {change.get(key)}")
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for m in spec["end_to_end"]:
            a = series(base, workload, m["name"])
            b = series(change, workload, m["name"])
            if a and b:
                row = judge(a, b, m["bound"], m["better"] == "lower")
                rows.append({"workload": workload, "metric": m["name"], "bound": m["bound"], **row})
        for m in spec["per_layer"]:
            a = series(base, workload, m["name"])
            b = series(change, workload, m["name"])
            if a and b:
                rows.append({
                    "workload": workload, "metric": m["name"], "bound": None,
                    "base": statistics.median(v for _, v in a),
                    "change": statistics.median(v for _, v in b),
                    "status": "layer",
                })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare two benchmark result files")
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(args.base, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(args.change, encoding="utf-8") as fh:
        change = json.load(fh)

    try:
        rows = compare(base, change, load_spec())
    except ValueError as err:
        parser.error(str(err))
    for r in rows:
        if r["bound"] is None:
            print(f"{r['workload']:<11} {r['metric']:<28} {r['base']:>12.6g} -> {r['change']:<12.6g} layer")
        else:
            print(f"{r['workload']:<11} {r['metric']:<28} {r['base']:>12.6g} -> {r['change']:<12.6g} "
                  f"worse by {r['worse_by']:+.1%} (bound {r['bound']:.0%}, "
                  f"base spread {r['spread']:.1%}) {r['status']}")
    failed = failures(base) + failures(change)
    for f in failed:
        print(f"failed run: {f}")
    counts = {k: sum(r["status"] == k for r in rows)
              for k in ("regressed", "unresolved", "improved", "unchanged")}
    print("summary: " + ", ".join(f"{n} {k}" for k, n in counts.items())
          + f", {len(failed)} failed runs")
    if failed or counts["regressed"]:
        return 1
    return 3 if counts["unresolved"] else 0


if __name__ == "__main__":
    sys.exit(main())
