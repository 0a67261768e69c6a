"""Compare pdaprune's answers at a base revision with the working tree's.

    python3 tools/regress.py --base HEAD~1

The base's ``src/`` is extracted with ``git archive <rev> src`` into a
temporary directory; nothing is fetched and the checkout is never written.
One fixed instance list is generated once, with the working tree's
builders and ``bench/workloads.py``:

* seeds 1-3 of every bench workload (ladder, deep-drain, corpus);
* ``random_pda(s)`` for s in 0..2999, which holds the regression seeds
  ``REGRESSION_SEEDS``;
* ``random_pda(s, max_pop_push=4)`` for s in 0..999, whose pops of up to
  4 symbols take backward's forward levels past their first hop;
* the dense ``random_pda(2025, ...)`` machine of the backward tests.

Each side parses every instance from its PDA text and runs
``run_pipeline`` in its own subprocess; the two run side by side.  Each
writes one JSON line per instance: the unreachable/dead split,
``empty_language``, ``AnalysisStats`` and a SHA-256 digest of
``nfa_to_dot``.  The lines are then diffed.

Each side also checks its own split against its own ``exact_useless``,
run once as is and once with every state final (the unreachable part), on
every instance of at most ``EXACT_MAX_TRANSITIONS`` transitions; larger
ones (the ladder rungs and the dense machine, seconds each) and failed
instances are counted as not checked.

The last line printed is a one-line summary with the number of differing
instances and each side's exact mismatches; the exit code is 1 if any
instance differs or the working tree has an exact mismatch, and 2 if a
worker fails.
"""

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
FIELDS = ("split", "empty_language", "stats", "dot")
BENCH_SEEDS = (1, 2, 3)
RANDOM_SEEDS = range(3000)
LONG_POP_SEEDS = range(1000)
# random_pda seeds on which a backward that ignores gamma labels in its
# forward levels gives wrong verdicts.
REGRESSION_SEEDS = (1061, 1082, 1257, 1351, 1681, 1871, 2472)
SHOWN = 10
# Every corpus, deep-drain and random_pda instance; exact_useless takes
# 5-13 s on each ladder rung.
EXACT_MAX_TRANSITIONS = 150

# Run as ``python -c`` under each side's PYTHONPATH: instances in, reports out.
WORKER = """
import dataclasses, hashlib, json, sys
from pdaprune import exact_useless, nfa_to_dot, parse_pda, run_pipeline

def exact_unreachable(pda):
    return exact_useless(dataclasses.replace(pda, finals=frozenset(pda.states)))

exact_max = int(sys.argv[3])
with open(sys.argv[1], encoding="utf-8") as src, open(sys.argv[2], "w", encoding="utf-8") as out:
    for line in src:
        inst = json.loads(line)
        try:
            pda = parse_pda(inst["text"])
            result = run_pipeline(pda)
            r = result.report
            rec = {
                "split": [sorted(r.unreachable), sorted(r.dead)],
                "empty_language": r.empty_language,
                "stats": dataclasses.asdict(r.stats),
                "dot": hashlib.sha256(nfa_to_dot(result.fwd.nfa).encode()).hexdigest(),
            }
            if len(pda.transitions) <= exact_max:
                unreachable = exact_unreachable(pda)
                rec["exact"] = [sorted(unreachable), sorted(exact_useless(pda) - unreachable)]
        except Exception as exc:
            rec = {"error": f"{type(exc).__name__}: {exc}"}
        out.write(json.dumps({"name": inst["name"], **rec}, sort_keys=True) + "\\n")
"""


def instances() -> list[tuple[str, str]]:
    """The fixed (name, PDA text) list, generated with the working tree."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(REPO / "src"), str(REPO / "bench")]
    import workloads
    from pdaprune import print_pda, random_pda

    out = []
    for workload in workloads.WORKLOADS:
        for seed in BENCH_SEEDS:
            out += [
                (f"{workload}-{seed}/{inst.name}", inst.text)
                for inst in workloads.generate(workload, seed)
            ]
    for s in sorted(set(RANDOM_SEEDS) | set(REGRESSION_SEEDS)):
        out.append((f"random-{s}", print_pda(random_pda(s))))
    for s in LONG_POP_SEEDS:
        out.append((f"random-pop4-{s}", print_pda(random_pda(s, max_pop_push=4))))
    dense = random_pda(2025, max_states=25, max_trans=160, gamma_size=4, final_prob=0.1)
    out.append(("random-dense-2025", print_pda(dense)))
    return out


def extract_src(rev: str, dest: Path) -> None:
    """Unpack ``rev``'s ``src/`` under ``dest`` with local git only."""
    tar = subprocess.run(
        ["git", "-C", str(REPO), "archive", "--format=tar", rev, "src"],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def load(path: Path) -> dict[str, dict]:
    with open(path, encoding="utf-8") as fh:
        return {rec.pop("name"): rec for rec in map(json.loads, fh)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    base = subprocess.run(
        ["git", "-C", str(REPO), "rev-parse", "--short", args.base],
        check=True, capture_output=True, text=True,
    ).stdout.strip()

    with tempfile.TemporaryDirectory(prefix="regress-") as tmp:
        work = Path(tmp)
        extract_src(base, work / "base")
        listed = instances()
        with open(work / "instances.jsonl", "w", encoding="utf-8") as fh:
            for name, text in listed:
                fh.write(json.dumps({"name": name, "text": text}) + "\n")
        sides = {"base": work / "base" / "src", "change": REPO / "src"}
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", WORKER, str(work / "instances.jsonl"),
                 str(work / f"{side}.jsonl"), str(EXACT_MAX_TRANSITIONS)],
                env=dict(env, PYTHONPATH=str(src)),
            )
            for side, src in sides.items()
        ]
        if any([proc.wait() for proc in procs]):
            print(f"regress: a worker failed; base {base} vs working tree", file=sys.stderr)
            return 2
        old, new = load(work / "base.jsonl"), load(work / "change.jsonl")

    counts = dict.fromkeys((*FIELDS, "error"), 0)
    differing = []
    for name, _ in listed:
        fields = [f for f in counts if old[name].get(f) != new[name].get(f)]
        for f in fields:
            counts[f] += 1
        if fields:
            differing.append(name)
            if len(differing) <= SHOWN:
                print(f"{name}: {', '.join(fields)} differ")
                for f in fields:
                    print(f"  base   {f}: {old[name].get(f)}\n  change {f}: {new[name].get(f)}")
    detail = ", ".join(f"{f} {n}" for f, n in counts.items())
    summary = (
        f"regress: base {base} vs working tree: {len(differing)} of {len(listed)} "
        f"instances differ ({detail})"
    )
    wrong = {}
    for side, recs in (("base", old), ("change", new)):
        wrong[side] = [n for n, rec in recs.items() if "exact" in rec and rec["exact"] != rec["split"]]
        for name in wrong[side][:SHOWN]:
            print(f"{name}: {side} split {recs[name]['split']} vs exact {recs[name]['exact']}")
    checked = sum("exact" in rec for rec in new.values())
    summary += (
        f"; exact split on {checked} instances of at most {EXACT_MAX_TRANSITIONS} "
        f"transitions ({len(listed) - checked} not checked): base {len(wrong['base'])}, "
        f"change {len(wrong['change'])} mismatches"
    )
    print(summary)
    return 1 if differing or wrong["change"] else 0


if __name__ == "__main__":
    sys.exit(main())
