"""Regenerate ``ladder_reference.json``, the ladder's reference verdicts.

    python3 bench/make_reference.py

For each rung it tries seeds upward from ``LADDER_FIRST_SEED`` and keeps the
first ``LADDER_SEEDS_PER_RUNG`` whose language is non-empty, recording the
seeds it skipped.  Each verdict comes from ``exact_useless``, run one
instance per child process because the grammar route needs gigabytes at the
top rung (about 110 s and 3.9 GB at 320 transitions on a 2-core machine);
a child's memory is returned when it exits.  ``analyze`` is never consulted.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from pdaprune import exact_useless  # noqa: E402


def exact_verdict(transitions: int, seed: int) -> dict:
    pda = workloads.ladder_pda(transitions, seed)
    started = time.perf_counter()
    useless = exact_useless(pda)
    useful = len(pda.transitions) - len(useless)
    return {
        "transitions": transitions,
        "seed": seed,
        # A useful transition lies on an accepting run, so the language is
        # non-empty and the backward phase has work to do.
        "nonempty": useful > 0,
        "useful": useful,
        "useless": sorted(useless),
        "exact_s": round(time.perf_counter() - started, 2),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--one", nargs=2, type=int, metavar=("TRANSITIONS", "SEED"),
                        help="print the verdict of one instance as JSON (child mode)")
    parser.add_argument("--out", default=str(workloads.LADDER_REFERENCE))
    args = parser.parse_args()

    if args.one:
        print(json.dumps(exact_verdict(*args.one)))
        return 0

    entries, skipped = [], {}
    for rung in workloads.LADDER_RUNGS:
        seed = workloads.LADDER_FIRST_SEED
        kept = 0
        while kept < workloads.LADDER_SEEDS_PER_RUNG:
            child = subprocess.run(
                [sys.executable, __file__, "--one", str(rung), str(seed)],
                check=True, capture_output=True, text=True,
            )
            entry = json.loads(child.stdout)
            print(f"{rung} {seed}: nonempty={entry['nonempty']} exact {entry['exact_s']} s",
                  file=sys.stderr, flush=True)
            if entry["nonempty"]:
                entries.append(entry)
                kept += 1
            else:
                skipped.setdefault(str(rung), []).append(seed)
            seed += 1

    data = {
        "regenerate": "python3 bench/make_reference.py",
        "generator": {
            "builder": "random_pda",
            "states": "round(transitions / %s)" % workloads.LADDER_TRANSITIONS_PER_STATE,
            "gamma_size": workloads.LADDER_GAMMA,
            "final_prob": workloads.LADDER_FINAL_PROB,
            "max_pop_push": 2,
        },
        "skipped_empty": skipped,
        "entries": entries,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
