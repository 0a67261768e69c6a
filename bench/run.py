"""pdaprune benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload ladder --seed 1 --seconds 36 --trace 0

A single-process, single-thread, closed loop.  Set-up (import of pdaprune
plus generation and serialization of the inputs) is repeated and timed.
Then each pass runs every instance the way ``pdaprune prune`` does, text in
to pruned text out (``parse_pda`` -> ``analyze`` -> ``prune`` ->
``print_pda``), and on ``corpus`` also ``exact_useless`` the way
``verify --exact`` does.  Passes repeat until ``--seconds`` have elapsed.
Every verdict is checked against a reference that does not come from
``analyze``.  Times are scaled to calibrated seconds by host-speed kernels
timed between instances (see ``KERNEL_REF_S``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, including the
tracing overhead.  The last line of standard output is one JSON object;
the exit code is 1 if any instance failed.
"""

import argparse
import gc
import importlib
import json
import math
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import diff
import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_REPEATS = 11
# Criterion 8's limit for one instance; exceeding it counts as a failure.
INSTANCE_LIMIT_S = 30.0

# The shared 2-core host the benchmark was defined on runs the same Python
# code up to 45% slower for minutes at a time, which no number of passes
# averages away.  So each run also times two fixed pure-Python kernels
# between instances, and times are reported in calibrated seconds: measured
# time x KERNEL_REF_S / the median kernel time taken while it was measured.
# KERNEL_REF_S is that median on that host (Xeon, Python 3.11.7).
KERNEL_REF_S = 0.0060
CALIBRATE_EVERY_S = 0.25


class InstanceTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise InstanceTimeout(f"instance exceeded {INSTANCE_LIMIT_S} s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="pdaprune benchmark")
    parser.add_argument("--workload", required=True, choices=("ladder", "deep-drain", "corpus"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def require_source() -> None:
    """Put the checkout's ``src`` first on the path, or stop."""
    if not (SRC / "pdaprune" / "__init__.py").is_file():
        print(f"error: no pdaprune source at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def fresh_import():
    """Import pdaprune and the generator as a new process would."""
    for name in list(sys.modules):
        if name in ("pdaprune", "workloads") or name.startswith("pdaprune."):
            del sys.modules[name]
    return importlib.import_module("workloads")


def setup(workload: str, seed: int):
    """Time import + generation + serialization; return the median in
    calibrated and in measured seconds, and the instances of the last
    repetition.  Each repetition is calibrated by kernels timed just
    before it."""
    calibrated, measured = [], []
    host = HostSpeed(every_s=0.0)
    for _ in range(SETUP_REPEATS):
        instances = None  # let the previous repetition's inputs be collected
        gc.collect()
        first = len(host.samples)
        host.sample()
        started = time.perf_counter()
        wl = fresh_import()
        instances = wl.generate(workload, seed)
        elapsed = time.perf_counter() - started
        measured.append(elapsed)
        calibrated.append(elapsed * host.factor(first))
    return statistics.median(calibrated), statistics.median(measured), instances


def traced_setup(workload: str, seed: int) -> float:
    """builders.gen_s: self time of the builder calls during generation."""
    wl = fresh_import()
    host = HostSpeed(every_s=0.0)
    host.sample()
    with spans.Tracer(modules()) as tracer:
        wl.generate(workload, seed)
    return tracer.self_times()[0].get("builders.gen", 0.0) * host.factor()


def modules() -> dict:
    return {
        name: sys.modules[f"pdaprune.{name}"]
        for name in ("textio", "pruner", "forward", "oracle", "builders")
    }


def check(inst, report, pruned_text: str, exact) -> list[str]:
    """Differences between the outcome and the instance's references."""
    problems = []
    expected = inst.useless if inst.useless is not None else exact
    if report.useless != expected:
        problems.append(
            f"useless extra={sorted(report.useless - expected)} "
            f"missing={sorted(expected - report.useless)}"
        )
    if inst.nonempty is not None and report.empty_language == inst.nonempty:
        problems.append(f"empty_language={report.empty_language}")
    if inst.split is not None and (report.unreachable, report.dead) != inst.split:
        problems.append(f"unreachable={sorted(report.unreachable)} dead={sorted(report.dead)}")
    if inst.productions is not None:
        prods = frozenset(t for t in report.useless if t.startswith("prod"))
        if prods != inst.productions:
            problems.append(f"useless productions {sorted(prods ^ inst.productions)} differ")
    kept = {line.split()[1] for line in pruned_text.splitlines() if line.startswith("trans ")}
    if len(kept) != inst.transitions - len(expected) or kept & expected:
        problems.append("pruned output does not hold exactly the useful transitions")
    return problems


def _hash_kernel() -> int:
    """Dict, set and tuple-hash work, like the analysis itself."""
    seen = set()
    counts: dict[tuple[int, int], int] = {}
    for i in range(20000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
        seen.add(key)
    return len(seen)


def _int_kernel() -> int:
    """Interpreter and small-integer work only."""
    x = 0
    for i in range(60000):
        x = (x * 31 + i) & 0xFFFF
    return x


class HostSpeed:
    """Kernel timings taken between instances, outside every timed region.

    A sample is the geometric mean of the two kernels' times: the hash
    kernel alone over-reacts to a busy host, the integer kernel alone
    under-reacts.
    """

    def __init__(self, every_s: float) -> None:
        self.every_s = every_s
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        """Take two samples unless the last were taken within ``every_s``."""
        clock = time.perf_counter
        if clock() - self._last < self.every_s:
            return
        for _ in range(2):
            t0 = clock()
            _hash_kernel()
            t1 = clock()
            _int_kernel()
            t2 = clock()
            self.samples.append(math.sqrt((t1 - t0) * (t2 - t1)))
        self._last = clock()

    def kernel_s(self, first: int = 0) -> float:
        """Median of the samples from index ``first`` on."""
        return statistics.median(self.samples[first:])

    def factor(self, first: int = 0) -> float:
        """Multiply a time measured while samples ``first``.. were taken by
        this to get calibrated seconds."""
        return KERNEL_REF_S / self.kernel_s(first)


def run_pass(instances, mods, host: HostSpeed) -> dict:
    """Run every instance once.

    Returns the measured classify times, each one also scaled by the
    kernel samples taken right before and right after it (``scaled``),
    the summed verify time, the failures, and the calibration factor of
    all the samples taken during the pass (``factor``).
    """
    textio, pruner, oracle = mods["textio"], mods["pruner"], mods["oracle"]
    clock = time.perf_counter
    classify, verify, failed = [], 0.0, 0
    taken = []  # number of samples taken before each instance
    gc.collect()
    first = len(host.samples)
    host.sample()
    for inst in instances:
        host.sample()
        taken.append(len(host.samples))
        elapsed, exact = 0.0, None
        signal.setitimer(signal.ITIMER_REAL, INSTANCE_LIMIT_S)
        try:
            t0 = clock()
            pda = textio.parse_pda(inst.text)
            report = pruner.analyze(pda)
            pruned_text = textio.print_pda(pruner.prune(pda, report))
            t1 = clock()
            elapsed = t1 - t0
            if inst.verify:
                exact = oracle.exact_useless(pda)
                verify += clock() - t1
            signal.setitimer(signal.ITIMER_REAL, 0)
            problems = check(inst, report, pruned_text, exact)
        except Exception:  # a failing instance must not stop the run
            signal.setitimer(signal.ITIMER_REAL, 0)
            problems = [traceback.format_exc(limit=3)]
        if problems:
            failed += 1
            print(f"FAIL {inst.name}: {'; '.join(problems)}", file=sys.stderr)
        classify.append(elapsed)
    host.sample()
    # A sample round is two samples: the last round before the instance
    # and the first one after it.
    scaled = [t * KERNEL_REF_S / statistics.median(host.samples[k - 2:k + 2])
              for t, k in zip(classify, taken)]
    return {"classify": classify, "scaled": scaled, "verify": verify, "failed": failed,
            "factor": host.factor(first)}


def layer_metrics(tracer, pass_s: float, factor: float,
                  wrapper_cost: tuple[float, float]) -> dict[str, float]:
    """Metrics of one traced pass; times scaled by the pass's ``factor``,
    ``wrapper_cost`` already in calibrated seconds."""
    by_name, by_caller = tracer.self_times()
    c = tracer.counts
    m = {
        "textio.parse_s": by_name.get("textio.parse", 0.0),
        "textio.print_s": by_name.get("textio.print", 0.0),
        "model.validate_s": by_name.get("model.validate", 0.0),
        "augment.s": by_name.get("augment", 0.0),
        "forward.s": by_name.get("forward", 0.0),
        "backward.s": by_name.get("backward", 0.0),
        "pruner.self_s": by_name.get("pruner.analyze", 0.0),
        "pruner.prune_s": by_name.get("pruner.prune", 0.0),
        "oracle.exact_s": by_name.get("oracle.exact", 0.0),
        "oracle.normalize_s": by_name.get("oracle.normalize", 0.0),
        "oracle.to_grammar_s": by_name.get("oracle.to_grammar", 0.0),
        "oracle.grammar_useless_s": by_name.get("oracle.grammar_useless", 0.0),
    }
    # Shared layers, split by the layer of the calling span.
    for key in ("model.validate.textio", "model.validate.pruner", "model.validate.oracle",
                "augment.pruner", "augment.oracle"):
        m[f"{key}_s"] = by_caller.get(key, 0.0)
    m["trace.self_sum_s"] = sum(by_name.values())
    m["trace.observe_s"] = tracer.observe_s
    m["trace.traced_pass_s"] = pass_s
    m = {k: v * factor for k, v in m.items()}
    m["trace.wrapper_s"] = tracer.wrapper_s(*wrapper_cost)
    for key in ("forward.passes", "forward.compute_s_calls", "forward.closure_entries",
                "nfa.states", "nfa.eps_edges", "backward.iterations", "oracle.productions"):
        m[key] = c[key]
    m["forward.eps_yield"] = c["nfa.eps_edges"] / max(c["forward.compute_s_calls"], 1)
    m["backward.edge_share"] = c["backward.iterations"] / max(c["nfa.eps_edges"], 1)
    m["pruner.rep_share"] = c["representatives"] / max(c["transitions"], 1)
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    require_source()
    signal.signal(signal.SIGALRM, _on_alarm)
    builders_gen_s = traced_setup(args.workload, args.seed) if args.trace else 0.0
    setup_s, setup_measured_s, instances = setup(args.workload, args.seed)
    mods = modules()

    transitions = sum(i.transitions for i in instances)
    verified = sum(i.transitions for i in instances if i.verify)
    host = HostSpeed(every_s=CALIBRATE_EVERY_S)
    wrapper_cost = (0.0, 0.0)
    if args.trace:
        first = len(host.samples)
        host.sample()
        wrapper_cost = tuple(c * host.factor(first) for c in spans.wrapper_cost())
    plain, traced = [], []  # run_pass results; layer metrics of traced passes
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        trace_this = bool(args.trace) and len(plain) > len(traced)
        if trace_this:
            with spans.Tracer(mods) as tracer:
                result = run_pass(instances, mods, host)
        else:
            result = run_pass(instances, mods, host)
        attempted += len(instances)
        failed += result["failed"]
        wall = sum(result["classify"]) + result["verify"]
        if trace_this:
            traced.append(layer_metrics(tracer, wall, result["factor"], wrapper_cost))
        else:
            plain.append(result | {"wall": wall * result["factor"]})
        if time.perf_counter() >= deadline and (not args.trace or traced):
            break

    if args.trace:
        metrics = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
        metrics["trace.pass_s"] = statistics.median(p["wall"] for p in plain)
        metrics["trace.overhead_s"] = metrics["trace.traced_pass_s"] - metrics["trace.pass_s"]
        metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / metrics["trace.pass_s"]
        # Self times less the independently estimated wrapper cost, against
        # the untraced pass: 1 when the spans cover all of the timed work.
        metrics["trace.accounted_share"] = (
            (metrics["trace.self_sum_s"] - metrics["trace.wrapper_s"]) / metrics["trace.pass_s"])
        metrics["builders.gen_s"] = builders_gen_s
        verify_s = statistics.median(p["verify"] * p["factor"] for p in plain)
        metrics["oracle.verify_tps"] = verified / verify_s if verified else 0.0
        metrics["host.kernel_ms"] = host.kernel_s() * 1000
    else:
        def classify_metrics(key: str) -> dict[str, float]:
            times = [p[key] for p in plain]
            return {
                "classify_tps": transitions / statistics.median(sum(ts) for ts in times),
                "classify_max_s": max(statistics.median(ts) for ts in zip(*times)),
            }

        raw = classify_metrics("classify") | {"setup_s": setup_measured_s}
        metrics = classify_metrics("scaled") | {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }

    spec = diff.load_spec()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise AssertionError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    passes = len(plain) + len(traced)
    print(f"workload {args.workload} seed {args.seed}: {len(instances)} instances, "
          f"{transitions} transitions, {passes} passes ({len(traced)} traced)")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    if not args.trace:
        print(f"  host kernel median {host.kernel_s() * 1000:.4g} ms over {len(host.samples)} "
              f"samples (reference {KERNEL_REF_S * 1000:.4g} ms); measured: "
              + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items()))
    print(f"  fail_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
