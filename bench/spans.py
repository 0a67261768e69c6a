"""Spans and counters around pdaprune's public calls, for the traced run.

Nothing inside the program is edited.  ``Tracer`` replaces a function at
the name its calling module binds (``pdaprune.pruner.run_forward`` is what
``run_pipeline`` calls, ``pdaprune.textio.validate`` what ``parse_pda``
calls) and restores it on exit.  Each call records a span (name, start,
end, parent) in memory; counts are read off the returned ``ForwardResult``,
``BackwardResult`` and grammar.  A layer's self time is its spans' duration
minus the part covered by their child spans and minus the time spent
reading counts off its children's results.

``wrapper_cost`` times the wrappers themselves around a no-op, so that the
tracing cost of a traced pass can be estimated from its span and counter
calls, independently of the traced-minus-untraced difference.
"""

import statistics
import time
from collections import defaultdict

# (module, attribute, span name).  The attribute is looked up on the module
# that makes the call, so a caller's binding is what gets wrapped.
SPANS = (
    ("textio", "parse_pda", "textio.parse"),
    ("textio", "print_pda", "textio.print"),
    ("textio", "validate", "model.validate"),
    ("pruner", "analyze", "pruner.analyze"),
    ("pruner", "prune", "pruner.prune"),
    ("pruner", "validate", "model.validate"),
    ("pruner", "augment", "augment"),
    ("pruner", "run_forward", "forward"),
    ("pruner", "run_backward", "backward"),
    ("oracle", "exact_useless", "oracle.exact"),
    ("oracle", "validate", "model.validate"),
    ("oracle", "augment", "augment"),
    ("oracle", "normalize", "oracle.normalize"),
    ("oracle", "pda_to_grammar", "oracle.to_grammar"),
    ("oracle", "grammar_useless", "oracle.grammar_useless"),
    ("builders", "random_pda", "builders.gen"),
    ("builders", "cfg_to_pda", "builders.gen"),
)

# Calls only counted: compute_s runs thousands of times per analysis.
COUNTERS = (("forward", "compute_s", "forward.compute_s_calls"),)


def _layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def _observe(tracer: "Tracer", name: str, args: tuple, result) -> None:
    c = tracer.counts
    if name == "pruner.analyze":
        c["transitions"] += len(args[0].transitions)
    elif name == "augment" and tracer.caller_layer() == "pruner":
        # run_pipeline augments one representative per input group.
        c["representatives"] += len(args[0].transitions)
    elif name == "forward":
        c["forward.passes"] += result.passes
        c["nfa.states"] += len(result.nfa.states)
        c["nfa.eps_edges"] += len(result.nfa.eps_edges)
        if result.closure is not None:
            c["forward.closure_entries"] += sum(len(v) for v in result.closure.to.values())
    elif name == "backward":
        c["backward.iterations"] += result.iterations
    elif name == "oracle.to_grammar":
        c["oracle.productions"] += len(result[0].productions)


class Tracer:
    """Patches the modules in ``mods`` while active (use as a context manager)."""

    def __init__(self, mods: dict) -> None:
        self.mods = mods
        self.spans: list[list] = []  # [name, start, end, parent index, excluded]
        self.counts: dict[str, int] = defaultdict(int)
        self.observe_s = 0.0
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def caller_layer(self) -> str:
        """Layer of the innermost open span, or ``bench`` at top level."""
        return _layer(self.spans[self._open[-1]][0]) if self._open else "bench"

    def _span(self, name: str, fn):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, open_[-1] if open_ else -1, 0.0]
            open_.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                open_.pop()
            _observe(self, name, args, result)
            # Reading counts is tracing work, not the parent layer's.
            spent = clock() - rec[2]
            self.observe_s += spent
            if open_:
                spans[open_[-1]][4] += spent
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def __enter__(self) -> "Tracer":
        points = [(m, a, self._span(n, getattr(self.mods[m], a))) for m, a, n in SPANS]
        points += [(m, a, self._counter(n, getattr(self.mods[m], a))) for m, a, n in COUNTERS]
        for m, attr, wrapper in points:
            module = self.mods[m]
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Self time per span name and per ``<name>.<caller layer>``."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        by_name: dict[str, float] = defaultdict(float)
        by_caller: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, excluded) in enumerate(self.spans):
            own = end - start - covered[i] - excluded
            by_name[name] += own
            caller = _layer(self.spans[parent][0]) if parent >= 0 else "bench"
            by_caller[f"{name}.{caller}"] += own
        return by_name, by_caller

    def wrapper_s(self, per_span: float, per_counter: float) -> float:
        """Estimated time the span and counter wrappers added to the pass."""
        return len(self.spans) * per_span + sum(self.counts[n] for _, _, n in COUNTERS) * per_counter


def wrapper_cost(calls: int = 20000, batches: int = 5) -> tuple[float, float]:
    """Seconds one span wrapper and one counter wrapper add to a call,
    each the median over ``batches`` timings of ``calls`` wrapped no-ops
    minus the same number of bare ones."""
    def noop(*args):
        return None

    tracer = Tracer({})
    wrappers = (tracer._span("noop", noop), tracer._counter("noop", noop))
    costs = []
    for wrapped in wrappers:
        per_call = []
        for _ in range(batches):
            tracer.spans.clear()
            times = []
            for fn in (noop, wrapped):
                started = time.perf_counter()
                for _ in range(calls):
                    fn(None)
                times.append(time.perf_counter() - started)
            per_call.append((times[1] - times[0]) / calls)
        costs.append(statistics.median(per_call))
    return costs[0], costs[1]
