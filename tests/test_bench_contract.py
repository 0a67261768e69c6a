"""The traced benchmark run wraps pdaprune functions by module and name.

``bench/spans.py`` lists those points and reads its counters off the
results; a refactor of ``src`` that renames one breaks ``bench/run.py
--trace 1`` silently, so check the contract here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PY = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_points_resolve(spans):
    for module, attr, _ in spans.SPANS + spans.COUNTERS:
        owner = importlib.import_module(f"pdaprune.{module}")
        assert callable(getattr(owner, attr, None)), f"pdaprune.{module}.{attr}"


def test_traced_analyze_records_work(spans, example1):
    names = {module for module, _, _ in spans.SPANS + spans.COUNTERS}
    mods = {m: importlib.import_module(f"pdaprune.{m}") for m in names}
    analyze = mods["pruner"].analyze
    with spans.Tracer(mods) as tracer:
        mods["pruner"].analyze(example1)
    assert mods["pruner"].analyze is analyze
    assert tracer.counts["forward.closure_entries"] > 0
    assert tracer.counts["backward.iterations"] > 0
    assert tracer.counts["forward.compute_s_calls"] > 0
    fwd = mods["pruner"].run_pipeline(example1).fwd
    assert tracer.counts["nfa.eps_edges"] == len(fwd.nfa.eps_edges)
    assert tracer.counts["nfa.states"] == len(fwd.nfa.states)
    assert tracer.counts["forward.passes"] == fwd.passes


def test_traced_exact_oracle_records_work(spans, example1):
    names = {module for module, _, _ in spans.SPANS + spans.COUNTERS}
    mods = {m: importlib.import_module(f"pdaprune.{m}") for m in names}
    with spans.Tracer(mods) as tracer:
        mods["pruner"].analyze(example1)
        mods["oracle"].exact_useless(example1)
    oracle = mods["oracle"]
    grammar, _ = oracle.pda_to_grammar(oracle.normalize(oracle.augment(example1)))
    assert tracer.counts["oracle.productions"] == len(grammar.productions)
    _, by_caller = tracer.self_times()
    assert {"augment.pruner", "augment.oracle"} <= set(by_caller)
