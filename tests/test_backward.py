import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import pdaprune
from pdaprune import (
    M0,
    NfaShapeError,
    NfaSummary,
    analyze,
    augment,
    exact_unreachable,
    exact_useless,
    parse_pda,
    random_pda,
    run_backward,
    run_forward,
)
from pdaprune.augment import BOTTOM

from .conftest import make_pda, nfa_states
from .reference import reference_backward, scan_eps_on_paths, unique_gamma_path


def mids(nfa):
    q1, q2 = nfa_states(nfa, "q1 q2")
    out = {}
    out["n1"] = nfa.gamma_into["a"][q1]
    out["n2"] = nfa.gamma_into["b"][q1]
    out["n4"] = nfa.gamma_into["d"][q2]
    out["n3"] = nfa.gamma_into["a"][out["n4"]]
    out["n5"] = nfa.gamma_into["c"][q2]
    return out


def test_backward_worked_example(golden):
    """t3 must stay dead: its push path n3 -a-> n4 -d-> q2 is never entered,
    even though another a,d-labeled walk with an epsilon shortcut exists."""
    result = run_backward(golden)
    assert result.u2 == {"t3"}
    assert not result.empty_language


def test_backward_empty_language_shortcut():
    # Forge an NFA without the seed edge by rebuilding on a final-less pda.
    pda = make_pda(
        ["q0"], [], ["a"], [("t0", "q0", None, "", "a", "q0")], "q0", []
    )
    p0 = augment(pda)
    fwd = run_forward(p0, BOTTOM)
    result = run_backward(fwd)
    assert result.u2 == {t.id for t in p0.transitions} - fwd.u1
    assert result.iterations == 0
    assert result.empty_language


def test_backward_minimal_single_step():
    p1 = make_pda(
        ["q0", "qf"], [], ["b0"], [("t0", "q0", None, ["b0"], [], "qf")], "q0", ["qf"]
    )
    fwd = run_forward(p1, "b0")
    result = run_backward(fwd)
    assert result.u2 == frozenset()
    assert result.iterations == 1


def test_backward_termination_bound(golden):
    result = run_backward(golden)
    assert result.iterations <= len(golden.nfa.eps_edges)


def test_backward_requires_single_final(example1_p0_restricted):
    import dataclasses

    bad = dataclasses.replace(example1_p0_restricted, finals=frozenset({"qf", "q3"}))
    fwd = run_forward(bad, "b0")
    with pytest.raises(ValueError):
        run_backward(fwd)


def test_unique_gamma_path_values(golden):
    nfa = golden.nfa
    m = mids(nfa)
    q2, qf = nfa_states(nfa, "q2 qf")
    assert unique_gamma_path(nfa, m["n3"]) == (("a", "d"), q2)
    assert unique_gamma_path(nfa, qf) == ((), qf)
    assert unique_gamma_path(nfa, m["n5"]) == (("c",), q2)


def test_unique_gamma_path_detects_breakage():
    nfa = NfaSummary(())
    lone = nfa.new_intermediate()
    with pytest.raises(NfaShapeError):
        unique_gamma_path(nfa, lone)
    a = nfa.new_intermediate()
    b = nfa.new_intermediate()
    nfa.add_gamma_edge(a, "x", b)
    nfa.add_gamma_edge(b, "x", a)
    with pytest.raises(NfaShapeError):
        unique_gamma_path(nfa, a)


def test_scan_eps_worked_values(golden):
    nfa = golden.nfa
    m = mids(nfa)
    q0, q1, q2, q3 = nfa_states(nfa, "q0 q1 q2 q3")
    assert scan_eps_on_paths(nfa, M0, ("b0",), q3) == {
        (q0, m["n1"]),
        (m["n1"], q3),
        (q0, m["n2"]),
        (m["n2"], q3),
    }
    assert scan_eps_on_paths(nfa, m["n1"], ("c", "a"), q2) == {(q1, m["n5"])}
    assert scan_eps_on_paths(nfa, m["n2"], ("d", "b"), q2) == {(q1, m["n4"])}


def test_backward_order_independent(golden):
    rng = random.Random(7)
    runs = [
        run_backward(golden, pick=pick)
        for pick in (
            None,
            lambda pending: 0,
            lambda pending: len(pending) // 2,
            lambda pending: rng.randrange(len(pending)),
        )
    ]
    assert len({run.u2 for run in runs}) == 1
    assert len({run.iterations for run in runs}) == 1


def test_backward_monotone_shrinking(golden, example1_p0_restricted):
    """u2 only loses members as edges are processed."""
    sizes = [len(example1_p0_restricted.transitions)]
    reference_backward(golden, on_step=sizes.append)
    assert sizes == sorted(sizes, reverse=True)
    assert sizes[-1] == 1


@pytest.mark.parametrize("seed", [1061, 1082, 1257, 1351, 1681, 1871, 2472])
def test_backward_forward_levels_check_labels(seed):
    """A forward level follows only the gamma edge labeled with the next pop
    symbol.  On these machines following the other labels gives verdicts
    that differ from the exact oracle's."""
    pda = random_pda(seed)
    assert analyze(pda).useless == exact_useless(pda)


@pytest.mark.parametrize("seed,cap", [(118, 4), (583, 4), (2318, 3)])
def test_backward_long_pops_match_exact_split(seed, cap):
    """Pops of ``cap`` symbols take forward levels past the first hop.  On
    these machines following those hops in top-first order instead of
    bottom-first gives verdicts that differ from the exact oracle's."""
    pda = random_pda(seed, max_pop_push=cap)
    assert max(len(t.pop) for t in pda.transitions) == cap
    report = analyze(pda)
    unreachable = exact_unreachable(pda)
    assert report.unreachable == unreachable
    assert report.dead == exact_useless(pda) - unreachable


# Three of those seeds, each shrunk greedily while a backward whose forward
# levels follow the other labels still disagrees with the exact oracle in
# the same direction, until no single transition, state, final state, input
# or pop or push symbol can go and no two stack symbols can merge.  On 1061
# it calls the dead t11 useful; on 1082 and 1257 it calls t0 and t1 dead.
LABEL_WITNESSES = {
    1061: """\
state q0 initial
state q1
state q2
state q3
state q4 final
state q5
stack g0 g1
trans t0 q1 - - g1 q2
trans t1 q4 - - - q3
trans t7 q2 - g1 - q4
trans t8 q0 - - g0 q1
trans t9 q3 - - g0 q5
trans t10 q5 - g0,g0 - q0
trans t11 q2 - - - q5
""",
    1082: """\
state q0 initial
state q1
state q2
state q3
state q5 final
stack g0
trans t0 q0 - - - q1
trans t1 q3 - - - q2
trans t3 q2 - - g0 q2
trans t6 q0 - - - q2
trans t7 q1 - g0,g0 - q3
trans t8 q2 - - - q5
trans t11 q5 - - - q0
""",
    1257: """\
state q0 initial
state q1
state q2 final
state q3
state q4
stack g1
trans t0 q2 - - g1,g1 q1
trans t1 q1 - - - q4
trans t3 q3 - - - q2
trans t9 q4 - g1,g1 - q2
trans t10 q0 - - - q3
""",
}


@pytest.mark.parametrize("seed", sorted(LABEL_WITNESSES))
def test_backward_label_witnesses_match_exact_split(seed):
    pda = parse_pda(LABEL_WITNESSES[seed])
    report = analyze(pda)
    unreachable = exact_unreachable(pda)
    assert report.unreachable == unreachable
    assert report.dead == exact_useless(pda) - unreachable


# Prints the (x, y) entries of the dense instance in the order the LIFO
# worklist processes them.
BACKWARD_ORDER = """
from pdaprune import augment, random_pda, run_backward, run_forward
from pdaprune.augment import BOTTOM

pda = random_pda(2025, max_states=25, max_trans=160, gamma_size=4, final_prob=0.1)
order = []

def pick(pending):
    order.append(pending[-1])
    return len(pending) - 1

run_backward(run_forward(augment(pda), BOTTOM), pick=pick)
print(order)
"""


def test_backward_work_independent_of_hash_seed():
    """NFA states are ints, whose hashes are fixed, so backward processes
    the same edges in the same order under every PYTHONHASHSEED."""
    src = str(Path(pdaprune.__file__).resolve().parent.parent)
    orders = [
        subprocess.run(
            [sys.executable, "-c", BACKWARD_ORDER],
            capture_output=True,
            env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src),
            check=True,
        ).stdout
        for hash_seed in ("0", "1", "2", "3")
    ]
    assert orders[0].count(b"),") > 100
    assert len(set(orders)) == 1


def test_backward_keeps_one_copy_of_equal_levels():
    """Backward's levels are unions of closure rows, and on the dense
    machine most of them are equal.  Stored once each, backward's peak
    stays below a quarter of what the forward result holds; one copy per
    level takes 0.64 of it."""
    pda = random_pda(2025, max_states=25, max_trans=160, gamma_size=4, final_prob=0.1)
    tracemalloc.start()
    try:
        fwd = run_forward(augment(pda), BOTTOM)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run_backward(fwd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held < held / 4
