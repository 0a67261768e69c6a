import pytest
from hypothesis import given
from hypothesis import strategies as st

import pdaprune.builders as builders_module
from pdaprune import (
    M0,
    Configuration,
    Grammar,
    NfaSummary,
    cfg_to_pda,
    make_grammar,
    random_pda,
    validate,
)
from pdaprune.model import NfaShapeError, Pda, is_valid_name

from .conftest import make_pda, nfa_states
from .reference import nfa_shape_violations, step


def test_validate_accepts_example1(example1):
    assert validate(example1) == []


def test_validate_unknown_state(example1):
    bad = make_pda(
        ["q0"], [], ["a"], [("t0", "q0", None, "", "a", "q9")], "q0", []
    )
    diags = validate(bad)
    assert len(diags) == 1
    assert "unknown state" in diags[0]


def test_validate_duplicate_id():
    bad = make_pda(
        ["q0"],
        [],
        ["a"],
        [("t0", "q0", None, "", "a", "q0"), ("t0", "q0", None, "", "", "q0")],
        "q0",
        [],
    )
    diags = validate(bad)
    assert len(diags) == 1
    assert "duplicate id" in diags[0]


def test_validate_symbol_outside_alphabet():
    bad = make_pda(["q0"], [], ["a"], [("t0", "q0", None, "z", "", "q0")], "q0", [])
    assert any("symbol outside alphabet" in d for d in validate(bad))


def test_validate_unknown_input_symbol():
    bad = make_pda(["q0"], ["x"], ["a"], [("t0", "q0", "y", "", "", "q0")], "q0", [])
    assert any("input" in d for d in validate(bad))


def test_validate_bad_names():
    bad = make_pda(["q 0"], [], ["a,b"], [], "q 0", [])
    diags = validate(bad)
    assert any("state name" in d for d in diags)
    assert any("symbol name" in d for d in diags)
    # '-' passes the name rule but is the text format's empty string, so
    # only symbols may not take it.
    assert is_valid_name("-")
    dashes = make_pda(["-"], ["-"], ["-"], [("-", "-", None, "", "", "-")], "-", [])
    assert validate(dashes) == [
        "invalid input symbol name: '-'",
        "invalid stack symbol name: '-'",
    ]


# One valid automaton; each case below breaks one rule of ``validate``.
VALID = dict(
    states=["q0", "q1"],
    inputs=["x"],
    stack=["a"],
    transitions=[("t0", "q0", "x", ["a"], ["a"], "q1")],
    initial="q0",
    finals=["q1"],
)


def with_transition(**fields):
    t = dict(zip(("id", "src", "inp", "pop", "push", "dst"), VALID["transitions"][0]))
    return [tuple((t | fields).values())]


@pytest.mark.parametrize(
    "change,diags",
    [
        ({"states": ["q0", "q1", "q0"]}, ["duplicate state declaration"]),
        ({"inputs": ["x", "x"]}, ["duplicate input symbol declaration"]),
        ({"stack": ["a", "a"]}, ["duplicate stack symbol declaration"]),
        ({"states": ["q0", "q1", "q#2"]}, ["invalid state name: 'q#2'"]),
        ({"inputs": ["x", "y,z"]}, ["invalid input symbol name: 'y,z'"]),
        ({"stack": ["a", ""]}, ["invalid stack symbol name: ''"]),
        ({"transitions": with_transition(id="t\t0")}, ["invalid transition id: 't\\t0'"]),
        ({"inputs": ["x", "-"]}, ["invalid input symbol name: '-'"]),
        ({"stack": ["a", "-"]}, ["invalid stack symbol name: '-'"]),
        ({"initial": "q9"}, ["unknown state: initial 'q9'"]),
        ({"finals": ["q1", "q9"]}, ["unknown state: final 'q9'"]),
        (
            {"transitions": VALID["transitions"] + with_transition(src="q1")},
            ["duplicate id: t0"],
        ),
        ({"transitions": with_transition(src="q9")}, ["unknown state: t0 source 'q9'"]),
        ({"transitions": with_transition(dst="q9")}, ["unknown state: t0 target 'q9'"]),
        ({"transitions": with_transition(inp="y")}, ["symbol outside alphabet: t0 input 'y'"]),
        ({"transitions": with_transition(pop=["b"])}, ["symbol outside alphabet: t0 pop 'b'"]),
        ({"transitions": with_transition(push=["b"])}, ["symbol outside alphabet: t0 push 'b'"]),
    ],
)
def test_validate_diagnostics_per_rule(change, diags):
    assert validate(make_pda(**VALID)) == []
    assert validate(make_pda(**(VALID | change))) == diags


def test_validate_words_unknown_finals_in_sorted_order():
    unknown = [f"u{i}" for i in range(8)]
    bad = make_pda(**(VALID | {"finals": ["q1", *reversed(unknown)]}))
    assert validate(bad) == [f"unknown state: final {q!r}" for q in unknown]


def test_validate_diagnostics_all_rules_at_once():
    bad = make_pda(
        states=["q0", "q0", "q 1"],
        inputs=["x", "x", "y,z", "-"],
        stack=["a", "a", "", "-"],
        transitions=[
            ("t 0", "q9", "w", ["b"], ["c"], "q8"),
            ("t 0", "q0", None, [], [], "q0"),
        ],
        initial="q7",
        finals=["q6"],
    )
    assert validate(bad) == [
        "duplicate state declaration",
        "invalid state name: 'q 1'",
        "duplicate input symbol declaration",
        "invalid input symbol name: 'y,z'",
        "invalid input symbol name: '-'",
        "duplicate stack symbol declaration",
        "invalid stack symbol name: ''",
        "invalid stack symbol name: '-'",
        "unknown state: initial 'q7'",
        "unknown state: final 'q6'",
        "invalid transition id: 't 0'",
        "unknown state: t 0 source 'q9'",
        "unknown state: t 0 target 'q8'",
        "symbol outside alphabet: t 0 input 'w'",
        "symbol outside alphabet: t 0 pop 'b'",
        "symbol outside alphabet: t 0 push 'c'",
        "invalid transition id: 't 0'",
        "duplicate id: t 0",
    ]


def test_builders_reject_their_own_invalid_builds(monkeypatch):
    with pytest.raises(ValueError) as err:
        cfg_to_pda(make_grammar([("S", ("a b",))]))
    assert str(err.value) == (
        "cfg_to_pda built an invalid pda: invalid input symbol name: 'a b'; "
        "invalid stack symbol name: 'a b'; invalid transition id: 'match_a b'"
    )

    def misplaced_initial(**fields):
        return Pda(**(fields | {"initial": "nowhere"}))

    monkeypatch.setattr(builders_module, "Pda", misplaced_initial)
    with pytest.raises(ValueError) as err:
        random_pda(0)
    assert str(err.value) == "random_pda built an invalid pda: unknown state: initial 'nowhere'"


@pytest.mark.parametrize(
    "name,ok",
    [
        ("a", True),
        ("g12", True),
        ("", False),
        ("a b", False),
        ("a,b", False),
        ("#x", False),
        ("q1\n", False),
        ("\nq1", False),
        ("q1\r", False),
    ],
)
def test_name_rule(name, ok):
    assert is_valid_name(name) is ok


def test_grammar_rejects_a_symbol_in_both_roles():
    # grammar_useless read such a symbol as a nonterminal, and cfg_to_pda
    # failed on it with a duplicate stack symbol.
    with pytest.raises(ValueError, match="both a terminal and a nonterminal: 'S'"):
        Grammar(frozenset({"S"}), frozenset({"S", "a"}), (("S", ("a",)),), "S")


@pytest.mark.parametrize(
    "build,needle",
    [
        (lambda: Grammar(frozenset({"S"}), frozenset(), (), "T"), "start symbol"),
        (
            lambda: Grammar(frozenset({"S"}), frozenset({"a"}), (("a", ()),), "S"),
            "production lhs 'a' is not a nonterminal",
        ),
        (
            lambda: Grammar(frozenset({"S"}), frozenset({"a"}), (("S", ("b",)),), "S"),
            "undeclared symbol 'b'",
        ),
        (lambda: make_grammar([]), "cannot infer a start symbol"),
    ],
    ids=["undeclared-start", "terminal-lhs", "undeclared-rhs", "empty"],
)
def test_grammar_construction_errors(build, needle):
    with pytest.raises(ValueError, match=needle):
        build()


def test_step_pops_prefix(example1):
    # q2 with stack [c,a]: only t6 applies, leaving the empty stack.
    got = step(example1, Configuration("q2", ("c", "a")))
    assert got == {("t6", Configuration("q3", ()))}


def test_step_no_transitions(example1):
    assert step(example1, Configuration("q3", ("a",))) == set()


def test_step_initial_fanout(example1):
    got = step(example1, Configuration("q0", ()))
    assert got == {
        ("t1", Configuration("q1", ("a",))),
        ("t2", Configuration("q1", ("b",))),
        ("t3", Configuration("q2", ("d", "a"))),
    }


@given(suffix=st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=4).map(tuple))
def test_step_ignores_stack_below_pop(suffix):
    pda = make_pda(
        ["q0", "q1"],
        [],
        ["a", "b", "c", "d"],
        [("t0", "q0", None, "ca", "d", "q1")],
        "q0",
        [],
    )
    base = step(pda, Configuration("q0", ("c", "a")))
    lifted = step(pda, Configuration("q0", ("c", "a") + suffix))
    assert {(tid, Configuration(c.state, c.stack + suffix)) for tid, c in base} == lifted


def test_nfa_shape_guards():
    nfa = NfaSummary(["q0"])
    n = nfa.new_intermediate()
    (q,) = nfa_states(nfa, "q0")
    nfa.add_gamma_edge(n, "a", q)
    with pytest.raises(NfaShapeError):
        nfa.add_gamma_edge(n, "b", q)  # second edge out of n
    m = nfa.new_intermediate()
    with pytest.raises(NfaShapeError):
        nfa.add_gamma_edge(m, "a", q)  # second 'a' edge into q
    with pytest.raises(NfaShapeError):
        nfa.add_gamma_edge(q, "a", n)  # final source


def label_index_nfa():
    nfa = NfaSummary(["q0"])
    (q0,) = nfa_states(nfa, "q0")
    nfa.add_gamma_edge(M0, "b0", q0)
    n = nfa.new_intermediate()
    nfa.add_gamma_edge(n, "a", q0)
    nfa.add_eps_edge(M0, n)
    assert nfa.gamma_into == {"b0": {q0: M0}, "a": {q0: n}}
    assert nfa_shape_violations(nfa) == []
    return nfa, q0, n


def test_label_index_corruption_is_reported():
    nfa, q0, _ = label_index_nfa()
    nfa.gamma_into["a"][q0] = M0
    diags = nfa_shape_violations(nfa)
    assert any("label index lacks a edge" in d for d in diags), diags
    assert any("label index has stray a edge" in d for d in diags), diags

    nfa, q0, n = label_index_nfa()
    nfa.gamma_into["c"] = {q0: n}
    assert nfa_shape_violations(nfa) == [f"label index has stray c edge {n!r}->{q0!r}"]


def test_nfa_states_are_numbered_once():
    """m0 is 0, PDA states 1..n in declaration order, intermediates from
    n + 1; a range test tells PDA states from the rest."""
    nfa = NfaSummary(["b", "a"])
    assert nfa_states(nfa, "b a") == (1, 2)
    assert (nfa.name(1), nfa.name(2)) == ("b", "a")
    assert nfa.new_intermediate() == 3
    assert [nfa.is_final(s) for s in range(4)] == [False, True, True, False]


def test_nfa_eps_edges_deduplicate():
    nfa = NfaSummary(["q0", "q1"])
    x, y = nfa_states(nfa, "q0 q1")
    nfa.states.add(x)
    nfa.states.add(y)
    assert nfa.add_eps_edge(x, y)
    assert not nfa.add_eps_edge(x, y)
    assert len(nfa.eps_edges) == 1
