import pytest

from pdaprune import (
    analyze,
    cfg_to_pda,
    exact_useless,
    grammar_useless,
    make_grammar,
    parse_grammar,
    print_pda,
    random_pda,
    validate,
)


def test_random_pda_deterministic():
    a = random_pda(42)
    b = random_pda(42)
    assert a == b
    assert print_pda(a) == print_pda(b)


def test_random_pda_distinct_seeds():
    assert random_pda(1) != random_pda(2)


def test_random_pda_within_bounds():
    pda = random_pda(7, max_states=6, max_trans=12, max_pop_push=2, gamma_size=3)
    assert len(pda.states) <= 6
    assert len(pda.transitions) <= 12
    assert len(pda.stack_alphabet) <= 3
    assert all(len(t.pop) <= 2 and len(t.push) <= 2 for t in pda.transitions)
    assert validate(pda) == []


def test_random_pda_pops_up_to_its_cap():
    pops = {len(t.pop) for s in range(20) for t in random_pda(s, max_pop_push=4).transitions}
    assert max(pops) == 4


def test_random_pda_rejects_bad_params():
    with pytest.raises(ValueError):
        random_pda(0, max_states=0)


@pytest.mark.parametrize("final_prob", [-1.0, -0.01, 1.01, 5.0, float("nan")])
def test_random_pda_rejects_bad_final_prob(final_prob):
    with pytest.raises(ValueError):
        random_pda(1, final_prob=final_prob)


@pytest.mark.parametrize("final_prob,finals", [(0.0, 0), (1.0, 6)])
def test_random_pda_final_prob_bounds(final_prob, finals):
    assert len(random_pda(1, max_states=6, final_prob=final_prob).finals) == finals


def test_cfg_to_pda_simple():
    g = make_grammar([("S", ("a",))])
    pda = cfg_to_pda(g)
    assert validate(pda) == []
    assert len(pda.transitions) == 4  # start, one production, one match, accept
    report = analyze(pda)
    assert report.useless == frozenset()


def test_cfg_to_pda_unreachable_production():
    g = parse_grammar("S -> a\nB -> b\n")
    pda = cfg_to_pda(g)
    report = analyze(pda)
    assert "prod1" in report.useless
    assert "prod0" not in report.useless
    assert grammar_useless(g) == {1}


def test_cfg_to_pda_empty_language():
    g = make_grammar([("S", ("S",))])
    pda = cfg_to_pda(g)
    report = analyze(pda)
    assert report.empty_language
    assert report.useful == frozenset()


def test_cfg_to_pda_no_productions():
    g = make_grammar([], start="S")
    pda = cfg_to_pda(g)
    assert {t.id for t in pda.transitions} == {"start", "accept"}
    report = analyze(pda)
    assert report.empty_language


@pytest.mark.parametrize(
    "doc,needle",
    [
        ("S -> a,b\n", "invalid stack symbol name: 'a,b'"),
        ("S -> -\n", "invalid stack symbol name: '-'"),
    ],
)
def test_cfg_to_pda_rejects_unprintable_symbols(doc, needle):
    with pytest.raises(ValueError, match="cfg_to_pda built an invalid pda") as err:
        cfg_to_pda(parse_grammar(doc))
    assert needle in str(err.value)


def test_cfg_to_pda_agrees_with_grammar_verdicts():
    g = parse_grammar("S -> A b | c\nA -> A\nD -> c\n")
    pda = cfg_to_pda(g)
    useless_prods = grammar_useless(g)
    report = analyze(pda)
    for i in range(len(g.productions)):
        assert (f"prod{i}" in report.useless) == (i in useless_prods), i
    assert exact_useless(pda) == report.useless


def test_cfg_to_pda_end_marker_avoids_grammar_symbols():
    g = parse_grammar("S -> __end S | a\n__end -> b\nC -> c\n")
    pda = cfg_to_pda(g)
    assert "__end_" in pda.stack_alphabet
    assert next(t for t in pda.transitions if t.id == "accept").pop == ("__end_",)
    useless_prods = grammar_useless(g)
    report = analyze(pda)
    for i in range(len(g.productions)):
        assert (f"prod{i}" in report.useless) == (i in useless_prods), i
    assert useless_prods


def test_cfg_to_pda_rejects_non_string_symbols():
    with pytest.raises(ValueError, match="string symbols"):
        cfg_to_pda(make_grammar([("S", (("a", 1),))]))
