import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdaprune import (
    Pda,
    PdaFormatError,
    PdaTransition,
    cfg_to_pda,
    parse_grammar,
    parse_pda,
    print_pda,
    random_pda,
    validate,
)

from .conftest import EXAMPLE1_DOC, GRAMMAR_DOCS, corpus, random_grammar, renamed


def test_parse_example1_document(example1):
    assert parse_pda(EXAMPLE1_DOC) == example1


def test_parse_pop_list_is_top_first():
    doc = "state q2 initial\nstate q3 final\nstack c a\ntrans t6 q2 - c,a - q3\n"
    pda = parse_pda(doc)
    (t6,) = pda.transitions
    assert t6.pop == ("c", "a")
    assert t6.push == ()


def test_roundtrip_example1(example1):
    assert parse_pda(print_pda(example1)) == example1


def test_print_is_canonical_fixpoint():
    messy = "# x\n\nstate q0 initial final\nstack  a\n\ntrans t0 q0 - a - q0\n"
    once = print_pda(parse_pda(messy))
    assert print_pda(parse_pda(once)) == once


@pytest.mark.parametrize(
    "doc,needle",
    [
        ("state q0\n", "no initial state"),
        ("state q0 initial\nstate q0\n", "duplicate state"),
        ("state q0 initial\nstate q1 initial\n", "second initial"),
        ("state q0 initial\ntrans t0 q0 - - - q9\n", "unknown state"),
        ("state q0 initial\nstack a\ntrans t0 q0 - z - q0\n", "unknown symbol"),
        ("state q0 initial\ninput x\ntrans t0 q0 w - - q0\n", "unknown symbol"),
        (
            "state q0 initial\ntrans t0 q0 - - - q0\ntrans t0 q0 - - - q0\n",
            "duplicate id",
        ),
        ("state q0 initial\ntrans t0 q0 -\n", "trans needs"),
        ("flip q0\n", "unknown directive"),
        ("state q0 initial\nstack -\n", "invalid stack symbol name: '-'"),
        ("state q0 initial\ninput -\n", "invalid input symbol name: '-'"),
        ("state\n", "state needs a name"),
        ("state q0 initial\nstack a a\n", "duplicate stack symbol 'a'"),
        ("state q0 initial\nstack a b\ntrans t0 q0 - a,,b - q0\n", "empty symbol in pop list"),
        ("state q0 initial\ntrans t0 q9 - - - q0\n", "unknown state: 'q9'"),
    ],
)
def test_parse_errors(doc, needle):
    with pytest.raises(PdaFormatError) as err:
        parse_pda(doc)
    assert needle in str(err.value)
    assert "line" in str(err.value)


def test_parse_error_line_numbers():
    doc = "state q0 initial\n# fine\ntrans t0 q0 - - - q9\n"
    with pytest.raises(PdaFormatError) as err:
        parse_pda(doc)
    assert err.value.line == 3


def test_lines_end_only_at_newline(example1):
    """Form feeds and other separators neither end a line nor a comment,
    and a CRLF reads like an LF."""
    assert parse_pda("state q0 initial # note\fstate q1 final\n").states == ("q0",)
    with pytest.raises(PdaFormatError) as err:
        parse_pda("state q0 initial\f\nstate q0\n")
    assert err.value.line == 2
    assert parse_grammar("S -> a # c\fS -> b\n").productions == (("S", ("a",)),)
    assert parse_pda(EXAMPLE1_DOC.replace("\n", "\r\n")) == example1
    assert parse_grammar("S -> a S b |\r\n") == parse_grammar("S -> a S b |\n")


# A seven-line document; each case breaks one name on one line.
NAMES_DOC = """\
state q0 initial
state q1 final
input x
stack a b
# comment
trans t0 q0 x a b q1
trans t1 q1 - - - q0
"""


@pytest.mark.parametrize(
    "old,new,line,message",
    [
        ("state q0 initial", "state q,0 initial", 1, "invalid state name: 'q,0'"),
        ("input x", "input x,y", 3, "invalid input symbol name: 'x,y'"),
        ("input x", "input -", 3, "invalid input symbol name: '-'"),
        ("stack a b", "stack a b,c", 4, "invalid stack symbol name: 'b,c'"),
        ("stack a b", "stack a -", 4, "invalid stack symbol name: '-'"),
        ("trans t1", "trans t,1", 7, "invalid transition id: 't,1'"),
    ],
)
def test_bad_name_reported_at_its_line(old, new, line, message):
    assert validate(parse_pda(NAMES_DOC)) == []
    with pytest.raises(PdaFormatError) as err:
        parse_pda(NAMES_DOC.replace(old, new))
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


# Every code point str.split() splits on; the name rule's \s class and the
# parser's str.split() agree on all of them.
WHITESPACE = [chr(c) for c in range(0x110000) if chr(c).isspace()]

# One document; each role's token gets a character inserted in its middle.
AGREEMENT_DOC = """\
state q0 initial
state {state} final
input {input}
stack g0 {stack}
trans {id} q0 {input} g0,{stack} {stack} {state}
"""
AGREEMENT_TOKENS = {"state": "q1", "input": "x1", "stack": "g1", "id": "t0"}


@pytest.mark.parametrize("role", sorted(AGREEMENT_TOKENS))
def test_parse_and_validate_agree_on_name_characters(role):
    """The parser checks every name it declares against the name rule, so
    what it accepts must validate."""
    assert len(WHITESPACE) == 29
    assert validate(parse_pda(AGREEMENT_DOC.format(**AGREEMENT_TOKENS))) == []
    for ch in WHITESPACE + [",", "#", "-"]:
        token = AGREEMENT_TOKENS[role]
        doc = AGREEMENT_DOC.format(**(AGREEMENT_TOKENS | {role: token[0] + ch + token[1:]}))
        try:
            pda = parse_pda(doc)
        except PdaFormatError:
            continue
        assert validate(pda) == [], (role, ch)


def with_char(name, ch, where):
    """``name`` with ``ch`` put first (0), in the middle (1) or last (2)."""
    cut = (0, len(name) // 2, len(name))[where]
    return name[:cut] + ch + name[cut:]


AGREEMENT_PDA = parse_pda(AGREEMENT_DOC.format(**AGREEMENT_TOKENS))


@pytest.mark.parametrize("where", [0, 1, 2])
def test_validate_rejects_whitespace_in_names(where):
    """No name of any role may hold whitespace anywhere, the last character
    included: ``print_pda`` would write a document that does not parse."""
    for ch in WHITESPACE:
        for token in AGREEMENT_TOKENS.values():
            pda = renamed(AGREEMENT_PDA, {token: with_char(token, ch, where)})
            assert validate(pda) != [], (token, ch)


# Legal names in every role, '-' aside: it may not name a symbol.
PLAIN_NAMES = ["q0", "q1", "x", "g0", "-", "state", "initial", "final", "trans", "eps", "é", "a;b"]


@st.composite
def pdas(draw):
    """A small Pda over PLAIN_NAMES.  In half of them one name then takes a
    WHITESPACE, ',' or '#' character first, in the middle or last."""
    names = st.sampled_from(PLAIN_NAMES)
    states = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    inputs = draw(st.lists(names, max_size=2, unique=True))
    stack = draw(st.lists(names, max_size=3, unique=True))
    string = st.lists(st.sampled_from(stack), max_size=2).map(tuple) if stack else st.just(())
    transition = st.builds(
        PdaTransition,
        id=names,
        source=st.sampled_from(states),
        input=(st.none() | st.sampled_from(inputs)) if inputs else st.none(),
        pop=string,
        push=string,
        target=st.sampled_from(states),
    )
    pda = Pda(
        states=tuple(states),
        input_alphabet=tuple(inputs),
        stack_alphabet=tuple(stack),
        transitions=tuple(draw(st.lists(transition, max_size=4, unique_by=lambda t: t.id))),
        initial=draw(st.sampled_from(states)),
        finals=draw(st.frozensets(st.sampled_from(states))),
    )
    if draw(st.booleans()):
        old = draw(names)
        ch = draw(st.sampled_from(WHITESPACE + [",", "#"]))
        pda = renamed(pda, {old: with_char(old, ch, draw(st.integers(0, 2)))})
    return pda


@settings(max_examples=300, deadline=None)
@given(pda=pdas())
@example(pda=renamed(AGREEMENT_PDA, {"q1": "q1\n"}))
def test_valid_pdas_round_trip(pda):
    """The converse of ``test_parsed_documents_validate``: what validates
    prints to a document that parses back to it."""
    if validate(pda) == []:
        assert parse_pda(print_pda(pda)) == pda


def test_parsed_documents_validate():
    """parse_pda checks every name where it is declared, so what it returns
    needs no further validation."""
    pdas = corpus(200) + [cfg_to_pda(random_grammar(seed)) for seed in range(100)]
    for pda in pdas:
        assert validate(parse_pda(print_pda(pda))) == []


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_roundtrip_generated(seed):
    pda = random_pda(
        seed,
        max_states=seed % 6 + 1,
        max_trans=seed % 12,
        gamma_size=seed % 3 + 1,
    )
    assert parse_pda(print_pda(pda)) == pda


def test_grammar_roundtrip():
    doc = "%start S\nS -> a S\nS ->\nB -> b\n"
    g = parse_grammar(doc)
    assert g.start == "S"
    assert g.productions == (("S", ("a", "S")), ("S", ()), ("B", ("b",)))
    assert g.terminals == {"a", "b"}


def test_parse_grammar_reads_written_documents():
    """A document written production by production, with ``%start``, parses
    back to the grammar it was written from."""
    grammars = [parse_grammar(doc) for doc in GRAMMAR_DOCS]
    grammars += [random_grammar(seed) for seed in range(100)]
    for g in grammars:
        lines = [f"%start {g.start}"]
        lines += [f"{lhs} -> {' '.join(rhs)}" for lhs, rhs in g.productions]
        assert parse_grammar("\n".join(lines) + "\n") == g


def test_grammar_alternatives_split():
    g = parse_grammar("S -> a | b c\n")
    assert g.productions == (("S", ("a",)), ("S", ("b", "c")))
    assert g.start == "S"


def test_grammar_terminal_rule():
    # A symbol is a terminal iff it never occurs on a lhs, case ignored.
    g = parse_grammar("S -> Next\nNext -> token\n")
    assert g.nonterminals == {"S", "Next"}
    assert g.terminals == {"token"}


def test_grammar_errors():
    with pytest.raises(PdaFormatError):
        parse_grammar("S a b\n")
    with pytest.raises(PdaFormatError):
        parse_grammar("%start\n")
    with pytest.raises(PdaFormatError):
        parse_grammar("# nothing\n")
    # Only the exact token %start declares the start symbol.
    with pytest.raises(PdaFormatError):
        parse_grammar("%start_symbol T\nS -> a\n")
    with pytest.raises(PdaFormatError):
        parse_grammar("%starter S\nS -> a\n")
    with pytest.raises(PdaFormatError, match="single lhs symbol"):
        parse_grammar("A B -> c\n")
