"""Line-based text formats for automata and grammars.

PDA documents::

    # comment
    state q0 initial
    state q3 final
    input x y
    stack a b c d
    trans t6 q2 - c,a - q3

``trans <id> <from> <input|-> <pop|-> <push|-> <to>``; pop and push are
comma-separated symbol lists written top-first, '-' is the empty string
(so no input or stack symbol may be named '-').
Grammar documents hold one ``A -> x y z`` production per line (``|``
separates alternatives on input), plus an optional ``%start A`` line;
a symbol is a terminal iff it never appears on a left-hand side.
"""

# ``validate`` is not called here but stays bound: the traced bench run
# wraps ``textio.validate`` by name.
from .model import (  # noqa: F401
    Grammar,
    Pda,
    PdaTransition,
    StackString,
    is_valid_name,
    make_grammar,
    validate,
)


class PdaFormatError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _check_name(name: str, kind: str, line_no: int) -> None:
    """Raise ``validate``'s diagnostic at ``line_no`` unless ``name`` is a
    legal ``kind``."""
    # '-' is the text format's empty string, so it cannot name a symbol.
    if not is_valid_name(name) or (name == "-" and "symbol" in kind):
        raise PdaFormatError(f"invalid {kind}: {name!r}", line_no)


def _split_list(token: str, declared: set[str], line_no: int, role: str) -> StackString:
    if token == "-":
        return ()
    symbols = tuple(token.split(","))
    # Declared symbols are non-empty, so this also rejects an empty one.
    if not declared.issuperset(symbols):
        for s in symbols:
            if not s:
                raise PdaFormatError(f"empty symbol in {role} list", line_no)
            if s not in declared:
                raise PdaFormatError(f"unknown symbol: {role} {s!r}", line_no)
    return symbols


def _lines(text: str):
    """(line number, text) of each line not blank once its comment is cut.

    Lines end only at ``\\n``; ``strip`` removes a CRLF's ``\\r``."""
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line


def parse_pda(text: str) -> Pda:
    """Parse a PDA document; raises PdaFormatError with a line number."""
    # Dicts as ordered sets: declaration order, and constant-time lookups.
    states: dict[str, None] = {}
    initial: str | None = None
    finals: set[str] = set()
    inputs: dict[str, None] = {}
    stacks: dict[str, None] = {}
    trans_lines: list[tuple[int, list[str]]] = []

    for line_no, line in _lines(text):
        tokens = line.split()
        directive = tokens[0]
        if directive == "state":
            if len(tokens) < 2:
                raise PdaFormatError("state needs a name", line_no)
            name = tokens[1]
            _check_name(name, "state name", line_no)
            if name in states:
                raise PdaFormatError(f"duplicate state {name!r}", line_no)
            states[name] = None
            for flag in tokens[2:]:
                if flag == "initial":
                    if initial is not None:
                        raise PdaFormatError("second initial state", line_no)
                    initial = name
                elif flag == "final":
                    finals.add(name)
                else:
                    raise PdaFormatError(f"unknown state flag {flag!r}", line_no)
        elif directive == "input" or directive == "stack":
            declared = inputs if directive == "input" else stacks
            kind = directive + " symbol name"
            for s in tokens[1:]:
                _check_name(s, kind, line_no)
                if s in declared:
                    raise PdaFormatError(f"duplicate {directive} symbol {s!r}", line_no)
                declared[s] = None
        elif directive == "trans":
            trans_lines.append((line_no, tokens))
        else:
            raise PdaFormatError(f"unknown directive {directive!r}", line_no)

    if initial is None:
        raise PdaFormatError("no initial state declared", 1 + text.count("\n"))

    stack_set = set(stacks)
    transitions: list[PdaTransition] = []
    seen_ids: set[str] = set()
    for line_no, tokens in trans_lines:
        if len(tokens) != 7:
            raise PdaFormatError("trans needs: id from input pop push to", line_no)
        _, tid, src, inp, pop, push, dst = tokens
        _check_name(tid, "transition id", line_no)
        if tid in seen_ids:
            raise PdaFormatError(f"duplicate id: {tid}", line_no)
        seen_ids.add(tid)
        if src not in states:
            raise PdaFormatError(f"unknown state: {src!r}", line_no)
        if dst not in states:
            raise PdaFormatError(f"unknown state: {dst!r}", line_no)
        if inp != "-" and inp not in inputs:
            raise PdaFormatError(f"unknown symbol: input {inp!r}", line_no)
        transitions.append(
            PdaTransition(
                id=tid,
                source=src,
                input=None if inp == "-" else inp,
                pop=_split_list(pop, stack_set, line_no, "pop"),
                push=_split_list(push, stack_set, line_no, "push"),
                target=dst,
            )
        )

    # Every name was checked where it was declared and every reference
    # resolved, so the result validates.
    return Pda(
        states=tuple(states),
        input_alphabet=tuple(inputs),
        stack_alphabet=tuple(stacks),
        transitions=tuple(transitions),
        initial=initial,
        finals=frozenset(finals),
    )


def print_pda(pda: Pda) -> str:
    lines = []
    for q in pda.states:
        flags = ""
        if q == pda.initial:
            flags += " initial"
        if q in pda.finals:
            flags += " final"
        lines.append(f"state {q}{flags}")
    if pda.input_alphabet:
        lines.append("input " + " ".join(pda.input_alphabet))
    if pda.stack_alphabet:
        lines.append("stack " + " ".join(pda.stack_alphabet))
    for t in pda.transitions:
        inp = t.input if t.input is not None else "-"
        pop = ",".join(t.pop) or "-"
        push = ",".join(t.push) or "-"
        lines.append(f"trans {t.id} {t.source} {inp} {pop} {push} {t.target}")
    return "\n".join(lines) + "\n"


def parse_grammar(text: str) -> Grammar:
    """Parse a grammar document; one production per alternative."""
    productions: list[tuple[str, tuple[str, ...]]] = []
    start: str | None = None
    for line_no, line in _lines(text):
        tokens = line.split()
        if tokens[0] == "%start":
            if len(tokens) != 2:
                raise PdaFormatError("%start needs one symbol", line_no)
            start = tokens[1]
            continue
        if "->" not in line:
            raise PdaFormatError("expected 'lhs -> rhs'", line_no)
        lhs_text, rhs_text = line.split("->", 1)
        lhs = lhs_text.strip()
        if not lhs or len(lhs.split()) != 1:
            raise PdaFormatError("production needs a single lhs symbol", line_no)
        for alt in rhs_text.split("|"):
            productions.append((lhs, tuple(alt.split())))
    if not productions and start is None:
        raise PdaFormatError("empty grammar", 1 + text.count("\n"))
    return make_grammar(productions, start)
