"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 parse or validation failure,
3 empty language (analyze), 4 oracle disagreement (verify).

``analyze`` prints a machine-readable report: a version header line, then
one ``USELESS <id> <reason>`` line per useless transition (reason is
``unreachable`` or ``dead``); human-oriented details follow as '#'
comments.
"""

import argparse
import os
import sys

from . import __version__
from .builders import cfg_to_pda, random_pda
from .dot import nfa_to_dot
from .model import Pda
from .oracle import bounded_useful, exact_unreachable, exact_useless
from .pruner import AnalysisReport, InvalidPdaError, analyze, prune, run_pipeline
from .textio import PdaFormatError, parse_grammar, parse_pda, print_pda

REPORT_HEADER = "pdaprune-report 1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_EMPTY = 3
EXIT_MISMATCH = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _number(kind, low, high=None):
    """argparse type: a ``kind`` value in [low, high], unbounded above if
    ``high`` is None.  Out-of-range values are usage errors."""

    def parse(text: str):
        value = kind(text)
        if not (low <= value and (high is None or value <= high)):
            limits = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"{text} is not {limits}")
        return value

    parse.__name__ = kind.__name__  # argparse reports "invalid int value: ..."
    return parse


def _load_pda(path: str) -> Pda:
    with open(path, encoding="utf-8") as fh:
        return parse_pda(fh.read())


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _report_lines(pda: Pda, report: AnalysisReport, stats: bool) -> list[str]:
    lines = [REPORT_HEADER]
    for t in pda.transitions:
        if t.id in report.unreachable:
            lines.append(f"USELESS {t.id} unreachable")
        elif t.id in report.dead:
            lines.append(f"USELESS {t.id} dead")
    lines.append(
        f"# {len(pda.transitions)} transitions: {len(report.useful)} useful, "
        f"{len(report.unreachable)} unreachable, {len(report.dead)} dead"
    )
    lines.append(f"# language-empty: {'yes' if report.empty_language else 'no'}")
    if stats:
        s = report.stats
        lines.append(
            f"# nfa: {s.nfa_states} states, {s.gamma_edges} gamma edges, "
            f"{s.eps_edges} eps edges"
        )
        lines.append(
            f"# passes: {s.forward_passes} forward, {s.backward_iterations} backward"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="pdaprune", description="useless-transition analysis for PDAs")
    parser.add_argument("--version", action="version", version=f"pdaprune {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="classify transitions")
    p_analyze.add_argument("pda")
    p_analyze.add_argument("--stats", action="store_true")

    p_prune = sub.add_parser("prune", help="write the pda minus useless transitions")
    p_prune.add_argument("pda")
    p_prune.add_argument("-o", "--output", default=None)
    p_prune.add_argument("--drop-orphan-states", action="store_true")

    p_nfa = sub.add_parser("nfa", help="export the summary NFA")
    p_nfa.add_argument("pda")
    p_nfa.add_argument("--dot", default=None, help="output path (default stdout)")

    p_verify = sub.add_parser("verify", help="cross-check analyze against an oracle")
    p_verify.add_argument("pda")
    mode = p_verify.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", help="grammar oracle (default)")
    mode.add_argument(
        "--bounded",
        nargs=2,
        type=_number(int, 0),
        metavar=("STACK", "MOVES"),
        help="explicit-search oracle with the given bounds (MOVES >= 1)",
    )

    p_gen = sub.add_parser("gen", help="generate a seeded random pda")
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--states", type=_number(int, 1), default=6)
    p_gen.add_argument("--trans", type=_number(int, 0), default=12)
    p_gen.add_argument("--pop-push", type=_number(int, 0), default=2)
    p_gen.add_argument("--gamma", type=_number(int, 1), default=3)
    p_gen.add_argument("--final-prob", type=_number(float, 0.0, 1.0), default=0.35)
    p_gen.add_argument("-o", "--output", default=None)

    p_cfg = sub.add_parser("cfg2pda", help="convert a grammar to a pda")
    p_cfg.add_argument("grammar")
    p_cfg.add_argument("-o", "--output", default=None)

    args = parser.parse_args(argv)
    if args.command == "verify" and args.bounded is not None and args.bounded[1] < 1:
        p_verify.error(f"argument --bounded: MOVES {args.bounded[1]} is not >= 1")
    if args.command == "gen" and args.seed is None:
        env_seed = os.environ.get("PDAPRUNE_SEED", "0")
        try:
            args.seed = int(env_seed)
        except ValueError:
            p_gen.error(f"PDAPRUNE_SEED: invalid int value: {env_seed!r}")

    try:
        if args.command == "analyze":
            pda = _load_pda(args.pda)
            report = analyze(pda)
            print("\n".join(_report_lines(pda, report, args.stats)))
            return EXIT_EMPTY if report.empty_language else EXIT_OK

        if args.command == "prune":
            pda = _load_pda(args.pda)
            report = analyze(pda)
            pruned = prune(pda, report, drop_orphan_states=args.drop_orphan_states)
            _write(args.output, print_pda(pruned))
            return EXIT_OK

        if args.command == "nfa":
            pda = _load_pda(args.pda)
            result = run_pipeline(pda)
            _write(args.dot, nfa_to_dot(result.fwd.nfa))
            return EXIT_OK

        if args.command == "verify":
            pda = _load_pda(args.pda)
            report = analyze(pda)
            if args.bounded is not None:
                stack, moves = args.bounded
                witnesses = bounded_useful(pda, stack, moves)
                bad = sorted(witnesses & report.useless)
                if bad:
                    print(f"MISMATCH: witnessed-useful classified useless: {' '.join(bad)}")
                    return EXIT_MISMATCH
                print(f"MATCH ({len(witnesses)} witnesses, bounds {stack}/{moves})")
                return EXIT_OK
            useless, unreachable = exact_useless(pda), exact_unreachable(pda)
            sides = (
                ("unreachable", report.unreachable, unreachable),
                ("dead", report.dead, useless - unreachable),
            )
            wrong = [(side, got, want) for side, got, want in sides if got != want]
            for side, got, want in wrong:
                print(f"MISMATCH: {side} extra={sorted(got - want)} missing={sorted(want - got)}")
            if wrong:
                return EXIT_MISMATCH
            print(f"MATCH ({len(useless)} useless)")
            return EXIT_OK

        if args.command == "gen":
            pda = random_pda(
                args.seed,
                max_states=args.states,
                max_trans=args.trans,
                max_pop_push=args.pop_push,
                gamma_size=args.gamma,
                final_prob=args.final_prob,
            )
            _write(args.output, print_pda(pda))
            return EXIT_OK

        if args.command == "cfg2pda":
            with open(args.grammar, encoding="utf-8") as fh:
                grammar = parse_grammar(fh.read())
            _write(args.output, print_pda(cfg_to_pda(grammar)))
            return EXIT_OK
    except (PdaFormatError, InvalidPdaError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    raise AssertionError("unhandled command")


if __name__ == "__main__":
    sys.exit(main())
