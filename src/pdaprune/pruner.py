"""Orchestration: classify every original transition and emit the pruned PDA.

The pipeline runs on the input as given.  Transitions that differ only in
their input symbol cost next to nothing extra: forward evaluates their
shared (source, pop) S-set once and their push paths coincide, so they
add no NFA state or edge.  ``run_pipeline`` returns the report with the
forward result, which holds P0 as ``fwd.p0``, and the backward result;
the report keeps the input's ids and drops P0's synthetic ``#aug`` ones.
"""

from dataclasses import dataclass, replace

from .augment import BOTTOM, augment
from .backward import BackwardResult, run_backward
from .forward import ForwardResult, run_forward
from .model import Pda, validate


class InvalidPdaError(ValueError):
    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class AnalysisStats:
    nfa_states: int
    gamma_edges: int
    eps_edges: int
    forward_passes: int
    backward_iterations: int


@dataclass(frozen=True)
class AnalysisReport:
    unreachable: frozenset[str]
    dead: frozenset[str]
    useful: frozenset[str]
    empty_language: bool
    stats: AnalysisStats

    @property
    def useless(self) -> frozenset[str]:
        return self.unreachable | self.dead


@dataclass
class PipelineResult:
    report: AnalysisReport
    fwd: ForwardResult
    bwd: BackwardResult


def run_pipeline(pda: Pda, *, use_closure_index: bool = True) -> PipelineResult:
    """augment -> forward -> backward, with verdicts on original ids."""
    diags = validate(pda)
    if diags:
        raise InvalidPdaError(diags)

    fwd = run_forward(augment(pda), BOTTOM, use_closure_index=use_closure_index)
    bwd = run_backward(fwd)

    ids = frozenset(t.id for t in pda.transitions)
    unreachable = fwd.u1 & ids
    dead = bwd.u2 & ids
    useful = ids - unreachable - dead
    report = AnalysisReport(
        unreachable=unreachable,
        dead=dead,
        useful=useful,
        empty_language=bwd.empty_language,
        stats=AnalysisStats(
            nfa_states=len(fwd.nfa.states),
            gamma_edges=len(fwd.nfa.gamma_out),
            eps_edges=sum(map(len, fwd.nfa.eps_out.values())),
            forward_passes=fwd.passes,
            backward_iterations=bwd.iterations,
        ),
    )
    return PipelineResult(report=report, fwd=fwd, bwd=bwd)


def analyze(pda: Pda, *, use_closure_index: bool = True) -> AnalysisReport:
    """Partition the transitions of ``pda`` into unreachable, dead and useful."""
    return run_pipeline(pda, use_closure_index=use_closure_index).report


def prune(pda: Pda, report: AnalysisReport, *, drop_orphan_states: bool = False) -> Pda:
    """Remove the useless transitions named by ``report``.

    States, alphabets, initial and final states are kept; pass
    ``drop_orphan_states=True`` to also drop states no remaining transition
    touches (the initial state always stays).
    """
    useless = report.useless
    parts = useless | report.useful
    # Three sets partition ``parts`` exactly when their sizes add up to its size.
    if len(parts) != len(report.unreachable) + len(report.dead) + len(report.useful) or (
        parts != {t.id for t in pda.transitions}
    ):
        raise ValueError("report does not partition this pda's transitions")
    kept = tuple(t for t in pda.transitions if t.id not in useless)
    pruned = replace(pda, transitions=kept)
    if drop_orphan_states:
        touched = {pda.initial}
        for t in pruned.transitions:
            touched.add(t.source)
            touched.add(t.target)
        pruned = replace(
            pruned,
            states=tuple(q for q in pruned.states if q in touched),
            finals=pruned.finals & touched,
        )
    return pruned
