"""Tests of the benchmark itself: ``python3 -m pytest bench -q``."""

import json

import pytest

import diff
import workloads
from pdaprune import exact_useless


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = [i.text for i in workloads.generate(workload, 7)]
    again = [i.text for i in workloads.generate(workload, 7)]
    other = [i.text for i in workloads.generate(workload, 8)]
    assert "".join(first).encode() == "".join(again).encode()
    assert first != other


def test_ladder_reference_agrees_with_exact_oracle_on_smallest_rung():
    entries = workloads.load_ladder_reference()
    smallest = min(e["transitions"] for e in entries)
    rung = [e for e in entries if e["transitions"] == smallest]
    assert rung
    for e in rung:
        pda = workloads.ladder_pda(e["transitions"], e["seed"])
        useless = exact_useless(pda)
        assert useless == frozenset(e["useless"])
        assert len(useless) < len(pda.transitions)  # non-empty language


def _result_file(workload, values, seconds=36):
    return {"seconds": seconds, "trace": 0, "runs": {workload: [
        {"seed": seed, "exit": 0, "result": {"correct": True, "attempted": 1, "failed": 0,
                                             "metrics": {"classify_tps": {"value": v, "unit": "1/s"}}}}
        for seed, v in enumerate(values)
    ]}}


def _rows(base, change):
    rows = diff.compare(_result_file("ladder", base), _result_file("ladder", change), diff.load_spec())
    (row,) = [r for r in rows if r["metric"] == "classify_tps"]
    return row


def _write(tmp_path, **files):
    paths = []
    for name, data in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        paths.append(str(path))
    return paths


def test_diff_flags_synthetic_regression(tmp_path):
    base = [100 + i % 3 for i in range(10)]
    assert _rows(base, [0.6 * v for v in base])["status"] == "regressed"
    assert _rows(base, list(reversed(base)))["status"] == "unchanged"
    assert _rows(base, [1.5 * v for v in base])["status"] == "improved"

    paths = _write(tmp_path, base=_result_file("ladder", base),
                   change=_result_file("ladder", [0.6 * v for v in base]))
    assert diff.main(paths) == 1
    assert diff.main([paths[0], paths[0]]) == 0


NOISY = [60, 140, 70, 130, 80, 120, 90, 110, 100, 100]


def test_diff_reports_noisy_metric_as_unresolved(tmp_path):
    change = [0.9 * v for v in NOISY]
    assert _rows(NOISY, change)["status"] == "unresolved"
    paths = _write(tmp_path, base=_result_file("ladder", NOISY), change=_result_file("ladder", change))
    assert diff.main(paths) == 3


def test_diff_flags_regression_despite_noisy_base(tmp_path):
    change = [0.5 * min(NOISY)] * len(NOISY)
    assert _rows(NOISY, change)["status"] == "regressed"
    paths = _write(tmp_path, base=_result_file("ladder", NOISY), change=_result_file("ladder", change))
    assert diff.main(paths) == 1


def test_diff_refuses_runs_of_different_length(tmp_path):
    paths = _write(tmp_path, base=_result_file("ladder", NOISY, seconds=10),
                   change=_result_file("ladder", NOISY, seconds=36))
    with pytest.raises(SystemExit) as exc:
        diff.main(paths)
    assert exc.value.code == 2
