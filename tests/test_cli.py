import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdaprune
from pdaprune import parse_pda, print_pda, random_pda
from pdaprune.cli import main

from .conftest import EXAMPLE1_DOC

EMPTY_LANG_DOC = "state q0 initial\nstack a\ntrans t0 q0 - - a q0\n"


@pytest.fixture
def example1_file(tmp_path):
    path = tmp_path / "example1.pda"
    path.write_text(EXAMPLE1_DOC)
    return str(path)


def test_analyze_reports_useless(example1_file, capsys):
    assert main(["analyze", example1_file]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "pdaprune-report 1"
    assert "USELESS t3 dead" in lines
    assert sum(1 for l in lines if l.startswith("USELESS")) == 1


def test_analyze_empty_language_exit_code(tmp_path, capsys):
    path = tmp_path / "empty.pda"
    path.write_text(EMPTY_LANG_DOC)
    assert main(["analyze", str(path)]) == 3
    out = capsys.readouterr().out
    assert "language-empty: yes" in out


def test_analyze_reports_unreachable(tmp_path, capsys):
    # Nothing enters q2, so t1 never fires.
    path = tmp_path / "orphan.pda"
    path.write_text(
        "state q0 initial\nstate q1 final\nstate q2\n"
        "trans t0 q0 - - - q1\ntrans t1 q2 - - - q1\n"
    )
    assert main(["analyze", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "pdaprune-report 1",
        "USELESS t1 unreachable",
        "# 2 transitions: 1 useful, 1 unreachable, 0 dead",
        "# language-empty: no",
    ]


def test_analyze_stats_flag(example1_file, capsys):
    assert main(["analyze", "--stats", example1_file]) == 0
    out = capsys.readouterr().out
    assert "# nfa:" in out
    assert "# passes:" in out


def test_analyze_deterministic_bytes(example1_file, capsys):
    main(["analyze", example1_file])
    first = capsys.readouterr().out
    main(["analyze", example1_file])
    assert capsys.readouterr().out == first


def test_prune_writes_document(example1_file, tmp_path, capsys):
    out_path = tmp_path / "pruned.pda"
    assert main(["prune", example1_file, "-o", str(out_path)]) == 0
    pruned = parse_pda(out_path.read_text())
    assert tuple(t.id for t in pruned.transitions) == ("t1", "t2", "t4", "t5", "t6", "t7")


def test_nfa_dot_output(example1_file, tmp_path):
    out_path = tmp_path / "n.dot"
    assert main(["nfa", example1_file, "--dot", str(out_path)]) == 0
    text = out_path.read_text()
    assert text.startswith("digraph nfa {")
    # P0's drain and final states and its bottom marker keep their '#' names.
    for name in ("#qe", "#qf", "#bot"):
        assert f'label="{name}"' in text, name


def test_verify_exact_match(example1_file, capsys):
    assert main(["verify", example1_file, "--exact"]) == 0
    assert "MATCH" in capsys.readouterr().out


def test_verify_default_is_exact(example1_file, capsys):
    assert main(["verify", example1_file]) == 0
    assert "MATCH" in capsys.readouterr().out


def test_verify_bounded(example1_file, capsys):
    assert main(["verify", example1_file, "--bounded", "4", "8"]) == 0
    out = capsys.readouterr().out
    assert "MATCH" in out and "6 witnesses" in out


def test_gen_deterministic(tmp_path):
    a = tmp_path / "a.pda"
    b = tmp_path / "b.pda"
    assert main(["gen", "--seed", "5", "-o", str(a)]) == 0
    assert main(["gen", "--seed", "5", "-o", str(b)]) == 0
    assert a.read_text() == b.read_text()
    parse_pda(a.read_text())


def test_gen_env_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PDAPRUNE_SEED", "9")
    main(["gen"])
    via_env = capsys.readouterr().out
    monkeypatch.delenv("PDAPRUNE_SEED")
    main(["gen", "--seed", "9"])
    assert capsys.readouterr().out == via_env


def test_gen_bad_env_seed_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("PDAPRUNE_SEED", "abc")
    assert pytest.raises(SystemExit, main, ["gen"]).value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "PDAPRUNE_SEED" in captured.err
    assert "'abc'" in captured.err


def test_cfg2pda(tmp_path, capsys):
    g = tmp_path / "g.cfg"
    g.write_text("S -> a S\nS ->\n")
    out = tmp_path / "g.pda"
    assert main(["cfg2pda", str(g), "-o", str(out)]) == 0
    pda = parse_pda(out.read_text())
    assert {t.id for t in pda.transitions} == {"start", "prod0", "prod1", "match_a", "accept"}


@pytest.mark.parametrize("rule", ["S -> a,b", "S -> -"])
def test_cfg2pda_invalid_symbol_exit_2(tmp_path, capsys, rule):
    g = tmp_path / "g.cfg"
    g.write_text(rule + "\n")
    out = tmp_path / "g.pda"
    assert main(["cfg2pda", str(g), "-o", str(out)]) == 2
    assert "invalid stack symbol name" in capsys.readouterr().err
    assert not out.exists()


def test_verify_mismatch_exit_4(example1_file, capsys, monkeypatch):
    import pdaprune.cli as cli_module

    monkeypatch.setattr(cli_module, "exact_useless", lambda pda: frozenset({"t1"}))
    assert main(["verify", example1_file, "--exact"]) == 4
    assert "MISMATCH" in capsys.readouterr().out


def test_verify_exact_checks_the_split(example1_file, capsys, monkeypatch):
    import pdaprune.cli as cli_module

    def swapped(pda):
        report = pdaprune.analyze(pda)
        return dataclasses.replace(report, unreachable=report.dead, dead=report.unreachable)

    monkeypatch.setattr(cli_module, "analyze", swapped)
    assert main(["verify", example1_file, "--exact"]) == 4
    assert capsys.readouterr().out == (
        "MISMATCH: unreachable extra=['t3'] missing=[]\n"
        "MISMATCH: dead extra=[] missing=['t3']\n"
    )


def test_verify_bounded_mismatch_exit_4(example1_file, capsys, monkeypatch):
    import pdaprune.cli as cli_module

    def all_dead(pda):
        report = pdaprune.analyze(pda)
        ids = frozenset(t.id for t in pda.transitions)
        return dataclasses.replace(report, unreachable=frozenset(), dead=ids, useful=frozenset())

    monkeypatch.setattr(cli_module, "analyze", all_dead)
    assert main(["verify", example1_file, "--bounded", "4", "8"]) == 4
    assert capsys.readouterr().out == (
        "MISMATCH: witnessed-useful classified useless: t1 t2 t4 t5 t6 t7\n"
    )


def test_usage_error_exit_1(capsys):
    assert pytest.raises(SystemExit, main, ["bogus"]).value.code == 1


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "PDA", "--bounded", "-1", "8"],
        ["verify", "PDA", "--bounded", "4", "-5"],
        ["verify", "PDA", "--bounded", "-1", "-5"],
        ["verify", "PDA", "--bounded", "4", "0"],
        ["verify", "PDA", "--bounded", "0", "0"],
        ["gen", "--states", "0"],
        ["gen", "--gamma", "0"],
        ["gen", "--trans", "-3"],
        ["gen", "--pop-push", "-1"],
        ["gen", "--final-prob", "5"],
        ["gen", "--final-prob", "-1"],
        ["gen", "--final-prob", "nan"],
    ],
)
def test_nonsense_numbers_are_usage_errors(args, example1_file, capsys):
    argv = [example1_file if a == "PDA" else a for a in args]
    assert pytest.raises(SystemExit, main, argv).value.code == 1
    captured = capsys.readouterr()
    assert "MATCH" not in captured.out
    assert "error:" in captured.err


def test_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.pda"
    path.write_text("state q0\n")
    assert main(["analyze", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exit_2(capsys):
    assert main(["analyze", "/nonexistent/x.pda"]) == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "pdaprune" in capsys.readouterr().out


def test_output_independent_of_hash_seed(tmp_path):
    """Transition ids and state names are strings, so the iteration order of
    the sets holding them follows PYTHONHASHSEED; the printed report and DOT
    must not."""
    path = tmp_path / "m.pda"
    # Has useful, dead and unreachable transitions and ~100 backward steps.
    path.write_text(print_pda(random_pda(6, max_states=8, max_trans=40, gamma_size=3)))
    src = str(Path(pdaprune.__file__).resolve().parent.parent)
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        outputs.append([
            subprocess.run(
                [sys.executable, "-m", "pdaprune", *args, str(path)],
                capture_output=True, env=env, check=True,
            ).stdout
            for args in (["analyze", "--stats"], ["nfa"])
        ])
    assert b"USELESS" in outputs[0][0] and b"digraph nfa" in outputs[0][1]
    assert outputs[0] == outputs[1]
