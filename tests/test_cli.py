import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tangleweb
from tangleweb import basis, cli, linalg, rewrite
from tangleweb.algebra import CaseTag, build, format_fraction
from tangleweb.centralizer import StructureTable
from tangleweb.tangle import parse_word
from tangleweb.cli import main
from tangleweb.rewrite import RewriteError, normalize, rules_for

from conftest import OVER_BUDGET


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def word_file(tmp_path, text):
    f = tmp_path / "word.tangle"
    f.write_text(text)
    return str(f)


def test_eval_circle(tmp_path, capsys):
    f = word_file(tmp_path, "tangle 0 -> 0 / cup / cap")
    code, out = run(capsys, "eval", "--case", "dim7", f)
    assert code == 0 and out.strip() == "7"
    code, out = run(capsys, "eval", "--case", "kap", f)
    assert code == 0 and out.strip() == "-1"


def test_eval_empty_word(tmp_path, capsys):
    f = word_file(tmp_path, "tangle 0 -> 0")
    code, out = run(capsys, "eval", "--case", "dim3", f)
    assert code == 0 and out.strip() == "1"


def test_eval_parse_error_exit_2(tmp_path, capsys):
    f = word_file(tmp_path, "tangle 2 -> 2 / frobnicate")
    code = main(["eval", "--case", "dim3", f])
    assert code == 2


def test_usage_error_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--case", "dim9", "x"])
    assert exc.value.code == 2
    # the rewrite order is fixed; normalize has no --strategy option
    f = word_file(tmp_path, "tangle 2 -> 2 / x")
    with pytest.raises(SystemExit) as exc:
        main(["normalize", "--case", "dim3", f, "--strategy", "last"])
    assert exc.value.code == 2


def test_normalize_json(tmp_path, capsys):
    f = word_file(tmp_path, "tangle 1 -> 1 / w / m")
    code, out = run(capsys, "--json", "normalize", "--case", "dim7", f)
    assert code == 0
    obj = json.loads(out)
    assert obj["case"] == "dim7"
    assert len(obj["terms"]) == 1
    assert obj["terms"][0]["coeff"] == "-6"


def test_normalize_trace(tmp_path, capsys):
    f = word_file(tmp_path, "tangle 2 -> 2 / x / x")
    code, out = run(capsys, "--json", "--trace", "normalize", "--case", "dim3", f)
    obj = json.loads(out)
    assert code == 0 and "trace" in obj and obj["trace"]


# a ladder of 24 rungs: without a memo its repeated sub-diagrams are
# reduced again and again (about 25 s at dim7); with one, in a fraction of
# a second
LADDER = "tangle 2 -> 2\n" + "w,id / id,m\n" * 24


def test_normalize_memoizes_a_ladder(tmp_path, capsys):
    f = word_file(tmp_path, LADDER)
    code, out = run(capsys, "--json", "normalize", "--case", "dim7", f)
    assert code == 0
    alg = build(CaseTag.DIM7)
    want = sorted((d.canonical_encoding().decode(), format_fraction(c))
                  for d, c in normalize(parse_word(LADDER), alg, memo={}))
    assert [(t["diagram"], t["coeff"]) for t in json.loads(out)["terms"]] == want


def test_normalize_over_step_budget_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(rewrite, "MAX_REWRITE_STEPS", 5)
    f = word_file(tmp_path, LADDER)
    code = main(["normalize", "--case", "dim7", f])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: normalizing takes more than the budget of 5 rewrite steps\n"


def test_basis_counts(capsys):
    code, out = run(capsys, "--json", "basis", "--case", "dim3", "3", "3")
    obj = json.loads(out)
    assert code == 0 and obj["count"] == 15
    code, out = run(capsys, "--json", "basis", "--case", "dim7", "2", "2")
    obj = json.loads(out)
    assert code == 0 and obj["count"] == 4


def test_dims_agreement(capsys):
    code, out = run(capsys, "--json", "dims", "--case", "dim3", "6")
    obj = json.loads(out)
    assert code == 0
    assert [r["riordan"] for r in obj["rows"]] == [1, 0, 1, 1, 3, 6, 15]
    assert all(r["invariant_dim"] == r["riordan"] for r in obj["rows"])


def test_dims_certifies_every_row(capsys):
    # kap's structure constants carry powers of 2 in their denominators;
    # both ends are exact ranks over Q, which scale each row to integers
    code, out = run(capsys, "--json", "dims", "--case", "kap", "5")
    obj = json.loads(out)
    assert code == 0
    assert [r["invariant_dim"] for r in obj["rows"]] == [1, 0, 1, 1, 3, 6]
    assert all(r["invariant_dim"] == r["riordan"] for r in obj["rows"])


@pytest.mark.parametrize("edit, refused", [
    (lambda webs: webs[1:], True),             # lower end 3, upper end 4
    (lambda webs: webs + webs[:1], False),     # certified 4, counted 5
])
def test_dims_exit_1_on_a_wrong_basis(capsys, monkeypatch, edit, refused):
    real = cli.enumerate_webs
    monkeypatch.setattr(cli, "enumerate_webs", lambda n, m: edit(real(n, m)))
    code = main(["--json", "dims", "--case", "dim7", "4"])
    captured = capsys.readouterr()
    last = json.loads(captured.out)["rows"][-1]
    assert code == 1 and captured.err == ""
    assert ("refused" in last) == refused
    if refused:
        assert "lower end 3, upper end 4" in last["refused"]
    else:
        assert (last["webs"], last["invariant_dim"]) == (5, 4)


def test_oracle_rows_report_zero_grade_columns(capsys):
    code, out = run(capsys, "--json", "oracle", "--case", "dim7", "3")
    rows = json.loads(out)["invariants"]
    assert code == 0
    assert [(r["invariant_dim"], r["columns"]) for r in rows] == [(1, 1), (0, 0), (1, 7), (1, 42)]
    code, out = run(capsys, "--json", "oracle", "--case", "kap", "8")
    rows = json.loads(out)["invariants"]
    assert code == 0
    assert [(r["invariant_dim"], r["columns"]) for r in rows[:5]] == [(1, 1), (0, 1), (1, 3),
                                                                      (1, 7), (3, 19)]
    assert rows[8] == {"n": 8, "invariant_dim": 91, "columns": 1107}


@pytest.mark.parametrize("cmd", ["dims", "oracle"])
def test_rank_over_fill_budget_exit_2(capsys, monkeypatch, cmd):
    # dim3's ranks at n = 5 hold over 100 pivot-row entries at each end
    monkeypatch.setattr(linalg, "MAX_FILL", 50)
    code = main([cmd, "--case", "dim3", "5"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: rank elimination holds ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_dims_refused_row_evaluates_nothing(capsys, monkeypatch):
    # at a budget of 50 entries the upper end refuses dim3's row n = 5, so
    # none of its diagrams is evaluated for the lower end
    monkeypatch.setattr(linalg, "MAX_FILL", 50)
    sizes = []
    real = cli._eval_vector

    def counted(d, alg):
        sizes.append(d.n_in)
        return real(d, alg)

    monkeypatch.setattr(cli, "_eval_vector", counted)
    code = main(["dims", "--case", "dim3", "5"])
    captured = capsys.readouterr()
    assert code == 2 and captured.err.startswith("error: rank elimination holds ")
    assert 4 in sizes and 5 not in sizes


@pytest.mark.parametrize("flag", [["--mode", "exact"], ["--seed", "3"]])
def test_removed_rank_flags_are_usage_errors(flag):
    with pytest.raises(SystemExit) as exc:
        main(flag + ["oracle", "--case", "dim3", "2"])
    assert exc.value.code == 2


def test_web_budget_exit_2(capsys, monkeypatch):
    # one budget, basis.MAX_WEB_POINTS; the environment does not change it
    monkeypatch.setenv("TANGLEWEB_BUDGET", "abc")
    monkeypatch.setattr(basis, "MAX_WEB_POINTS", 4)
    code, out = run(capsys, "--json", "basis", "--case", "dim7", "2", "2")
    assert code == 0 and json.loads(out)["count"] == 4
    monkeypatch.setattr(basis, "MAX_WEB_POINTS", 3)
    code = main(["--json", "basis", "--case", "dim7", "2", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: boundary size 4 exceeds budget 3\n"


@pytest.mark.parametrize("argv", [["basis", "--case", "dim7", "5", "4"],
                                  ["dims", "--case", "dim7", "9"]])
def test_web_search_past_budget_refused_up_front(capsys, monkeypatch, argv):
    # refused before the derivations or any web search start, whatever the
    # environment says
    monkeypatch.setenv("TANGLEWEB_BUDGET", "9")
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: boundary size 9 exceeds budget 8\n"
    assert elapsed < 0.5


def test_eval_over_entry_budget_exit_2(tmp_path, capsys):
    # 3^99999 starting entries: refused before any is built
    f = word_file(tmp_path, "tangle 99999 -> 99999")
    start = time.perf_counter()
    code = main(["eval", "--case", "dim3", f])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert elapsed < 0.5


def test_normalize_over_crossing_budget_exit_2(tmp_path, capsys):
    # 14 crossings would expand into 4^14 words: refused before any is built
    f = word_file(tmp_path, "tangle 2 -> 2" + " / x" * 14)
    rules_for(build(CaseTag.DIM7))      # rule derivation is per-process set-up
    start = time.perf_counter()
    code = main(["normalize", "--case", "dim7", f])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert elapsed < 0.5


def test_normalize_over_strand_budget_exit_2(tmp_path, capsys):
    # 200,000 strands: refused before the word becomes a planar diagram
    f = word_file(tmp_path, "tangle 200000 -> 200000")
    rules_for(build(CaseTag.DIM3))      # rule derivation is per-process set-up
    start = time.perf_counter()
    code = main(["normalize", "--case", "dim3", f])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: the word has 200000 strands, over the budget of 1024\n"
    assert elapsed < 0.5


@pytest.mark.parametrize("case, text", OVER_BUDGET)
def test_eval_over_entry_budget_refused_in_a_fresh_process(case, text):
    # a fresh process, so an evaluation that works before it refuses runs
    # into the timeout instead of stalling the suite
    src = str(Path(tangleweb.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "tangleweb.cli", "eval", "--case", case, "-"],
                          input=text, capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["basis", "--case", "dim3", "16", "0"],     # riordan(16) = 227,475 diagrams
    ["dims", "--case", "kap", "100000"],        # one riordan(n) per row
])
def test_catalan_over_budget_exit_2(capsys, argv):
    # refused before any diagram is built or any Riordan row is counted
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "over the budget of 100000" in captured.err
    assert elapsed < 0.5


def test_centralizer_over_budget_exit_2(capsys):
    code = main(["centralizer", "--case", "dim7", "4"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: 7-dimensional case budgeted to n <= 3\n"


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_word_file_exit_2(tmp_path, capsys, kind):
    path = tmp_path
    if kind == "not-utf8":
        path = tmp_path / "word.tangle"
        path.write_bytes(b"\xff\xfe\x00\x01")
    code = main(["eval", "--case", "dim3", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["basis", "--case", "dim7", "-1", "2"],
    ["basis", "--case", "dim3", "-1", "2"],
    ["basis", "--case", "dim3", "2", "-3"],
    ["dims", "--case", "dim3", "-1"],
    ["centralizer", "--case", "kap", "-2"],
    ["oracle", "--case", "kap", "-1"],
])
def test_negative_arity_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be a non-negative integer" in capsys.readouterr().err


def test_centralizer_table(capsys):
    # direct_rows counts the rows multiplied by stacking: all three at
    # n = 2, the five of 15 that no finished cell derives at n = 3
    for n, size, direct in ((2, 3, 3), (3, 15, 5)):
        code, out = run(capsys, "--json", "centralizer", "--case", "kap", str(n))
        obj = json.loads(out)
        assert code == 0
        assert obj["basis_size"] == size and obj["direct_rows"] == direct
        assert obj["identity_ok"] and obj["associative_ok"]


def test_centralizer_checks_run_once(capsys, monkeypatch):
    calls = {"check_identity": 0, "check_associative": 0}
    for name in calls:
        def counted(self, _name=name, _check=getattr(StructureTable, name)):
            calls[_name] += 1
            return _check(self)
        monkeypatch.setattr(StructureTable, name, counted)
    code, _ = run(capsys, "--json", "centralizer", "--case", "kap", "2")
    assert code == 0
    assert calls == {"check_identity": 1, "check_associative": 1}


def test_oracle_command(capsys):
    code, out = run(capsys, "--json", "oracle", "--case", "kap", "4")
    obj = json.loads(out)
    assert code == 0
    assert obj["derivation_dim"] == 5
    assert [r["invariant_dim"] for r in obj["invariants"]] == [1, 0, 1, 1, 3]


@pytest.mark.parametrize("case", ["dim3", "kap", "dim7"])
def test_verify_all_cases(capsys, case):
    code, out = run(capsys, "verify", "--case", case)
    assert code == 0
    assert "FAIL" not in out and "ok" in out


@pytest.mark.parametrize("exc", [RewriteError("no normal form"),
                                 ValueError("inconsistent system")])
def test_verify_reports_a_failed_rule_derivation(capsys, monkeypatch, exc):
    def failing(alg):
        raise exc

    monkeypatch.setattr(cli, "rules_for", failing)
    code, out = run(capsys, "verify", "--case", "kap")
    assert code == 1
    assert out.splitlines()[-1] == "FAIL rule derivation"
    # the checks that normalize with the rules are skipped
    assert "normalization" not in out and "centralizer" not in out
