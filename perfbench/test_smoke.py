"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Checks that BENCHMARK.json matches what the runner prints, that every
workload prints every end-to-end metric with its unit and checks every
output, that each correctness check rejects a wrong output, and that the
traced run prints every per-layer metric and leaves the library unpatched.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ on the path)
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def invoke(workload, trace=0):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.05", "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_spec_matches_runner():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.metric_units()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_prints_every_metric(name):
    lines, result = invoke(name)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric, unit in run.END_TO_END.items():
        assert result["metrics"][metric]["unit"] == unit
        assert result["metrics"][metric]["value"] > 0
        assert any(line.startswith(f"metric {metric} = ") and line.endswith(unit)
                   for line in lines)
    assert any(line.startswith("metric failed_ops_frac = 0 ") for line in lines)
    # tiny runs check every output
    summary = next(line for line in lines if line.startswith("workload "))
    assert f"{result['attempted']} operations, {result['attempted']} outputs checked" in summary


def _wrong(op, result):
    if op.kind in ("normalize", "evaluate"):
        return result.scale(2)
    if op.kind == "tables":
        first = result[0]
        table = {k: {i: c + 1 for i, c in row.items()} or {0: 1}
                 for k, row in first.table.items()}
        return [type(first)(first.case, first.n, first.basis, table)] + result[1:]
    if op.kind == "certify":
        der_dims, counts = result
        return der_dims, [(counts[0][0] + 1, counts[0][1])] + counts[1:]
    raise ValueError(op.kind)


def _zero(op, result):
    return op.kind in ("normalize", "evaluate") and not (
        len(result) if op.kind == "normalize" else result.entries)


@pytest.mark.parametrize("name", ["evaluate-stream", "certify-dims"])
def test_checks_reject_wrong_outputs(name):
    wl = workloads.WORKLOADS[name]()
    wl.setup()
    rejected = 0
    for op in wl.batch(3, 0, tiny=True):
        result = wl.run(op)
        assert wl.check(op, result, 3)
        if not _zero(op, result):
            assert not wl.check(op, _wrong(op, result), 3), (op.kind, op.case)
            rejected += 1
    assert rejected


def test_table_and_normalize_checks_reject_wrong_outputs():
    # shares one set-up of the derived rules between the two workloads
    tables = workloads.CentralizerTables()
    tables.setup()
    norm = workloads.NormalizeStream()
    norm.algs = tables.algs
    for wl in (tables, norm):
        ops = wl.batch(3, 0, tiny=True)
        rejected = 0
        for op in ops:
            result = wl.run(op)
            assert wl.check(op, result, 3)
            if not _zero(op, result):
                assert not wl.check(op, _wrong(op, result), 3), (op.kind, op.case)
                rejected += 1
        assert rejected


def test_traced_run_prints_every_layer_metric():
    lines, result = invoke("evaluate-stream", trace=1)
    assert result["correct"]
    assert set(result["metrics"]) == set(tracing.metric_units())
    assert result["metrics"]["tensor.evaluate.calls"]["value"] >= result["attempted"]
    assert result["metrics"]["rewrite.normalize.calls"]["value"] == 0


def test_tracer_restores_the_library():
    import tangleweb
    from tangleweb import centralizer, planar, rewrite, tensor

    before = {(m, k): v for m in (tangleweb, centralizer, planar, rewrite, tensor)
              for k, v in vars(m).items() if callable(v)}
    methods = {k: planar.PlanarDiagram.__dict__[k] for k in tracing.METHODS}
    tracer = tracing.Tracer()
    tracer.install()
    assert rewrite.evaluate is not before[(rewrite, "evaluate")]
    assert centralizer.normalize is not before[(centralizer, "normalize")]
    tracer.uninstall()
    after = {(m, k): v for m in (tangleweb, centralizer, planar, rewrite, tensor)
             for k, v in vars(m).items() if callable(v)}
    assert after == before
    assert {k: planar.PlanarDiagram.__dict__[k] for k in tracing.METHODS} == methods


def test_probe_scales_by_nearby_samples():
    probe = speed.Probe()
    ref = speed.REFERENCE_S
    # samples at 1 s and 2 s, each 0.01 s long; the host at half speed at 2 s
    probe.starts, probe.ends, probe.loops = [1.0, 2.0], [1.01, 2.01], [ref, 2 * ref]
    assert probe.net(0.5, 1.5) == pytest.approx(0.99)
    assert probe.net(0.5, 2.5) == pytest.approx(1.98)
    assert probe.scaled(0.9, 1.1) == pytest.approx(0.19)         # one sample, full speed
    assert probe.scaled(1.9, 2.1) == pytest.approx(0.19 * 0.5)   # one sample, half speed
    assert probe.scaled(1.0, 2.0) == pytest.approx(0.99 * 0.75)  # both, averaged
    assert probe.speed(1.4, 1.45) == pytest.approx(1.0)          # none near: the nearest
    assert probe.speed(5.0, 6.0) == pytest.approx(0.5)


def test_untraced_run_never_loads_the_tracer():
    code = ("import sys; sys.argv = ['run.py', '--workload', 'evaluate-stream', "
            "'--seconds', '0.05', '--tiny']; "
            "sys.path.insert(0, 'perfbench'); import run; run.main(sys.argv[1:]); "
            "assert 'tracing' not in sys.modules")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=170, cwd=ROOT)
    assert out.returncode == 0, out.stderr


def test_fails_without_the_library():
    # a directory holding only BENCHMARK.json and the benchmark's own files
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify-dims",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, timeout=170, cwd=bare)
    shutil.rmtree(bare)
    assert out.returncode != 0
    assert out.stdout == ""
