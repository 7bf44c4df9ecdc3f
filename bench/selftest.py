"""Self-test of the benchmark harness at tiny sizes.

    python3 -m pytest -q bench/selftest.py

Runs every workload's code path through the runner, the tracer's wrap
and restore, the set-up child, the refusal to run without package
source, and the compare command.  It takes a few tens of seconds.
"""

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from cornerlab import invariants, symbol  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _measure(name, trace):
    return run.measure(name, 5, 0, trace, sizes=workloads.TINY, setup_repeats=1)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_untraced_pass_is_correct(name):
    record = _measure(name, 0)
    assert record["correct"], (record["outputs"], record["errors"])
    assert record["attempted"] > 0 and record["failed"] == 0
    line = json.loads(run._result_line(record, SPEC))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_traced_report_attribution():
    record = _measure("report", 1)
    assert record["correct"], (record["outputs"], record["errors"])
    line = json.loads(run._result_line(record, SPEC))
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    m = record["metrics"]
    assert m["cli.main.calls"] == 1
    assert m["invariants.edge_gap_scan.calls"] == 2
    assert m["invariants.corner_spectral_flow.calls"] == 1
    assert m["spectra.diagonalize_window.calls"] == m["assembly.assemble_corner.calls"]
    assert 0 < m["spectra.diagonalize_window.empty_share"] < 1
    assert m["invariants.edge_gap_scan.strips"] == m["assembly.assemble_edge_strip.calls"]
    assert m["symbol.evaluate_bloch.calls"] > 0
    assert m["trace.unattributed_s"] >= 0


def test_traced_corner_windows_are_occupied():
    m = _measure("corner_slices", 1)["metrics"]
    assert m["spectra.diagonalize_window.calls"] == 2
    assert m["spectra.diagonalize_window.empty_share"] == 0
    assert m["assembly.dof_max"] == 2500


def test_tracer_wraps_aliases_and_restores():
    modules = {name.split(".")[0] for name, _ in tracer.TRACED}
    before = {(m, a): getattr(sys.modules[f"cornerlab.{m}"], a)
              for m in modules | {"invariants"}
              for a in dir(sys.modules[f"cornerlab.{m}"]) if not a.startswith("_")}
    t = tracer.Tracer()
    t.install()
    try:
        assert invariants.evaluate_bloch is symbol.evaluate_bloch
        assert symbol.evaluate_bloch is not before[("symbol", "evaluate_bloch")]
        h1 = symbol.builtin_models()["h1_example"].symbol
        assert invariants.chern_number(h1, 8) == -1
    finally:
        t.restore()
    after = {key: getattr(sys.modules[f"cornerlab.{key[0]}"], key[1]) for key in before}
    assert all(after[key] is before[key] for key in before)
    names = [s[0] for s in t.spans]
    assert names[0] == "invariants.chern_number" and t.spans[0][3] == -1
    assert names.count("symbol.evaluate_bloch") == 64
    assert all(s[3] == 0 for s in t.spans[1:])
    m = tracer.layer_metrics(t.spans, t.spans[0][2] - t.spans[0][1])
    total = t.spans[0][2] - t.spans[0][1]
    assert m["invariants.chern_number.self_s"] + m["symbol.evaluate_bloch.self_s"] \
        == pytest.approx(total)
    assert m["trace.unattributed_s"] == pytest.approx(0, abs=1e-12)


def test_failed_checks_are_counted():
    inputs = {"angles": [0.1], "sizes": (12, 24)}
    assert not any(workloads.check_corner_slices(inputs, {}).values())
    good = dict(workloads.BULK_EXPECTED)
    assert all(workloads.check_bulk_invariants(None, good).values())
    checks = workloads.check_bulk_invariants(None, {**good, "chern": 1})
    assert [k for k, ok in checks.items() if not ok] == ["chern"]

    def explode(inputs):
        raise RuntimeError("boom")
    passes = run.Passes(workloads.Workload(None, explode, workloads.check_edge_scan), {})
    _, _, ok = passes.run()
    assert not ok and passes.failed == passes.attempted == 2
    assert passes.errors == ["RuntimeError: boom"]


def test_setup_child_reports_time():
    assert run._setup_in_child("bulk_invariants", 1) > 0


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bulk_invariants", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _records(values, seeds=range(10), outputs=None):
    return [{"workload": "edge_scan", "seed": s, "trace": 0, "correct": True,
             "metrics": {"run_s": v, "cpu_s": v, "setup_s": 1.0, "peak_rss_mb": 80.0},
             "outputs": outputs or {"n": 1, "x": 0.5}} for s, v in zip(seeds, values)]


def pairs(values):
    return list(enumerate(values))


def test_compare_verdicts():
    base = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
    assert compare.verdict(pairs(base), pairs([v * 0.8 for v in base]), 0.1, "lower") \
        == ("improved", 1.0)
    assert compare.verdict(pairs(base), pairs([v * 1.2 for v in base]), 0.1, "lower")[0] \
        == "worse"
    assert compare.verdict(pairs(base), pairs(base[::-1]), 0.1, "lower")[0] == "unchanged"
    noisy = [1.0, 1.5, 0.6, 1.4, 0.7, 1.0, 1.3, 0.8, 1.0, 1.1]
    assert compare.verdict(pairs(noisy), pairs(noisy[::-1]), 0.1, "lower")[0] \
        == "unresolved"
    assert compare.verdict(pairs(base), pairs([v * 1.2 for v in base]), 0.1,
                           "higher")[0] == "improved"


def test_compare_table():
    parent = _records([1.0] * 10)
    change = _records([0.5] * 9 + [2.0], outputs={"n": 2, "x": 0.7})
    change.append({**change[0], "correct": False, "failed": 1, "attempted": 2,
                   "errors": ["x"]})
    out = io.StringIO()
    compare.compare(parent, change, SPEC, out=out)
    text = out.getvalue()
    assert "excluded: edge_scan seed 0" in text
    row = next(line for line in text.splitlines() if line.startswith("edge_scan        run_s"))
    assert row.endswith("improved") and " 90%" in row
    assert "outputs differ: edge_scan seed 0" in text
