"""Self-test of the benchmark harness on smoke slices of each workload.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH = Path(__file__).resolve().parent
WORKLOADS = run.WORKLOAD_NAMES
# printed by every untraced run, with their units (two are not in the JSON
# line: the tail needs 22 cases, and failures are counted in `failed`)
PRINTED = dict(run.END_TO_END, case_tail_s="s", failed_frac="ratio")
PER_LAYER = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]


def bench(workload, trace, limit, cwd=run.ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--limit", str(limit)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_line(proc):
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(workload):
    proc = bench(workload, 0, 2)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = result_line(proc)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] == 2
    assert {k: v["unit"] for k, v in out["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in out["metrics"].values())
    lines = proc.stdout.splitlines()
    for name, unit in PRINTED.items():
        assert any(l.split()[:1] == [name] and f" {unit}" in l for l in lines), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_counts_repeat_exactly(workload):
    first, second = (result_line(bench(workload, 1, 1)) for _ in range(2))
    want = {m["name"]: m["unit"] for m in PER_LAYER}
    for out in (first, second):
        assert out["correct"] and out["attempted"] == 2
        assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    counts = [k for k, unit in want.items() if unit == "count"]
    assert [first["metrics"][k] for k in counts] == [second["metrics"][k] for k in counts]


def test_wrong_expected_value_counts_as_failed(monkeypatch, capsys):
    run._use_checkout()
    import workloads

    honest = workloads.tower_expectation

    def off_by_one(p, n, nu):
        want = dict(honest(p, n, nu))
        want["conductor"] += 1
        return want

    monkeypatch.setattr(workloads, "tower_expectation", off_by_one)
    code = run.main(["--workload", "tower-shallow", "--seed", "1", "--seconds", "1",
                     "--trace", "0", "--limit", "2"])
    stdout = capsys.readouterr().out
    out = json.loads(stdout.strip().splitlines()[-1])
    assert code != 0
    assert not out["correct"] and out["failed"] == out["attempted"] == 2
    assert "failed_frac                    1 ratio (2/2)" in stdout


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("tower-shallow", 0, 1, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
