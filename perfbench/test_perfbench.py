"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import layertrace
import run

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())


def bench(*args: str, cwd: Path = HERE.parent) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def test_reduced_run_prints_every_end_to_end_metric():
    for workload in ("catalogue-sweep", "hard-solves", "nae-reduction", "constructions"):
        max_ops = "50" if workload == "catalogue-sweep" else "1"
        code, lines = bench("--workload", workload, "--seconds", "0", "--max-ops", max_ops)
        assert code == 0, lines
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == run.END_TO_END
        for name, unit in run.END_TO_END.items():
            assert any(line.split()[:1] == [name] and line.endswith(f" {unit}") for line in lines), name
        assert any(line.split()[:1] == ["fail_ratio"] for line in lines)


def copy_checkout(dest: Path, with_sources: bool = True) -> Path:
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_sources:
        shutil.copytree(HERE.parent / "src" / "poscol", dest / "src" / "poscol",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_corrupted_pin_fails(tmp_path):
    root = copy_checkout(tmp_path)
    path = root / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())
    case = next(c for c in expected["constructions"] if c["spec"] == "kneser2:12")
    case["k"] += 1
    path.write_text(json.dumps(expected))
    code, lines = bench("--workload", "constructions", "--seconds", "0", cwd=root)
    result = json.loads(lines[-1])
    assert code != 0
    assert not result["correct"] and result["failed"] == 1
    assert result["failed"] / result["attempted"] > 0
    assert any("kneser2:12" in line and "FAILED" in line for line in lines)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    root = copy_checkout(tmp_path, with_sources=False)
    code, lines = bench("--workload", "constructions", "--seconds", "0", cwd=root)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_traced_counts_repeat_exactly():
    runs = []
    for _ in range(2):
        for workload, max_ops in (("catalogue-sweep", "400"), ("nae-reduction", "2")):
            code, lines = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                                "--trace", "1", "--max-ops", max_ops)
            assert code == 0, lines
            metrics = json.loads(lines[-1])["metrics"]
            assert {name: m["unit"] for name, m in metrics.items()} == layertrace.METRICS
            runs.append({name: metrics[name]["value"] for name in layertrace.DETERMINISTIC})
    assert runs[0] == runs[2] and runs[1] == runs[3]
    assert runs[0]["position.SetState.try_add.calls"] > 0
    assert runs[0]["position.exists_induced_path_through.searches"] > 0
    assert (HERE / "out" / "spans-nae-reduction-seed3.jsonl").is_file()


def test_pins_agree_with_predicted_chi():
    sys.path.insert(0, str(HERE.parent / "src"))
    from poscol import parse_family, parse_kind, predicted_chi

    compared = 0
    for case in EXPECTED["hard-solves"] + EXPECTED["constructions"]:
        pred = predicted_chi(parse_family(case["spec"]), parse_kind(case["kind"]))
        if pred.status == "exact":
            assert pred.value == case.get("chi", case.get("k")), case["spec"]
            compared += 1
    assert compared >= 6
