"""Small-scale checks of the benchmark harness.

Run from the root of the repository: ``python3 -m pytest perfbench/tests``.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

SCALE = 0.005
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_harness():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_input(name, tmp_path):
    w = workloads.WORKLOADS[name]
    a, b, c = (tmp_path / f"{i}.in" for i in range(3))
    assert workloads.generate(w, 5, a, SCALE) == workloads.generate(w, 5, b, SCALE)
    workloads.generate(w, 6, c, SCALE)
    assert a.read_bytes() == b.read_bytes() != c.read_bytes()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted(name):
    for trace, names in ((False, run.END_TO_END), (True, run.PER_LAYER)):
        report = run.run_benchmark(name, 7, 0.1, trace, scale=SCALE)
        result = report["result"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == list(names)
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], (int, float))
    # the traced build inserted every symbol, terminators included, exactly once
    inserted = result["metrics"]["buckets.symbols_inserted"]["value"]
    assert inserted == report["workload"]["symbols"]
    assert result["metrics"]["engine.rounds"]["value"] == report["workload"]["rounds"]


def test_corrupted_output_counts_as_failure(monkeypatch):
    spawn = run.spawn_cli

    def corrupting(cli_args, record, trace, log):
        sample = spawn(cli_args, record, trace, log)
        out = Path(cli_args[cli_args.index("--output") + 1])
        data = bytearray(out.read_bytes())
        data[len(data) // 2] ^= 1
        out.write_bytes(bytes(data))
        return sample

    monkeypatch.setattr(run, "spawn_cli", corrupting)
    # every build failed, so there is no timing to report
    with pytest.raises(run.BenchError, match=r"(\d+) of \1 builds failed.*differs from the reference"):
        run.run_benchmark("reads", 7, 0.1, False, scale=SCALE)


def _sample(cpu_s: float, failure: str | None) -> dict:
    return {"trace": False, "failure": failure, "wall_s": cpu_s + 0.5, "cpu_s": cpu_s,
            "setup_s": 0.1, "build_cpu_s": cpu_s - 0.2, "peak_rss_mb": 50.0}


def test_failed_builds_are_counted_but_not_timed():
    samples = [_sample(1.0, None), _sample(9.0, "output differs from the reference"),
               _sample(3.0, None)]
    result = run.result(samples, False)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 3, 1)
    assert result["metrics"]["cpu_s"]["value"] == 2.0
    assert result["metrics"]["build_cpu_s"]["value"] == pytest.approx(1.8)


def test_leftover_temp_files_count_as_failure(monkeypatch):
    spawn = run.spawn_cli

    def littering(cli_args, record, trace, log):
        sample = spawn(cli_args, record, trace, log)
        tmp = Path(cli_args[cli_args.index("--tmp-dir") + 1])
        (tmp / "dnabwt_left_behind").mkdir()
        return sample

    monkeypatch.setattr(run, "spawn_cli", littering)
    with pytest.raises(run.BenchError, match=r"(\d+) of \1 builds failed.*left files in its temp dir"):
        run.run_benchmark("external_mixed", 7, 0.1, False, scale=SCALE)


def test_missing_program_exits_nonzero_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "reads", "--seed", "1", "--seconds", "1"]) != 0
    assert '"metrics"' not in capsys.readouterr().out
