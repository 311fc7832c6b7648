"""End-to-end benchmark of ``dnabwt build``, with an outside-in per-layer trace.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload reads --seed 1 --seconds 30 --trace 0

One run:

1. writes the workload's input file from ``--seed`` (``workloads.py``);
2. builds it once in process with another configuration (memory backend,
   another kappa) and checks that build with ``oracle.invert`` against the
   generated words; this untimed reference is what every timed output
   must equal byte for byte;
3. for ``--seconds``, runs ``python -m dnabwt.cli build`` on the file, one
   fresh child process per timed build (``cli_child.py``), so that each
   peak RSS (``os.wait4``) belongs to that build. A build fails if it exits
   non-zero, leaves files in its temp dir or writes other bytes than the
   reference (or, traced, inserts other than ``total_length`` symbols);
4. prints the environment, every sample, and as its last line one JSON
   object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics as medians over the untraced
builds that succeeded; its times are CPU times of the child (user plus
system, all threads), and the wall times are printed with each sample. ``--trace 1`` alternates untraced and traced builds
and reports the per-layer metrics as medians over the traced ones that
succeeded (``cli.finish_s`` over the untraced ones); the traced child wraps
each module's public entry points at run time (``spans.py``). A run in
which no build of a kind it needs succeeded exits 1 without a result.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path[:0] = [str(HERE), str(SRC)]
import numpy  # noqa: E402
import spans  # noqa: E402
from workloads import REF_KAPPA, WORKLOADS, Workload, generate  # noqa: E402

# CPU time (user plus system, all threads), not wall time: on a shared host
# the wall time of the same build drifts with steal and disk write-back
# stalls far more than its CPU time does (see README.md)
END_TO_END = {
    "cpu_s": "s",
    "setup_s": "s",
    "build_cpu_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "collection.parse_s": "s",
    "collection.parse_rss_mb": "MB",
    "collection.fetch_s": "s",
    "engine.rounds": "count",
    "engine.sparse_rounds": "count",
    "engine.active_words_mean": "count",
    "engine.self_s": "s",
    "engine.activate_s": "s",
    "engine.plan_s": "s",
    "engine.resort_s": "s",
    "engine.round_ms": "ms",
    "engine.init_s": "s",
    "counttree.prefix_totals_s": "s",
    "counttree.left_increments_s": "s",
    "counttree.accumulators_s": "s",
    "buckets.splice_s": "s",
    "buckets.splice_calls": "count",
    "buckets.splice_ns_per_sym": "ns/sym",
    "buckets.memcpy_ns_per_sym": "ns/sym",
    "buckets.merge_s": "s",
    "buckets.merge_calls": "count",
    "buckets.symbols_copied": "count",
    "buckets.symbols_inserted": "count",
    "buckets.assemble_s": "s",
    "buckets.io_s": "s",
    "buckets.bytes_written": "B",
    "buckets.merge_concurrency": "ratio",
    "cli.finish_s": "s",
    "trace.overhead_frac": "ratio",
}

# per-sample times printed before the result: wall clock, then CPU
SAMPLE_TIMES = ("wall_s", "setup_wall_s", "build_s", "cpu_s", "setup_s", "build_cpu_s")

CHILD_TIMEOUT_S = 120
SPARSE_BELOW = 64  # a round with fewer active words than this is sparse


class BenchError(RuntimeError):
    pass


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment(tmp_dir: Path) -> dict:
    """Machine and toolchain facts recorded with every result."""
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "tmp_fs": "unknown",
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                "unknown",
            )
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            env[f"l{level}"] = size
    try:
        with open("/proc/self/mounts") as fh:
            mounts = [ln.split()[1:3] for ln in fh]
        real = str(tmp_dir.resolve())
        best = max(
            (m for m in mounts if real == m[0] or real.startswith(m[0].rstrip("/") + "/")),
            key=lambda m: len(m[0]),
            default=None,
        )
        if best:
            env["tmp_fs"] = best[1]
    except OSError:
        pass
    return env


def reference(path: Path, words: list[bytes]) -> bytes:
    """Untimed build under another configuration, checked by inversion."""
    from dnabwt import Config, IngestPolicy, build, detect_format, invert, parse_sequences

    data = path.read_bytes()
    collection = parse_sequences(data, IngestPolicy("drop-char", detect_format(data)))
    ref = build(collection, Config(kappa=REF_KAPPA, backend="memory"))
    if invert(ref, collection.m) != words:
        raise BenchError("reference build does not invert to the generated words")
    return ref


def spawn_cli(cli_args: list[str], record: Path, trace: bool, log: Path) -> dict:
    """One ``dnabwt build`` in a fresh child; returns its timings and status."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "cli_child.py"), str(record), str(int(trace)), *cli_args]
    with open(log, "wb") as out:
        t0 = _now()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        # a hung build is killed, so the run still ends in bounded time
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        t1 = _now()
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = {
        "trace": trace,
        "exit": proc.returncode,
        "wall_s": t1 - t0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    if proc.returncode == 0 and record.exists():
        marks = json.loads(record.read_text())
        sample["setup_s"] = marks["run_enter_cpu"]
        sample["build_cpu_s"] = marks["run_exit_cpu"] - marks["run_enter_cpu"]
        sample["setup_wall_s"] = marks["run_enter"] - t0
        sample["build_s"] = marks["run_exit"] - marks["run_enter"]
        sample["finish_s"] = t1 - marks["run_exit"]
        # spawn until the CLI returned; a traced child writes its spans after that
        sample["cli_s"] = marks["cli_exit"] - t0
        sample["entry_rss_mb"] = marks["entry_rss_kb"] / 1024.0
    return sample


def layer_metrics(sample: dict, npz: Path, log: Path) -> dict:
    """Per-layer metrics of one traced build, from its spans."""
    s = spans.summarize(str(npz), SPARSE_BELOW)

    def total(name: str) -> float:
        return s[name]["total_s"]

    splice, plan, run = s["buckets.splice"], s["engine.plan"], s["engine.run"]
    rounds = plan["calls"]
    # the CLI prints the store's counter: file bytes on the external backend,
    # bytes of the rebuilt uint8 bucket arrays on the memory backend
    written = [
        int(line.split(":", 1)[1])
        for line in log.read_text(errors="replace").splitlines()
        if line.startswith("bucket_bytes_written:")
    ]
    if not written:
        raise BenchError("the CLI printed no bucket_bytes_written")
    spliced = splice["a"] + splice["b"]
    return {
        "collection.parse_s": total("collection.parse"),
        "collection.parse_rss_mb": sample["entry_rss_mb"],
        "collection.fetch_s": total("collection.fetch"),
        "engine.rounds": rounds,
        "engine.sparse_rounds": plan["sparse"],
        "engine.active_words_mean": plan["a"] / max(rounds, 1),
        "engine.self_s": run["self_s"],
        "engine.activate_s": total("engine.activate"),
        "engine.plan_s": total("engine.plan"),
        "engine.resort_s": total("engine.resort"),
        "engine.round_ms": 1e3 * run["total_s"] / max(rounds, 1),
        "engine.init_s": total("engine.init"),
        "counttree.prefix_totals_s": total("counttree.prefix_totals"),
        "counttree.left_increments_s": total("counttree.left_increments"),
        "counttree.accumulators_s": total("counttree.accumulators"),
        "buckets.splice_s": splice["total_s"],
        "buckets.splice_calls": splice["calls"],
        "buckets.splice_ns_per_sym": 1e9 * splice["total_s"] / max(spliced, 1),
        "buckets.memcpy_ns_per_sym": spans.memcpy_ns_per_sym(spliced / max(splice["calls"], 1)),
        "buckets.merge_s": total("buckets.merge_many"),
        "buckets.merge_calls": s["buckets.merge_insert"]["calls"],
        "buckets.symbols_copied": splice["a"],
        "buckets.symbols_inserted": s["buckets.merge_insert"]["a"],
        "buckets.assemble_s": total("buckets.assemble"),
        "buckets.io_s": total("buckets.merge_insert") - splice["total_s"],
        "buckets.bytes_written": written[0],
        "buckets.merge_concurrency": total("buckets.merge_insert")
        / max(total("buckets.merge_many"), 1e-9),
        "self_times": {name: v["self_s"] for name, v in s.items() if v["calls"]},
    }


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """One benchmark run; returns the result object and the per-sample detail."""
    if not (SRC / "dnabwt" / "cli.py").is_file():
        raise BenchError(f"program source not found under {SRC}")
    workload = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK))
    try:
        return _measure(workload, seed, seconds, trace, scale, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(workload: Workload, seed: int, seconds: float, trace: bool, scale: float,
             run_dir: Path) -> dict:
    source = run_dir / f"input.{workload.fmt}"
    words = generate(workload, seed, source, scale)
    total_length = sum(map(len, words)) + len(words)
    ref = reference(source, words)

    tmp, out = run_dir / "tmp", run_dir / "out.bwt"
    tmp.mkdir()
    cli_args = ["build", "--input", str(source), "--output", str(out)]
    cli_args += [f.replace("{tmp}", str(tmp)) for f in workload.flags]

    samples: list[dict] = []

    def one(traced: bool) -> None:
        record, log = run_dir / "record.json", run_dir / "child.log"
        record.unlink(missing_ok=True)
        sample = spawn_cli(cli_args, record, traced, log)
        reason = None
        if sample["exit"] != 0 or "setup_s" not in sample:
            tail = log.read_text(errors="replace").strip().splitlines()[-1:]
            reason = f"exit code {sample['exit']}: {' '.join(tail)}"
        elif any(tmp.iterdir()):
            reason = "left files in its temp dir"
        elif not out.is_file() or out.read_bytes() != ref:
            reason = "output differs from the reference"
        elif traced:
            sample.update(layer_metrics(sample, Path(str(record) + ".npz"), log))
            if sample["buckets.symbols_inserted"] != total_length:
                reason = (f"inserted {sample['buckets.symbols_inserted']} symbols, "
                          f"expected {total_length}")
        sample["failure"] = reason
        samples.append(sample)
        for path in (out, Path(str(record) + ".npz")):
            path.unlink(missing_ok=True)
        for leftover in list(tmp.iterdir()):
            if leftover.is_dir():
                shutil.rmtree(leftover, ignore_errors=True)
            else:
                leftover.unlink()

    start = _now()
    iterations = 0
    while True:
        one(False)
        if trace:
            one(True)
        iterations += 1
        elapsed = _now() - start
        if elapsed * (iterations + 1) / iterations > seconds:
            break

    return {
        "workload": {
            "name": workload.name,
            "words": len(words),
            "max_length": max(map(len, words)),
            "symbols": total_length,
            "rounds": max(map(len, words)) + 1,
            "flags": " ".join(workload.flags),
        },
        "env": environment(tmp),
        "samples": samples,
        "result": result(samples, trace),
    }


def result(samples: list[dict], trace: bool) -> dict:
    """The result object: medians over the builds that succeeded."""
    failed = sum(1 for s in samples if s["failure"])
    plain = [s for s in samples if not s["trace"] and not s["failure"]]
    traced = [s for s in samples if s["trace"] and not s["failure"]]
    if not plain or (trace and not traced):
        reasons = sorted({s["failure"] for s in samples if s["failure"]})
        raise BenchError(f"{failed} of {len(samples)} builds failed, too few succeeded: {reasons}")
    if trace:
        metrics = {k: median([s[k] for s in traced]) for k in PER_LAYER if k in traced[0]}
        metrics["cli.finish_s"] = median([s["finish_s"] for s in plain])
        metrics["trace.overhead_frac"] = (
            median([s["cli_s"] for s in traced]) / median([s["cli_s"] for s in plain]) - 1
        )
        units = PER_LAYER
    else:
        metrics = {k: median([s[k] for s in plain]) for k in END_TO_END}
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def _report(report: dict) -> None:
    """Human-readable lines; the result object is printed after them."""
    print("workload", json.dumps(report["workload"]))
    print("env", json.dumps(report["env"]))
    samples = report["samples"]
    for i, s in enumerate(samples):
        kind = "traced" if s["trace"] else "plain"
        times = " ".join(f"{k}={s[k]:.4f}" for k in SAMPLE_TIMES if k in s)
        status = f"FAILED ({s['failure']})" if s["failure"] else "ok"
        print(f"sample {i} {kind} {times} peak_rss_mb={s['peak_rss_mb']:.1f} {status}")
    walls = sorted(s["wall_s"] for s in samples if not s["trace"] and not s["failure"])
    # a percentile is reported only with at least ten samples beyond it
    line = f"wall_s n={len(walls)} p50={median(walls):.4f} max={walls[-1]:.4f}"
    if len(walls) >= 20:
        line += f" p{100 * (1 - 10 / len(walls)):.0f}={walls[-11]:.4f}"
    print(f"{line} msym_per_s={report['workload']['symbols'] / median(walls) / 1e6:.4f}")
    res = report["result"]
    print(f"error_rate={res['failed'] / res['attempted']:.4f} "
          f"({res['failed']} failed of {res['attempted']} attempted)")
    traced = [s for s in samples if s["trace"] and "self_times" in s]
    if traced:
        self_times = traced[0]["self_times"]
        print("self time of the first traced build, by span:")
        for name, secs in sorted(self_times.items(), key=lambda kv: -kv[1]):
            print(f"  {name:28s} {secs:9.4f} s")
        outside = sum(v for k, v in self_times.items() if k != "buckets.splice")
        print(f"self time outside buckets.splice: {outside:.4f} s, "
              f"buckets.splice: {self_times.get('buckets.splice', 0.0):.4f} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _report(report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
