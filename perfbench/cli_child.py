"""Run ``python -m dnabwt.cli`` with timing hooks installed from outside.

Usage: ``python perfbench/cli_child.py RECORD TRACE CLI_ARGS...``

Before the CLI module executes, ``BwtBuilder.run`` is wrapped at class
level to record when it is entered and left (CLOCK_MONOTONIC, comparable
with the parent's spawn and exit stamps), the process's CPU time (user plus
system, all threads) at both points, the peak RSS at entry, which is what
parsing and builder set-up reached, and when the CLI returned.
With ``TRACE`` = 1 every entry point listed in ``spans.py`` is traced as
well. The record is written as JSON to ``RECORD`` (spans to
``RECORD.npz``) once the CLI has finished.
"""
from __future__ import annotations

import json
import resource
import runpy
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    record_path, trace, cli_args = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    from dnabwt import engine

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    marks: dict[str, float] = {}
    inner_run = engine.BwtBuilder.run

    def run(self, *args, **kwargs):
        marks["run_enter"] = _now()
        marks["run_enter_cpu"] = _cpu()
        marks["entry_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        try:
            return inner_run(self, *args, **kwargs)
        finally:
            marks["run_exit"] = _now()
            marks["run_exit_cpu"] = _cpu()

    engine.BwtBuilder.run = run
    sys.argv = ["dnabwt", *cli_args]
    code: int | str | None = 0
    try:
        runpy.run_module("dnabwt.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    # stamped before the spans are written, so the dump is not timed as the CLI's
    marks["cli_exit"] = _now()
    if tracer is not None:
        tracer.dump(record_path + ".npz")
    with open(record_path, "w") as fh:
        json.dump(marks, fh)
    return code if isinstance(code, int) else (0 if code is None else 1)


if __name__ == "__main__":
    sys.exit(main())
