"""Benchmark for funcdecomp.

    python3 perfbench/run.py --workload exact-d16 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each run measures set-up, then starts one single-threaded worker process
(``worker.py``) and sends it one seeded operation after another, each a call
of ``funcdecomp.cli.main(argv)`` that writes its report to a file, until the
time is up.  Every report is checked against a reference that does not use
funcdecomp (``workloads.py``).  With ``--trace 1`` every operation runs twice,
untraced and traced, and the per-layer metrics come from the traced one.

Prints one line per metric with its unit and sample count, and as the last
line a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import workloads as w
from calibration import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
SETUP_PROBES_FIRST = 3
SETUP_PROBES_PER_OP = 2
WORKER_TIMEOUT_S = 60
RUN_LIMIT_S = 170  # a run that is not done by then is stopped and reports nothing


@dataclass(frozen=True)
class Workload:
    make: Callable[[np.random.Generator], w.Op]
    check: Callable[[object, dict], str | None]
    jsonl: bool = False  # report is JSON lines
    sampled: bool = False  # report carries standard errors


WORKLOADS = {
    "exact-d16": Workload(w.exact_op, w.check_exact),
    "sampled-d40": Workload(w.sampled_op, w.check_sampled, sampled=True),
    "game-d18": Workload(w.game_op, w.check_game),
    "axioms-d4": Workload(w.axioms_op, w.check_axioms, jsonl=True),
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        FUNCDECOMP_SRC=str(SRC),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        DECOMP_LOG="WARNING",
    )
    return env


def start_worker(*extra: str) -> subprocess.Popen:
    proc = subprocess.Popen([sys.executable, str(WORKER), *extra], cwd=ROOT, env=child_env(),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    if proc.stdout.readline() != "ready\n":
        stop(proc)
        raise RuntimeError("worker did not start; see its error output above")
    return proc


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def time_setup() -> float:
    """Seconds from starting an interpreter until funcdecomp.cli is imported
    and the first operation could be issued."""
    start = time.perf_counter()
    proc = start_worker("--probe")
    elapsed = time.perf_counter() - start
    try:
        proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        stop(proc)
    return elapsed


def request(proc: subprocess.Popen, argv: list[str], trace: bool, deadline: float) -> dict:
    proc.stdin.write(json.dumps({"argv": argv, "trace": trace}) + "\n")
    proc.stdin.flush()
    if not select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))[0]:
        raise TimeoutError(f"operation still running after {RUN_LIMIT_S} s")
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError("worker exited during an operation")
    return json.loads(line)


def judge(workload: Workload, op: w.Op, reply: dict, report: Path) -> tuple[str | None, float]:
    """Why the operation failed (None if it did not), and its largest
    standard error (0 for exact results)."""
    if reply["error"]:
        return reply["error"], 0.0
    if reply["rc"] != 0:
        return f"exit code {reply['rc']}", 0.0
    try:
        data = w.read_report(str(report), workload.jsonl)
        why = workload.check(data, op.expected)
        se = max(data["rows"][0]["standard_error"]) if workload.sampled else 0.0
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"bad report: {type(exc).__name__}: {exc}", 0.0
    return why, se


def run_ops(workload: Workload, proc: subprocess.Popen, workdir: Path, seed: int,
            seconds: float, trace: bool, deadline: float,
            setup: list[float] | None) -> list[dict]:
    """Operations until the next one would end after ``seconds``; at least one.
    With ``setup`` given, set-up times are appended after each operation,
    so set-up is sampled across the whole run like the operations are."""
    records: list[dict] = []
    slots: list[float] = []
    start = time.perf_counter()
    while not slots or time.perf_counter() - start + statistics.median(slots) <= seconds:
        slot_start = time.perf_counter()
        op = workload.make(np.random.default_rng([seed, len(slots)]))
        for name, content in op.files.items():
            (workdir / name).write_text(content)
        report = workdir / "report"
        argv = [a.replace("{out}", str(report)).replace("{dir}", str(workdir)) for a in op.argv]
        for traced in (False, True) if trace else (False,):
            report.unlink(missing_ok=True)
            reply = request(proc, argv, traced, deadline)
            why, se = judge(workload, op, reply, report)
            if why:
                sys.stderr.write(f"operation {len(slots)} failed: {why}\n")
            records.append({"index": len(records), "traced": traced, "wall_s": reply["wall_s"],
                            "cal_s": reply["cal_s"], "failed": why is not None, "se_max": se,
                            "samples": op.expected.get("samples", 0)})
        if setup is not None:
            setup += [time_setup() for _ in range(SETUP_PROBES_PER_OP)]
        slots.append(time.perf_counter() - slot_start)
    return records


def end_to_end(workload: Workload, setup: list[float], untraced: list[dict],
               peak_kib: int) -> dict:
    """Times are in reference seconds (see calibration.py): each operation is
    scaled by the mean of the calibration slices timed around and during it,
    set-up by the run's median of those means."""
    ops = [r["wall_s"] * REFERENCE_S / r["cal_s"] for r in untraced]
    scale = REFERENCE_S / statistics.median(r["cal_s"] for r in untraced)
    if workload.sampled:
        to_se = [t * (r["se_max"] / w.SE_TARGET) ** 2 for t, r in zip(ops, untraced)]
    else:
        to_se = ops  # an exact result meets any accuracy target in one operation
    return {
        "setup_s": (statistics.median(setup) * scale, "s", len(setup)),
        "op_s_p50": (statistics.median(ops), "s", len(ops)),
        "peak_rss_mb": (peak_kib / 1024, "MiB", 1),
        "time_to_se_s": (statistics.median(to_se), "s", len(to_se)),
    }


def per_layer(untraced: list[dict], traced: list[dict], layers: dict[int, dict]) -> dict:
    med = statistics.median
    summaries = [layers[r["index"]] for r in traced]
    self_s = {name: med([s["self_s"][name] for s in summaries]) for name in summaries[0]["self_s"]}
    calls = {name: med([s["calls"][name] for s in summaries]) for name in summaries[0]["calls"]}
    per_sample = [s["montecarlo_evals"] / r["samples"] if r["samples"] else 0.0
                  for s, r in zip(summaries, traced)]
    n = len(summaries)
    return {
        "cli.self_s": (self_s["cli"], "s", n),
        "expr.parse_s": (self_s["expr.parse"], "s", n),
        "expr.eval_calls": (calls["expr.eval"], "count", n),
        "expr.eval_s": (self_s["expr.eval"], "s", n),
        "decomp.self_s": (self_s["decomp"], "s", n),
        "decomp.calls": (calls["decomp"], "count", n),
        "game.from_json_s": (self_s["game.from_json"], "s", n),
        "game.shapley_s": (self_s["game.shapley"], "s", n),
        "montecarlo.self_s": (self_s["montecarlo"], "s", n),
        "montecarlo.evals_per_sample": (med(per_sample), "evals/order", n),
        "montecarlo.se_max": (med([r["se_max"] for r in traced]), "abs", n),
        "axioms.self_s": (self_s["axioms"], "s", n),
        "trace.overhead_frac": (
            med([r["wall_s"] for r in traced]) / med([r["wall_s"] for r in untraced]) - 1.0,
            "ratio", n),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    deadline = time.monotonic() + RUN_LIMIT_S
    setup = None
    if not trace:
        time_setup()  # untimed: writes the byte-code caches
        setup = [time_setup() for _ in range(SETUP_PROBES_FIRST)]
    workdir = HERE / ".work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        proc = start_worker()
        try:
            records = run_ops(workload, proc, workdir, seed, seconds, trace, deadline, setup)
            proc.stdin.close()
            final = json.loads(proc.stdout.readline())
            proc.wait(timeout=WORKER_TIMEOUT_S)
        finally:
            stop(proc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    untraced = [r for r in records if not r["traced"]]
    failed = sum(r["failed"] for r in records)
    if trace:
        layers = {index: summary for index, summary in final["layers"]}
        metrics = per_layer(untraced, [r for r in records if r["traced"]], layers)
    else:
        metrics = end_to_end(workload, setup, untraced, final["peak_rss_kib"])
    print(f"{name} wall s per op = " + " ".join(f"{r['wall_s']:.3f}" for r in untraced))
    print(f"{name} calibration s per op = " + " ".join(f"{r['cal_s']:.5f}" for r in untraced))
    if setup:
        print(f"{name} wall s per set-up = " + " ".join(f"{t:.3f}" for t in setup))
    for metric, (value, unit, n) in metrics.items():
        print(f"{name} {metric} = {value:.6g} {unit} (n={n})")
    print(f"{name} fail_rate = {failed}/{len(records)} (n={len(records)})")
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u, _) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "funcdecomp" / "cli.py").is_file():
        sys.stderr.write(f"funcdecomp sources not found under {SRC}\n")
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
