"""Seeded end-to-end and per-layer benchmark of lipcot.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The parent generates the
workload's inputs from the seed (perfbench/inputs.py), then starts fresh
interpreters (perfbench/child.py) one at a time: a single closed-loop
client, with ``LIPCOT_THREADS`` unset. With ``--trace 0`` the spec's number
of untraced children share ``--seconds``; each repeats the workload's pass
until its share is used, and the end-to-end metrics are printed. With
``--trace 1`` an untraced, a span-traced and an allocation-traced child run,
and the per-layer metrics are printed, with the tracing overhead.

Times are in reference seconds: wall time scaled by the speed of a fixed
reference kernel that each child runs beside the workload (child.Clock).
Each stage and each single operation counts with its median over every
pass of the run.

Metric names and units come from BENCHMARK.json at the checkout root. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit status is 1 when an
output check fails, and 2 when the checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
# every run must end within 180 s; children share what is left of this
DEADLINE_S = 170.0
TRACE_MODES = ("off", "spans", "alloc")


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else float("nan")


def median_op_ms(children, key) -> list:
    """Each single operation's median time over every pass; None where refused.

    Every pass runs the same operations on the same inputs, and the child
    checks that each is refused in every pass or in none.
    """
    passes = [times for c in children for times in c[key]]
    return [None if None in column else statistics.median(column) for column in zip(*passes)]


def _stage_rate(children, stage):
    """Items over the stage's median time over every pass; None if no such stage."""
    runs = [c["stages"][stage] for c in children if stage in c["stages"]]
    if not runs:
        return None
    return runs[0]["items"] / statistics.median(s for r in runs for s in r["seconds"])


def end_to_end(children) -> tuple[dict, dict]:
    """Metric values, and the sample counts and p99 tails behind them."""
    off = [c for c in children if c["mode"] == "off"]
    encode_ms = [ms for ms in median_op_ms(off, "encode_ms") if ms is not None]
    decode_ms = [ms for ms in median_op_ms(off, "decode_ms") if ms is not None]
    recovered = sum(c["roundtrips"][0] for c in off)
    roundtrips = sum(c["roundtrips"][1] for c in off)
    attempted = sum(c["attempted"] for c in off)
    refused = sum(c["refused"] for c in off)
    op_samples = off[0]["op_samples"]

    def median(key):
        return statistics.median(key(c) for c in off)

    encode_rate = _stage_rate(off, "encode") or len(encode_ms) / (sum(encode_ms) / 1e3)
    decode_rate = _stage_rate(off, "decode") or op_samples * len(decode_ms) / (sum(decode_ms) / 1e3)
    values = {
        "setup_s": median(lambda c: c["setup_s"]),
        "train_windows_per_s": _stage_rate(off, "train"),
        "encode_windows_per_s": encode_rate,
        "decode_samples_per_s": decode_rate,
        "encode_window_p50_ms": _percentile(encode_ms, 50),
        "encode_window_p90_ms": _percentile(encode_ms, 90),
        "decode_token_p50_ms": _percentile(decode_ms, 50),
        "decode_token_p90_ms": _percentile(decode_ms, 90),
        "peak_rss_mb": median(lambda c: c["peak_rss_mb"]),
        "train_inertia_per_window": median(lambda c: c["inertia_per_window"]),
        "roundtrip_recovery": recovered / roundtrips,
        "ops_ok_frac": (attempted - refused) / attempted,
    }
    samples = {
        "repetitions": len(off),
        "passes": sum(c["passes"] for c in off),
        "machine_factor": median(lambda c: c["machine_factor"]),
        "encode_window_samples": len(encode_ms),
        "decode_token_samples": len(decode_ms),
        # printed, not gated: see README.md
        "encode_window_p99_ms": _percentile(encode_ms, 99),
        "decode_token_p99_ms": _percentile(decode_ms, 99),
        "roundtrips": roundtrips,
        "ops_attempted": attempted,
        "ops_refused": refused,
    }
    return values, samples


def per_layer(children, names) -> dict:
    """Medians of the traced children's layer metrics; 0 where never called."""
    spans = [c["layers"] for c in children if c["mode"] == "spans"]
    alloc = [c["layers"] for c in children if c["mode"] == "alloc"]
    walls = {m: [c["wall_s"] for c in children if c["mode"] == m] for m in TRACE_MODES}
    values = {}
    for name in names:
        if name == "trace_overhead_s":
            values[name] = statistics.median(walls["spans"]) - statistics.median(walls["off"])
        else:
            source = alloc if name.endswith(".peak_alloc_mb") else spans
            values[name] = statistics.median(layers.get(name, 0) for layers in source)
    return values


def environment(seed: int, children) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads_env": {
            k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ
        },
        "child_threads": max(c["threads"] for c in children),
        "seed": seed,
        "LIPCOT_THREADS": os.environ.get("LIPCOT_THREADS", "unset (cleared for children)"),
    }


def run_child(
    spec_path: Path, out: Path, mode: str, deadline: float, roundtrip: bool, timeout: float
) -> dict:
    out.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k != "LIPCOT_THREADS"}
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts in every child
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "child.py"), str(spec_path), str(out), mode,
            repr(deadline), str(int(roundtrip)),
        ],
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"repetition in mode {mode} exited with {proc.returncode}")
    return json.loads((out / "result.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    # a SystemExit inside subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "lipcot" / "__init__.py").is_file():
        print(f"error: no lipcot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = config["per_layer"] if args.trace else config["end_to_end"]

    work = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        # byte-compile once so no repetition pays for it in its set-up time
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "lipcot")], check=True
        )
        spec_path = inputs.generate(args.workload, args.seed, work)
        spec = json.loads(spec_path.read_text())
        # one child per mode when traced; untraced, the spec's count. Child i
        # repeats its pass until i + 1 shares of --seconds have gone by. The
        # round trips are refit once per untraced run, and by every traced
        # child, whose wall times are compared.
        modes = TRACE_MODES if args.trace else ("off",) * spec["children"]
        children = []
        begin = time.monotonic()
        for i, mode in enumerate(modes):
            deadline = begin + args.seconds * (i + 1) / len(modes)
            remaining = DEADLINE_S - (time.monotonic() - started)
            roundtrip = args.trace == 1 or i == 0
            children.append(
                run_child(spec_path, work / f"rep{i}", mode, deadline, roundtrip, remaining)
            )
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for pattern in ("*.csv", "*.npy"):
            for path in work.rglob(pattern):
                path.unlink()

    failures = [f"rep{i}: {msg}" for i, c in enumerate(children) for msg in c["failures"]]
    for key in {key for c in children for key in c["digests"]}:
        if len({c["digests"][key] for c in children if key in c["digests"]}) != 1:
            failures.append(f"{key} differs between repetitions of seed {args.seed}")

    e2e, samples = end_to_end(children)
    values = per_layer(children, [m["name"] for m in listed]) if args.trace else e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    for name, metric in metrics.items():
        print(f"{args.workload:<11} {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    print("samples " + json.dumps(samples))
    print("env " + json.dumps(environment(args.seed, children)))
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(c["attempted"] for c in children),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
