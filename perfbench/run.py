"""Benchmark of the sdattack pipeline: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --repeat N --seed N --seconds S
    python3 perfbench/run.py --workload NAME --seed N --quick

Run from the root of a checkout.  The inputs of a run are generated from
the seed and written under `perfbench/out/` before the workload's own
process starts; that process imports `sdattack` from `src/`, times whole
rounds of operations for the given number of seconds, checks every
output, and reports.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.

`--repeat N` runs every workload N times, with seeds `--seed`, `--seed`+1,
..., one process at a time, reversing the order of the workloads on every
other pass.  It prints the median and quartiles of each end-to-end metric
per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
TIME_LIMIT = 170.0  # every run must end within 180 s

sys.path.insert(0, str(HERE))
import gen  # noqa: E402

WORKLOADS = gen.WORKLOADS
END_TO_END = ("ops_per_s", "op_s_p50", "setup_s", "peak_rss_mb")


class BenchError(RuntimeError):
    pass


def run_once(workload: str, seed: int, seconds: float, trace: int, quick: bool = False,
             started: float | None = None) -> tuple[dict, dict]:
    """Generate the inputs, run the workload process, return (result, info)."""
    if not (SRC / "sdattack" / "__init__.py").is_file():
        raise BenchError(f"no sdattack package under {SRC}")
    started = time.monotonic() if started is None else started
    work = OUT / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        gen.generate(workload, seed, work)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--inputs", str(work), "--src", str(SRC), "--seconds", str(seconds),
               "--trace", str(trace)]
        if trace:
            (OUT / "traces").mkdir(parents=True, exist_ok=True)
            cmd += ["--trace-out", str(OUT / "traces" / f"{workload}-s{seed}.jsonl")]
        if quick:
            cmd.append("--quick")
        env = dict(os.environ, PYTHONHASHSEED="0")
        budget = TIME_LIMIT - (time.monotonic() - started)
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(budget, 1.0))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{workload}: no result within {TIME_LIMIT:.0f} s") from exc
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            raise BenchError(f"{workload}: worker exited with {proc.returncode}")
        info = json.loads(lines[-2])["info"]
        result = json.loads(lines[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    name = f"{workload}-s{seed}-t{trace}{'-quick' if quick else ''}.json"
    (OUT / "results" / name).write_text(
        json.dumps({"result": result, "info": info}, indent=1) + "\n", encoding="utf-8")
    return result, info


def repeat(n: int, seed: int, seconds: float) -> dict:
    """The whole benchmark n times, workload order alternating."""
    values: dict[str, dict[str, list[float]]] = {w: {m: [] for m in END_TO_END} for w in WORKLOADS}
    for i in range(n):
        order = WORKLOADS if i % 2 == 0 else tuple(reversed(WORKLOADS))
        for w in order:
            result, _ = run_once(w, seed + i, seconds, 0)
            if not result["correct"]:
                raise BenchError(f"{w} seed {seed + i}: outputs are wrong")
            for m in END_TO_END:
                values[w][m].append(result["metrics"][m]["value"])
            print(f"run {i + 1}/{n} {w} seed {seed + i}: " + ", ".join(
                f"{m}={result['metrics'][m]['value']:.6g}" for m in END_TO_END), flush=True)
    summary: dict = {}
    print(f"\n{'workload':<16} {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}")
    for w in WORKLOADS:
        summary[w] = {}
        for m in END_TO_END:
            vals = values[w][m]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            summary[w][m] = {"median": med, "q1": q1, "q3": q3, "values": vals}
            print(f"{w:<16} {m:<12} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {(q3 - q1) / med:>8.3f}")
    return summary


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="one operation, one set-up")
    ap.add_argument("--repeat", type=int, default=0, help="run the whole benchmark N times")
    args = ap.parse_args(argv)
    try:
        if args.repeat:
            summary = repeat(args.repeat, args.seed, args.seconds)
            print(json.dumps(summary))
            return 0
        if args.workload is None:
            ap.error("--workload is required unless --repeat is given")
        result, info = run_once(args.workload, args.seed, args.seconds, args.trace,
                                args.quick, started)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.workload}: {info['op_samples']} operations in {info['rounds']} rounds, "
          f"op p90 {info['op_s_p90']:.6g} s over {info['op_samples']} samples, "
          f"set-up repeats {info['setup_repeats']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
