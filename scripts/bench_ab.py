"""Alternating A/B runs of the benchmark; writes `BENCH_<pr>.json`.

    python3 scripts/bench_ab.py --pr N --parent HEAD --pairs 10 --seconds 20 --seed S

Run it from the root of a checkout.  The parent revision is exported
with `git archive` into a temporary directory, which is removed at the
end (`--parent-dir` uses an existing checkout instead).  The change is
the working tree as it is when the run starts: its tracked and untracked
files, less those git ignores, are written as a tree object through a
temporary index (the real index is not touched) and exported the same
way, so edits made during the run do not reach it.  The report names the
snapshot by that tree's hash.  For each workload
(all four by default, or those given with `--workload`) it runs `--pairs`
pairs of `perfbench/run.py --workload W --seconds S`, pair i on seed
`--seed` + i for both sides, with the side that goes first alternating.
Use seeds that were not used while building the change.  With `--traced`,
each workload also gets one traced pair on `--seed`, whose per-layer
metrics are written as they come.

For each end-to-end metric of `BENCHMARK.json` the file holds, per side,
the median, the quartiles and the values in pair order; the ratio of the
medians (change over parent); in how many pairs the change was better;
and the metric's bound.  Every run must report correct outputs, or the
script stops without writing.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True, env=env).stdout.strip()


def snapshot(tmp: Path) -> str:
    """The working tree, less what git ignores, as a tree object; its hash."""
    env = {**os.environ, "GIT_INDEX_FILE": str(tmp / "snapshot-index")}
    git("add", "--all", ".", env=env)
    return git("write-tree", env=env)


def export(tree_ish: str, dest: Path) -> None:
    """Write the files of a commit or tree to `dest`."""
    data = subprocess.run(["git", "archive", "--format=tar", tree_ish], cwd=ROOT,
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest)


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One `perfbench/run.py` run in `checkout`; its result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {workload} seed {seed}: outputs are wrong")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def compare(parent: list[dict], change: list[dict], metric: dict) -> dict:
    name, higher = metric["name"], metric["better"] == "higher"
    a, b = [r[name] for r in parent], [r[name] for r in change]
    wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
    out = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
           "parent": spread(a), "change": spread(b), "wins": wins, "pairs": len(a)}
    out["ratio"] = out["change"]["median"] / out["parent"]["median"]
    return out


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", required=True, help="names the output, BENCH_<pr>.json")
    ap.add_argument("--parent", default="HEAD", help="revision the working tree is compared with")
    ap.add_argument("--parent-dir", type=Path, help="an existing checkout of the parent")
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", action="store_true", help="one traced pair per workload")
    args = ap.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        tmp = Path(tmp)
        tree = snapshot(tmp)
        export(tree, tmp / "change")
        parent_dir = args.parent_dir
        if parent_dir is None:
            rev = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
            parent_dir = tmp / "parent"
            export(rev, parent_dir)
        else:
            rev = git("-C", str(parent_dir.resolve()), "rev-parse", "HEAD")
        sides = {"parent": parent_dir, "change": tmp / "change"}
        report = {"pr": args.pr, "parent": rev, "change": f"tree {tree}",
                  "host": {"python": platform.python_version(), "machine": platform.machine()},
                  "pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
                  "workloads": {}}
        for w in workloads:
            results = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    results[side].append(run(sides[side], w, args.seed + i, args.seconds, 0))
                print(f"{w} pair {i + 1}/{args.pairs}: " + ", ".join(
                    f"{s} ops_per_s={results[s][-1]['ops_per_s']:.4g}" for s in order),
                    flush=True)
            entry = {m["name"]: compare(results["parent"], results["change"], m)
                     for m in bench["end_to_end"]}
            if args.traced:
                entry["traced"] = {"seed": args.seed, **{
                    side: run(sides[side], w, args.seed, args.seconds, 1)
                    for side in ("parent", "change")}}
            report["workloads"][w] = entry
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for w, entry in report["workloads"].items():
        for m in bench["end_to_end"]:
            e = entry[m["name"]]
            print(f"{w:<16} {m['name']:<12} parent {e['parent']['median']:<10.4g} "
                  f"change {e['change']['median']:<10.4g} ratio {e['ratio']:.3f} "
                  f"wins {e['wins']}/{e['pairs']}")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
