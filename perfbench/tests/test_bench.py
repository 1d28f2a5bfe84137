"""Tests of the benchmark itself: inputs, checks and the quick mode.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import worker  # noqa: E402


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    gen.generate(workload, 7, tmp_path / "a")
    gen.generate(workload, 7, tmp_path / "b")
    gen.generate(workload, 8, tmp_path / "c")
    a, b, c = (_tree(tmp_path / d) for d in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c


def _run(workload: str, tmp_path: Path, mutate=None, quick: bool = True, patch=None):
    root = tmp_path / workload
    manifest = gen.generate(workload, 3, root)
    if mutate:
        mutate(manifest)
    m = worker.import_sdattack(SRC)
    if patch:
        patch(m)
    wl = worker.WORKLOADS[workload]()
    wl.setup(m, manifest, root)
    run = worker.Runner(None, quick)
    wl.run_round(run)
    return run


@pytest.mark.parametrize("workload", ["synth-ladder", "arena-export", "replay-chain"])
def test_first_operation_passes_its_check(workload, tmp_path):
    run = _run(workload, tmp_path)
    assert len(run.times) == 1


def test_replay_chain_rejects_a_flipped_verdict(tmp_path):
    def flip(manifest):
        want = manifest["instances"][0]["expect"]
        want["stealthy"] = not want["stealthy"]

    with pytest.raises(worker.CheckError, match="stealthy"):
        _run("replay-chain", tmp_path, mutate=flip)


def test_replay_chain_rejects_a_wrong_failing_observation(tmp_path):
    def move(manifest):
        bad = [it for it in manifest["instances"] if it["expect"]["first_failure"]]
        manifest["instances"] = bad
        bad[0]["expect"]["first_failure"] = bad[0]["expect"]["first_failure"] * 2

    with pytest.raises(worker.CheckError, match="first failing observation"):
        _run("replay-chain", tmp_path, mutate=move)


def test_arena_export_rejects_a_corrupted_artifact(tmp_path):
    def corrupt(m):
        good = m.modelio.format_ida

        def drop_last_edge(ida, flagged=frozenset()):
            lines = good(ida, flagged).splitlines()
            last = max(i for i, line in enumerate(lines) if line.startswith("edge "))
            return "\n".join(lines[:last] + lines[last + 1:]) + "\n"

        m.modelio.format_ida = drop_last_edge

    with pytest.raises(worker.CheckError, match="edge lines"):
        _run("arena-export", tmp_path, patch=corrupt)


def test_synth_ladder_rejects_a_wrong_feasibility(tmp_path):
    def flip(manifest):
        it = manifest["instances"][0]
        it["feasible"] = not it["feasible"]

    with pytest.raises(worker.CheckError, match="feasible"):
        _run("synth-ladder", tmp_path, mutate=flip)


def test_synth_ladder_rejects_an_attack_the_checker_refuses(tmp_path):
    def keep_fault_only(manifest):
        fault = [it for it in manifest["instances"] if it["fault"]][0]
        fault["fault"] = None
        manifest["instances"] = [fault]

    with pytest.raises(worker.CheckError, match="fails the checker"):
        _run("synth-ladder", tmp_path, mutate=keep_fault_only)


def test_exhaustive_tiny_rejects_a_wrong_attacker_count(tmp_path):
    def miscount(manifest):
        smallest = min(manifest["instances"], key=lambda it: it["attackers"])
        smallest["attackers"] += 1
        manifest["instances"] = [smallest]

    with pytest.raises(worker.CheckError, match="attackers"):
        _run("exhaustive-tiny", tmp_path, mutate=miscount, quick=False)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_quick_mode_runs_one_operation(workload):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--quick", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] == 1
    assert set(result["metrics"]) == {"ops_per_s", "op_s_p50", "setup_s", "peak_rss_mb"}


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "replay-chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
