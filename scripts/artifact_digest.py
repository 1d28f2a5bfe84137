"""Print one sha256 digest per (config, command) pair of the CLI.

The configs are the demo scenario and `randgen.random_scenario(Random(s),
max_states=5)` for s in 0..59, each in five attacker modes (interruptible,
unbounded, bounded with n_a = 1 and 2, and bounded with n_a = 1 and
`bound_initial_insertions = false`) and both goal strengths.  Every
config runs `build-aida`, `prune`, `synthesize`, `verify` and `export-dot`
(aida and pruned stages) in this process; a digest covers the command's
stdout and its exit code.  A last digest per config covers a round trip:
`synthesize -o` writes the strategy to a file and `verify --attack`
replays it (the digest of `verify`'s stdout and exit code, or of the exit
code of `synthesize` when it writes nothing).  That is 4,270 lines, seven
per config.  The scenarios are written to a temporary directory, so no
path reaches the output.

Two checkouts agree on every artifact when this script prints the same
bytes in both, for example under different hash seeds:

    PYTHONHASHSEED=0 PYTHONPATH=src python3 scripts/artifact_digest.py > a.txt
    PYTHONHASHSEED=1 PYTHONPATH=<other checkout>/src python3 scripts/artifact_digest.py > b.txt
    diff a.txt b.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
from dataclasses import replace
from pathlib import Path
from random import Random

from sdattack.cli import main as cli_main
from sdattack.modelio import format_scenario_config, read_scenario, write_automaton
from sdattack.randgen import random_scenario

DEMO_CONFIG = Path(__file__).resolve().parent.parent / "scenarios" / "demo" / "attack.cfg"
COUNT = 60  # random scenarios, seeds 0..COUNT-1
# (mode, n_a, bound_initial_insertions)
MODES = (
    ("interruptible", None, True),
    ("unbounded", None, True),
    ("bounded", 1, True),
    ("bounded", 2, True),
    ("bounded", 1, False),
)
STRENGTHS = ("strong", "weak")
COMMANDS = (
    ["build-aida"],
    ["prune"],
    ["synthesize"],
    ["verify"],
    ["export-dot", "--stage", "aida"],
    ["export-dot", "--stage", "pruned"],
)


def write_variants(sc, tmp: Path) -> list[tuple[str, Path]]:
    """The scenario in every mode and strength, as (label, config path) pairs."""
    folder = tmp / sc.name
    folder.mkdir()
    write_automaton(sc.plant, folder / "plant.aut")
    write_automaton(sc.supervisor.automaton, folder / "supervisor.aut")
    out = []
    for mode, n_a, bounded_burst in MODES:
        for strength in STRENGTHS:
            tag = f"{mode}{n_a or ''}{'' if bounded_burst else 'free'}"
            var = replace(
                sc, mode=mode, n_a=n_a, strength=strength,
                bound_initial_insertions=bounded_burst,
            )
            cfg = folder / f"{tag}-{strength}.cfg"
            cfg.write_text(format_scenario_config(var), encoding="utf-8")
            out.append((f"{sc.name}/{tag}/{strength}", cfg))
    return out


def call(argv: list[str]) -> tuple[str, int]:
    """The command's stdout and exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), code


def run(argv: list[str]) -> str:
    """sha256 of the command's stdout followed by its exit code."""
    out, code = call(argv)
    return hashlib.sha256(f"{out}\nexit {code}\n".encode()).hexdigest()


def round_trip(cfg: Path) -> str:
    """`synthesize -o` to a file, then `verify --attack` of that file."""
    strategy = cfg.with_suffix(".fa")
    _, code = call(["synthesize", str(cfg), "-o", str(strategy)])
    if code != 0:
        return hashlib.sha256(f"synthesize exit {code}\n".encode()).hexdigest()
    return run(["verify", str(cfg), "--attack", str(strategy)])


def main() -> int:
    scenarios = [read_scenario(DEMO_CONFIG)]
    scenarios += [
        random_scenario(Random(s), max_states=5, name=f"rand{s}") for s in range(COUNT)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for sc in scenarios:
            for label, cfg in write_variants(sc, Path(tmp)):
                for cmd in COMMANDS:
                    digest = run([cmd[0], str(cfg), *cmd[1:]])
                    print(f"{digest} {label} {' '.join(cmd)}", flush=True)
                print(f"{round_trip(cfg)} {label} synthesize -o | verify --attack", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
