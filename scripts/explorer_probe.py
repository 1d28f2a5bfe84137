"""Replay insertion chains with `check_problem1`; print sizes and times.

The chains are the shapes of `tests/chains.py`: an encoder whose
reactions walk a chain of 100, 400 or 2,000 insertions, committed (played
whole) or interruptible (stoppable anywhere), checked at horizon 10, the
default of `sdattack verify`.  Run it from the root of a checkout:

    PYTHONPATH=src python3 scripts/explorer_probe.py

For each chain it prints the macro-states and the positions an `Explorer`
builds (its memoized moves), and the wall time of `check_problem1`, the
best of three runs.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from chains import chain_attack, chain_scenario  # noqa: E402

from sdattack.oracle import ClosedLoopConfig, Explorer, check_problem1  # noqa: E402

HORIZON = 10
LENGTHS = (100, 400, 2000)


def main() -> int:
    print(f"{'chain':>13} {'insertions':>10} {'macros':>6} {'positions':>9} {'check_s':>8}")
    for committed in (True, False):
        sc = chain_scenario(committed)
        for length in LENGTHS:
            cfg = ClosedLoopConfig(sc.plant, sc.rtilde, chain_attack(sc, length), HORIZON, sc.x_crit)
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                check_problem1(cfg)
                times.append(time.perf_counter() - t0)
            ex = Explorer(cfg)
            ex.run()
            shape = "committed" if committed else "interruptible"
            print(f"{shape:>13} {length:>10} {len(ex.macros):>6} {len(ex._adv):>9} {min(times):>8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
