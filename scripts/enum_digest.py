"""Print one sha256 digest per exhaustive attacker enumeration.

The scenarios are `randgen.tiny_scenario(Random(s))` for s in 0..29, each
in five attacker modes (interruptible, unbounded, bounded with n_a = 1
and 2, and bounded with n_a = 1 and `bound_initial_insertions = false`),
enumerated with `EnumBounds(max_attackers=300)`, with and without
`certifying_only`: 300 lines.  A digest covers the attackers in the order
they are yielded (transitions, committed insertions, initial epsilon),
or the refusal and the number of attackers before it, plus each
attacker's `check_problem1` verdict at the enumeration horizon and its
`check_embedding` result in the interruptible pruned arena.

Two checkouts enumerate the same attackers with the same verdicts when
this script prints the same bytes in both, for example under different
hash seeds:

    PYTHONHASHSEED=0 PYTHONPATH=src python3 scripts/enum_digest.py > a.txt
    PYTHONHASHSEED=1 PYTHONPATH=<other checkout>/src python3 scripts/enum_digest.py > b.txt
    diff a.txt b.txt
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from random import Random

from sdattack.automata import ModelError
from sdattack.build import construct_aida
from sdattack.oracle import (
    ClosedLoopConfig,
    EnumBounds,
    OracleBudgetError,
    check_embedding,
    check_problem1,
    enumerate_attackers,
)
from sdattack.prune import prune_interruptible
from sdattack.randgen import tiny_scenario

COUNT = 30  # tiny scenarios, seeds 0..COUNT-1
# (mode, n_a, bound_initial_insertions)
MODES = (("interruptible", None, True), ("unbounded", None, True), ("bounded", 1, True),
         ("bounded", 2, True), ("bounded", 1, False))
BOUNDS = EnumBounds(max_attackers=300)


def enumeration_digest(sc, isda, certifying_only: bool) -> str:
    """sha256 of the yielded attackers with their verdicts, then the refusal."""
    h = hashlib.sha256()
    count = 0
    try:
        for fa in enumerate_attackers(sc, BOUNDS, certifying_only):
            count += 1
            cfg = ClosedLoopConfig(sc.plant, sc.rtilde, fa, BOUNDS.horizon, sc.x_crit)
            verdict = check_problem1(cfg, sc.strength)
            embedding = check_embedding(fa, isda, BOUNDS.horizon)
            attacker = (sorted(fa.f.trans.items()), sorted(fa.auto_insert.items()),
                        fa.initial_epsilon)
            h.update(f"{attacker!r}\n{verdict!r}\n{embedding!r}\n".encode())
    except (OracleBudgetError, ModelError) as exc:
        h.update(f"refused after {count}: {type(exc).__name__}: {exc}\n".encode())
    else:
        h.update(f"complete after {count}\n".encode())
    return h.hexdigest()


def main() -> int:
    for s in range(COUNT):
        base = tiny_scenario(Random(s), name=f"tiny{s}")
        isda = prune_interruptible(construct_aida(base), base).ida
        for mode, n_a, bounded in MODES:
            sc = replace(base, mode=mode, n_a=n_a, bound_initial_insertions=bounded)
            for certifying_only in (True, False):
                digest = enumeration_digest(sc, isda, certifying_only)
                tag = f"{mode}{n_a or ''}{'' if bounded else 'free'}"
                label = "certifying" if certifying_only else "all"
                print(f"{digest} tiny{s}/{tag}/{label}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
