"""Pruning the full game down to winning regions per attacker class.

The game is treated as a plant under meta-control: the attacker owns its
own moves (insertions, deletions and letting compromised events through),
while uncompromised observations and the supervisor's decision hops are
uncontrollable.  A state fails controllability once it has lost an
uncontrollable move of the full game; an E-state fails race-freeness
once some feasible observation has lost both its genuine and its
deletion move.

Three variants:
  - interruptible: states violating either test are removed outright,
  - unbounded: violators are flagged instead; a flagged state keeps only
    insertion moves, so the attacker commits to inserting its way out
    before the plant produces another observation,
  - bounded: as unbounded on the counter-augmented game, except states at
    the reaction bound cannot insert and are removed like interruptible.

All three run one backward worklist in O(V+E) (attractor computation:
Zielonka, TCS 1998; Liu & Smolka, ICALP 1998).  Each node keeps counts of
its live moves, lost uncontrollable moves and unmet race requirements,
and only nodes whose counts changed are tested again.  Each generation of
the worklist is tested against the arena the previous one left, so
removals and flags equal those of testing the whole arena round after
round.  `PruneResult.rounds` counts the generations; states cut off from
the initial state are trimmed only at the end, so on large arenas it
exceeds the number of whole-arena rounds to the same fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .build import Scenario, construct_baida
from .game import E_SIDE, GENUINE, HOP, IDA, INSERTION, S_SIDE, Node, Successors
from .supervisor import DEAD


@dataclass(frozen=True)
class PruneResult:
    """A pruned arena and its flagged states.

    `flags` are ids of `ida`; `flagged` is the same set as `Node`s.
    `rounds` is the number of worklist generations, counted over the arena
    with the dead supervisor dropped and before the final reachability
    trim.
    """

    ida: IDA
    flags: frozenset[int]
    rounds: int

    @cached_property
    def flagged(self) -> frozenset[Node]:
        return frozenset(map(self.ida.node, self.flags))


def _words(n: int, byte: int = 0) -> memoryview:
    """n machine words with every byte `byte` (0xFF makes -1): unlike a list,
    they hold no int objects, which counts on arenas of 10^6 edges."""
    return memoryview(bytearray([byte]) * (8 * n)).cast("q")


def _part(base: IDA, name: str, keep: list[bool], live: list[bool]) -> tuple[IDA, list[int]]:
    """The live edges between kept states, trimmed to what the initial state
    reaches, and each old id's new id (-1 if gone).  Orders stay those of `base`."""
    reach = base.reach(live) if base.root >= 0 and keep[base.root] else [False] * len(keep)
    new = [-1] * len(reach)
    kept = [a for a, r in enumerate(reach) if r]
    for i, a in enumerate(kept):
        new[a] = i
    off, lab, dst = [0], [], []
    for a in kept:
        for e in range(base.off[a], base.off[a + 1]):
            if live[e]:
                lab.append(base.lab[e])
                dst.append(new[base.dst[e]])
        off.append(len(lab))
    pick = lambda xs: [xs[a] for a in kept]  # noqa: E731
    root = new[base.root] if base.root >= 0 else -1
    ida = IDA(name, base.ctx, base.syms, base.ests, pick(base.side), pick(base.est),
              pick(base.sup), pick(base.counter), off, lab, dst, root, base.initial)
    return ida, new


def prune_interruptible(aida: IDA, sc: Scenario) -> PruneResult:
    """Winning region for attackers that may stop editing at any point.

    A state that cannot tolerate every uncontrollable move of the full
    game, or an E-state that could be outrun by a feasible observation,
    is unusable and removed: every state counts as at the bound.
    """
    return _prune_flagging(
        aida,
        sc,
        name=f"isda({sc.name})",
        at_bound=lambda c: True,
    )


def _prune_flagging(
    base: IDA,
    sc: Scenario,
    name: str,
    at_bound: Callable[[int | None], bool],
) -> PruneResult:
    """Shared fixpoint of the three prunings.

    States below the bound are flagged on violation and keep insertions;
    states at the bound (`at_bound` of their counter) are removed on
    violation.  For the plain unbounded pruning no state is at the bound;
    for the interruptible pruning every state is.

    An E-state whose every move died is removed only when some feasible
    genuine observation can still occur there: if the plant cannot move,
    idling at the state is stealthy, so it stays as a terminal leaf.

    A race requirement is one feasible observation of an E-state; it is
    met while its genuine or its deletion move is alive.  An E-state at
    the bound is removed on any unmet requirement.
    """
    side, off, lab, dst = base.side, base.off, base.lab, base.dst
    n, m = len(side), len(lab)
    src = [a for a in range(n) for _ in range(off[a], off[a + 1])]
    kinds, events, sigma_a = base.syms.kinds, base.syms.events, sc.ea.sigma_a
    uncontrollable = [k == HOP or (k == GENUINE and ev not in sigma_a)
                      for k, ev in zip(kinds, events)]  # by symbol
    pred_off, pred = _words(n + 2), _words(m)  # incoming edges: pred[pred_off[d]:pred_off[d + 1]]
    for d in dst:
        pred_off[d + 2] += 1
    for a in range(2, n + 2):
        pred_off[a] += pred_off[a - 1]
    for e, d in enumerate(dst):  # pred_off[d + 1] moves from the start of d's edges to their end
        pred[pred_off[d + 1]] = e
        pred_off[d + 1] += 1

    keep = [q != DEAD for q in base.sup]
    live = bytearray(keep[s] and keep[d] for s, d in zip(src, dst))
    alive = base.reach(live) if base.root >= 0 and keep[base.root] else [False] * n
    live = bytearray(ok and alive[s] for ok, s in zip(live, src))

    live_out = [0] * n
    lost_uc = [0] * n
    for e, s in enumerate(src):
        if live[e]:
            live_out[s] += 1
        elif alive[s] and uncontrollable[lab[e]]:
            lost_uc[s] += 1

    succ = Successors(base.ctx, base.ests)
    heads = {ev: [base.syms.ids[h] for h in sc.ea.reaction_heads(ev)] for ev in sc.ea.sigma_o}
    requirement = _words(m, 0xFF)  # edge -> the requirement it can meet (-1: none)
    met: list[int] = []  # requirement -> live edges meeting it
    unmet = [0] * n
    for z in range(n):
        if not alive[z] or side[z] != E_SIDE:
            continue
        by_label = {lab[e]: e for e in range(off[z], off[z + 1])}
        for ev in succ.race_events(base.est[z], base.sup[z]):
            r = len(met)
            count = 0
            for e in map(by_label.get, heads[ev]):
                if e is not None:
                    requirement[e] = r
                    count += live[e]
            met.append(count)
            if not count:
                unmet[z] += 1

    def kill(e: int) -> None:
        live[e] = False
        s = src[e]
        live_out[s] -= 1
        if uncontrollable[lab[e]]:
            lost_uc[s] += 1
        r = requirement[e]
        if r >= 0:
            met[r] -= 1
            if not met[r]:
                unmet[s] += 1

    bound = [at_bound(c) for c in base.counter]
    flagged = [False] * n
    work = [a for a in range(n) if alive[a]]
    rounds = 0
    while work:
        rounds += 1
        removed: list[int] = []
        new_flags: list[int] = []
        for a in work:
            lost, racing = lost_uc[a] > 0, unmet[a] > 0
            has_out = off[a + 1] > off[a]
            if (lost or racing) and bound[a]:
                removed.append(a)
            # every move lost: an S-state, or an E-state the plant can still leave
            elif not live_out[a] and has_out and (side[a] == S_SIDE or racing):
                removed.append(a)
            elif (lost or racing) and not flagged[a]:
                new_flags.append(a)
        touched: set[int] = set()
        for a in removed:
            alive[a] = False
            for e in range(off[a], off[a + 1]):
                live[e] = False
        for a in removed:
            for e in pred[pred_off[a]:pred_off[a + 1]]:
                if live[e]:
                    kill(e)
                    touched.add(src[e])
        for z in new_flags:  # a flagged state keeps its insertions only
            flagged[z] = True
            for e in range(off[z], off[z + 1]):
                if live[e] and kinds[lab[e]] != INSERTION:
                    kill(e)
            touched.add(z)
        work = [a for a in touched if alive[a]]

    ida, new = _part(base, name, alive, live)
    flags = frozenset(new[a] for a in range(n) if flagged[a] and new[a] >= 0)
    return PruneResult(ida, flags, rounds)


def prune_unbounded(aida: IDA, sc: Scenario) -> PruneResult:
    """Winning region for deterministic attackers with unbounded reactions."""
    return _prune_flagging(
        aida,
        sc,
        name=f"usda({sc.name})",
        at_bound=lambda c: False,
    )


def prune_bounded(baida: IDA, sc: Scenario) -> PruneResult:
    """Winning region for bounded-reaction attackers on the counter game."""
    if sc.n_a is None:
        raise ValueError("bounded pruning needs the scenario reaction bound")
    n_a = sc.n_a
    return _prune_flagging(
        baida, sc, name=f"bsda({sc.name})", at_bound=lambda c: c == n_a
    )


def prune(aida: IDA, sc: Scenario) -> PruneResult:
    """Dispatch on the scenario's attacker mode."""
    if sc.mode == "interruptible":
        return prune_interruptible(aida, sc)
    if sc.mode == "unbounded":
        return prune_unbounded(aida, sc)
    return prune_bounded(construct_baida(sc, aida), sc)
