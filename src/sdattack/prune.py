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
Zielonka, TCS 1998; Liu & Smolka, ICALP 1998).  The set-up builds, per
edge, its state, a `live` byte and the edges grouped by target (a counting
sort into machine words); per state, whether its supervisor state is
dead (generation 0 removes those) and, for an E-state, its kind: row
labels, race requirements (the bit mask `Successors.race_mask`), at the
bound, flagged.  A test reads the kind and the row of `live` bytes only,
so each verdict is computed once per kind and row.  Each generation
tests the states whose rows changed against the arena the previous one
left, so removals and flags equal those of testing the whole arena round
after round.
`PruneResult.rounds` counts the generations; the final trim removes what
the initial state no longer reaches, so on large arenas `rounds` exceeds
the number of whole-arena rounds to the same fixpoint.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress, repeat
from operator import and_, eq, ne, not_, sub

from .build import Scenario, construct_baida
from .game import E_SIDE, GENUINE, HOP, IDA, INSERTION, S_SIDE, Node, Successors
from .supervisor import DEAD

KEEP, REMOVE, FLAG = 0, 1, 2  # verdicts of a test


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
    return _prune_flagging(aida, sc, f"isda({sc.name})", [True] * len(aida.side))


def _prune_flagging(base: IDA, sc: Scenario, name: str, bound: list[bool]) -> PruneResult:
    """Shared fixpoint of the three prunings.

    States below the bound are flagged on violation and keep insertions;
    states at the bound (`bound[i]` of state `i`) are removed on
    violation.  For the plain unbounded pruning no state is at the bound;
    for the interruptible pruning every state is.

    An E-state whose every move died is removed only when some feasible
    genuine observation can still occur there: if the plant cannot move,
    idling at the state is stealthy, so it stays as a terminal leaf.

    A race requirement is one feasible observation of an E-state; it is
    met while its genuine or its deletion move is alive.  An E-state at
    the bound is removed on any unmet requirement.
    """
    side, est, sup, off, lab, dst = base.side, base.est, base.sup, base.off, base.lab, base.dst
    n, kinds, ids = len(side), base.syms.kinds, base.syms.ids
    uncontrollable = [k == HOP or (k == GENUINE and ev not in sc.ea.sigma_a)
                      for k, ev in zip(kinds, base.syms.events)]  # by symbol
    succ = Successors(base.ctx, base.ests)
    race, qids = succ.race_mask, succ.qids
    heads = [[ids[h] for h in sc.ea.reaction_heads(ev)] for ev in succ.events]  # by event index
    kind_ids: dict[tuple, int] = {}  # E-state kind (labels, race mask, at bound, flagged) -> id
    kinds_of: list[tuple] = []  # id -> the kind, its uncontrollable moves and each requirement's
    # heads as bit masks (bit 8i: move i), and a byte per move (1: an insertion)
    verdicts: list[dict[bytes, int]] = []  # id -> row of live bytes -> verdict
    starts: list[int] = []  # id -> verdict with every move alive

    def verdict(k: int, row: bytes) -> int:
        labels, _, at_bound, flagged, uc, reqs = kinds_of[k][:6]
        r = int.from_bytes(row, "little")
        lost, racing = r & uc != uc, not all(map(r.__and__, reqs))
        if (lost or racing) and at_bound or labels and not r and racing:
            return REMOVE  # at the bound, or every move lost while the plant can leave
        return FLAG if (lost or racing) and not flagged else KEEP

    def kind_id(kind: tuple) -> int:
        k = kind_ids.get(kind)
        if k is None:
            k = kind_ids[kind] = len(kinds_of)
            bits = [(1 << 8 * i, sym) for i, sym in enumerate(kind[0])]
            kinds_of.append((*kind, sum(b for b, sym in bits if uncontrollable[sym]),
                             [sum(b for b, sym in bits if sym in heads[i])
                              for i in range(len(heads)) if kind[1] >> i & 1],
                             bytes(kinds[sym] == INSERTION for sym in kind[0])))
            full = bytes([1]) * len(bits)
            verdicts.append({full: verdict(k, full)})
            starts.append(verdicts[k][full])
        return k

    deg = list(map(sub, off[1:], off))
    src = list(chain.from_iterable(map(repeat, range(n), deg)))  # edge -> its state
    count = [0] * n
    for d in dst:
        count[d] += 1
    pred_off = [0, *accumulate(count)]  # moves from the start of the edges into d to their end
    pred = memoryview(bytearray(8 * len(lab))).cast("q")
    for e, d in enumerate(dst):
        pred[pred_off[d]] = e
        pred_off[d] += 1
    # the edges into d, in id order, at pred[pred_off[d]:pred_off[d + 1]], in machine words: unlike
    # a list they hold no int objects, which counts on arenas of 10^6 edges
    pred_off = memoryview(array("q", [0, *pred_off[:n]]))
    alive = bytearray(map(ne, sup, repeat(DEAD)))
    removed = list(compress(range(n), map(not_, alive)))  # generation 0: the dead states
    live = bytearray([1]) * len(lab)
    kind, start = [-1] * n, []  # start: the E-states that fail with every move alive
    for z in compress(range(n), map(and_, alive, map(eq, side, repeat(E_SIDE)))):
        kind[z] = k = kind_id((tuple(lab[off[z]:off[z + 1]]), race(est[z], qids[sup[z]]),
                               bound[z], False))
        if starts[k]:
            start.append(z)

    new_flags, rounds = [], 0
    while True:
        touched: set[int] = set()
        for a in removed:
            alive[a] = 0
            live[off[a]:off[a + 1]] = bytes(deg[a])
        for e in chain.from_iterable([pred[pred_off[a]:pred_off[a + 1]] for a in removed]):
            if live[e]:
                live[e] = 0
                touched.add(src[e])
        # flagging: a flagged state gives up every move but its insertions (a condition that its
        # insertions must meet, such as an escape from the flagged states, goes here)
        for z in new_flags:
            k = kind[z]
            kind[z] = kind_id((*kinds_of[k][:3], True))
            live[off[z]:off[z + 1]] = bytes(map(and_, live[off[z]:off[z + 1]], kinds_of[k][6]))
            touched.add(z)
        if rounds == 0 and any(alive):
            touched.update(start)
        elif not touched:
            break
        rounds += 1
        removed, new_flags = [], []
        for a in touched:
            if side[a] == S_SIDE:  # its one move, the control hop, died
                removed.append(a)
                continue
            row = bytes(live[off[a]:off[a + 1]])
            v = verdicts[kind[a]].get(row)
            if v is None:
                v = verdicts[kind[a]][row] = verdict(kind[a], row)
            if v == REMOVE:
                removed.append(a)
            elif v == FLAG:
                new_flags.append(a)

    ida, new = _part(base, name, alive, live)
    flags = frozenset(new[a] for a in range(n) if kind[a] >= 0 and kinds_of[kind[a]][3]
                      and new[a] >= 0)
    return PruneResult(ida, flags, rounds)


def prune_unbounded(aida: IDA, sc: Scenario) -> PruneResult:
    """Winning region for deterministic attackers with unbounded reactions."""
    return _prune_flagging(aida, sc, f"usda({sc.name})", [False] * len(aida.side))


def prune_bounded(baida: IDA, sc: Scenario) -> PruneResult:
    """Winning region for bounded-reaction attackers on the counter game."""
    if sc.n_a is None:
        raise ValueError("bounded pruning needs the scenario reaction bound")
    return _prune_flagging(baida, sc, f"bsda({sc.name})", [c == sc.n_a for c in baida.counter])


def prune(aida: IDA, sc: Scenario) -> PruneResult:
    """Dispatch on the scenario's attacker mode."""
    if sc.mode == "interruptible":
        return prune_interruptible(aida, sc)
    if sc.mode == "unbounded":
        return prune_unbounded(aida, sc)
    return prune_bounded(construct_baida(sc, aida), sc)
