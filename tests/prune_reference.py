"""Round-based pruning fixpoint, kept as the test-only reference.

Every round rebuilds each node's label set, re-runs the race check on
every E-state and copies the whole arena, so it costs O(rounds x (V+E)).
It states the semantics directly, and the tests compare the worklist
pruning of `sdattack.prune` with it.  `reference_prune` picks the same
parameters as `prune_interruptible`, `prune_unbounded` and
`prune_bounded`.  `drop_dead_supervisor`, which only tests use, lives
here too.

`worklist_prune` is the first worklist pass over the array arena, with
its per-state label dictionaries, its counted requirements and its `kill`
closure, verbatim (`_words`, `_part` and `_worklist_flagging`, which was
`sdattack.prune._prune_flagging`).  The tests compare the current pass
with it array for array, flag for flag and round for round.
"""

from __future__ import annotations

from typing import Callable

from sdattack.alphabet import is_inserted
from sdattack.build import Scenario
from sdattack.game import (
    E_SIDE, GENUINE, HOP, IDA, INSERTION, S_SIDE, Node,
)
from sdattack.prune import PruneResult
from sdattack.supervisor import DEAD

from arena_reference import TupleSuccessors, from_nodes, is_race_free, out_labels


def _labels(ida: IDA) -> dict[Node, frozenset[str]]:
    out: dict[Node, frozenset[str]] = {a: out_labels(ida, a) for a in ida.s_states}
    for z in ida.e_states:
        out[z] = out_labels(ida, z)
    return out


def _restrict(
    base: IDA, keep: set[Node], flagged: frozenset[Node] = frozenset(), name: str | None = None
) -> IDA:
    """Keep only the given states; flagged states lose all but insertion moves.

    Always re-trims to the part reachable from the initial state.
    """
    h_se = {
        y: hop
        for y, hop in base.h_se.items()
        if y in keep and hop[1] in keep
    }
    h_es = {}
    for (z, sym), y in base.h_es.items():
        if z not in keep or y not in keep:
            continue
        if z in flagged and not is_inserted(sym):
            continue
        h_es[(z, sym)] = y

    reach = {base.initial} if base.initial in keep else set()
    stack = list(reach)
    adj: dict[Node, list[Node]] = {}
    for y, (_, z) in h_se.items():
        adj.setdefault(y, []).append(z)
    for (z, _), y in h_es.items():
        adj.setdefault(z, []).append(y)
    while stack:
        cur = stack.pop()
        for t in adj.get(cur, ()):
            if t not in reach:
                reach.add(t)
                stack.append(t)

    return from_nodes(
        name=name or base.name,
        ctx=base.ctx,
        s_states=[y for y in base.s_states if y in reach],
        e_states=[z for z in base.e_states if z in reach],
        h_se={y: hop for y, hop in h_se.items() if y in reach and hop[1] in reach},
        h_es={k: v for k, v in h_es.items() if k[0] in reach and v in reach},
        initial=base.initial,
    )


def _same(a: IDA, b: IDA) -> bool:
    return (
        set(a.s_states) == set(b.s_states)
        and set(a.e_states) == set(b.e_states)
        and a.h_se == b.h_se
        and a.h_es == b.h_es
    )


def drop_dead_supervisor(ida: IDA, name: str | None = None) -> IDA:
    """Drop every state whose supervisor component is the dead sink."""
    keep = {a for a in ida.nodes if a.info.sup != DEAD}
    return _restrict(ida, keep, name=name or ida.name)


def _prune_flagging(
    base: IDA,
    sc: Scenario,
    name: str,
    at_bound: "callable[[Node], bool]",
) -> PruneResult:
    """Shared fixpoint of the three prunings.

    States below the bound are flagged on violation and keep insertions;
    states at the bound (`at_bound`) are removed on violation.  For the
    plain unbounded pruning no state is at the bound; for the
    interruptible pruning every state is.

    An E-state whose every move died is removed only when some feasible
    genuine observation can still occur there: if the plant cannot move,
    idling at the state is stealthy, so it stays as a terminal leaf.
    """
    owned = sc.ea.sigma_a | sc.ea.editable
    full = _labels(base)
    h = drop_dead_supervisor(base, name=name)
    flags: frozenset[Node] = frozenset()
    rounds = 0
    while True:
        rounds += 1
        cur = _labels(h)
        ctrl_bad = {a for a in h.nodes if not full[a] - owned <= cur[a]}
        new_flags = flags | {a for a in ctrl_bad if not at_bound(a)}
        keep = {a for a in h.nodes if a not in ctrl_bad or not at_bound(a)}
        keep = {
            a
            for a in keep
            if cur[a] or not full[a] or (a.side == E_SIDE and is_race_free(a, h))
        }
        race_bad = {
            z
            for z in keep
            if z.side == E_SIDE and not is_race_free(z, h)
        }
        removable = {z for z in race_bad if at_bound(z)}
        keep -= removable
        new_flags |= {z for z in race_bad if z in keep and not at_bound(z)}
        nxt = _restrict(h, keep, flagged=new_flags, name=name)
        if _same(nxt, h) and new_flags == flags:
            index = {a: i for i, a in enumerate([*nxt.s_states, *nxt.e_states])}
            return PruneResult(nxt, frozenset(index[a] for a in new_flags if a in index), rounds)
        h, flags = nxt, new_flags


def reference_prune(arena: IDA, sc: Scenario) -> PruneResult:
    """Prune `arena` (the counter game in bounded mode) for `sc.mode`."""
    if sc.mode == "interruptible":
        return _prune_flagging(
            arena, sc, f"isda({sc.name})", lambda a: True
        )
    if sc.mode == "unbounded":
        return _prune_flagging(
            arena, sc, f"usda({sc.name})", lambda a: False
        )
    n_a = sc.n_a
    return _prune_flagging(
        arena, sc, f"bsda({sc.name})", lambda a: a.counter == n_a
    )


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


def _worklist_flagging(
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

    succ = TupleSuccessors(base.ctx, base.ests)
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


def worklist_prune(arena: IDA, sc: Scenario) -> PruneResult:
    """Prune `arena` (the counter game in bounded mode) for `sc.mode` with the
    first worklist pass."""
    if sc.mode == "interruptible":
        return _worklist_flagging(arena, sc, f"isda({sc.name})", lambda c: True)
    if sc.mode == "unbounded":
        return _worklist_flagging(arena, sc, f"usda({sc.name})", lambda c: False)
    n_a = sc.n_a
    return _worklist_flagging(arena, sc, f"bsda({sc.name})", lambda c: c == n_a)
