"""Round-based pruning fixpoint, kept as the test-only reference.

Every round rebuilds each node's label set, re-runs the race check on
every E-state and copies the whole arena, so it costs O(rounds x (V+E)).
It states the semantics directly, and the tests compare the worklist
pruning of `sdattack.prune` with it.  `reference_prune` picks the same
parameters as `prune_interruptible`, `prune_unbounded` and
`prune_bounded`.  `drop_dead_supervisor`, which only tests use, lives
here too.
"""

from __future__ import annotations

from sdattack.alphabet import is_inserted
from sdattack.build import Scenario
from sdattack.game import E_SIDE, IDA, Node, is_race_free
from sdattack.prune import PruneResult
from sdattack.supervisor import DEAD

from arena_reference import from_nodes


def _labels(ida: IDA) -> dict[Node, frozenset[str]]:
    out: dict[Node, frozenset[str]] = {a: ida.out_labels(a) for a in ida.s_states}
    for z in ida.e_states:
        out[z] = ida.out_labels(z)
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
