"""Pruning the full game down to winning regions per attacker class.

The game is treated as a plant under meta-control: the attacker owns its
own moves (insertions, deletions and letting compromised events through),
while uncompromised observations and the supervisor's decision hops are
uncontrollable.  Pruning alternates a controllability pass with a
race-freeness pass until stable.

Three variants:
  - interruptible: states violating either pass are removed outright,
  - unbounded: violators are flagged instead; a flagged state keeps only
    insertion moves, so the attacker commits to inserting its way out
    before the plant produces another observation,
  - bounded: as unbounded on the counter-augmented game, except states at
    the reaction bound cannot insert and are removed like interruptible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .alphabet import is_inserted
from .build import Scenario, construct_baida
from .game import E_SIDE, IDA, Node, is_race_free
from .supervisor import DEAD


@dataclass(frozen=True)
class PruneResult:
    ida: IDA
    flagged: frozenset[Node]
    rounds: int


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

    return IDA(
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
        at_bound=lambda a: True,
        removal_race_domain=None,
    )


def _prune_flagging(
    base: IDA,
    sc: Scenario,
    name: str,
    at_bound: "callable[[Node], bool]",
    removal_race_domain: frozenset[str] | None,
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
        if removal_race_domain is not None:
            removable = {
                z
                for z in keep
                if z.side == E_SIDE
                and at_bound(z)
                and not is_race_free(z, h, removal_race_domain)
            }
        else:
            removable = {z for z in race_bad if at_bound(z)}
        keep -= removable
        new_flags |= {z for z in race_bad if z in keep and not at_bound(z)}
        nxt = _restrict(h, keep, flagged=new_flags, name=name)
        if _same(nxt, h) and new_flags == flags:
            live = nxt.nodes
            return PruneResult(nxt, frozenset(a for a in new_flags if a in live), rounds)
        h, flags = nxt, new_flags


def prune_unbounded(aida: IDA, sc: Scenario) -> PruneResult:
    """Winning region for deterministic attackers with unbounded reactions."""
    return _prune_flagging(
        aida,
        sc,
        name=f"usda({sc.name})",
        at_bound=lambda a: False,
        removal_race_domain=None,
    )


def prune_bounded(baida: IDA, sc: Scenario) -> PruneResult:
    """Winning region for bounded-reaction attackers on the counter game."""
    if sc.n_a is None:
        raise ValueError("bounded pruning needs the scenario reaction bound")
    n_a = sc.n_a
    domain = frozenset(sc.ea.sigma_a) if sc.literal_bounded_race else None
    return _prune_flagging(
        baida,
        sc,
        name=f"bsda({sc.name})",
        at_bound=lambda a: a.counter == n_a,
        removal_race_domain=domain,
    )


def prune(aida: IDA, sc: Scenario) -> PruneResult:
    """Dispatch on the scenario's attacker mode."""
    if sc.mode == "interruptible":
        return prune_interruptible(aida, sc)
    if sc.mode == "unbounded":
        return prune_unbounded(aida, sc)
    return prune_bounded(construct_baida(sc, aida), sc)
