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
from typing import Callable

from .alphabet import is_inserted
from .build import Scenario, construct_baida
from .game import IDA, Node, Successors, gamma_label
from .supervisor import DEAD


@dataclass(frozen=True)
class PruneResult:
    """A pruned arena and its flagged states.

    `rounds` is the number of worklist generations, counted over the arena
    with the dead supervisor dropped and before the final reachability
    trim.
    """

    ida: IDA
    flagged: frozenset[Node]
    rounds: int


class _Arena:
    """`base` interned to ints.

    Nodes are the S-states then the E-states, in list order; edges are the
    control hops then the moves, in dict order.
    """

    def __init__(self, base: IDA) -> None:
        self.base = base
        self.nodes = base.s_states + base.e_states
        index = {a: i for i, a in enumerate(self.nodes)}
        self.initial = index.get(base.initial)
        self.src: list[int] = []
        self.dst: list[int] = []
        self.label: list[str] = []
        for y, (gamma, z) in base.h_se.items():
            self.src.append(index[y])
            self.dst.append(index[z])
            self.label.append(gamma_label(gamma))
        for (z, sym), y in base.h_es.items():
            self.src.append(index[z])
            self.dst.append(index[y])
            self.label.append(sym)
        self.out: list[list[int]] = [[] for _ in self.nodes]
        self.pred: list[list[int]] = [[] for _ in self.nodes]
        for e, (s, d) in enumerate(zip(self.src, self.dst)):
            self.out[s].append(e)
            self.pred[d].append(e)

    def reach(self, keep: list[bool], live: list[bool]) -> list[bool]:
        """Nodes the initial state reaches over live edges (none if it is not kept)."""
        seen = [False] * len(self.nodes)
        if self.initial is None or not keep[self.initial]:
            return seen
        seen[self.initial] = True
        stack = [self.initial]
        while stack:
            for e in self.out[stack.pop()]:
                d = self.dst[e]
                if live[e] and not seen[d]:
                    seen[d] = True
                    stack.append(d)
        return seen

    def part(self, name: str, keep: list[bool], live: list[bool]) -> tuple[IDA, list[bool]]:
        """The live edges between kept nodes, trimmed to what the initial state reaches.

        Node lists and edge dicts keep the order of `base`.
        """
        reach = self.reach(keep, live)
        base, src = self.base, self.src
        n_s, n_hops = len(base.s_states), len(base.h_se)
        ida = IDA(
            name=name,
            ctx=base.ctx,
            s_states=[y for y, r in zip(base.s_states, reach) if r],
            e_states=[z for z, r in zip(base.e_states, reach[n_s:]) if r],
            h_se={
                y: hop
                for e, (y, hop) in enumerate(base.h_se.items())
                if live[e] and reach[src[e]]
            },
            h_es={
                key: y
                for e, (key, y) in enumerate(base.h_es.items(), n_hops)
                if live[e] and reach[src[e]]
            },
            initial=base.initial,
        )
        return ida, reach


def _alive_edges(g: _Arena, keep: list[bool]) -> list[bool]:
    return [keep[s] and keep[d] for s, d in zip(g.src, g.dst)]


def drop_dead_supervisor(ida: IDA, name: str | None = None) -> IDA:
    """Drop every state whose supervisor component is the dead sink."""
    g = _Arena(ida)
    keep = [a.info.sup != DEAD for a in g.nodes]
    return g.part(name or ida.name, keep, _alive_edges(g, keep))[0]


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
    )


def _prune_flagging(
    base: IDA,
    sc: Scenario,
    name: str,
    at_bound: Callable[[Node], bool],
) -> PruneResult:
    """Shared fixpoint of the three prunings.

    States below the bound are flagged on violation and keep insertions;
    states at the bound (`at_bound`) are removed on violation.  For the
    plain unbounded pruning no state is at the bound; for the
    interruptible pruning every state is.

    An E-state whose every move died is removed only when some feasible
    genuine observation can still occur there: if the plant cannot move,
    idling at the state is stealthy, so it stays as a terminal leaf.

    A race requirement is one feasible observation of an E-state; it is
    met while its genuine or its deletion move is alive.  An E-state at
    the bound is removed on any unmet requirement.
    """
    g = _Arena(base)
    nodes, src, out, pred = g.nodes, g.src, g.out, g.pred
    n, n_s = len(nodes), len(base.s_states)
    owned = sc.ea.sigma_a | sc.ea.editable
    uncontrollable = [lab not in owned for lab in g.label]
    strippable = [not is_inserted(lab) for lab in g.label]

    keep = [a.info.sup != DEAD for a in nodes]
    live = _alive_edges(g, keep)
    alive = g.reach(keep, live)
    live = [ok and alive[s] for ok, s in zip(live, src)]

    live_out = [0] * n
    lost_uc = [0] * n
    for e, s in enumerate(src):
        if live[e]:
            live_out[s] += 1
        elif alive[s] and uncontrollable[e]:
            lost_uc[s] += 1

    succ = Successors(base.ctx)
    heads = base.ctx.ea.reaction_heads
    requirement = [-1] * len(src)  # edge -> the requirement it can meet
    met: list[int] = []  # requirement -> live edges meeting it
    unmet = [0] * n
    for z in range(n_s, n):
        if not alive[z]:
            continue
        by_label = {g.label[e]: e for e in out[z]}
        for ev in succ.race_events(nodes[z].info):
            r = len(met)
            count = 0
            for e in map(by_label.get, heads(ev)):
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
        if uncontrollable[e]:
            lost_uc[s] += 1
        r = requirement[e]
        if r >= 0:
            met[r] -= 1
            if not met[r]:
                unmet[s] += 1

    bound = [at_bound(a) for a in nodes]
    flagged = [False] * n
    work = [a for a in range(n) if alive[a]]
    rounds = 0
    while work:
        rounds += 1
        removed: list[int] = []
        new_flags: list[int] = []
        for a in work:
            lost, racing = lost_uc[a] > 0, unmet[a] > 0
            if (lost or racing) and bound[a]:
                removed.append(a)
            # every move lost: an S-state, or an E-state the plant can still leave
            elif not live_out[a] and out[a] and (a < n_s or racing):
                removed.append(a)
            elif (lost or racing) and not flagged[a]:
                new_flags.append(a)
        touched: set[int] = set()
        for a in removed:
            alive[a] = False
            for e in out[a]:
                live[e] = False
        for a in removed:
            for e in pred[a]:
                if live[e]:
                    kill(e)
                    touched.add(src[e])
        for z in new_flags:  # a flagged state keeps its insertions only
            flagged[z] = True
            for e in out[z]:
                if live[e] and strippable[e]:
                    kill(e)
            touched.add(z)
        work = [a for a in touched if alive[a]]

    ida, reach = g.part(name, alive, live)
    kept_flags = frozenset(nodes[a] for a in range(n) if flagged[a] and reach[a])
    return PruneResult(ida, kept_flags, rounds)


def prune_unbounded(aida: IDA, sc: Scenario) -> PruneResult:
    """Winning region for deterministic attackers with unbounded reactions."""
    return _prune_flagging(
        aida,
        sc,
        name=f"usda({sc.name})",
        at_bound=lambda a: False,
    )


def prune_bounded(baida: IDA, sc: Scenario) -> PruneResult:
    """Winning region for bounded-reaction attackers on the counter game."""
    if sc.n_a is None:
        raise ValueError("bounded pruning needs the scenario reaction bound")
    n_a = sc.n_a
    return _prune_flagging(
        baida, sc, name=f"bsda({sc.name})", at_bound=lambda a: a.counter == n_a
    )


def prune(aida: IDA, sc: Scenario) -> PruneResult:
    """Dispatch on the scenario's attacker mode."""
    if sc.mode == "interruptible":
        return prune_interruptible(aida, sc)
    if sc.mode == "unbounded":
        return prune_unbounded(aida, sc)
    return prune_bounded(construct_baida(sc, aida), sc)
