"""Insertion-deletion attack structures: bipartite supervisor/environment games.

S-states belong to the supervisor (its only move is issuing the control
decision of its current estimate state); E-states belong to the
environment/attacker (genuine observations, insertions, deletions).  Both
sides carry the same payload, a joint information state: the attacker's
plant-state estimate plus the supervisor completion state.  The full game,
its prunings and their counter-augmented variants are all values of `IDA`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from .alphabet import EditAlphabet, base_event, deleted, is_deleted, is_inserted
from .automata import (
    Automaton,
    ModelError,
    State,
    next_states,
    state_token,
    unobservable_reach,
)
from .supervisor import DEAD, RTilde

S_SIDE = "S"
E_SIDE = "E"


def gamma_label(gamma: frozenset[str]) -> str:
    """Display label of a control decision hop."""
    return "gamma:" + ",".join(sorted(gamma))


@dataclass(frozen=True)
class InformationState:
    plant: frozenset[State]
    sup: State

    def token(self) -> str:
        inner = ",".join(sorted(state_token(x) for x in self.plant))
        plant = inner if len(self.plant) == 1 else "{" + inner + "}"
        return f"({plant},{state_token(self.sup)})"


@dataclass(frozen=True)
class Node:
    side: str
    info: InformationState
    counter: int | None = None

    def token(self) -> str:
        tag = self.info.token()
        if self.counter is not None:
            tag = f"{tag}#{self.counter}"
        return f"{self.side}{tag}"


@dataclass(frozen=True)
class GameContext:
    plant: Automaton
    rt: RTilde
    ea: EditAlphabet


@dataclass
class IDA:
    """Bipartite attack structure.

    `h_se` maps each S-state to its single control hop (decision label plus
    target E-state); `h_es` maps (E-state, edit symbol) to the next S-state.
    State lists keep discovery order, which makes every downstream artifact
    deterministic.
    """

    name: str
    ctx: GameContext
    s_states: list[Node]
    e_states: list[Node]
    h_se: dict[Node, tuple[frozenset[str], Node]]
    h_es: dict[tuple[Node, str], Node]
    initial: Node

    @cached_property
    def nodes(self) -> set[Node]:
        return set(self.s_states) | set(self.e_states)

    @cached_property
    def es_adj(self) -> dict[Node, tuple[tuple[str, Node], ...]]:
        adj: dict[Node, list[tuple[str, Node]]] = {z: [] for z in self.e_states}
        for (src, ev), dst in self.h_es.items():
            adj.setdefault(src, []).append((ev, dst))
        return {z: tuple(edges) for z, edges in adj.items()}

    def out_labels(self, a: Node) -> frozenset[str]:
        if a.side == S_SIDE:
            hop = self.h_se.get(a)
            return frozenset() if hop is None else frozenset({gamma_label(hop[0])})
        return frozenset(ev for ev, _ in self.es_adj.get(a, ()))


def se_successor(
    rt: RTilde, plant: Automaton, info: InformationState
) -> tuple[frozenset[str], InformationState]:
    """Supervisor move: issue the decision, close the estimate under it."""
    gamma = rt.gamma(info.sup)
    est = unobservable_reach(plant, info.plant, gamma)
    return gamma, InformationState(est, info.sup)


def es_successor(
    rt: RTilde,
    plant: Automaton,
    ea: EditAlphabet,
    info: InformationState,
    sym: str,
) -> InformationState | None:
    """Environment move on a genuine, inserted or deleted symbol.

    Returns None when the move is not permitted at this information state.
    """
    base = base_event(sym)
    gamma = rt.gamma(info.sup)
    if is_inserted(sym):
        if base not in ea.sigma_a or base not in gamma:
            return None
        nxt_sup = rt.mu(info.sup, base)
        if nxt_sup is None:
            return None
        return InformationState(info.plant, nxt_sup)
    if is_deleted(sym):
        if base not in ea.sigma_a or base not in gamma:
            return None
        moved = next_states(plant, info.plant, base)
        if not moved:
            return None
        return InformationState(moved, info.sup)
    if sym not in plant.obs_events or sym not in gamma:
        return None
    moved = next_states(plant, info.plant, sym)
    if not moved:
        return None
    nxt_sup = rt.mu(info.sup, sym)
    if nxt_sup is None:
        return None
    return InformationState(moved, nxt_sup)


def is_race_free(z: Node, ida: IDA, domain: frozenset[str] | None = None) -> bool:
    """No enabled-and-feasible observation may outrun the attacker.

    At an E-state every event the supervisor enables and the plant can
    execute must have either its genuine edge or its deletion edge present.
    `domain`, when given, restricts the check to those events.  Pruning
    keeps the same test as counts of unmet requirements.
    """
    if z.side != E_SIDE:
        raise ModelError("race-freeness is a property of E-states")
    ctx = ida.ctx
    labels = ida.out_labels(z)
    events = ctx.rt.gamma(z.info.sup) & ctx.plant.obs_events
    if domain is not None:
        events &= domain
    for ev in events:
        if not next_states(ctx.plant, z.info.plant, ev):
            continue
        if ev in labels:
            continue
        if ev in ctx.ea.sigma_a and deleted(ev) in labels:
            continue
        return False
    return True


def is_subsystem(small: IDA, big: IDA) -> bool:
    """Componentwise inclusion with edge preservation."""
    if not set(small.s_states) <= set(big.s_states):
        return False
    if not set(small.e_states) <= set(big.e_states):
        return False
    for y, (gamma, z) in small.h_se.items():
        if big.h_se.get(y) != (gamma, z):
            return False
    for key, y in small.h_es.items():
        if big.h_es.get(key) != y:
            return False
    return True


def union(a: IDA, b: IDA) -> IDA:
    """Componentwise union; the two parts must agree where they overlap."""
    if a.initial != b.initial:
        raise ModelError("cannot union attack structures with distinct roots")
    h_se = dict(a.h_se)
    for y, hop in b.h_se.items():
        if h_se.setdefault(y, hop) != hop:
            raise ModelError(f"conflicting control hop at {y.token()}")
    h_es = dict(a.h_es)
    for key, y in b.h_es.items():
        if h_es.setdefault(key, y) != y:
            raise ModelError(f"conflicting move {key[1]!r} at {key[0].token()}")
    s_states = list(a.s_states) + [y for y in b.s_states if y not in set(a.s_states)]
    e_states = list(a.e_states) + [z for z in b.e_states if z not in set(a.e_states)]
    return IDA(
        name=f"({a.name}|{b.name})",
        ctx=a.ctx,
        s_states=s_states,
        e_states=e_states,
        h_se=h_se,
        h_es=h_es,
        initial=a.initial,
    )


def induced_e_state(ida: IDA, s: tuple[str, ...]) -> Node | None:
    """E-state reached by an edited string, contracting control hops.

    Undefined (None) as soon as a move or a control hop is missing.
    """
    hop = ida.h_se.get(ida.initial)
    if hop is None:
        return None
    z = hop[1]
    for sym in s:
        y = ida.h_es.get((z, sym))
        if y is None:
            return None
        hop = ida.h_se.get(y)
        if hop is None:
            return None
        z = hop[1]
    return z
