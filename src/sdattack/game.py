"""Insertion-deletion attack structures: bipartite supervisor/environment games.

S-states belong to the supervisor (its only move is issuing the control
decision of its current estimate state); E-states belong to the
environment/attacker (genuine observations, insertions, deletions).  Both
sides carry the same payload, a joint information state: the attacker's
plant-state estimate plus the supervisor completion state.  The full game,
its prunings and their counter-augmented variants are all values of `IDA`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .alphabet import EditAlphabet, base_event, is_deleted, is_inserted
from .automata import (
    Automaton,
    ModelError,
    State,
    next_states,
    state_token,
    unobservable_reach,
)
from .supervisor import RTilde

S_SIDE = "S"
E_SIDE = "E"


def gamma_label(gamma: frozenset[str]) -> str:
    """Display label of a control decision hop."""
    return "gamma:" + ",".join(sorted(gamma))


@dataclass(frozen=True, slots=True)
class InformationState:
    """Attacker plant estimate plus supervisor state.

    The hash is computed once, and it is the value the dataclass would
    generate, so set and dict orders do not depend on storing it.
    """

    plant: frozenset[State]
    sup: State
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.plant, self.sup)))

    def __hash__(self) -> int:
        return self._hash

    def token(self) -> str:
        inner = ",".join(sorted(state_token(x) for x in self.plant))
        plant = inner if len(self.plant) == 1 else "{" + inner + "}"
        return f"({plant},{state_token(self.sup)})"


@dataclass(frozen=True, slots=True)
class Node:
    """An arena state: side, information state and optional bound counter.

    Hashed once, like `InformationState`, to `hash((side, info, counter))`.
    """

    side: str
    info: InformationState
    counter: int | None = None
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.side, self.info, self.counter)))

    def __hash__(self) -> int:
        return self._hash

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


class Successors:
    """The successor rules of the game, memoized for one call.

    Closures are cached per (estimate, decision) and observation steps per
    (estimate, event); every estimate they return is interned, so equal
    estimates are one object (hash-consing).  A kernel lives as long as the
    construction or check that created it: none is kept on a scenario, a
    context or a module, so every call costs what a one-shot run costs.
    """

    __slots__ = ("plant", "rt", "ea", "_interned", "_closed", "_moved")

    def __init__(self, ctx: GameContext) -> None:
        self.plant, self.rt, self.ea = ctx.plant, ctx.rt, ctx.ea
        self._interned: dict[frozenset[State], frozenset[State]] = {}
        self._closed: dict[tuple[frozenset[State], frozenset[str]], frozenset[State]] = {}
        self._moved: dict[tuple[frozenset[State], str], frozenset[State]] = {}

    def initial(self) -> InformationState:
        """Initial information state: the plant's initial state, unclosed."""
        est = frozenset({self.plant.initial})
        return InformationState(self._interned.setdefault(est, est), self.rt.initial)

    def closure(self, est: frozenset[State], gamma: frozenset[str]) -> frozenset[State]:
        """`unobservable_reach` of the estimate under the decision."""
        key = (est, gamma)
        out = self._closed.get(key)
        if out is None:
            out = unobservable_reach(self.plant, est, gamma)
            out = self._closed[key] = self._interned.setdefault(out, out)
        return out

    def moved(self, est: frozenset[State], ev: str) -> frozenset[State]:
        """`next_states` of the estimate on an observation (empty if infeasible)."""
        key = (est, ev)
        out = self._moved.get(key)
        if out is None:
            out = next_states(self.plant, est, ev)
            out = self._moved[key] = self._interned.setdefault(out, out)
        return out

    def se_successor(self, info: InformationState) -> tuple[frozenset[str], InformationState]:
        """Supervisor move: issue the decision, close the estimate under it."""
        gamma = self.rt.gamma(info.sup)
        return gamma, InformationState(self.closure(info.plant, gamma), info.sup)

    def genuine(self, info: InformationState, ev: str) -> InformationState | None:
        """Environment move on the genuine observation `ev`."""
        if ev not in self.plant.obs_events or ev not in self.rt.gamma(info.sup):
            return None
        moved = self.moved(info.plant, ev)
        if not moved:
            return None
        nxt_sup = self.rt.mu(info.sup, ev)
        if nxt_sup is None:
            return None
        # left unclosed: the next control hop closes it under the new decision only
        return InformationState(moved, nxt_sup)

    def deletion(self, info: InformationState, ev: str) -> InformationState | None:
        """Environment move erasing the compromised observation `ev`."""
        if ev not in self.ea.sigma_a or ev not in self.rt.gamma(info.sup):
            return None
        moved = self.moved(info.plant, ev)
        if not moved:
            return None
        return InformationState(moved, info.sup)

    def insertion(self, info: InformationState, ev: str) -> InformationState | None:
        """Environment move faking the compromised observation `ev`."""
        if ev not in self.ea.sigma_a or ev not in self.rt.gamma(info.sup):
            return None
        nxt_sup = self.rt.mu(info.sup, ev)
        if nxt_sup is None:
            return None
        return InformationState(info.plant, nxt_sup)

    def es_successor(self, info: InformationState, sym: str) -> InformationState | None:
        """Environment move on a genuine, inserted or deleted symbol.

        Returns None when the move is not permitted at this information state.
        """
        if is_inserted(sym):
            return self.insertion(info, base_event(sym))
        if is_deleted(sym):
            return self.deletion(info, base_event(sym))
        return self.genuine(info, sym)

    def race_events(self, info: InformationState) -> list[str]:
        """Observations the supervisor enables and the plant can execute."""
        events = self.rt.gamma(info.sup) & self.plant.obs_events
        return [ev for ev in events if self.moved(info.plant, ev)]


def is_race_free(z: Node, ida: IDA) -> bool:
    """No enabled-and-feasible observation may outrun the attacker.

    At an E-state every event the supervisor enables and the plant can
    execute must have one of its reaction heads (the genuine edge or the
    deletion edge) present.  Pruning keeps the same test as counts of
    unmet requirements.
    """
    if z.side != E_SIDE:
        raise ModelError("race-freeness is a property of E-states")
    heads = ida.ctx.ea.reaction_heads
    labels = ida.out_labels(z)
    return all(
        any(sym in labels for sym in heads(ev))
        for ev in Successors(ida.ctx).race_events(z.info)
    )


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


def induced_e_state(ida: IDA, s: tuple[str, ...]) -> Node | None:
    """E-state reached by an edited string, contracting control hops.

    Undefined (None) as soon as a move or a control hop is missing.
    """
    hop = ida.h_se.get(ida.initial)
    z = None if hop is None else hop[1]
    for sym in s:
        if z is None:
            break
        z = induced_step(ida, z, sym)
    return z


def induced_step(ida: IDA, z: Node, sym: str) -> Node | None:
    """E-state after one more edited symbol from the E-state `z`, or None."""
    y = ida.h_es.get((z, sym))
    if y is None:
        return None
    hop = ida.h_se.get(y)
    return None if hop is None else hop[1]
