"""Deterministic finite automata with event attributes.

The one carrier type used everywhere: plants, supervisor realizations,
observer results, products, counter automata and extracted attack encoders
are all values of `Automaton`.  States are opaque hashable ids (strings in
parsed models, frozensets in observer output, tuples in products).
Transitions are a partial deterministic map, so "undefined" is always an
explicit value, never an implicit self loop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Iterator, Sequence

State = Hashable


class ModelError(ValueError):
    """A structurally invalid model (unknown ids, nondeterminism, bad alphabet)."""


@dataclass(frozen=True)
class EventDecl:
    name: str
    observable: bool
    controllable: bool


def state_token(x: State) -> str:
    """Canonical printable token for a state id.

    Tokens never contain whitespace, so they survive the line-oriented text
    format.  Composite states (sets, pairs) render with sorted members.
    """
    if isinstance(x, str):
        return x
    if isinstance(x, frozenset):
        return "{" + ",".join(sorted(state_token(m) for m in x)) + "}"
    if isinstance(x, tuple):
        return "(" + ",".join(state_token(m) for m in x) + ")"
    own = getattr(x, "token", None)
    if callable(own):
        return own()
    return str(x)


@dataclass(frozen=True)
class Automaton:
    """Partial deterministic automaton over an attributed alphabet."""

    name: str
    states: tuple[State, ...]
    events: tuple[EventDecl, ...]
    trans: dict[tuple[State, str], State]
    initial: State

    def __post_init__(self) -> None:
        seen_states = set(self.states)
        if len(seen_states) != len(self.states):
            raise ModelError(f"{self.name}: duplicate state declarations")
        names = [e.name for e in self.events]
        if len(set(names)) != len(names):
            raise ModelError(f"{self.name}: duplicate event declarations")
        if self.initial not in seen_states:
            raise ModelError(f"{self.name}: initial state not declared")
        evset = set(names)
        for (src, ev), dst in self.trans.items():
            if src not in seen_states or dst not in seen_states:
                raise ModelError(f"{self.name}: transition endpoint not declared")
            if ev not in evset:
                raise ModelError(f"{self.name}: transition on undeclared event {ev!r}")

    @cached_property
    def event_map(self) -> dict[str, EventDecl]:
        return {e.name: e for e in self.events}

    @cached_property
    def obs_events(self) -> frozenset[str]:
        return frozenset(e.name for e in self.events if e.observable)

    @cached_property
    def unobs_events(self) -> frozenset[str]:
        return frozenset(e.name for e in self.events if not e.observable)

    @cached_property
    def ctrl_events(self) -> frozenset[str]:
        return frozenset(e.name for e in self.events if e.controllable)

    @cached_property
    def unctrl_events(self) -> frozenset[str]:
        return frozenset(e.name for e in self.events if not e.controllable)

    @cached_property
    def _out(self) -> dict[State, tuple[tuple[str, State], ...]]:
        # adjacency in declaration order of events, for deterministic walks
        order = {e.name: i for i, e in enumerate(self.events)}
        adj: dict[State, list[tuple[str, State]]] = {x: [] for x in self.states}
        for (src, ev), dst in self.trans.items():
            adj[src].append((ev, dst))
        return {
            x: tuple(sorted(edges, key=lambda p: order[p[0]]))
            for x, edges in adj.items()
        }

    def out_edges(self, x: State) -> tuple[tuple[str, State], ...]:
        return self._out[x]

    @cached_property
    def _out_events(self) -> dict[State, frozenset[str]]:
        return {x: frozenset(ev for ev, _ in edges) for x, edges in self._out.items()}

    def out_events(self, x: State) -> frozenset[str]:
        return self._out_events[x]

    def succ(self, x: State, ev: str) -> State | None:
        return self.trans.get((x, ev))

    @cached_property
    def token_order(self) -> tuple[State, ...]:
        """The states in token order.  Raises if two states share a token,
        which the text format could not tell apart either."""
        pairs = sorted((state_token(x), i) for i, x in enumerate(self.states))
        for (a, _), (b, _) in zip(pairs, pairs[1:]):
            if a == b:
                raise ModelError(f"{self.name}: two states share the token {a!r}")
        return tuple(self.states[i] for _, i in pairs)


def step(a: Automaton, x: State, s: Sequence[str]) -> State | None:
    """Iterated transition; undefined propagates as None."""
    cur: State | None = x
    for ev in s:
        if cur is None:
            return None
        cur = a.trans.get((cur, ev))
    return cur


def unobservable_reach(
    a: Automaton, states: Iterable[State], gamma: Iterable[str]
) -> frozenset[State]:
    """Closure of the state set under enabled unobservable events in gamma."""
    allowed = a.unobs_events & frozenset(gamma)
    reach = set(states)
    stack = list(reach)
    while stack:
        x = stack.pop()
        for ev, dst in a.out_edges(x):
            if ev in allowed and dst not in reach:
                reach.add(dst)
                stack.append(dst)
    return frozenset(reach)


def next_states(a: Automaton, states: Iterable[State], e: str) -> frozenset[State]:
    """Observable reach: one-step successors of the set under event e."""
    return frozenset(
        a.trans[(x, e)] for x in states if (x, e) in a.trans
    )


def observer(a: Automaton) -> Automaton:
    """Subset construction over the observable alphabet.

    The initial macro-state closes under the full alphabet; control
    restrictions do not apply at this layer.
    """
    full = [e.name for e in a.events]
    obs_decls = tuple(e for e in a.events if e.observable)
    init = unobservable_reach(a, {a.initial}, full)
    states: list[frozenset[State]] = [init]
    seen = {init}
    trans: dict[tuple[State, str], State] = {}
    queue = deque([init])
    while queue:
        cur = queue.popleft()
        for decl in obs_decls:
            nxt = next_states(a, cur, decl.name)
            if not nxt:
                continue
            macro = unobservable_reach(a, nxt, full)
            trans[(cur, decl.name)] = macro
            if macro not in seen:
                seen.add(macro)
                states.append(macro)
                queue.append(macro)
    return Automaton(
        name=f"obs({a.name})",
        states=tuple(states),
        events=obs_decls,
        trans=trans,
        initial=init,
    )


def _merged_alphabet(a: Automaton, b: Automaton) -> tuple[EventDecl, ...]:
    decls = list(a.events)
    known = {e.name: e for e in a.events}
    for e in b.events:
        prev = known.get(e.name)
        if prev is None:
            decls.append(e)
            known[e.name] = e
        elif prev != e:
            raise ModelError(
                f"event {e.name!r} declared with conflicting attributes "
                f"in {a.name} and {b.name}"
            )
    return tuple(decls)


def parallel(a: Automaton, b: Automaton) -> Automaton:
    """Synchronous composition: sync on shared events, interleave private ones.

    Only the accessible part is built.
    """
    events = _merged_alphabet(a, b)
    shared = {e.name for e in a.events} & {e.name for e in b.events}
    a_names = {e.name for e in a.events}
    b_names = {e.name for e in b.events}
    init = (a.initial, b.initial)
    states: list[State] = [init]
    seen = {init}
    trans: dict[tuple[State, str], State] = {}
    queue = deque([init])
    while queue:
        xa, xb = cur = queue.popleft()
        for decl in events:
            ev = decl.name
            if ev in shared:
                da = a.trans.get((xa, ev))
                db = b.trans.get((xb, ev))
                if da is None or db is None:
                    continue
                dst = (da, db)
            elif ev in a_names:
                da = a.trans.get((xa, ev))
                if da is None:
                    continue
                dst = (da, xb)
            else:
                db = b.trans.get((xb, ev))
                if db is None:
                    continue
                dst = (xa, db)
            trans[(cur, ev)] = dst
            if dst not in seen:
                seen.add(dst)
                states.append(dst)
                queue.append(dst)
    return Automaton(
        name=f"({a.name}||{b.name})",
        states=tuple(states),
        events=events,
        trans=trans,
        initial=init,
    )


def trim_accessible(a: Automaton) -> Automaton:
    """Restriction to states reachable from the initial state."""
    reach = {a.initial}
    queue = deque([a.initial])
    while queue:
        x = queue.popleft()
        for _, dst in a.out_edges(x):
            if dst not in reach:
                reach.add(dst)
                queue.append(dst)
    if len(reach) == len(a.states):
        return a
    return Automaton(
        name=a.name,
        states=tuple(x for x in a.states if x in reach),
        events=a.events,
        trans={k: v for k, v in a.trans.items() if k[0] in reach},
        initial=a.initial,
    )


def rename_states(a: Automaton, mapping: dict[State, State]) -> Automaton:
    if len(set(mapping.values())) != len(mapping):
        raise ModelError(f"{a.name}: state renaming is not injective")
    return Automaton(
        name=a.name,
        states=tuple(mapping[x] for x in a.states),
        events=a.events,
        trans={(mapping[s], ev): mapping[d] for (s, ev), d in a.trans.items()},
        initial=mapping[a.initial],
    )


def stringify_states(a: Automaton) -> Automaton:
    """Replace composite state ids by their printable tokens."""
    if all(isinstance(x, str) for x in a.states):
        return a
    return rename_states(a, {x: state_token(x) for x in a.states})


def language(a: Automaton, max_len: int) -> set[tuple[str, ...]]:
    """All generated strings up to the given length (brute-force enumeration)."""
    return {s for s, _ in iter_strings(a, max_len)}


def iter_strings(a: Automaton, max_len: int) -> Iterator[tuple[tuple[str, ...], State]]:
    """Depth-bounded enumeration of (string, end state) pairs, BFS order."""
    frontier: list[tuple[State, tuple[str, ...]]] = [(a.initial, ())]
    yield (), a.initial
    for _ in range(max_len):
        nxt: list[tuple[State, tuple[str, ...]]] = []
        for x, s in frontier:
            for ev, dst in a.out_edges(x):
                t = s + (ev,)
                yield t, dst
                nxt.append((dst, t))
        frontier = nxt
