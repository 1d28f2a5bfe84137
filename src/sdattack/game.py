"""Insertion-deletion attack structures: bipartite supervisor/environment games.

S-states belong to the supervisor (its only move is issuing the control
decision of its current estimate state); E-states belong to the
environment/attacker (genuine observations, insertions, deletions).  Both
sides carry the same payload, a joint information state: the attacker's
plant-state estimate plus the supervisor completion state.  The full game,
its prunings and their counter-augmented variants are all values of `IDA`,
which stores them as id-indexed arrays; `Node` objects are made only for
the callers that ask for one.

The rules are the tables of one kernel, `Successors`, made afresh per
construction or check: an arena state is the int `(estimate id * n_q +
supervisor id) * 2 + side`, each supervisor state and side has a row of
moves, each estimate a list of steps filled on first read, and a race
requirement is a bit of a mask (feasible events AND enabled events).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import or_
from types import MappingProxyType
from typing import Callable

from .alphabet import EditAlphabet, deleted, inserted
from .automata import Automaton, State, state_token, unobservable_reach
from .supervisor import DEAD, RTilde

S_SIDE = "S"
E_SIDE = "E"
GENUINE, DELETION, INSERTION, HOP = range(4)  # symbol kinds


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


class Symbols:
    """Edge labels by id: `kinds[i]` and `events[i]` (base event, or the
    decision of a hop) say what id `i` is without parsing `labels[i]`.

    Observable events in declaration order get their genuine, deletion and
    insertion ids, then the decisions of the supervisor completion their
    `HOP` ids in state order, so two tables of one context agree.  `ids`
    maps move labels and decisions back to ids.
    """

    def __init__(self, ctx: GameContext) -> None:
        self.labels: list[str] = []
        self.kinds: list[int] = []
        self.events: list = []
        self.ids: dict = {}
        for d in ctx.plant.events:
            if d.observable:
                self._add(d.name, d.name, GENUINE, d.name)
                if d.name in ctx.ea.sigma_a:
                    self._add(deleted(d.name), deleted(d.name), DELETION, d.name)
                    self._add(inserted(d.name), inserted(d.name), INSERTION, d.name)
        for q in ctx.rt.automaton.states:
            self.hop(ctx.rt.gamma(q))

    def _add(self, key, label: str, kind: int, event) -> int:
        i = self.ids[key] = len(self.labels)
        self.labels.append(label)
        self.kinds.append(kind)
        self.events.append(event)
        return i

    def hop(self, gamma: frozenset[str]) -> int:
        i = self.ids.get(gamma)
        return self._add(gamma, gamma_label(gamma), HOP, gamma) if i is None else i


class _View:
    """A read-only `Node` view of an arena (a tuple, a frozenset or a mapping
    proxy), made on first use; `len()` makes no `Node`."""

    __slots__ = ("_len", "_make")
    __hash__ = None

    def __init__(self, size: int, make: Callable) -> None:
        self._len, self._make = size, make

    def __getattr__(self, name: str):  # `get`, `items`, `index`, ... of the data
        return getattr(self._make(), name)

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        return iter(self._make())

    def __contains__(self, x) -> bool:
        return x in self._make()

    def __getitem__(self, key):
        return self._make()[key]

    def __eq__(self, other) -> bool:
        return self._make() == (other._make() if isinstance(other, _View) else other)


class IDA:
    """Bipartite attack structure, stored as id-indexed arrays.

    Node `i` has side `side[i]`, estimate `ests[est[i]]`, supervisor state
    `sup[i]` and bound counter `counter[i]` (None outside the counter game).
    Its out-edges are `lab[k]` -> `dst[k]` for `k` in `off[i]:off[i + 1]`,
    labelled by `syms` ids: an S-state has at most one, its control hop, an
    E-state its moves.  Ids follow discovery order, which makes every
    downstream artifact deterministic.  `root` is the id of the initial
    state, -1 once pruning removed it (`initial` is then the state it was).
    Arenas derived from one another share `syms` and `ests`.

    `s_states`, `e_states`, `nodes`, `h_se` ({S: (decision, E)}), `h_es`
    ({(E, symbol): S}) and `es_adj` are read-only `Node` views, made
    together on first use of any but `len()`.
    """

    def __init__(
        self, name, ctx, syms, ests, side, est, sup, counter, off, lab, dst, root, initial
    ):
        self.name, self.ctx, self.syms, self.ests = name, ctx, syms, ests
        self.side, self.est, self.sup, self.counter = side, est, sup, counter
        self.off, self.lab, self.dst, self.root = off, lab, dst, root
        self.initial: Node = initial if initial is not None else self.node(root)

    @classmethod
    def from_rows(cls, name, ctx, syms, ests, states, rows, root, initial=None) -> IDA:
        """The arena of (side, estimate id, supervisor state, counter) `states`
        and their `rows` of (symbol id, target id) edges."""
        off = [0]
        for row in rows:
            off.append(off[-1] + len(row))
        edges = [edge for row in rows for edge in row]
        side, est, sup, counter = map(list, zip(*states)) if states else ([], [], [], [])
        return cls(name, ctx, syms, ests, side, est, sup, counter, off,
                   [s for s, _ in edges], [t for _, t in edges], root, initial)

    def node(self, i: int) -> Node:
        info = InformationState(self.ests[self.est[i]], self.sup[i])
        return Node(self.side[i], info, self.counter[i])

    def contract(self, y: int) -> int:
        """The E-state the control hop of S-state `y` leads to, -1 if none."""
        off = self.off
        return self.dst[off[y]] if y >= 0 and off[y] < off[y + 1] else -1

    def reach(self, live: list[bool] | None = None) -> list[bool]:
        """States the initial state reaches over the edges `live` keeps (all by default)."""
        off, dst, seen, stack = self.off, self.dst, [False] * len(self.side), [self.root]
        if self.root < 0:
            return seen
        seen[self.root] = True
        while stack:
            a = stack.pop()
            for e in range(off[a], off[a + 1]):
                if not seen[dst[e]] and (live is None or live[e]):
                    seen[dst[e]] = True
                    stack.append(dst[e])
        return seen

    def listing(self) -> tuple[list[int], array, list[tuple[int, ...]]]:
        """The order the writers list states in, and each state's out-edges by label.

        Breadth-first from the initial state, then the states it does not
        reach, S-states first, in id order.  A removed initial state is
        listed first, as -1 (its row is empty).  State i's out-edges by
        label are `off[i] + k` for k in `sorts[sort[i]]`: one sort per
        distinct tuple of symbols, by each symbol's rank in label order."""
        labels, off, lab, dst = self.syms.labels, self.off, self.lab, self.dst
        rank = dict(zip(sorted(set(labels)), range(len(labels))))  # equal labels, equal rank
        by_label = list(map(rank.__getitem__, labels))  # of each symbol
        sorts, ids = [(), (0,)], {}  # rows of length 0 and 1 need no sort
        sort = array("i", [*map(int.__sub__, off[1:], off), 0])
        for i, (a, b) in enumerate(zip(off, off[1:])):
            if b - a > 1:
                row = tuple(lab[a:b])
                k = ids.get(row)
                if k is None:
                    k = ids[row] = len(sorts)
                    sorts.append(tuple(sorted(range(b - a), key=lambda j: by_label[row[j]])))
                sort[i] = k
        order, seen = [self.root], bytearray(len(off))
        seen[self.root] = True
        for i in order if self.root >= 0 else ():
            a = off[i]
            for k in sorts[sort[i]]:
                d = dst[a + k]
                if not seen[d]:
                    seen[d] = True
                    order.append(d)
        for side in (S_SIDE, E_SIDE):
            order += [i for i, s in enumerate(self.side) if s == side and not seen[i]]
        return order, sort, sorts

    _VIEWS = ("s_states", "e_states", "nodes", "h_se", "h_es", "es_adj")

    def __getattr__(self, name: str) -> _View:
        """The `Node` views of `_VIEWS`, each a `_View` of what `_made` makes for it."""
        if name not in IDA._VIEWS:
            raise AttributeError(name)
        n, n_s = len(self.side), self.side.count(S_SIDE)
        hops = list(map(self.syms.kinds.__getitem__, self.lab)).count(HOP)
        sizes = (n_s, n - n_s, n, hops, len(self.lab) - hops, n - n_s)
        for k, (view, size) in enumerate(zip(IDA._VIEWS, sizes)):
            self.__dict__[view] = _View(size, lambda k=k: self._made[k])
        return self.__dict__[name]

    @cached_property
    def _made(self) -> tuple:
        nodes = [self.node(i) for i in range(len(self.side))]
        labels, decisions = self.syms.labels, self.syms.events
        h_se, h_es, es_adj = {}, {}, {}
        for a, i, j in zip(nodes, self.off, self.off[1:]):
            edges = [(self.lab[k], nodes[self.dst[k]]) for k in range(i, j)]
            if a.side == S_SIDE:
                h_se.update((a, (decisions[sym], y)) for sym, y in edges)
            else:
                es_adj[a] = tuple((labels[sym], y) for sym, y in edges)
                h_es.update(((a, sym), y) for sym, y in es_adj[a])
        return (tuple(a for a in nodes if a.side == S_SIDE),
                tuple(a for a in nodes if a.side == E_SIDE), frozenset(nodes),
                MappingProxyType(h_se), MappingProxyType(h_es), MappingProxyType(es_adj))

    @cached_property
    def steps(self) -> dict[tuple[int, str], int]:
        """(E-state, edited symbol) -> the E-state after the move and its
        control hop, -1 where the hop is missing."""
        labels, off, lab, dst = self.syms.labels, self.off, self.lab, self.dst
        return {(z, labels[lab[k]]): self.contract(dst[k]) for z, side in enumerate(self.side)
                if side == E_SIDE for k in range(off[z], off[z + 1])}


class Successors:
    """The successor rules of the game as tables, for one construction or check.

    The supervisor completion states are numbered once, in state order
    (`qids`), and an arena state is one int, `(estimate id * n_q +
    supervisor id) * 2 + side`, side 0 for an S-state and 1 for an
    E-state.  `divmod(key, width)`, with `width = 2 * n_q`, splits it into
    the estimate id and the row `2 * supervisor id + side`.

    `rows[r]` lists the moves of row r as (step, symbol id, row of the
    target).  An S-state's row holds its control hop (none at `dead`).
    An E-state's holds, per observable event its decision enables in
    declaration order, the genuine observation (plant and supervisor
    move), then where the event is compromised its deletion (the plant
    moves) and its insertion (the supervisor moves).  A move of estimate e
    leads to estimate `steps[e][step]`, or stays at e for step -1 (an
    insertion), and is illegal where that step is -1.  Targets of moves
    stay unclosed: the next control hop closes them.

    Estimates are interned into `ests` (a copy of the given table, so ids
    agree with its arena).  `steps[e]` lists estimate e's steps: one per
    observable event (`events`), where the observation leads, -1 if the
    plant cannot execute it; then one per decision, the closure under it.
    An entry is None until `step` fills it on its first read, so estimates
    are interned, and numbered, in the order the breadth-first build meets
    them.
    """

    __slots__ = ("plant", "rt", "syms", "events", "qids", "width", "rows", "ests", "steps",
                 "_ids", "_next", "_gammas", "_reach", "_out", "_enabled", "_feasible")

    def __init__(self, ctx: GameContext, ests: list[frozenset[State]] = ()) -> None:
        plant, rt = ctx.plant, ctx.rt
        self.plant, self.rt, self.syms = plant, rt, Symbols(ctx)
        ids, sigma_a, states = self.syms.ids, ctx.ea.sigma_a, rt.automaton.states
        self.events = [d.name for d in plant.events if d.observable]
        self.qids = {q: i for i, q in enumerate(states)}
        self.width, self.rows, self._enabled = 2 * len(states), [], []
        self._gammas = list(dict.fromkeys(map(rt.gamma, states)))  # the decisions
        self._reach: list[dict] = [{} for _ in self._gammas]  # by decision: x -> its closure
        steps = {gamma: len(self.events) + k for k, gamma in enumerate(self._gammas)}
        for q, qid in self.qids.items():
            gamma, row = rt.gamma(q), []  # each event of `gamma` has a successor
            for i, ev in enumerate(self.events):
                if ev in gamma:
                    nxt = 2 * self.qids[rt.mu(q, ev)]
                    row.append((i, ids[ev], nxt))
                    if ev in sigma_a:
                        row += [(i, ids[deleted(ev)], 2 * qid), (-1, ids[inserted(ev)], nxt)]
            hop = [(steps[gamma], ids[gamma], 2 * qid + 1)] if q != DEAD else []
            self.rows += [hop, row]
            self._enabled.append(sum(1 << i for i, ev in enumerate(self.events) if ev in gamma))
        index = {ev: i for i, ev in enumerate(self.events)}
        self._next: list[dict[State, State]] = [{} for _ in self.events]  # by event: x -> y
        for (x, ev), y in plant.trans.items():
            if ev in index:
                self._next[index[ev]][x] = y
        self._out = {x: sum(1 << i for i, t in enumerate(self._next) if x in t)
                     for x in plant.states}  # the events a plant state can execute, as bits
        self.ests = list(ests)
        self._ids = {x: i for i, x in enumerate(self.ests)}
        self.steps = [[None] * (len(self.events) + len(self._gammas)) for _ in self.ests]
        self._feasible: dict[int, int] = {}

    def intern(self, est: frozenset[State]) -> int:
        i = self._ids.get(est)
        if i is None:
            i = self._ids[est] = len(self.ests)
            self.ests.append(est)
            self.steps.append([None] * (len(self.events) + len(self._gammas)))
        return i

    def initial(self) -> int:
        """Initial S-state: the plant's initial state, unclosed."""
        e = self.intern(frozenset({self.plant.initial}))
        return e * self.width + 2 * self.qids[self.rt.initial]

    def step(self, e: int, i: int) -> int:
        """Fill and return `steps[e][i]`."""
        est, n = self.ests[e], len(self.events)
        if i < n:
            t = self._next[i]
            nxt = frozenset([t[x] for x in est if x in t])
        else:  # a closure is the union of its members' closures, each made once
            reach, gamma = self._reach[i - n], self._gammas[i - n]
            for x in est:
                if x not in reach:
                    reach[x] = unobservable_reach(self.plant, (x,), gamma)
            nxt = frozenset().union(*map(reach.__getitem__, est))
        out = self.steps[e][i] = self.intern(nxt) if nxt else -1
        return out

    def moves(self, e: int, r: int) -> tuple[list[int], list[int]]:
        """The legal moves of the state (e, r): symbol ids and target keys,
        in row order.  `construct_aida` and the audit walk rows the same
        way, inline."""
        st, w, syms, keys = self.steps[e], self.width, [], []
        for i, sym, to in self.rows[r]:
            m = e if i < 0 else st[i]
            if m is None:
                m = self.step(e, i)
            if m >= 0:
                syms.append(sym)
                keys.append(m * w + to)
        return syms, keys

    def race_mask(self, e: int, q: int) -> int:
        """The race requirements of E-state (e, supervisor id q): the
        observations q's decision enables and estimate e can execute, bit i
        for event i.  Interns nothing."""
        f = self._feasible.get(e)
        if f is None:
            f = self._feasible[e] = reduce(or_, map(self._out.__getitem__, self.ests[e]), 0)
        return f & self._enabled[q]


def is_subsystem(small: IDA, big: IDA) -> bool:
    """Componentwise inclusion with edge preservation."""
    return (set(small.nodes) <= set(big.nodes) and small.h_se.items() <= big.h_se.items()
            and small.h_es.items() <= big.h_es.items())
