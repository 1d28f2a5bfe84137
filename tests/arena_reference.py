"""Node-based arena construction and audit, kept as the test-only reference.

These are the `Node`-keyed `IDA`, the `InformationState` successor kernel,
`construct_aida`, `construct_baida` and `aida_maximality_violations` as
they were before the arena became id-indexed arrays, verbatim.  The
tests compare the array arena of `sdattack.build` with them: node lists
in order, edges in insertion order, audit messages and pruning.  The
reference audit reads only the `Node` views, so it runs on either arena.

`from_nodes` turns a `Node`-keyed structure into an array arena; tests
use it to hand-build arenas.  `out_labels` and `is_race_free` read a
state's moves through the `Node` views of either arena.

`walk_baida` is the first array-arena `construct_baida`, verbatim: it
calls `counter_step` once per edge, on the edge's label.  The counter
arena of `sdattack.build`, which reads the counter from a table, is
compared with it array for array.

`TupleSuccessors` is the kernel that keyed arena states by (side,
estimate id, supervisor state) tuples, and `tuple_construct_aida` the
builder over it, both verbatim (they were `game.Successors` and
`build.construct_aida`).  The table kernel and its builder are compared
with them array for array, estimate table included; `is_race_free`
and `prune_reference.worklist_prune` read race requirements from
`TupleSuccessors.race_events`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from sdattack.alphabet import base_event, deleted, inserted, is_deleted, is_inserted
from sdattack.automata import Automaton, ModelError, State, next_states, unobservable_reach
from sdattack import build, game
from sdattack.build import Scenario, counter_step
from sdattack.game import (
    E_SIDE,
    S_SIDE,
    GameContext,
    InformationState,
    Node,
    Symbols,
    gamma_label,
)
from sdattack.supervisor import DEAD


def from_nodes(name, ctx, s_states, e_states, h_se, h_es, initial) -> game.IDA:
    """The array arena with these states (S-states first, then E-states) and edges.

    An initial state outside the states gives an arena whose initial state
    was removed.
    """
    nodes = [*s_states, *e_states]
    index = {a: i for i, a in enumerate(nodes)}
    syms, ests = game.Symbols(ctx), {}
    rows: list[list[tuple[int, int]]] = [[] for _ in nodes]
    for y, (gamma, z) in h_se.items():
        rows[index[y]].append((syms.hop(frozenset(gamma)), index[z]))
    for (z, sym), y in h_es.items():
        rows[index[z]].append((syms.ids[sym], index[y]))
    states = [(a.side, ests.setdefault(a.info.plant, len(ests)), a.info.sup, a.counter)
              for a in nodes]
    return game.IDA.from_rows(name, ctx, syms, list(ests), states, rows,
                              index.get(initial, -1), initial)


def out_labels(ida, a: Node) -> frozenset[str]:
    """The labels of a state's moves, in an array arena or a `Node` one."""
    if a.side == S_SIDE:
        hop = ida.h_se.get(a)
        return frozenset() if hop is None else frozenset({gamma_label(hop[0])})
    return frozenset(ev for ev, _ in ida.es_adj.get(a, ()))


def is_race_free(z: Node, ida) -> bool:
    """No enabled-and-feasible observation may outrun the attacker.

    At an E-state every event the supervisor enables and the plant can
    execute must have one of its reaction heads (the genuine edge or the
    deletion edge) present.  Pruning keeps the same test as counts of
    unmet requirements.
    """
    if z.side != E_SIDE:
        raise ModelError("race-freeness is a property of E-states")
    heads, labels, succ = ida.ctx.ea.reaction_heads, out_labels(ida, z), TupleSuccessors(ida.ctx)
    events = succ.race_events(succ.intern(z.info.plant), z.info.sup)
    return all(any(sym in labels for sym in heads(ev)) for ev in events)


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



def _observable_moves(plant: Automaton) -> list[tuple[str, str, str]]:
    """(event, deletion, insertion) symbols of the observable events, in declaration order."""
    return [(d.name, deleted(d.name), inserted(d.name)) for d in plant.events if d.observable]


def construct_aida(sc: Scenario) -> IDA:
    """Breadth-first construction of the full insertion-deletion game."""
    rt, ea = sc.rtilde, sc.ea
    succ = Successors(sc.ctx)
    y0 = Node(S_SIDE, succ.initial())
    s_states: list[Node] = [y0]
    e_states: list[Node] = []
    h_se: dict[Node, tuple[frozenset[str], Node]] = {}
    h_es: dict[tuple[Node, str], Node] = {}
    # one node per information state and side
    s_of: dict[InformationState, Node] = {y0.info: y0}
    e_of: dict[InformationState, Node] = {}
    queue: deque[Node] = deque([y0])

    def add_s(info: InformationState) -> Node:
        y = s_of.get(info)
        if y is None:
            y = s_of[info] = Node(S_SIDE, info)
            s_states.append(y)
            if info.sup != DEAD:
                queue.append(y)
        return y

    def add_e(info: InformationState) -> Node:
        z = e_of.get(info)
        if z is None:
            z = e_of[info] = Node(E_SIDE, info)
            e_states.append(z)
            if not info.plant <= sc.x_crit:
                queue.append(z)
        return z

    moves = _observable_moves(sc.plant)
    while queue:
        c = queue.popleft()
        if c.side == S_SIDE:
            gamma, info = succ.se_successor(c.info)
            h_se[c] = (gamma, add_e(info))
            continue
        decision = rt.gamma(c.info.sup)
        for e, e_del, e_ins in moves:
            if e not in decision:
                continue
            genuine = succ.genuine(c.info, e)
            if genuine is not None:
                h_es[(c, e)] = add_s(genuine)
            if e in ea.sigma_a:
                gone = succ.deletion(c.info, e)
                if gone is not None:
                    h_es[(c, e_del)] = add_s(gone)
                faked = succ.insertion(c.info, e)
                if faked is not None:
                    h_es[(c, e_ins)] = add_s(faked)

    return IDA(
        name=f"aida({sc.name})",
        ctx=sc.ctx,
        s_states=s_states,
        e_states=e_states,
        h_se=h_se,
        h_es=h_es,
        initial=y0,
    )


def aida_maximality_violations(ida: IDA, sc: Scenario) -> list[str]:
    """Why the structure is not the full game (empty list means it is)."""
    rt = sc.rtilde
    succ = Successors(sc.ctx)
    bad: list[str] = []
    y0 = Node(S_SIDE, succ.initial())
    if ida.initial != y0:
        bad.append(f"initial state is {ida.initial.token()}, expected {y0.token()}")
        return bad

    s_set, e_set = set(ida.s_states), set(ida.e_states)
    if len(s_set) != len(ida.s_states) or len(e_set) != len(ida.e_states):
        bad.append("duplicate state entries")

    reach = {ida.initial}
    stack = [ida.initial]
    while stack:
        cur = stack.pop()
        if cur.side == S_SIDE:
            hop = ida.h_se.get(cur)
            targets = [hop[1]] if hop else []
        else:
            targets = [dst for _, dst in ida.es_adj.get(cur, ())]
        for t in targets:
            if t not in reach:
                reach.add(t)
                stack.append(t)
    for a in dict.fromkeys([*ida.s_states, *ida.e_states]):
        if a not in reach:
            bad.append(f"unreachable state {a.token()}")

    for y in ida.s_states:
        hop = ida.h_se.get(y)
        if y.info.sup == DEAD:
            if hop is not None:
                bad.append(f"detected state {y.token()} must be terminal")
            continue
        if hop is None:
            bad.append(f"missing control hop at {y.token()}")
            continue
        gamma, z = hop
        want_gamma, want_info = succ.se_successor(y.info)
        if gamma != want_gamma:
            bad.append(f"wrong decision label at {y.token()}")
        if z.side != E_SIDE or z.info != want_info or z not in e_set:
            bad.append(f"wrong control hop target at {y.token()}")

    moves = _observable_moves(sc.plant)
    for z in ida.e_states:
        stored = dict(ida.es_adj.get(z, ()))
        if z.info.plant <= sc.x_crit:
            if stored:
                bad.append(f"goal state {z.token()} must be terminal")
            continue
        expected: dict[str, InformationState] = {}
        decision = rt.gamma(z.info.sup)
        for syms in moves:
            if syms[0] not in decision:
                continue
            for sym in syms:
                info = succ.es_successor(z.info, sym)
                if info is not None:
                    expected[sym] = info
        if set(stored) != set(expected):
            missing = sorted(set(expected) - set(stored))
            extra = sorted(set(stored) - set(expected))
            bad.append(
                f"moves at {z.token()}: missing {missing}, unexpected {extra}"
            )
            continue
        for sym, tgt in stored.items():
            if tgt.side != S_SIDE or tgt.info != expected[sym] or tgt not in s_set:
                bad.append(f"wrong target for {sym!r} at {z.token()}")
    return bad


def construct_baida(sc: Scenario, aida: IDA | None = None) -> IDA:
    """Counter-augmented game: the full game walked with the bound counter.

    (node, counter) pairs are discovered breadth-first; an S-state takes its
    control hop and an E-state its moves in `es_adj` order.
    """
    if sc.n_a is None or sc.n_a < 1:
        raise ModelError("counter-augmented game needs a positive n_a")
    if aida is None:
        aida = construct_aida(sc)
    ea, n_a = sc.ea, sc.n_a
    s_states: list[Node] = []
    e_states: list[Node] = []
    h_se: dict[Node, tuple[frozenset[str], Node]] = {}
    h_es: dict[tuple[Node, str], Node] = {}
    seen: set[Node] = set()
    queue: deque[tuple[Node, Node]] = deque()

    def visit(node: Node, n: int) -> Node:
        x = Node(node.side, node.info, counter=n)
        if x not in seen:
            seen.add(x)
            (s_states if x.side == S_SIDE else e_states).append(x)
            queue.append((x, node))
        return x

    x0 = visit(aida.initial, sc.initial_counter)
    while queue:
        x, node = queue.popleft()
        if x.side == S_SIDE:
            hop = aida.h_se.get(node)
            if hop is not None:
                h_se[x] = (hop[0], visit(hop[1], x.counter))
            continue
        for sym, dst in aida.es_adj.get(node, ()):
            n = counter_step(ea, n_a, x.counter, sym)
            if n is not None:
                h_es[(x, sym)] = visit(dst, n)
    return IDA(
        name=f"baida({sc.name})",
        ctx=sc.ctx,
        s_states=s_states,
        e_states=e_states,
        h_se=h_se,
        h_es=h_es,
        initial=x0,
    )


def walk_baida(sc: Scenario, aida: game.IDA | None = None) -> game.IDA:
    """Counter-augmented game: the full game walked with the bound counter.

    (state, counter) pairs are numbered breadth-first; an S-state takes its
    control hop and an E-state its moves, in row order.
    """
    if sc.n_a is None or sc.n_a < 1:
        raise ModelError("counter-augmented game needs a positive n_a")
    if aida is None:
        aida = build.construct_aida(sc)
    ea, n_a, labels = sc.ea, sc.n_a, aida.syms.labels
    keys = [(aida.root, sc.initial_counter)]  # (state of the full game, counter) of each state
    ids = {keys[0]: 0}
    off, lab, dst = [0], [], []
    i = 0
    while i < len(keys):
        a, n = keys[i]
        for k in range(aida.off[a], aida.off[a + 1]):
            sym = aida.lab[k]
            m = counter_step(ea, n_a, n, labels[sym]) if aida.side[a] == E_SIDE else n
            if m is None:
                continue
            j = ids.get((aida.dst[k], m))
            if j is None:
                j = ids[(aida.dst[k], m)] = len(keys)
                keys.append((aida.dst[k], m))
            lab.append(sym)
            dst.append(j)
        off.append(len(lab))
        i += 1
    base, counter = map(list, zip(*keys))
    pick = lambda xs: [xs[a] for a in base]  # noqa: E731
    return game.IDA(f"baida({sc.name})", sc.ctx, aida.syms, aida.ests, pick(aida.side),
                    pick(aida.est), pick(aida.sup), counter, off, lab, dst, 0, None)


class TupleSuccessors:
    """The successor rules of the game over estimate ids, memoized for one call.

    Estimates are interned into `ests` (a copy of the given table, so ids
    agree with its arena): equal estimates are one object and one id.
    Closures are cached per (estimate, decision), observation steps per
    (estimate, event).  A kernel lives as long as the construction or check
    that created it, so every call costs what a one-shot run costs.
    """

    __slots__ = ("plant", "rt", "ea", "syms", "ests", "_ids", "_closed", "_moved", "_rows")

    def __init__(self, ctx: GameContext, ests: list[frozenset[State]] = ()) -> None:
        self.plant, self.rt, self.ea, self.syms = ctx.plant, ctx.rt, ctx.ea, Symbols(ctx)
        self.ests = list(ests)
        self._ids = {x: i for i, x in enumerate(self.ests)}
        self._closed: dict[tuple[int, int], int] = {}
        self._moved: dict[tuple[int, str], int] = {}
        self._rows: dict[State, tuple] = {}

    def intern(self, est: frozenset[State]) -> int:
        i = self._ids.get(est)
        if i is None:
            i = self._ids[est] = len(self.ests)
            self.ests.append(est)
        return i

    def initial(self) -> tuple[str, int, State]:
        """Initial S-state (side, estimate, supervisor state): the plant's
        initial state, unclosed."""
        return S_SIDE, self.intern(frozenset({self.plant.initial})), self.rt.initial

    def _row(self, q: State) -> tuple:
        """(hop id, decision, moves) at `q`; a move is (event, genuine, deletion
        and insertion ids, next supervisor state), edit ids -1 if not compromised."""
        row = self._rows.get(q)
        if row is None:
            gamma, ids, moves = self.rt.gamma(q), self.syms.ids, []
            for d in self.plant.events:
                ev = d.name
                if d.observable and ev in gamma:
                    edit = ev in self.ea.sigma_a
                    del_id = ids[deleted(ev)] if edit else -1
                    ins_id = ids[inserted(ev)] if edit else -1
                    moves.append((ev, ids[ev], del_id, ins_id, self.rt.mu(q, ev)))
            row = self._rows[q] = (self.syms.hop(gamma), gamma, moves)
        return row

    def moved(self, est: int, ev: str) -> int:
        """`next_states` of the estimate on an observation, -1 if infeasible."""
        key = (est, ev)
        out = self._moved.get(key)
        if out is None:
            nxt = next_states(self.plant, self.ests[est], ev)
            out = self._moved[key] = self.intern(nxt) if nxt else -1
        return out

    def hop(self, est: int, q: State) -> tuple[int, tuple[str, int, State]]:
        """Supervisor move: the decision's hop id and the E-state (side,
        estimate closed under the decision, supervisor state)."""
        hop, gamma, _ = self._row(q)
        key = (est, hop)
        out = self._closed.get(key)
        if out is None:
            closed = unobservable_reach(self.plant, self.ests[est], gamma)
            out = self._closed[key] = self.intern(closed)
        return hop, (E_SIDE, out, q)

    def moves(self, est: int, q: State) -> tuple[list[int], list[tuple[str, int, State]]]:
        """Environment moves: symbol ids and S-states (side, estimate, supervisor state).

        Per enabled observable event in declaration order: the genuine
        observation (plant and supervisor move), its deletion (the plant
        moves) and its insertion (the supervisor moves), each where legal.
        Targets stay unclosed: the next control hop closes them.
        """
        syms: list[int] = []
        keys: list[tuple[str, int, State]] = []
        for ev, genuine, del_id, ins_id, nxt in self._row(q)[2]:
            moved = self.moved(est, ev)
            if moved >= 0:
                if nxt is not None:
                    syms.append(genuine)
                    keys.append((S_SIDE, moved, nxt))
                if del_id >= 0:
                    syms.append(del_id)
                    keys.append((S_SIDE, moved, q))
            if ins_id >= 0 and nxt is not None:
                syms.append(ins_id)
                keys.append((S_SIDE, est, nxt))
        return syms, keys

    def race_events(self, est: int, q: State) -> list[str]:
        """Observations the supervisor enables and the plant can execute."""
        return [move[0] for move in self._row(q)[2] if self.moved(est, move[0]) >= 0]


def tuple_construct_aida(sc: Scenario) -> game.IDA:
    """Breadth-first construction of the full insertion-deletion game.

    States are numbered as they are discovered and expanded in that order,
    so each one's out-edges are appended as its row of the arrays.
    Detected S-states and goal E-states stay unexpanded.
    """
    succ = TupleSuccessors(sc.ctx)
    keys = [succ.initial()]  # (side, estimate, supervisor state) of each state
    ids = {keys[0]: 0}
    off, lab, dst = [0], [], []
    ests, x_crit = succ.ests, sc.x_crit
    i = 0
    while i < len(keys):
        side, e, q = keys[i]
        if side == S_SIDE:
            edges = [succ.hop(e, q)] if q != DEAD else ()
        else:
            edges = zip(*succ.moves(e, q)) if not ests[e] <= x_crit else ()
        for sym, key in edges:
            j = ids.get(key)
            if j is None:
                j = ids[key] = len(keys)
                keys.append(key)
            lab.append(sym)
            dst.append(j)
        off.append(len(lab))
        i += 1
    side, est, sup = map(list, zip(*keys))
    return game.IDA(f"aida({sc.name})", sc.ctx, succ.syms, ests, side, est, sup,
               [None] * len(side), off, lab, dst, 0, None)
