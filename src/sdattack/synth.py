"""Extraction of executable attack functions from pruned games.

An attack function is encoded as an automaton F over observations and
edit symbols: its state tracks the edited history, transitions on genuine
symbols mean "let it through", on deletions "erase it", on insertions
"fabricate it".  Interruptible attackers may stop a reaction at any state;
deterministic ones follow a committed insertion map until it says stop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .alphabet import EditAlphabet, base_event, deleted, inserted, is_deleted, is_inserted
from .automata import Automaton, EventDecl, ModelError, State, state_token, step
from .build import DETERMINISTIC, Scenario, construct_aida, counter_step
from .game import E_SIDE, IDA, INSERTION, Node
from .prune import PruneResult, prune


class SynthesisError(RuntimeError):
    """Extraction failed structurally (reported, never silently patched)."""


@dataclass
class AttackFunction:
    """Executable edit strategy.

    `f` runs over the edited history; `auto_insert` (deterministic modes)
    maps each state to the insertion it commits to next, or None to end
    the reaction there.  `initial_epsilon` says whether doing nothing is
    an allowed initial burst.
    """

    f: Automaton
    mode: str
    ea: EditAlphabet
    n_a: int | None = None
    auto_insert: dict[State, str | None] = field(default_factory=dict)
    initial_epsilon: bool = True

    def __post_init__(self) -> None:
        check_shape(self)

    @property
    def deterministic(self) -> bool:
        return self.mode in DETERMINISTIC

    def state_after(self, s: tuple[str, ...]) -> State | None:
        return step(self.f, self.f.initial, s)

    def chain_from(self, r: State) -> tuple[str, ...]:
        """Committed insertion chain of a deterministic attacker, from r.

        `check_shape` guarantees that every chain is a path of the encoder
        and ends.
        """
        out: list[str] = []
        sym = self.auto_insert.get(r)
        while sym is not None:
            out.append(sym)
            r = self.f.trans[(r, sym)]
            sym = self.auto_insert.get(r)
        return tuple(out)


def check_shape(fa: AttackFunction) -> None:
    """Structural constraints every attack encoder must satisfy."""
    symbols = fa.ea.edit_symbols
    for d in fa.f.events:
        if d.name not in symbols:
            raise ModelError(f"attack encoder event {d.name!r} outside edit alphabet")
    if fa.deterministic:
        heads = [fa.ea.reaction_heads(e) for e in fa.ea.sigma_a]  # (e, e.del) each
        for r in fa.f.states:
            for e, e_del in heads:
                if (r, e) in fa.f.trans and (r, e_del) in fa.f.trans:
                    raise ModelError(
                        f"deterministic encoder offers both {e!r} and its deletion"
                    )
            sym = fa.auto_insert.get(r)
            if sym is not None:
                if not is_inserted(sym):
                    raise ModelError(f"committed symbol {sym!r} is not an insertion")
                if (r, sym) not in fa.f.trans:
                    raise ModelError(f"committed insertion {sym!r} missing at state")
        lengths = _chain_lengths(fa)
        if None in lengths.values():
            raise ModelError("committed insertion chain never terminates")
        if fa.mode == "bounded":
            if fa.n_a is None or fa.n_a < 1:
                raise ModelError("bounded attack function needs a positive n_a")
            _check_reaction_bound(fa, lengths)


def _chain_lengths(fa: AttackFunction) -> dict[State, int | None]:
    """Length of the committed insertion chain from every state, in one pass.

    None marks a chain that runs into a cycle and so never terminates.
    Every committed insertion must already be a transition of the encoder.
    """
    lengths: dict[State, int | None] = {}
    for r in fa.f.states:
        path: list[State] = []
        on_path: set[State] = set()
        cur = r
        while cur not in lengths and cur not in on_path:
            sym = fa.auto_insert.get(cur)
            if sym is None:
                lengths[cur] = 0
                break
            path.append(cur)
            on_path.add(cur)
            cur = fa.f.trans[(cur, sym)]
        n = None if cur in on_path else lengths[cur]
        for x in reversed(path):
            n = None if n is None else n + 1
            lengths[x] = n
    return lengths


def _check_reaction_bound(fa: AttackFunction, lengths: dict[State, int]) -> None:
    """Every committed reaction must fit the declared bound.

    A reaction starts at the `counter_step` count of its genuine or deleted
    symbol, and each committed insertion adds one.  Whether the initial
    burst is bounded is the scenario's setting (`check_initial_burst`).
    """
    assert fa.n_a is not None
    for r in fa.f.states:
        for sym, dst in fa.f.out_edges(r):
            if is_inserted(sym):
                continue
            n = counter_step(fa.ea, fa.n_a, 0, sym) + lengths[dst]
            if n > fa.n_a:
                raise ModelError(f"reaction to {sym!r} has length {n} > {fa.n_a}")


def check_initial_burst(fa: AttackFunction, sc: Scenario) -> None:
    """Refuse a bounded strategy whose initial burst the scenario's bound forbids.

    The encoder alone cannot tell whether its initial burst is bounded, so
    this is checked where a strategy meets its scenario.
    """
    if fa.mode != "bounded":
        return
    n = sc.initial_counter
    for sym in fa.chain_from(fa.f.initial):
        n = counter_step(fa.ea, fa.n_a, n, sym)
        if n is None:
            raise ModelError(f"initial burst longer than the bound {fa.n_a}")


def feasibility(pruned: IDA, x_crit: frozenset[State], strength: str) -> int | None:
    """First surviving E-state meeting the goal, in discovery order (its id)."""
    for i, (side, est) in enumerate(zip(pruned.side, pruned.est)):
        if side == E_SIDE:
            plant = pruned.ests[est]
            if (plant and plant <= x_crit) if strength == "strong" else plant & x_crit:
                return i
    return None


def shortest_path(pruned: IDA, target: int) -> list[tuple[int, str, int]]:
    """Fewest-edge path from the initial S-state to the target state id, as
    (state id, label, state id) steps.

    Neighbor order is row order (event declaration order with genuine
    moves before deletions before insertions), so ties resolve
    deterministically.
    """
    if not 0 <= target < len(pruned.side) or pruned.root < 0:
        raise SynthesisError(f"target {target} not in the pruned game")
    off, lab, dst = pruned.off, pruned.lab, pruned.dst
    parent: dict[int, tuple[int, int] | None] = {pruned.root: None}  # -> (state, edge)
    queue: deque[int] = deque([pruned.root])
    while queue and target not in parent:
        cur = queue.popleft()
        for e in range(off[cur], off[cur + 1]):
            if dst[e] not in parent:
                parent[dst[e]] = (cur, e)
                queue.append(dst[e])
    if target not in parent:
        raise SynthesisError(f"target {pruned.node(target).token()} unreachable in the pruned game")
    edges: list[tuple[int, str, int]] = []
    while parent[target] is not None:
        cur, e = parent[target]
        edges.append((cur, pruned.syms.labels[lab[e]], target))
        target = cur
    return edges[::-1]


def _contract(pruned: IDA, y: int) -> int:
    z = pruned.contract(y)
    if z < 0:
        raise SynthesisError(f"surviving state {pruned.node(y).token()} lost its control hop")
    return z


def _insertion_exit_map(
    pruned: IDA, flags: frozenset[int], base_order: dict[str, int]
) -> dict[int, tuple[str, int] | None]:
    """Shortest committed insertion move out of the flagged region.

    Multi-source reverse search from unflagged E-states over insertion
    moves; None marks flagged states with no escape.
    """
    labels, kinds = pruned.syms.labels, pruned.syms.kinds
    succ: dict[int, list[tuple[str, int]]] = {}
    rev: dict[int, list[int]] = {}
    e_states = [z for z, side in enumerate(pruned.side) if side == E_SIDE]
    for z in e_states:
        for e in range(pruned.off[z], pruned.off[z + 1]):
            if kinds[pruned.lab[e]] != INSERTION:
                continue
            tgt = _contract(pruned, pruned.dst[e])
            succ.setdefault(z, []).append((labels[pruned.lab[e]], tgt))
            rev.setdefault(tgt, []).append(z)
    dist: dict[int, int] = {z: 0 for z in e_states if z not in flags}
    queue = deque(dist)
    while queue:
        cur = queue.popleft()
        for prev in rev.get(cur, ()):
            if prev not in dist:
                dist[prev] = dist[cur] + 1
                queue.append(prev)
    out: dict[int, tuple[str, int] | None] = {}
    for z in e_states:
        if z not in flags:
            continue
        best: tuple[tuple[int, int, str], str, int] | None = None
        for sym, tgt in succ.get(z, ()):
            if tgt not in dist:
                continue
            key = (1 + dist[tgt], base_order[base_event(sym)], sym)
            if best is None or key < best[0]:
                best = (key, sym, tgt)
        out[z] = None if best is None else (best[1], best[2])
    return out


def expand_path(
    pruned: IDA,
    flags: frozenset[int],
    sc: Scenario,
    path: list[tuple[int, str, int]],
    prefer_deletion: bool = False,
) -> AttackFunction:
    """Complete a winning path into a total attack strategy.

    The path pins down the moves that reach the goal; breadth-first
    completion then decides every other reachable situation: genuine
    observations pass through unless the path chose otherwise, deletions
    cover observations whose genuine move did not survive pruning, and
    (deterministic modes) flagged states commit to inserting their way
    out before the plant can move again.  The encoder's states are the
    E-states it visits, as `Node`s.
    """
    if pruned.root < 0:
        raise SynthesisError("empty pruned game")
    z0 = _contract(pruned, pruned.root)
    base_order = {d.name: i for i, d in enumerate(sc.plant.events)}
    labels, off = pruned.syms.labels, pruned.off

    trans: dict[tuple[int, str], int] = {}
    auto: dict[int, str | None] = {}
    committed: dict[int, tuple[str, int]] = {}
    for src, sym, dst in path:
        if pruned.side[src] != E_SIDE:
            continue
        tgt = _contract(pruned, dst)
        trans[(src, sym)] = tgt
        if is_inserted(sym):
            committed.setdefault(src, (sym, tgt))

    det = sc.mode in DETERMINISTIC
    exits = _insertion_exit_map(pruned, flags, base_order) if det else {}

    states: list[int] = []
    queue: deque[int] = deque([z0])
    enqueued = {z0}
    while queue:
        q = queue.popleft()
        states.append(q)

        def visit(node: int) -> None:
            if node not in enqueued:
                enqueued.add(node)
                queue.append(node)

        if det:
            if q in committed:
                auto[q] = committed[q][0]
            elif q in flags:
                exit_move = exits.get(q)
                if exit_move is None:
                    raise SynthesisError(
                        f"flagged state {pruned.node(q).token()} has no insertion escape"
                    )
                sym, tgt = exit_move
                trans[(q, sym)] = tgt
                auto[q] = sym
        moves = {labels[pruned.lab[e]]: pruned.dst[e] for e in range(off[q], off[q + 1])}
        for sym, y in moves.items():
            if (q, sym) in trans:
                visit(trans[(q, sym)])
                continue
            if is_inserted(sym):
                continue
            base = base_event(sym)
            if is_deleted(sym):
                wanted = prefer_deletion or base not in moves
                if not wanted or (q, base) in trans:
                    continue
            else:
                if (q, deleted(base)) in trans:
                    continue
                if prefer_deletion and deleted(base) in moves:
                    continue
            trans[(q, sym)] = _contract(pruned, y)
            visit(trans[(q, sym)])

    node = {q: pruned.node(q) for q in states}
    trans = {(node[q], sym): node[t] for (q, sym), t in trans.items() if q in node and t in node}
    auto = {node[q]: sym for q, sym in auto.items()}
    return make_attack(sc, f"attack({sc.name})", tuple(node.values()), trans, node[z0], auto)


def make_attack(
    sc: Scenario,
    name: str,
    states: tuple[State, ...],
    trans: dict[tuple[State, str], State],
    initial: State,
    auto_insert: dict[State, str | None] | None = None,
    initial_epsilon: bool = True,
) -> AttackFunction:
    """A strategy of the scenario's attacker class, from its encoder.

    The encoder's events are the plant's observables, each compromised one
    followed by its deletion and its insertion.  A deterministic attacker
    commits to `auto_insert` (a state it omits ends the reaction) and may
    skip the initial burst exactly when it commits to nothing at the
    initial state; an interruptible one takes `initial_epsilon`.
    """
    decls: list[EventDecl] = []
    for d in sc.plant.events:
        if d.observable:
            decls.append(d)
            edits = (deleted(d.name), inserted(d.name))
            decls += [EventDecl(sym, True, True) for sym in edits if sym in sc.ea.editable]
    f = Automaton(name, states, tuple(decls), trans, initial)
    if sc.mode not in DETERMINISTIC:
        return AttackFunction(f, sc.mode, sc.ea, initial_epsilon=initial_epsilon)
    auto = {r: (auto_insert or {}).get(r) for r in f.states}
    return AttackFunction(
        f, sc.mode, sc.ea, n_a=sc.n_a, auto_insert=auto, initial_epsilon=auto[initial] is None
    )


def reactions(
    fa: AttackFunction, r: State, e: str, max_len: int | None = None
) -> frozenset[tuple[str, ...]]:
    """Reaction strings offered at encoder state r for observation e: a
    head (`reaction_heads`) the encoder plays from r, then a tail."""
    out: set[tuple[str, ...]] = set()
    for sym in fa.ea.reaction_heads(e):
        landing = fa.f.succ(r, sym)
        if landing is not None:
            out.update((sym,) + tail for tail in _tails(fa, landing, max_len))
    return frozenset(out)


def initial_reactions(
    fa: AttackFunction, max_len: int | None = None
) -> frozenset[tuple[str, ...]]:
    """The initial burst set: the reaction with the empty head, before anything happens.

    The empty burst counts where `initial_epsilon` allows it; a
    deterministic attacker plays its committed chain either way.
    """
    tails = _tails(fa, fa.f.initial, max_len)
    return frozenset(t for t in tails if t or fa.initial_epsilon or fa.deterministic)


def _tails(fa: AttackFunction, r: State, max_len: int | None) -> set[tuple[str, ...]]:
    """The insertions a reaction may end with once it reaches r: the committed
    chain, or every prefix of every insertion continuation (simple paths
    unless max_len forces longer enumeration)."""
    if fa.deterministic:
        return {fa.chain_from(r)}
    return _insertion_prefixes(fa, r, max_len)


def _insertion_prefixes(
    fa: AttackFunction, r: State, max_len: int | None
) -> set[tuple[str, ...]]:
    """All insertion strings playable from r, every prefix included.

    Without a length cap, chains follow simple paths only, which is exact
    for acyclic encoders and a finite generating set otherwise.
    """
    out: set[tuple[str, ...]] = {()}
    stack: list[tuple[State, tuple[str, ...], frozenset[State]]] = [
        (r, (), frozenset({r}))
    ]
    while stack:
        cur, prefix, seen = stack.pop()
        if max_len is not None and len(prefix) >= max_len:
            continue
        for sym, dst in fa.f.out_edges(cur):
            if not is_inserted(sym):
                continue
            if max_len is None and dst in seen:
                continue
            nxt = prefix + (sym,)
            out.add(nxt)
            stack.append((dst, nxt, seen | {dst}))
    return out


@dataclass
class SynthesisResult:
    scenario: Scenario
    pruned: PruneResult
    target: Node | None
    path: list[tuple[Node, str, Node]]
    attack: AttackFunction | None

    @property
    def feasible(self) -> bool:
        return self.attack is not None


def synthesize(sc: Scenario, prefer_deletion: bool = False) -> SynthesisResult:
    """Full pipeline: build the game, prune for the mode, extract a strategy."""
    aida = construct_aida(sc)
    pruned = prune(aida, sc)
    ida = pruned.ida
    target = feasibility(ida, sc.x_crit, sc.strength)
    if target is None:
        return SynthesisResult(sc, pruned, None, [], None)
    path = shortest_path(ida, target)
    fa = expand_path(ida, pruned.flags, sc, path, prefer_deletion)
    steps = [(ida.node(a), sym, ida.node(b)) for a, sym, b in path]
    return SynthesisResult(sc, pruned, ida.node(target), steps, fa)


def relay_attack_function(sc: Scenario) -> AttackFunction:
    """The do-nothing attacker: every observation is forwarded unchanged."""
    q0 = "relay"
    trans = {(q0, d.name): q0 for d in sc.plant.events if d.observable}
    return make_attack(sc, "relay", (q0,), trans, q0)


def decision_table(fa: AttackFunction, max_len: int | None = 8) -> str:
    """Human-readable dump of the strategy, one line per state and event."""
    lines = [f"mode: {fa.mode}"]
    if fa.n_a is not None:
        lines.append(f"reaction bound: {fa.n_a}")
    burst = sorted(initial_reactions(fa, max_len))
    lines.append("initial burst: " + _fmt_strings(burst))
    for r in fa.f.states:
        tok = r.token() if isinstance(r, Node) else state_token(r)
        for e in sorted(fa.ea.sigma_o):
            rs = reactions(fa, r, e, max_len)
            if not rs:
                continue
            lines.append(f"{tok} / {e}: " + _fmt_strings(sorted(rs)))
        if fa.deterministic and fa.auto_insert.get(r):
            lines.append(f"{tok} continues with {fa.auto_insert[r]}")
    return "\n".join(lines) + "\n"


def _fmt_strings(strings) -> str:
    parts = []
    for s in strings:
        parts.append("eps" if not s else " ".join(s))
    return "{" + ", ".join(parts) + "}"
