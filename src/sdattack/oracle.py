"""Independent verification of attack strategies against the closed loop.

A macro-state exploration (`Explorer`, behind `check_problem1` and
`check_embedding`) tracks, per observation history, every pair of plant
state and reaction position at once, which scales to the horizons the
acceptance harness uses.  It bounds observation histories, not plant
strings, so it enumerates the same set as the literal recursive
semantics (a test-only reference) only where every plant event is
observable.  The supervisor completion is the judge: an edited
observation keeps the attack stealthy exactly while the completion stays
out of its dead sink and keeps being defined.  Hit conditions are
evaluated up to a bounded number of observations; verdicts say so
explicitly.

The exhaustive enumerator (`enumerate_attackers`) lists every small
attack strategy as a reaction table and explores the closed loop of each
table with the same macro steps.  A macro transition reads only the
table entries of the reactions it plays, so it is memoized under the
values of those entries.  The memo is scoped to the depth-first search
path: what a table adds to it is dropped once the search backtracks past
that table.
"""

from __future__ import annotations

import itertools
from collections import defaultdict, deque
from dataclasses import dataclass, field

from .alphabet import EditAlphabet, base_event, is_deleted, is_inserted
from .automata import Automaton, ModelError, State, next_states, state_token, unobservable_reach
from .build import DETERMINISTIC, FREE_COUNTER, counter_step
from .game import IDA, Node
from .supervisor import DEAD, RTilde
from .synth import AttackFunction, initial_reactions, make_attack, reactions

Word = tuple[str, ...]


class OracleBudgetError(RuntimeError):
    """The requested exhaustive check exceeds the configured bounds."""


@dataclass(frozen=True)
class ClosedLoopConfig:
    plant: Automaton
    rt: RTilde
    attack: AttackFunction
    horizon: int
    x_crit: frozenset[State] = frozenset()

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ModelError("verification horizon must be at least 1")


@dataclass
class Verdict:
    admissible: bool
    stealthy: bool
    weak_hit: bool
    strong_hit: bool
    weak_witness: Word | None
    strong_witness: Word | None
    counterexamples: list[tuple[Word, str]]  # each (history, reason) once, as found
    horizon: int
    notes: list[str] = field(default_factory=list)

    def ok(self, strength: str) -> bool:
        hit = self.strong_hit if strength == "strong" else self.weak_hit
        return self.admissible and self.stealthy and hit


def supervisor_decision(
    rt: RTilde, ea: EditAlphabet, edited: Word
) -> frozenset[str]:
    """Control decision after an edited string; empty once outside the model."""
    q = rt.run(rt.initial, ea.supervisor_view(edited))
    return frozenset() if q is None else rt.gamma(q)


def reach_estimate(
    plant: Automaton,
    rt: RTilde,
    ea: EditAlphabet,
    edited: Word,
    fa: AttackFunction | None = None,
) -> frozenset[State]:
    """Attacker's plant-state estimate after an edited string.

    Insertions leave the physical state untouched; genuine and deleted
    events move it; between symbols the estimate closes under the
    unobservable part of the current control decision, the
    `supervisor_decision` of the prefix, stepped one symbol at a time.
    """
    if fa is not None and fa.state_after(edited) is None:
        raise ValueError("edited string is not a history of the attack encoder")
    ea.check_string(edited)
    q: State | None = rt.initial
    est = unobservable_reach(plant, {plant.initial}, rt.gamma(q))
    for sym in edited:
        if not is_inserted(sym):
            est = next_states(plant, est, base_event(sym))
        if q is not None and not is_deleted(sym):
            q = rt.mu(q, base_event(sym))
        est = unobservable_reach(plant, est, frozenset() if q is None else rt.gamma(q))
    return est


# ---------------------------------------------------------------------------
# macro-state exploration

_PRE, _MID, _ROOT = "pre", "mid", "root"


class _Pos:
    """A reaction position: the phase, the attack state `r` and the
    supervisor state `q`, None once the supervisor view left the model.
    A position is never changed once made.  It keeps its hash, and its
    sort key from the first time it is asked for."""

    __slots__ = ("phase", "r", "q", "_hash", "_key")

    def __init__(self, phase: str, r: State, q: State | None) -> None:
        self.phase, self.r, self.q = phase, r, q
        self._hash = hash((phase, r, q))
        self._key: tuple[str, str, str] | None = None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, _Pos)
            and self.phase == other.phase
            and self.r == other.r
            and self.q == other.q
        )

    def __hash__(self) -> int:
        return self._hash

    def key(self) -> tuple[str, str, str]:
        if self._key is None:
            self._key = _pos_key(self.phase, self.r, self.q)
        return self._key


def _pos_key(phase: str, r: State, q: State | None) -> tuple[str, str, str]:
    """Sort key of the position (phase, r, q), made or not."""
    rtok = r.token() if isinstance(r, Node) else state_token(r)
    return (phase, rtok, "?" if q is None else state_token(q))


class _MacroSteps:
    """The steps between macro-states, over abstract reaction positions.

    A macro state holds nodes, pairs (plant state, reaction position), and
    reaction endpoints, pairs (attack state, supervisor state).  A position
    is an attack state plus the supervisor completion state reached by the
    edits so far.  Subclasses give the position rules: `_walk` (the
    positions the attacker's moves reach from some starts under a pending
    observation, except those in `seen` and past them, added to `seen`;
    or, ignoring `seen`, whole closures), `_end` (a reaction may stop
    here) and `_sterile` (nothing may happen here, because the recursion
    requires an existing reaction choice).

    Each step below walks from all its starts at once and, where `_walk`
    keeps `seen`, never past a position it has already walked, so it costs
    time linear in the positions it touches (times the plant states they
    pair with).
    """

    def __init__(self, plant: Automaton, rt: RTilde) -> None:
        self.plant = plant
        self.rt = rt

    def _mu(self, q: State | None, e: str) -> State | None:
        if q is None:
            return None
        return self.rt.mu(q, e)

    def _gamma(self, q: State | None) -> frozenset[str]:
        if q is None:
            return frozenset()
        return self.rt.gamma(q)

    def _stops(self, starts, pending: str | None, msg: str):
        """Endpoints reachable from `starts` past the PRE phase, and `msg`
        once if such a position leaves the supervised language."""
        ends: set = set()
        out = False
        for p in self._walk(starts, pending, set()):
            if p.phase == _PRE:
                continue
            out = out or p.q is None or p.q == DEAD
            if self._end(p):
                ends.add((p.r, p.q))
        return frozenset(ends), (msg,) if out else ()

    def _initial_ends(self, root: _Pos):
        return self._stops((root,), None, "initial burst leaves the supervised language")

    def _reaction(self, ends: frozenset, e: str):
        """Endpoints after reacting to `e` from `ends`, and the violations."""
        return self._stops(
            [_Pos(_PRE, r, q) for r, q in ends],
            e,
            f"reaction to {e!r} drives the supervisor view out of the supervised language",
        )

    def _fire(self, nodes, pending: str | None, e: str) -> dict:
        """Plant target -> first node whose reaction lets `e` fire."""
        fired: dict = {}
        dead: set = set()  # positions that reach no endpoint enabling `e`
        for node in nodes:
            x, pos = node
            dst = self.plant.succ(x, e)
            if dst is None or dst in fired:
                continue
            reach = self._walk((pos,), pending, dead)
            for p in reach:
                if self._end(p) and e in self._gamma(p.q):
                    fired[dst] = node
                    dead.difference_update(reach)  # some of them reach it
                    break
        return fired

    def _close_nodes(self, seeds: dict, pending: str | None):
        """Micro closure: fire enabled unobservable plant events at every
        advance-reachable, non-sterile position.  Returns nodes and local
        parent links for witness reconstruction.  Each (plant state,
        position) pair is handled once, a node's new positions in key order."""
        nodes = dict(seeds)
        queue = deque(seeds)
        done: defaultdict = defaultdict(set)  # plant state -> positions handled for it
        while queue:
            node = queue.popleft()
            x, pos = node
            for p2 in self._walk((pos,), pending, done[x], True):
                if self._sterile(p2, pending):
                    continue
                gamma = self._gamma(p2.q)
                for u in sorted(gamma & self.plant.unobs_events):
                    dst = self.plant.succ(x, u)
                    if dst is None:
                        continue
                    nxt = (dst, p2)
                    if nxt not in nodes:
                        nodes[nxt] = ("micro", node, u)
                        queue.append(nxt)
        return nodes


class Explorer(_MacroSteps):
    """Breadth-first exploration over observation histories.

    A macro state is its key, the triple (sorted nodes, sorted reaction
    endpoints, pending observation); `macros` maps each key to the
    observation history it was first reached by, whose length is its
    depth.  A node is a pair (plant state, reaction position), and a
    position is the attack encoder state plus the supervisor completion
    state reached by the edits so far.
    """

    def __init__(self, cfg: ClosedLoopConfig) -> None:
        super().__init__(cfg.plant, cfg.rt)
        self.cfg = cfg
        self.fa = cfg.attack
        self._adv: dict = {}  # position, or (PRE position, pending) -> its moves
        self._react_memo: dict = {}
        self.macros: dict[tuple, Word] = {}
        self.trans: dict = {}
        self.initial_key = None
        self.adm_violations: list[tuple[Word, str]] = []
        self.stealth_violations: list[tuple[Word, str]] = []
        self.weak_witness: Word | None = None
        self.strong_witness: Word | None = None
        self._parents: dict = {}  # macro key -> its nodes' parent links
        self._ran = False

    # -- position rules of the attack encoder

    def _end(self, pos: _Pos) -> bool:
        if pos.phase == _PRE:
            return False
        if self.fa.deterministic:
            return self.fa.auto_insert.get(pos.r) is None
        if pos.phase == _ROOT:
            return self.fa.initial_epsilon
        return True

    def _advance_step(self, pos: _Pos, pending: str | None) -> list[_Pos]:
        out: list[_Pos] = []
        f = self.fa.f
        if pos.phase == _PRE:
            # the genuine head moves the supervisor view, the deletion does not
            qs = (self._mu(pos.q, pending), pos.q)
            for sym, q in zip(self.fa.ea.reaction_heads(pending), qs):
                dst = f.succ(pos.r, sym)
                if dst is not None:
                    out.append(_Pos(_MID, dst, q))
            return out
        if self.fa.deterministic:
            sym = self.fa.auto_insert.get(pos.r)
            if sym is not None:
                dst = f.succ(pos.r, sym)
                if dst is not None:
                    out.append(_Pos(_MID, dst, self._mu(pos.q, base_event(sym))))
            return out
        for sym, dst in f.out_edges(pos.r):
            if is_inserted(sym):
                out.append(_Pos(_MID, dst, self._mu(pos.q, base_event(sym))))
        return out

    def _next(self, pos: _Pos, pending: str | None) -> tuple[_Pos, ...]:
        # only a PRE position's moves depend on the pending observation
        key = (pos, pending) if pos.phase == _PRE else pos
        out = self._adv.get(key)
        if out is None:
            out = self._adv[key] = tuple(self._advance_step(pos, pending))
        return out

    def _walk(self, starts, pending: str | None, seen: set, ordered: bool = False) -> list[_Pos]:
        """Positions reachable from `starts` and not through `seen`, over the
        memoized moves; adds them to `seen`.  `ordered` sorts them by key,
        the order the witnesses' parent links are made in."""
        found = []
        for p in starts:
            if p not in seen:
                seen.add(p)
                found.append(p)
        for cur in found:  # grows while it is read
            for nxt in self._next(cur, pending):
                if nxt not in seen:
                    seen.add(nxt)
                    found.append(nxt)
        return sorted(found, key=_Pos.key) if ordered else found

    def _sterile(self, pos: _Pos, pending: str | None) -> bool:
        return not self._end(pos) and not self._next(pos, pending)

    def _react(self, ends: frozenset, e: str):
        key = (ends, e)
        out = self._react_memo.get(key)
        if out is None:
            out = self._react_memo[key] = self._reaction(ends, e)
        return out

    # -- macro exploration

    def _node_key(self, node) -> tuple:
        x, pos = node
        return (state_token(x), pos.key())

    def _macro_key(self, nodes, ends, pending):
        return (
            tuple(sorted(nodes, key=self._node_key)),
            tuple(sorted(ends, key=lambda p: _pos_key(_MID, p[0], p[1]))),
            pending,
        )

    def run(self) -> None:
        if self._ran:
            return
        self._ran = True
        root = _Pos(_ROOT, self.fa.f.initial, self.rt.initial)
        ends0, init_viols = self._initial_ends(root)
        for msg in init_viols:
            self.stealth_violations.append(((), msg))
        if not ends0:
            self.adm_violations.append(((), "no initial reaction choice"))
        nodes = self._close_nodes({(self.plant.initial, root): ("init",)}, None)
        key = self._macro_key(nodes, ends0, None)
        self.initial_key = key
        self.macros[key] = ()
        self._parents[key] = nodes
        self._scan_hits(key)
        queue = deque([key])
        while queue:
            cur = queue.popleft()
            obs_here = self.macros[cur]
            if len(obs_here) >= self.cfg.horizon:
                continue
            cur_nodes, cur_ends, pending = cur
            for d in self.plant.events:
                e = d.name
                if not d.observable:
                    continue
                fired = self._fire(cur_nodes, pending, e)
                if not fired:
                    continue
                new_ends, viols = self._react(frozenset(cur_ends), e)
                for msg in viols:
                    self.stealth_violations.append((obs_here + (e,), msg))
                if not new_ends:
                    self.adm_violations.append(
                        (obs_here + (e,), "no reaction extends the edit history")
                    )
                seeds: dict = {}
                for dst in sorted(fired, key=state_token):
                    parent_node = fired[dst]
                    for r, q in cur_ends:
                        seeds.setdefault(
                            (dst, _Pos(_PRE, r, q)), ("fire", cur, parent_node, e)
                        )
                nodes = self._close_nodes(seeds, e)
                nkey = self._macro_key(nodes, new_ends, e)
                self.trans[(cur, e)] = nkey
                if nkey not in self.macros:
                    self.macros[nkey] = obs_here + (e,)
                    self._parents[nkey] = nodes
                    self._scan_hits(nkey)
                    queue.append(nkey)

    def _scan_hits(self, key) -> None:
        nodes = key[0]
        crit = self.cfg.x_crit
        if not nodes or not crit:
            return
        if self.weak_witness is None:
            for node in nodes:
                if node[0] in crit:
                    self.weak_witness = self._witness(key, node)
                    break
        if self.strong_witness is None and all(node[0] in crit for node in nodes):
            self.strong_witness = self._witness(key, nodes[0])

    def _witness(self, key, node) -> Word:
        out: list[str] = []
        while True:
            parent = self._parents[key][node]
            if parent[0] == "init":
                break
            if parent[0] == "micro":
                _, pnode, u = parent
                out.append(u)
                node = pnode
            else:
                _, pkey, pnode, e = parent
                out.append(e)
                key, node = pkey, pnode
        return tuple(reversed(out))

    # -- reporting helpers

    def realizable_observations(self):
        """All observation histories up to the horizon, by tree walk."""
        self.run()
        stack = [((), self.initial_key)]
        while stack:
            obs, key = stack.pop()
            yield obs
            if len(obs) >= self.cfg.horizon:
                continue
            for d in reversed(self.plant.events):
                if not d.observable:
                    continue
                nxt = self.trans.get((key, d.name))
                if nxt is not None:
                    stack.append((obs + (d.name,), nxt))

    def class_states(self, obs: Word) -> frozenset[State]:
        """Plant states of every loop string with this observation history."""
        self.run()
        key = self.initial_key
        for e in obs:
            key = self.trans.get((key, e))
            if key is None:
                return frozenset()
        return frozenset(node[0] for node in key[0])


def check_problem1(cfg: ClosedLoopConfig, strength: str = "strong") -> Verdict:
    """Admissibility, stealthiness and goal reachability, horizon bounded.

    `strength` is unused: the verdict reports both the weak and the strong
    hit, and `Verdict.ok` takes the strength.
    """
    ex = Explorer(cfg)
    ex.run()
    notes = [
        f"conditions checked for observation histories of length <= {cfg.horizon}",
    ]
    counterexamples: list[tuple[Word, str]] = []
    for obs, _ in ex.adm_violations:
        counterexamples.append((obs, "admissibility"))
    for obs, msg in ex.stealth_violations:
        counterexamples.append((obs, f"stealthiness: {msg}"))
    verdict = Verdict(
        admissible=not ex.adm_violations,
        stealthy=not ex.stealth_violations,
        weak_hit=ex.weak_witness is not None,
        strong_hit=ex.strong_witness is not None,
        weak_witness=ex.weak_witness,
        strong_witness=ex.strong_witness,
        counterexamples=counterexamples,
        horizon=cfg.horizon,
        notes=notes,
    )
    if verdict.strong_hit and not verdict.weak_hit:
        raise AssertionError("strong hit without weak hit")
    return verdict


def check_embedding(
    fa: AttackFunction, ida: IDA, horizon: int, cut: int | None = None
) -> list[tuple[Word, Word]]:
    """Edited histories the attacker can produce that the game cannot follow.

    Empty result means every prefix of every reachable edit is a defined
    walk of the structure.  `cut` bounds reaction expansion for cyclic
    encoders; without it a cyclic encoder is refused.
    """
    if cut is None and _has_insertion_cycle(fa):
        raise OracleBudgetError("cyclic attack encoder: pass an explicit reaction cut")
    cfg = ClosedLoopConfig(ida.ctx.plant, ida.ctx.rt, fa, horizon)
    # Each history extends its parent's edited strings by one reaction.  A
    # string carries its encoder state, its E-state (an id, -1 if undefined)
    # and the length of its shortest prefix the game cannot follow (or None).
    z0, steps = ida.contract(ida.root), ida.steps
    start = (fa.f.initial, z0, None if z0 >= 0 else 0)
    carried: dict[Word, dict[Word, tuple]] = {}
    bad: list[tuple[Word, Word]] = []
    for obs in Explorer(cfg).realizable_observations():  # parents first
        if obs:
            strings: dict[Word, tuple] = {}
            for t3, walked in carried[obs[:-1]].items():
                r = walked[0]
                if r is None:
                    continue
                for t2 in reactions(fa, r, obs[-1], cut):
                    t = t3 + t2
                    if t not in strings:
                        strings[t] = _follow(fa, steps, t, len(t3), walked)
        else:
            strings = {t: _follow(fa, steps, t, 0, start) for t in initial_reactions(fa, cut)}
        carried[obs] = strings
        for t in sorted(strings):
            k = strings[t][2]
            if k is not None and k < len(t):
                bad.append((obs, t[:k]))
    return bad


def _follow(fa: AttackFunction, steps: dict, t: Word, start: int, walked: tuple) -> tuple:
    """(encoder state, E-state, first undefined prefix length) of `t`, from
    those of its prefix `t[:start]`, one symbol at a time."""
    r, z, k = walked
    for i in range(start, len(t)):
        sym = t[i]
        if r is not None:
            r = fa.f.succ(r, sym)
        if k is None:
            z = steps.get((z, sym), -1)
            if z < 0:
                k = i + 1
    return r, z, k


def _has_insertion_cycle(fa: AttackFunction) -> bool:
    """Depth-first search for a cycle of insertion edges, without recursion."""
    color: dict[State, int] = {}
    for root in fa.f.states:
        if color.get(root, 0):
            continue
        color[root] = 1
        stack = [(root, iter(fa.f.out_edges(root)))]
        while stack:
            r, edges = stack[-1]
            for sym, dst in edges:
                if not is_inserted(sym):
                    continue
                c = color.get(dst, 0)
                if c == 1:
                    return True
                if c == 0:
                    color[dst] = 1
                    stack.append((dst, iter(fa.f.out_edges(dst))))
                    break
            else:
                color[r] = 2
                stack.pop()
    return False


# ---------------------------------------------------------------------------
# exhaustive enumeration of small attackers


@dataclass(frozen=True)
class EnumBounds:
    """Hard limits for exhaustive attacker enumeration."""

    max_states: int = 3
    max_obs: int = 2
    max_reaction: int = 2
    horizon: int = 4
    max_attackers: int = 100000
    max_points: int = 24


def _ins_downsets(syms: tuple[str, ...], depth: int) -> list[frozenset[Word]]:
    """Every prefix-closed set of nonempty insertion strings up to a depth."""
    if depth == 0:
        return [frozenset()]
    shorter = _ins_downsets(syms, depth - 1)
    per_sym: list[list[frozenset[Word]]] = []
    for sym in syms:
        opts: list[frozenset[Word]] = [frozenset()]
        for sub in shorter:
            opts.append(frozenset({(sym,)}) | frozenset((sym,) + t for t in sub))
        per_sym.append(opts)
    out: list[frozenset[Word]] = []
    for combo in itertools.product(*per_sym) if per_sym else [()]:
        merged = frozenset().union(*combo) if combo else frozenset()
        out.append(merged)
    return sorted(set(out), key=lambda s: (len(s), sorted(s)))


def _point_candidates(
    sc, point, bounds: EnumBounds
) -> list[frozenset[Word]]:
    """All reaction choices a total strategy may take at one decision point."""
    ea: EditAlphabet = sc.ea
    ins = tuple(sorted(ea.insertions))
    det = sc.mode in DETERMINISTIC

    def room(cap: int, counter: int) -> int:
        """Insertions up to `cap` that the bound allows at a `counter_step` count."""
        if sc.mode == "bounded" and counter != FREE_COUNTER:
            cap = min(cap, sc.n_a - counter)
        return max(cap, 0)

    if point is None:
        depth = room(bounds.max_reaction, sc.initial_counter)
        if det:
            chains = [()] + [
                c for l in range(1, depth + 1) for c in itertools.product(ins, repeat=l)
            ]
            return [frozenset({c}) for c in chains]
        bursts = _ins_downsets(ins, depth)
        out = []
        for eps in (True, False):
            for b in bursts:
                s = b | {()} if eps else b
                if s:
                    out.append(frozenset(s))
        return sorted(set(out), key=lambda s: (len(s), sorted(s)))

    _, e = point
    roots = [
        (sym, room(bounds.max_reaction - 1, counter_step(ea, sc.n_a, 0, sym)))
        for sym in ea.reaction_heads(e)
    ]
    if det:
        out = []
        for root, depth in roots:
            for l in range(depth + 1):
                for c in itertools.product(ins, repeat=l):
                    out.append(frozenset({(root,) + c}))
        return out
    per_root: list[list[frozenset[Word]]] = []
    for root, depth in roots:
        opts: list[frozenset[Word]] = [frozenset()]
        for sub in _ins_downsets(ins, depth):
            opts.append(frozenset({(root,)}) | frozenset((root,) + t for t in sub))
        per_root.append(opts)
    out = []
    for combo in itertools.product(*per_root):
        merged = frozenset().union(*combo)
        if merged:
            out.append(merged)
    return sorted(set(out), key=lambda s: (len(s), sorted(s)))


def _table_attack(sc, table: dict) -> AttackFunction:
    """Prefix-tree encoder for an explicit reaction table."""
    edges: dict[tuple[Word, str], Word] = {}
    states: set[Word] = {()}
    auto: dict[Word, str | None] = {}  # read in deterministic modes only
    for key in sorted(table, key=lambda k: ((), "") if k is None else (k[0], k[1])):
        choice = table[key]
        base: Word = () if key is None else key[0]
        for member in sorted(choice):
            full = base + member
            for i in range(len(base), len(full)):
                edges[(full[:i], full[i])] = full[: i + 1]
                states.add(full[: i + 1])
            for i in range(len(base) + (0 if key is None else 1), len(full)):
                auto[full[:i]] = full[i]
            auto[full] = None
    ordered = tuple(sorted(states, key=lambda s: (len(s), s)))
    init_eps = () in table.get(None, frozenset())
    return make_attack(sc, "table", ordered, edges, (), auto, init_eps)


_UNSEEN = object()  # no memo entry yet; None is a memoized "cannot occur"


class _TableSearch(_MacroSteps):
    """The closed loop of each reaction table of one enumeration.

    Positions and macro-states are the explorer's, with the table in place
    of an encoder: an attack state is the edited word played so far, and
    the moves from it are read off the table's word sets.  The reaction
    that produced a word is its segment: the entry keyed by the word
    before its last genuine or deleted symbol, or the initial entry
    (`None`) for a word of insertions only.

    A transition from one macro-state on one observation reads only these
    entries: `(r, pending)` for each PRE position `r` among its nodes (its
    MID nodes lie on those entries' words), `(r, e)` for each reaction
    endpoint `r`, and `None` from the initial macro-state.  It is memoized
    under the macro-state, the observation and the values of those
    entries, a missing entry included.  The memo also holds the initial
    macro-state of each initial entry and the closure of each position
    whose entry is present.

    The depth-first search only adds entries below a table, so a memo
    entry holds for every table that extends the one it was computed for.
    The memo is scoped to the search path: `push` opens a scope for a
    table, and `pop` drops what was memoized while that table and its
    extensions were explored, once the search backtracks past it.
    """

    def __init__(self, sc, horizon: int) -> None:
        super().__init__(sc.plant, sc.rtilde)
        self.det = sc.mode in DETERMINISTIC
        self.horizon = horizon
        self.events = tuple(d.name for d in sc.plant.events if d.observable)
        self.table: dict = {}
        self._memo: dict = {}
        self._scopes: list[list] = []  # per table on the path: the memo keys it added

    def push(self) -> None:
        self._scopes.append([])

    def pop(self) -> None:
        for key in self._scopes.pop():
            del self._memo[key]

    def _remember(self, key, value):
        self._memo[key] = value
        self._scopes[-1].append(key)
        return value

    # -- position rules of the table

    def _segment(self, r: Word):
        """The entry whose choice produced the word `r`."""
        for j in range(len(r) - 1, -1, -1):
            if not is_inserted(r[j]):
                return (r[:j], base_event(r[j]))
        return None

    def _closure(self, pos: _Pos, pending: str | None) -> tuple[_Pos, ...]:
        key = (pos, pending)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if pos.phase == _PRE:
            entry, base = (pos.r, pending), pos.r
            if entry not in self.table:
                return (pos,)  # a hole, which a longer table may fill
        else:
            entry = None if pos.phase == _ROOT else self._segment(pos.r)
            base = () if entry is None else entry[0]
        done = pos.r[len(base):]
        out = {pos: None}
        for word in self.table[entry]:
            if len(word) <= len(done) or word[: len(done)] != done:
                continue
            q = pos.q
            for i in range(len(done), len(word)):
                sym = word[i]
                if not is_deleted(sym):
                    q = self._mu(q, base_event(sym))
                out[_Pos(_MID, base + word[: i + 1], q)] = None
        return self._remember(key, tuple(out))

    def _walk(
        self, starts, pending: str | None, seen: set, ordered: bool = False
    ) -> tuple[_Pos, ...] | list[_Pos]:
        """The starts' whole closures, in no particular order.  A table's
        reactions are a few symbols long, so walking them again costs less
        than keeping `seen`."""
        if len(starts) == 1:
            return self._closure(starts[0], pending)
        return [p for start in starts for p in self._closure(start, pending)]

    def _end(self, pos: _Pos) -> bool:
        if pos.phase == _PRE:
            return False
        if pos.phase == _ROOT:
            return () in self.table[None]
        if not self.det:
            return True
        entry = self._segment(pos.r)
        return pos.r[len(entry[0]) if entry else 0:] in self.table[entry]

    def _sterile(self, pos: _Pos, pending: str | None) -> bool:
        return pos.phase == _PRE and (pos.r, pending) not in self.table

    # -- memoized macro transitions

    @staticmethod
    def _macro(nodes, ends, pending) -> tuple:
        """A macro-state key, with room for the entries read per observation."""
        return (frozenset(nodes), frozenset(ends), pending), {}

    def _reads(self, macro, e: str) -> tuple:
        """The table entries a transition from `macro` on `e` reads."""
        (nodes, ends, pending), reads = macro
        read = reads.get(e)
        if read is None:
            if pending is None:
                keys = [None]
            else:
                keys = [(pos.r, pending) for _, pos in nodes if pos.phase == _PRE]
            keys += [(r, e) for r, _ in ends]
            read = reads[e] = tuple(dict.fromkeys(keys))
        return read

    def _initial(self):
        """(initial macro-state, breaks stealth) of the current initial entry."""
        key = (None, self.table[None])
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        root = _Pos(_ROOT, (), self.rt.initial)
        ends, viols = self._initial_ends(root)
        nodes = self._close_nodes({(self.plant.initial, root): None}, None)
        return self._remember(key, (self._macro(nodes, ends, None), bool(viols)))

    def _step(self, macro, e: str):
        """(successor, breaks stealth, holes) of `macro` on `e`, or None when
        `e` cannot occur there."""
        key = (macro[0], e, tuple(map(self.table.get, self._reads(macro, e))))
        hit = self._memo.get(key, _UNSEEN)
        if hit is not _UNSEEN:
            return hit
        nodes, ends, pending = macro[0]
        fired = self._fire(nodes, pending, e)
        if not fired:
            return self._remember(key, None)
        new_ends, viols = self._reaction(ends, e)
        seeds = {(dst, _Pos(_PRE, r, q)): None for dst in fired for r, q in ends}
        nxt = self._macro(self._close_nodes(seeds, e), new_ends, e)
        holes = tuple(h for h in dict.fromkeys((r, e) for r, _ in ends) if h not in self.table)
        return self._remember(key, (nxt, bool(viols), holes))

    def explore(self, stop_on_violation: bool) -> tuple[tuple | None, bool]:
        """(first hole, breaks stealth) of the current table, breadth first
        over macro-states up to the horizon.  The first hole is the least
        unfilled (endpoint, observation) entry a reaction needs; with
        `stop_on_violation` the walk ends at the first stealth violation."""
        start, broken = self._initial()
        if broken and stop_on_violation:
            return None, True
        seen = {start[0]}
        frontier = [start]
        holes: set = set()
        for _ in range(self.horizon):
            nxt = []
            for macro in frontier:
                for e in self.events:
                    step = self._step(macro, e)
                    if step is None:
                        continue
                    succ, viol, found = step
                    if viol:
                        broken = True
                        if stop_on_violation:
                            return None, True
                    holes.update(found)
                    if succ[0] not in seen:
                        seen.add(succ[0])
                        nxt.append(succ)
            frontier = nxt
        hole = min(holes, key=lambda h: (len(h[0]), h[0], h[1])) if holes else None
        return hole, broken


def enumerate_attackers(
    sc, bounds: EnumBounds = EnumBounds(), certifying_only: bool = False
):
    """Yield every total attack strategy within the bounds.

    Strategies are enumerated as reaction tables over the decision points
    the closed loop actually reaches, so each yielded attacker is total on
    its reachable domain.  With `certifying_only`, branches whose decided
    edits already break stealth are cut; a violation on a decided edit is
    permanent, so no certifying attacker is lost, and the cut keeps the
    search tractable.  Raises on instances larger than the bounds.

    The search is depth first, and each table extends its parent by the
    entry of its first hole.  One `_TableSearch` explores the closed loop
    of every table, breadth first over macro-states, and stops at the
    first stealth violation when only certifying attackers are wanted.
    A transition from a macro-state on an observation `e` reads only the
    entries `(r, pending)` of the PRE positions among its nodes, `(r, e)`
    of its reaction endpoints, and the initial entry `None` from the
    initial macro-state; it is memoized under their values, a missing
    entry included.  Memo entries made while a table is explored are
    dropped when the search backtracks past that table.  So a table
    re-walks its macro-states but computes only the transitions that no
    table on its search path computed on the same entries.  An encoder is
    built only for the attackers yielded.
    """
    if len(sc.plant.states) > bounds.max_states:
        raise OracleBudgetError("plant too large for exhaustive enumeration")
    if len(sc.plant.obs_events) > bounds.max_obs:
        raise OracleBudgetError("too many observable events for enumeration")
    yielded = 0
    search = _TableSearch(sc, bounds.horizon)
    table = search.table

    def rec():
        nonlocal yielded
        if len(table) > bounds.max_points:
            raise OracleBudgetError("reaction table grew past the point budget")
        search.push()
        try:
            point, broken = search.explore(certifying_only)
            if certifying_only and broken:
                return
            if point is None:
                fa = _table_attack(sc, table)
                yielded += 1
                if yielded > bounds.max_attackers:
                    raise OracleBudgetError("too many attackers within the bounds")
                yield fa
                return
            for choice in _point_candidates(sc, point, bounds):
                table[point] = choice
                yield from rec()
                del table[point]
        finally:
            search.pop()

    for init_choice in _point_candidates(sc, None, bounds):
        table[None] = init_choice
        yield from rec()
