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
explicitly.  Positions and nodes are packed ints, built from the ranks
of plant, encoder and completion states in token order, so sorting the
ints sorts them by the tokens of what they stand for: the order macro
keys list them in and witnesses are searched in.

Tables that depend only on the plant and the completion are made once per
pair and kept on the completion.  `check_problem1` leaves its observation
tree on the attack; `check_embedding` walks it, for the same plant and
completion (by identity) and horizon, instead of exploring again.

The exhaustive enumerator (`enumerate_attackers`) lists every small
attack strategy as a reaction table and explores the closed loop of each
table with the same macro steps.  A macro transition reads only the
table entries of the reactions it plays, so it is memoized under the
values of those entries.  The memo is scoped to the depth-first search
path: what a table adds to it is dropped once the search backtracks past
that table.
"""

from __future__ import annotations

import bisect
import itertools
from collections import defaultdict, deque
from dataclasses import dataclass, field

from .alphabet import EditAlphabet, base_event, is_deleted, is_inserted
from .automata import Automaton, ModelError, State, next_states, state_token, unobservable_reach
from .build import DETERMINISTIC, FREE_COUNTER, counter_step
from .game import IDA
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


def reach_estimate(
    plant: Automaton,
    rt: RTilde,
    ea: EditAlphabet,
    edited: Word,
) -> frozenset[State]:
    """Attacker's plant-state estimate after an edited string.

    Insertions leave the physical state untouched; genuine and deleted
    events move it; between symbols the estimate closes under the
    unobservable part of the current control decision, which the
    supervisor view of the prefix reaches one symbol at a time.
    """
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

_MID, _PRE, _ROOT = 0, 1, 2  # the phases of a position, in the order of their names


class _Lazy(dict):
    """A table that `make(key)` fills on the first lookup of each key."""

    def __init__(self, make) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _ranked(aut: Automaton, out: bool = False) -> list:
    """The states of `aut` in token order, with None (a view outside the
    model, token "?") among them if `out`.  No two may share a token."""
    order = list(aut.token_order)
    if out:
        toks = [state_token(x) for x in order]
        i = bisect.bisect_left(toks, "?")
        if i < len(toks) and toks[i] == "?":
            raise ModelError(f"{aut.name}: a state has the token '?' of a view outside the model")
        order.insert(i, None)
    return order


class _Tables:
    """The tables of `_MacroSteps` that depend on the plant and completion alone."""

    def __init__(self, plant: Automaton, aut: Automaton) -> None:
        self.plant = plant
        self._xs = xs = _ranked(plant)
        self._qs = qs = _ranked(aut, out=True)
        self._x_rank = x_rank = {x: i for i, x in enumerate(xs)}
        q_rank = {q: i for i, q in enumerate(qs)}
        self._x0, self._q0, self._Q = x_rank[plant.initial], q_rank[aut.initial], len(qs)
        self._bad = frozenset(q_rank[q] for q in (None, DEAD) if q in q_rank)
        # per plant state: event -> target; per completion state: event ->
        # target, the decision, and its unobservable events in name order
        self._x_succ = _Lazy(lambda x: {e: x_rank[y] for e, y in plant.out_edges(xs[x])})
        self._mus = _Lazy(lambda q: {
            d.name: q_rank[None if qs[q] is None else aut.succ(qs[q], d.name)]
            for d in plant.events
        })
        self._gammas = gammas = _Lazy(
            lambda q: frozenset() if qs[q] is None else aut.out_events(qs[q]))
        self._unobs = _Lazy(lambda q: tuple(sorted(gammas[q] & plant.unobs_events)))


class _MacroSteps:
    """The steps between macro-states, over reaction positions packed in ints.

    A macro state holds nodes, pairs (plant state, reaction position), and
    reaction endpoints, pairs (attack state, supervisor state).  A position
    is a phase, an attack state and the supervisor completion state reached
    by the edits so far.  Plant and completion states are ranked by token,
    with None (the supervisor view left the model) as "?", and a subclass
    numbers its attack states below `R`.  The position (phase, r, q) is
    `(phase * R + r) * Q + q`, an endpoint is its MID position `r * Q + q`,
    and the node (x, position) is `x * P + position`; the subclass sets
    `RQ = R * Q` and `P = 3 * RQ`.

    Subclasses give the position rules: `_walk` (the positions the
    attacker's moves reach from some starts under a pending observation,
    except those in `seen` and past them, added to `seen`; or, ignoring
    `seen`, whole closures), `_end` (a reaction may stop here) and
    `_sterile` (nothing may happen here, because the recursion requires
    an existing reaction choice).

    Each step below walks from all its starts at once and, where `_walk`
    keeps `seen`, never past a position it has already walked, so it costs
    time linear in the positions it touches (times the plant states they
    pair with).  The tables of the plant and completion (`_Tables`) are
    made once per pair and shared by every instance on it.
    """

    def __init__(self, plant: Automaton, rt: RTilde) -> None:
        self.rt = rt
        # the entry holds the plant, so no other plant takes its id while it lives
        tables = rt.loop_tables.get(id(plant))
        if tables is None:
            tables = rt.loop_tables[id(plant)] = _Tables(plant, rt.automaton)
        vars(self).update(vars(tables))

    def _stops(self, starts, pending: str | None, msg: str):
        """Endpoints reachable from `starts` past the PRE phase, and `msg`
        once if such a position leaves the supervised language."""
        ends: set = set()
        out = False
        RQ, Q, bad = self._RQ, self._Q, self._bad
        for p in self._walk(starts, pending, set()):
            if p // RQ == _PRE:
                continue
            out = out or p % Q in bad
            if self._end(p):
                ends.add(p % RQ)
        return frozenset(ends), (msg,) if out else ()

    def _initial_ends(self, root: int):
        return self._stops((root,), None, "initial burst leaves the supervised language")

    def _reaction(self, ends, e: str):
        """Endpoints after reacting to `e` from `ends`, and the violations."""
        return self._stops(
            [_PRE * self._RQ + end for end in ends],
            e,
            f"reaction to {e!r} drives the supervisor view out of the supervised language",
        )

    def _fire(self, nodes, pending: str | None, e: str) -> dict:
        """Plant target -> first node whose reaction lets `e` fire."""
        fired: dict = {}
        dead: set = set()  # positions that reach no endpoint enabling `e`
        P, Q, x_succ, gammas = self._P, self._Q, self._x_succ, self._gammas
        for node in nodes:
            x, pos = divmod(node, P)
            dst = x_succ[x].get(e)
            if dst is None or dst in fired:
                continue
            reach = self._walk((pos,), pending, dead)
            for p in reach:
                if self._end(p) and e in gammas[p % Q]:
                    fired[dst] = node
                    dead.difference_update(reach)  # some of them reach it
                    break
        return fired

    def _close_nodes(self, seeds: dict, pending: str | None):
        """Micro closure: fire enabled unobservable plant events at every
        advance-reachable, non-sterile position.  Returns nodes and local
        parent links for witness reconstruction.  Each (plant state,
        position) pair is handled once, a node's new positions in order."""
        nodes = dict(seeds)
        queue = deque(seeds)
        done: defaultdict = defaultdict(set)  # plant state -> positions handled for it
        P, Q, x_succ, unobs = self._P, self._Q, self._x_succ, self._unobs
        while queue:
            node = queue.popleft()
            x, pos = divmod(node, P)
            succ = x_succ[x]
            for p2 in self._walk((pos,), pending, done[x], True):
                if self._sterile(p2, pending):
                    continue
                for u in unobs[p2 % Q]:
                    dst = succ.get(u)
                    if dst is None:
                        continue
                    nxt = dst * P + p2
                    if nxt not in nodes:
                        nodes[nxt] = ("micro", node, u)
                        queue.append(nxt)
        return nodes


class Explorer(_MacroSteps):
    """Breadth-first exploration over observation histories.

    A macro state is its key, the triple (sorted nodes, sorted reaction
    endpoints, pending observation); `macros` maps each key to the
    observation history it was first reached by, whose length is its
    depth.  Nodes and positions are packed as `_MacroSteps` says, with the
    encoder states ranked by token, so the keys list positions by (phase
    name, encoder state, completion state) and nodes by plant state first.
    """

    def __init__(self, cfg: ClosedLoopConfig) -> None:
        super().__init__(cfg.plant, cfg.rt)
        self.cfg = cfg
        self.fa = fa = cfg.attack
        self._rs = rs = _ranked(fa.f)
        self._r_rank = r_rank = {r: i for i, r in enumerate(rs)}
        Q = self._Q
        RQ = self._RQ = len(rs) * Q
        self._P = 3 * RQ
        self._root = (_ROOT * len(rs) + r_rank[fa.f.initial]) * Q + self._q0
        self._crit = frozenset(self._x_rank[x] for x in cfg.x_crit if x in self._x_rank)
        det, eps, auto = fa.deterministic, fa.initial_epsilon, fa.auto_insert

        def is_end(pos: int) -> bool:
            phase, rq = divmod(pos, RQ)
            if det:
                return phase != _PRE and auto.get(rs[rq // Q]) is None
            return phase == _MID or phase == _ROOT and eps

        # looked up once per position and step, so a dict lookup, not a method
        self._end = _Lazy(is_end).__getitem__
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

    def _advance_step(self, pos: int, pending: str | None) -> tuple[int, ...]:
        phase, rq = divmod(pos, self._RQ)
        r, q = divmod(rq, self._Q)
        Q, mu, fa, r = self._Q, self._mus[q], self.fa, self._rs[r]
        if phase == _PRE:
            # the genuine head moves the supervisor view, the deletion does not
            moves = zip(fa.ea.reaction_heads(pending), (mu[pending], q))
        elif fa.deterministic:
            sym = fa.auto_insert.get(r)
            moves = () if sym is None else ((sym, mu[base_event(sym)]),)
        else:
            moves = ((sym, mu[base_event(sym)]) for sym, _ in fa.f.out_edges(r) if is_inserted(sym))
        out = []
        for sym, q2 in moves:
            dst = fa.f.succ(r, sym)
            if dst is not None:
                out.append(self._r_rank[dst] * Q + q2)
        return tuple(out)

    def _next(self, pos: int, pending: str | None) -> tuple[int, ...]:
        # only a PRE position's moves depend on the pending observation
        key = (pos, pending) if pos // self._RQ == _PRE else pos
        out = self._adv.get(key)
        if out is None:
            out = self._adv[key] = self._advance_step(pos, pending)
        return out

    def _walk(self, starts, pending: str | None, seen: set, ordered: bool = False) -> list[int]:
        """Positions reachable from `starts` and not through `seen`, over the
        memoized moves; adds them to `seen`.  `ordered` sorts them, the
        order the witnesses' parent links are made in."""
        found = []
        for p in starts:
            if p not in seen:
                seen.add(p)
                found.append(p)
        adv = self._adv
        for cur in found:  # grows while it is read
            moves = adv.get(cur)  # None for a PRE position: its key holds `pending`
            for nxt in self._next(cur, pending) if moves is None else moves:
                if nxt not in seen:
                    seen.add(nxt)
                    found.append(nxt)
        if ordered:
            found.sort()
        return found

    def _sterile(self, pos: int, pending: str | None) -> bool:
        return not self._end(pos) and not self._next(pos, pending)

    def _react(self, ends: tuple[int, ...], e: str):
        key = (ends, e)
        out = self._react_memo.get(key)
        if out is None:
            out = self._react_memo[key] = self._reaction(ends, e)
        return out

    # -- macro exploration

    def run(self) -> None:
        if self._ran:
            return
        self._ran = True
        root, P, RQ = self._root, self._P, self._RQ
        ends0, init_viols = self._initial_ends(root)
        for msg in init_viols:
            self.stealth_violations.append(((), msg))
        if not ends0:
            self.adm_violations.append(((), "no initial reaction choice"))
        nodes = self._close_nodes({self._x0 * P + root: ("init",)}, None)
        key = (tuple(sorted(nodes)), tuple(sorted(ends0)), None)
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
                new_ends, viols = self._react(cur_ends, e)
                for msg in viols:
                    self.stealth_violations.append((obs_here + (e,), msg))
                if not new_ends:
                    self.adm_violations.append(
                        (obs_here + (e,), "no reaction extends the edit history")
                    )
                seeds = {
                    dst * P + _PRE * RQ + end: ("fire", cur, fired[dst], e)
                    for dst in sorted(fired) for end in cur_ends
                }
                nodes = self._close_nodes(seeds, e)
                nkey = (tuple(sorted(nodes)), tuple(sorted(new_ends)), e)
                self.trans[(cur, e)] = nkey
                if nkey not in self.macros:
                    self.macros[nkey] = obs_here + (e,)
                    self._parents[nkey] = nodes
                    self._scan_hits(nkey)
                    queue.append(nkey)

    def _scan_hits(self, key) -> None:
        nodes, P, crit = key[0], self._P, self._crit
        if not nodes or not crit:
            return
        if self.weak_witness is None:
            for node in nodes:
                if node // P in crit:
                    self.weak_witness = self._witness(key, node)
                    break
        if self.strong_witness is None and all(node // P in crit for node in nodes):
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
        yield from _histories(self.plant, self.cfg.horizon, self.initial_key, self.trans)


def _histories(plant: Automaton, horizon: int, key, trans: dict):
    """The observation histories up to `horizon` of the tree that `trans`
    spans from the macro key `key`, each after its parent."""
    stack = [((), key)]
    while stack:
        obs, key = stack.pop()
        yield obs
        if len(obs) >= horizon:
            continue
        for d in reversed(plant.events):
            if not d.observable:
                continue
            nxt = trans.get((key, d.name))
            if nxt is not None:
                stack.append((obs + (d.name,), nxt))


def check_problem1(cfg: ClosedLoopConfig, strength: str = "strong") -> Verdict:
    """Admissibility, stealthiness and goal reachability, horizon bounded.

    `strength` is unused: the verdict reports both the weak and the strong
    hit, and `Verdict.ok` takes the strength.
    """
    ex = Explorer(cfg)
    ex.run()
    notes = [f"conditions checked for observation histories of length <= {cfg.horizon}"]
    counterexamples = [(obs, "admissibility") for obs, _ in ex.adm_violations]
    counterexamples += [(obs, f"stealthiness: {msg}") for obs, msg in ex.stealth_violations]
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
    # the tree does not depend on x_crit; it replaces the attack's last one
    cfg.attack._tree = (cfg.plant, cfg.rt, cfg.horizon, ex.initial_key, ex.trans)
    return verdict


def check_embedding(
    fa: AttackFunction, ida: IDA, horizon: int, cut: int | None = None
) -> list[tuple[Word, Word]]:
    """Edited histories the attacker can produce that the game cannot follow.

    Empty result means every prefix of every reachable edit is a defined
    walk of the structure.  `cut` bounds reaction expansion for cyclic
    encoders; without it a cyclic encoder is refused.  The histories are
    those of the tree `check_problem1` left on `fa` when its plant,
    completion and horizon are the structure's; otherwise they are explored.
    """
    if cut is None and _has_insertion_cycle(fa):
        raise OracleBudgetError("cyclic attack encoder: pass an explicit reaction cut")
    plant, rt = ida.ctx.plant, ida.ctx.rt
    tree = getattr(fa, "_tree", None)  # left by `check_problem1`
    if tree is not None and tree[0] is plant and tree[1] is rt and tree[2] == horizon:
        histories = _histories(plant, horizon, *tree[3:])
    else:
        histories = Explorer(ClosedLoopConfig(plant, rt, fa, horizon)).realizable_observations()
    # Each history extends its parent's edited strings by one reaction.  A
    # string carries its encoder state, its E-state (an id, -1 if undefined)
    # and the length of its shortest prefix the game cannot follow (or None).
    z0, steps = ida.contract(ida.root), ida.steps
    start = (fa.f.initial, z0, None if z0 >= 0 else 0)
    carried: dict[Word, dict[Word, tuple]] = {}
    bad: list[tuple[Word, Word]] = []
    for obs in histories:  # parents first
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


_MAX_CANDIDATES = 10**5  # reaction choices one decision point may offer


def _downset_count(k: int, depth: int, cap: int) -> int:
    """`len(_ins_downsets(syms, depth))` for k symbols, or cap + 1 if larger:
    a downset takes, per symbol, nothing or that symbol before a shallower one."""
    n = 1
    for _ in range(depth):
        n = min((1 + n) ** k, cap + 1)
    return n


def _point_candidates(
    sc, point, bounds: EnumBounds
) -> list[frozenset[Word]]:
    """All reaction choices a total strategy may take at one decision point:
    a head, then insertions.  The initial burst has the empty head, and it
    alone may leave out the empty string.  Raises when the choices, counted
    in closed form before any is built, exceed `_MAX_CANDIDATES`."""
    ea: EditAlphabet = sc.ea
    ins = tuple(sorted(ea.insertions))

    def room(head: Word, counter: int) -> int:
        """Insertions after `head` that `max_reaction` and the bound allow."""
        cap = bounds.max_reaction - len(head)
        if sc.mode == "bounded" and counter != FREE_COUNTER:
            cap = min(cap, sc.n_a - counter)
        return max(cap, 0)

    if point is None:
        heads = [((), sc.initial_counter)]
    else:
        heads = [((sym,), counter_step(ea, sc.n_a, 0, sym)) for sym in ea.reaction_heads(point[1])]
    roots = [(head, room(head, counter)) for head, counter in heads]
    cap = _MAX_CANDIDATES
    if sc.mode in DETERMINISTIC:  # per head, one chain of up to `depth` insertions
        count = sum(len(ins) ** l for _, depth in roots for l in range(depth + 1))
    else:  # per head nothing, or the head and one of its D downsets after it
        count = 1
        for _, depth in roots:
            count = min(count * (1 + _downset_count(len(ins), depth, cap)), cap + 2)
        # no empty choice; the initial point also offers its D - 1 nonempty
        # downsets without the empty head
        count = 2 * count - 3 if point is None else count - 1
    if count > cap:
        raise OracleBudgetError(f"more than {cap} reaction choices at one decision point")
    if sc.mode in DETERMINISTIC:
        return [frozenset({head + c}) for head, depth in roots
                for l in range(depth + 1) for c in itertools.product(ins, repeat=l)]
    per_head = [[frozenset()] + [frozenset({head}) | frozenset(head + t for t in sub)
                                 for sub in _ins_downsets(ins, depth)] for head, depth in roots]
    out = {frozenset().union(*combo) for combo in itertools.product(*per_head)}
    if point is None:
        out |= {c - {()} for c in out}
    out.discard(frozenset())
    return sorted(out, key=lambda s: (len(s), sorted(s)))


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
    of an encoder: an attack state is the edited word played so far,
    numbered on first sight (`R` bounds the numbers), and the moves from
    it are read off the table's word sets.  A macro-state holds its nodes
    and endpoints in frozensets, since nothing here depends on their
    order.  The reaction
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

    _R = 1 << 20  # words one enumeration may number

    def __init__(self, sc, horizon: int) -> None:
        super().__init__(sc.plant, sc.rtilde)
        self.det = sc.mode in DETERMINISTIC
        self.horizon = horizon
        self.events = tuple(d.name for d in sc.plant.events if d.observable)
        self.table: dict = {}
        self._memo: dict = {}
        self._scopes: list[list] = []  # per table on the path: the memo keys it added
        self._words: list[Word] = []  # the attack states, numbered on first sight
        self._word_ids: dict[Word, int] = {}
        self._RQ = self._R * self._Q
        self._P = 3 * self._RQ

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

    def _pos(self, phase: int, r: Word, q: int) -> int:
        w = self._word_ids.get(r)
        if w is None:
            w = self._word_ids[r] = len(self._words)
            if w >= self._R:
                raise OracleBudgetError("too many edited words for one enumeration")
            self._words.append(r)
        return (phase * self._R + w) * self._Q + q

    def _word(self, pos: int) -> Word:
        return self._words[pos % self._RQ // self._Q]

    def _closure(self, pos: int, pending: str | None) -> tuple[int, ...]:
        key = (pos, pending)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        phase, r = pos // self._RQ, self._word(pos)
        if phase == _PRE:
            entry, base = (r, pending), r
            if entry not in self.table:
                return (pos,)  # a hole, which a longer table may fill
        else:
            entry = None if phase == _ROOT else self._segment(r)
            base = () if entry is None else entry[0]
        done = r[len(base):]
        out = {pos: None}
        for word in self.table[entry]:
            if len(word) <= len(done) or word[: len(done)] != done:
                continue
            q = pos % self._Q
            for i in range(len(done), len(word)):
                sym = word[i]
                if not is_deleted(sym):
                    q = self._mus[q][base_event(sym)]
                out[self._pos(_MID, base + word[: i + 1], q)] = None
        return self._remember(key, tuple(out))

    def _walk(self, starts, pending: str | None, seen: set, ordered: bool = False) -> tuple | list:
        """The starts' whole closures, in no particular order.  A table's
        reactions are a few symbols long, so walking them again costs less
        than keeping `seen`."""
        if len(starts) == 1:
            return self._closure(starts[0], pending)
        return [p for start in starts for p in self._closure(start, pending)]

    def _end(self, pos: int) -> bool:
        phase = pos // self._RQ
        if phase == _PRE:
            return False
        if phase == _ROOT:
            return () in self.table[None]
        if not self.det:
            return True
        r = self._word(pos)
        entry = self._segment(r)
        return r[len(entry[0]) if entry else 0:] in self.table[entry]

    def _sterile(self, pos: int, pending: str | None) -> bool:
        return pos // self._RQ == _PRE and (self._word(pos), pending) not in self.table

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
            P, RQ, Q, words = self._P, self._RQ, self._Q, self._words
            if pending is None:
                keys = [None]
            else:
                keys = [(words[n % RQ // Q], pending) for n in nodes if n % P // RQ == _PRE]
            keys += [(words[end // Q], e) for end in ends]
            read = reads[e] = tuple(dict.fromkeys(keys))
        return read

    def _initial(self):
        """(initial macro-state, breaks stealth) of the current initial entry."""
        key = (None, self.table[None])
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        root = self._pos(_ROOT, (), self._q0)
        ends, viols = self._initial_ends(root)
        nodes = self._close_nodes({self._x0 * self._P + root: None}, None)
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
        P, pre = self._P, _PRE * self._RQ
        seeds = {dst * P + pre + end: None for dst in fired for end in ends}
        nxt = self._macro(self._close_nodes(seeds, e), new_ends, e)
        found = dict.fromkeys((self._words[end // self._Q], e) for end in ends)
        holes = tuple(h for h in found if h not in self.table)
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
    It memoizes each macro transition under the table entries it reads,
    scoped to the search path, so a table re-walks its macro-states but
    computes only the transitions that no table on its search path
    computed on the same entries.  An encoder is built only for the
    attackers yielded.
    """
    if len(sc.plant.states) > bounds.max_states:
        raise OracleBudgetError("plant too large for exhaustive enumeration")
    if len(sc.plant.obs_events) > bounds.max_obs:
        raise OracleBudgetError("too many observable events for enumeration")
    yielded = 0
    search = _TableSearch(sc, bounds.horizon)
    table = search.table
    # the choices at a point depend on its observation alone (None at the
    # initial burst), so each is built once per enumeration
    choices = _Lazy(lambda e: _point_candidates(sc, None if e is None else ((), e), bounds))

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
            for choice in choices[point[1]]:
                table[point] = choice
                yield from rec()
                del table[point]
        finally:
            search.pop()

    for init_choice in choices[None]:
        table[None] = init_choice
        yield from rec()
