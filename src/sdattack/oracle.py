"""Independent verification of attack strategies against the closed loop.

Two semantics of the attacked loop live here side by side:

  - an exact recursive membership test (`in_closed_loop`,
    `closed_loop_language`) that follows the block decomposition of
    attacked strings literally, enumerating reaction choices and the
    monotone positions at which unobservable events may fire;
  - a macro-state exploration (`Explorer`, behind `check_problem1` and
    `check_embedding`) that tracks, per observation history, every pair
    of plant state and reaction position at once, which scales to the
    horizons the acceptance harness uses.  It bounds observation
    histories, not plant strings, so the two semantics enumerate the
    same set only where every plant event is observable.

Both treat the supervisor completion as the judge: an edited observation
keeps the attack stealthy exactly while the completion stays out of its
dead sink and keeps being defined.  Hit conditions are evaluated up to a
bounded number of observations; verdicts say so explicitly.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

from .alphabet import EditAlphabet, base_event, deleted, is_deleted, is_inserted
from .automata import Automaton, ModelError, State, next_states, state_token, unobservable_reach
from .game import IDA, Node, induced_e_state
from .supervisor import DEAD, RTilde
from .synth import AttackFunction, initial_reactions, reactions

Sym = str
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
    counterexamples: list[tuple[Word, str]]
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
    unobservable part of the current control decision.
    """
    if fa is not None and fa.state_after(edited) is None:
        raise ValueError("edited string is not a history of the attack encoder")
    ea.check_string(edited)
    dec = supervisor_decision(rt, ea, ())
    est = unobservable_reach(plant, {plant.initial}, dec)
    for i, sym in enumerate(edited, 1):
        if is_inserted(sym):
            base = est
        else:
            base = next_states(plant, est, base_event(sym))
        dec = supervisor_decision(rt, ea, edited[:i])
        est = unobservable_reach(plant, base, dec)
    return est


# ---------------------------------------------------------------------------
# literal recursive semantics


def fhat_strings(
    fa: AttackFunction, obs: Word, cut: int | None = None
) -> frozenset[Word]:
    """All edited strings the attacker may have produced for an observation."""
    out = initial_reactions(fa, cut)
    for e in obs:
        nxt: set[Word] = set()
        for t3 in out:
            r = fa.state_after(t3)
            if r is None:
                continue
            for t2 in reactions(fa, r, e, cut):
                nxt.add(t3 + t2)
        out = frozenset(nxt)
    return out


def _project_obs(plant: Automaton, w: Word) -> Word:
    return tuple(sym for sym in w if sym in plant.obs_events)


class _Literal:
    """Recursive membership evaluator for the attacked closed loop."""

    def __init__(self, cfg: ClosedLoopConfig, cut: int | None = None) -> None:
        self.cfg = cfg
        self.cut = cut
        self.fa = cfg.attack
        self.ea = cfg.attack.ea
        self._member: dict[Word, bool] = {}
        self._fhat: dict[Word, frozenset[Word]] = {}

    def fhat(self, obs: Word) -> frozenset[Word]:
        if obs not in self._fhat:
            if obs:
                prev = self.fhat(obs[:-1])
                nxt: set[Word] = set()
                for t3 in prev:
                    r = self.fa.state_after(t3)
                    if r is None:
                        continue
                    for t2 in reactions(self.fa, r, obs[-1], self.cut):
                        nxt.add(t3 + t2)
                self._fhat[obs] = frozenset(nxt)
            else:
                self._fhat[obs] = initial_reactions(self.fa, self.cut)
        return self._fhat[obs]

    def decision(self, edited: Word) -> frozenset[str]:
        return supervisor_decision(self.cfg.rt, self.ea, edited)

    def member(self, w: Word) -> bool:
        if w in self._member:
            return self._member[w]
        res = self._eval(w)
        self._member[w] = res
        return res

    def _eval(self, w: Word) -> bool:
        if not w:
            return True
        plant = self.cfg.plant
        obs_idx = [i for i, sym in enumerate(w) if sym in plant.obs_events]
        if not obs_idx or (len(obs_idx) == 1 and obs_idx[0] == len(w) - 1):
            # first block: unobservables, then at most one observation
            return self._block_ok(None, w)
        last = obs_idx[-1]
        if last == len(w) - 1:
            prev = obs_idx[-2]
            s, t1 = w[: prev + 1], w[prev + 1 :]
        else:
            s, t1 = w[: last + 1], w[last + 1 :]
        if not self.member(s):
            return False
        return self._block_ok(s, t1)

    def _block_ok(self, s: Word | None, t1: Word) -> bool:
        """One block extension: ``s`` ends with the observation being reacted
        to (None for the initial block), ``t1`` is the plant continuation."""
        plant = self.cfg.plant
        if s is None:
            tails = [((), t2) for t2 in self.fhat(())]
        else:
            e = s[-1]
            obs_prev = _project_obs(plant, s[:-1])
            tails = []
            for t3 in self.fhat(obs_prev):
                r = self.fa.state_after(t3)
                if r is None:
                    continue
                for t2 in reactions(self.fa, r, e, self.cut):
                    tails.append((t3, t2))
        unobs = t1 if not t1 or t1[-1] not in plant.obs_events else t1[:-1]
        closing = None if not t1 or t1[-1] not in plant.obs_events else t1[-1]
        for t3, t2 in tails:
            for idx in itertools.combinations_with_replacement(
                range(len(t2) + 1), len(unobs)
            ):
                if not all(
                    u in self.decision(t3 + t2[:i]) for u, i in zip(unobs, idx)
                ):
                    continue
                if closing is None:
                    return True
                if closing in self.decision(t3 + t2):
                    return True
        return False


def in_closed_loop(cfg: ClosedLoopConfig, w: Word, cut: int | None = None) -> bool:
    """Literal membership of a plant string in the attacked loop language."""
    from .automata import step

    if step(cfg.plant, cfg.plant.initial, w) is None:
        return False
    return _Literal(cfg, cut).member(w)


def closed_loop_language(
    cfg: ClosedLoopConfig, cut: int | None = None
) -> set[Word]:
    """Every attacked-loop string up to length `horizon` (exact, brute force)."""
    lit = _Literal(cfg, cut)
    out: set[Word] = set()
    frontier: list[tuple[State, Word]] = [(cfg.plant.initial, ())]
    out.add(())
    for _ in range(cfg.horizon):
        nxt: list[tuple[State, Word]] = []
        for x, w in frontier:
            for ev, dst in cfg.plant.out_edges(x):
                w2 = w + (ev,)
                nxt.append((dst, w2))
                if lit.member(w2):
                    out.add(w2)
        frontier = nxt
    return out


def nominal_closed_loop(plant: Automaton, sup: Automaton, max_len: int) -> set[Word]:
    """Unattacked supervised language, for baseline comparisons."""
    from .automata import language, parallel

    return language(parallel(sup, plant), max_len)


# ---------------------------------------------------------------------------
# macro-state exploration

_PRE, _MID, _ROOT = "pre", "mid", "root"


@dataclass(frozen=True)
class _Pos:
    phase: str
    r: State
    q: State | None  # None once the supervisor view left the model

    def key(self) -> tuple[str, str, str]:
        rtok = self.r.token() if isinstance(self.r, Node) else state_token(self.r)
        qtok = "?" if self.q is None else state_token(self.q)
        return (self.phase, rtok, qtok)


class Explorer:
    """Breadth-first exploration over observation histories.

    A macro state is its key, the triple (sorted nodes, sorted reaction
    endpoints, pending observation); `macros` maps each key to its depth,
    the length of its observation history.  A node is a pair (plant state,
    reaction position), and a position is the attack encoder state plus
    the supervisor completion state reached by the edits so far.
    """

    def __init__(self, cfg: ClosedLoopConfig, reaction_observer=None) -> None:
        self.cfg = cfg
        self.fa = cfg.attack
        self.rt = cfg.rt
        self.plant = cfg.plant
        self.ea = cfg.attack.ea
        self.reaction_observer = reaction_observer
        self._adv: dict[tuple[_Pos, str | None], tuple[_Pos, ...]] = {}
        self._react_memo: dict = {}
        self.macros: dict[tuple, int] = {}
        self.trans: dict = {}
        self.initial_key = None
        self.adm_violations: list[tuple[Word, str]] = []
        self.stealth_violations: list[tuple[Word, str]] = []
        self.weak_witness: Word | None = None
        self.strong_witness: Word | None = None
        self._parents: dict = {}
        self._ran = False

    # -- position machinery

    def _mu(self, q: State | None, e: str) -> State | None:
        if q is None:
            return None
        return self.rt.mu(q, e)

    def _gamma(self, q: State | None) -> frozenset[str]:
        if q is None:
            return frozenset()
        return self.rt.gamma(q)

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
            assert pending is not None
            dst = f.succ(pos.r, pending)
            if dst is not None:
                out.append(_Pos(_MID, dst, self._mu(pos.q, pending)))
            if pending in self.ea.sigma_a:
                ddst = f.succ(pos.r, deleted(pending))
                if ddst is not None:
                    out.append(_Pos(_MID, ddst, pos.q))
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

    def _closure(self, pos: _Pos, pending: str | None) -> tuple[_Pos, ...]:
        key = (pos, pending)
        if key not in self._adv:
            seen = {pos}
            queue = [pos]
            while queue:
                cur = queue.pop()
                for nxt in self._advance_step(cur, pending):
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
            self._adv[key] = tuple(sorted(seen, key=_Pos.key))
        return self._adv[key]

    def _sterile(self, pos: _Pos, pending: str | None) -> bool:
        """A position that admits no reaction at all: nothing may happen under
        it, because the recursion requires an existing reaction choice."""
        if self._end(pos):
            return False
        return not self._advance_step(pos, pending)

    # -- reaction endpoint tracking (supervisor-side, plant-free)

    def _initial_ends(self):
        root = _Pos(_ROOT, self.fa.f.initial, self.rt.initial)
        ends: list = []
        viols: list[str] = []
        for p in self._closure(root, None):
            if p.q is None or p.q == DEAD:
                viols.append("initial burst leaves the supervised language")
            if self._end(p):
                ends.append((p.r, p.q))
        return root, frozenset(ends), viols

    def _react(self, ends: frozenset, e: str):
        key = (ends, e)
        if key not in self._react_memo:
            new_ends: set = set()
            viols: list[str] = []
            for r, q in sorted(ends, key=lambda p: _Pos(_MID, p[0], p[1]).key()):
                if self.reaction_observer is not None:
                    self.reaction_observer(r, e)
                pre = _Pos(_PRE, r, q)
                for p in self._closure(pre, e):
                    if p.phase == _PRE:
                        continue
                    if p.q is None or p.q == DEAD:
                        viols.append(
                            f"reaction to {e!r} drives the supervisor view out "
                            "of the supervised language"
                        )
                    if self._end(p):
                        new_ends.add((p.r, p.q))
            self._react_memo[key] = (frozenset(new_ends), tuple(viols))
        return self._react_memo[key]

    # -- macro exploration

    def _node_key(self, node) -> tuple:
        x, pos = node
        return (state_token(x), pos.key())

    def _close_nodes(self, seeds: dict, pending: str | None):
        """Micro closure: fire enabled unobservable plant events at every
        advance-reachable, non-sterile position.  Returns nodes and local
        parent links for witness reconstruction."""
        nodes = dict(seeds)
        queue = deque(seeds)
        while queue:
            node = queue.popleft()
            x, pos = node
            for p2 in self._closure(pos, pending):
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

    def _macro_key(self, nodes, ends, pending):
        return (
            tuple(sorted(nodes, key=self._node_key)),
            tuple(sorted(ends, key=lambda p: _Pos(_MID, p[0], p[1]).key())),
            pending,
        )

    def run(self) -> None:
        if self._ran:
            return
        self._ran = True
        root, ends0, init_viols = self._initial_ends()
        for msg in init_viols:
            self.stealth_violations.append(((), msg))
        if not ends0:
            self.adm_violations.append(((), "no initial reaction choice"))
        nodes = self._close_nodes({(self.plant.initial, root): ("init",)}, None)
        key = self._macro_key(nodes, ends0, None)
        self.initial_key = key
        self.macros[key] = 0
        for node, parent in nodes.items():
            self._parents[(key, node)] = parent
        self._scan_hits(key)
        queue = deque([key])
        while queue:
            cur = queue.popleft()
            depth = self.macros[cur]
            if depth >= self.cfg.horizon:
                continue
            cur_nodes, cur_ends, pending = cur
            obs_here = self._witness_obs(cur)
            for d in self.plant.events:
                e = d.name
                if not d.observable:
                    continue
                fired: dict = {}  # plant target -> first node that fires e
                for node in cur_nodes:
                    x, pos = node
                    dst = self.plant.succ(x, e)
                    if dst is None:
                        continue
                    for p2 in self._closure(pos, pending):
                        if self._end(p2) and e in self._gamma(p2.q):
                            fired.setdefault(dst, node)
                            break
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
                    self.macros[nkey] = depth + 1
                    for node, parent in nodes.items():
                        self._parents[(nkey, node)] = parent
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
            parent = self._parents[(key, node)]
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

    def _witness_obs(self, key) -> Word:
        """Observation history of the macro's first discovery."""
        nodes = key[0]
        if not nodes:
            return ()
        return _project_obs(self.plant, self._witness(key, nodes[0]))

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
    """Admissibility, stealthiness and goal reachability, horizon bounded."""
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
        raise OracleBudgetError(
            "cyclic attack encoder: pass an explicit reaction cut"
        )
    cfg = ClosedLoopConfig(
        plant=ida.ctx.plant,
        rt=ida.ctx.rt,
        attack=fa,
        horizon=horizon,
    )
    ex = Explorer(cfg)
    bad: list[tuple[Word, Word]] = []
    for obs in ex.realizable_observations():  # each history once
        for t in sorted(fhat_strings(fa, obs, cut)):
            for i in range(len(t)):
                if induced_e_state(ida, t[:i]) is None:
                    bad.append((obs, t[:i]))
                    break
    return bad


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
    det = sc.mode in ("unbounded", "bounded")

    def suffix_depth(counter_weight: int) -> int:
        d = bounds.max_reaction - 1
        if sc.mode == "bounded":
            d = min(d, sc.n_a - counter_weight)
        return max(d, 0)

    if point is None:
        depth = bounds.max_reaction
        if sc.mode == "bounded" and sc.bound_initial_insertions:
            depth = min(depth, sc.n_a)
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
    roots: list[tuple[str, int]] = [(e, 1 if e in ea.sigma_a else 0)]
    if e in ea.sigma_a:
        roots.append((deleted(e), 1))
    if det:
        out = []
        for root, weight in roots:
            for l in range(suffix_depth(weight) + 1):
                for c in itertools.product(ins, repeat=l):
                    out.append(frozenset({(root,) + c}))
        return out
    per_root: list[list[frozenset[Word]]] = []
    for root, weight in roots:
        opts: list[frozenset[Word]] = [frozenset()]
        for sub in _ins_downsets(ins, suffix_depth(weight)):
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
    from .synth import _edit_event_decls

    edges: dict[tuple[Word, str], Word] = {}
    states: set[Word] = {()}
    auto: dict[Word, str | None] = {}
    det = sc.mode in ("unbounded", "bounded")
    for key in sorted(table, key=lambda k: ((), "") if k is None else (k[0], k[1])):
        choice = table[key]
        base: Word = () if key is None else key[0]
        for member in sorted(choice):
            full = base + member
            for i in range(len(base), len(full)):
                edges[(full[:i], full[i])] = full[: i + 1]
                states.add(full[: i + 1])
            if det:
                for i in range(len(base) + (0 if key is None else 1), len(full)):
                    auto[full[:i]] = full[i]
                auto[full] = None
    if det:
        auto.setdefault((), None)
    f = Automaton(
        name="table",
        states=tuple(sorted(states, key=lambda s: (len(s), s))),
        events=_edit_event_decls(sc.plant, sc.ea),
        trans=edges,
        initial=(),
    )
    if det:
        init_eps = auto.get(()) is None
    else:
        init_eps = () in table.get(None, frozenset())
    return AttackFunction(
        f,
        sc.mode,
        sc.ea,
        n_a=sc.n_a,
        auto_insert=auto if det else {},
        initial_epsilon=init_eps,
    )


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
    """
    if len(sc.plant.states) > bounds.max_states:
        raise OracleBudgetError("plant too large for exhaustive enumeration")
    if len(sc.plant.obs_events) > bounds.max_obs:
        raise OracleBudgetError("too many observable events for enumeration")
    yielded = 0

    def missing(table: dict):
        fa = _table_attack(sc, table)
        holes: list = []

        def observe(r: State, e: str) -> None:
            if (r, e) not in table:
                holes.append((r, e))

        cfg = ClosedLoopConfig(
            sc.plant, sc.rtilde, fa, bounds.horizon, sc.x_crit
        )
        ex = Explorer(cfg, reaction_observer=observe)
        ex.run()
        hole = min(holes, key=lambda h: (len(h[0]), h[0], h[1])) if holes else None
        return hole, fa, bool(ex.stealth_violations)

    def rec(table: dict):
        nonlocal yielded
        if len(table) > bounds.max_points:
            raise OracleBudgetError("reaction table grew past the point budget")
        point, fa, broken = missing(table)
        if certifying_only and broken:
            return
        if point is None:
            yielded += 1
            if yielded > bounds.max_attackers:
                raise OracleBudgetError("too many attackers within the bounds")
            yield fa
            return
        for choice in _point_candidates(sc, point, bounds):
            table[point] = choice
            yield from rec(table)
            del table[point]

    for init_choice in _point_candidates(sc, None, bounds):
        yield from rec({None: init_choice})
