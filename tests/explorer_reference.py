"""The closed-loop `Explorer` before its macro steps were made linear,
kept as the test-only reference.

`_closure` materialises, per (start position, pending observation), every
position the attacker's moves reach, and `_reaction`, `_fire` and
`_close_nodes` walk one such closure per endpoint or node.  So one macro
transition costs time quadratic in the length of an interruptible
reaction, and a reaction reports its violation once per (endpoint,
position) pair that reaches it.  It states the semantics directly, and
`tests/test_explorer_differential.py` compares `sdattack.oracle.Explorer`
with it.  `reference_counterexamples` assembles the counterexamples of
`check_problem1` from a run of it.  Its positions are `_Pos` objects,
hashed and compared in Python and sorted by token keys.
"""

from __future__ import annotations

from collections import deque

from sdattack.alphabet import base_event, is_inserted
from sdattack.automata import Automaton, State, state_token
from sdattack.game import Node
from sdattack.oracle import ClosedLoopConfig, Word
from sdattack.supervisor import DEAD, RTilde

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
    edits so far.  Subclasses give the position rules: `_closure` (every
    position the attacker's moves reach under a pending observation),
    `_end` (a reaction may stop here) and `_sterile` (nothing may happen
    here, because the recursion requires an existing reaction choice).
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

    def _initial_ends(self, root: _Pos):
        ends: list = []
        viols: list[str] = []
        for p in self._closure(root, None):
            if p.q is None or p.q == DEAD:
                viols.append("initial burst leaves the supervised language")
            if self._end(p):
                ends.append((p.r, p.q))
        return frozenset(ends), viols

    def _reaction(self, ends: frozenset, e: str):
        """Endpoints after reacting to `e` from `ends`, and the violations."""
        new_ends: set = set()
        viols: list[str] = []
        for r, q in ends:
            for p in self._closure(_Pos(_PRE, r, q), e):
                if p.phase == _PRE:
                    continue
                if p.q is None or p.q == DEAD:
                    viols.append(
                        f"reaction to {e!r} drives the supervisor view out "
                        "of the supervised language"
                    )
                if self._end(p):
                    new_ends.add((p.r, p.q))
        return frozenset(new_ends), tuple(viols)

    def _fire(self, nodes, pending: str | None, e: str) -> dict:
        """Plant target -> first node whose reaction lets `e` fire."""
        fired: dict = {}
        for node in nodes:
            x, pos = node
            dst = self.plant.succ(x, e)
            if dst is None or dst in fired:
                continue
            for p2 in self._closure(pos, pending):
                if self._end(p2) and e in self._gamma(p2.q):
                    fired[dst] = node
                    break
        return fired

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
        self._adv: dict[tuple[_Pos, str | None], tuple[_Pos, ...]] = {}
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
        if self._end(pos):
            return False
        return not self._advance_step(pos, pending)

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
            tuple(sorted(ends, key=lambda p: _Pos(_MID, p[0], p[1]).key())),
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



def reference_counterexamples(ex: Explorer) -> list[tuple[Word, str]]:
    """The counterexamples `check_problem1` listed for this run, repeats kept."""
    ex.run()
    out = [(obs, "admissibility") for obs, _ in ex.adm_violations]
    out += [(obs, f"stealthiness: {msg}") for obs, msg in ex.stealth_violations]
    return out
