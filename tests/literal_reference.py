"""The literal recursive semantics of the attacked closed loop, kept as
the test-only reference.

An exact membership test (`in_closed_loop`, `closed_loop_language`) that
follows the block decomposition of attacked strings literally,
enumerating reaction choices and the monotone positions at which
unobservable events may fire.  It states the semantics directly and
costs exponential time; the tests hold the macro-state exploration of
`sdattack.oracle` to it.  Like `oracle`, it treats the supervisor
completion as the judge.

`reactions` and `initial_reactions` are the reaction sets as
`sdattack.synth` stated them before the initial burst became the
reaction with the empty head, verbatim; `fhat_strings` and `_Literal`
read them.  `evaluate` asks `sdattack.synth` for the reaction set after
an edited history.
"""

from __future__ import annotations

import itertools

from sdattack.alphabet import EditAlphabet
from sdattack.automata import Automaton, State, language, parallel, step
from sdattack.oracle import ClosedLoopConfig, Word
from sdattack.supervisor import RTilde
from sdattack import synth
from sdattack.synth import AttackFunction, _insertion_prefixes


def reactions(
    fa: AttackFunction, r: State, e: str, max_len: int | None = None
) -> frozenset[tuple[str, ...]]:
    """Reaction strings offered at encoder state r for observation e.

    Interruptible attackers yield every prefix of every insertion
    continuation (simple paths unless max_len forces longer enumeration);
    deterministic attackers yield the single committed string.
    """
    out: set[tuple[str, ...]] = set()
    for sym in fa.ea.reaction_heads(e):
        landing = fa.f.succ(r, sym)
        if landing is None:
            continue
        if fa.deterministic:
            out.add((sym,) + fa.chain_from(landing))
        else:
            out.update((sym,) + tail for tail in _insertion_prefixes(fa, landing, max_len))
    return frozenset(out)


def initial_reactions(
    fa: AttackFunction, max_len: int | None = None
) -> frozenset[tuple[str, ...]]:
    """The initial burst set: what the attacker may do before anything happens."""
    r = fa.f.initial
    if fa.deterministic:
        return frozenset({fa.chain_from(r)})
    tails = _insertion_prefixes(fa, r, max_len)
    if not fa.initial_epsilon:
        tails = {t for t in tails if t}
    return frozenset(tails)


def evaluate(
    fa: AttackFunction,
    s: tuple[str, ...],
    e: str,
    max_len: int | None = None,
) -> frozenset[tuple[str, ...]] | None:
    """The reaction set offered after edited history s on observation e.

    None means the history itself is outside the encoder (partiality).
    The empty observation asks for the initial burst and needs s empty.
    """
    if e == "":
        if s:
            return frozenset()
        return synth.initial_reactions(fa, max_len)
    if e not in fa.ea.sigma_o:
        raise ValueError(f"{e!r} is not an observable event")
    r = fa.state_after(s)
    if r is None:
        return None
    return synth.reactions(fa, r, e, max_len)


def supervisor_decision(
    rt: RTilde, ea: EditAlphabet, edited: Word
) -> frozenset[str]:
    """Control decision after an edited string; empty once outside the model."""
    q = rt.run(rt.initial, ea.supervisor_view(edited))
    return frozenset() if q is None else rt.gamma(q)


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
    return language(parallel(sup, plant), max_len)
