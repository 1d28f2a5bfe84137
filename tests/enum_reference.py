"""From-scratch attacker enumeration, kept as the test-only reference.

`reference_enumerate_attackers` states the enumeration directly: for
every partial reaction table it builds the table's encoder, runs one
fresh `Explorer` over the closed loop, and reads the table's holes off
the reactions that exploration computes, with the candidates of
`reference_point_candidates`.  `reference_check_embedding`
builds the attacker's edited strings from scratch for every observation
history and walks the arena from its initial state for every prefix.
The tests compare the incremental enumerator and the linear embedding
check of `sdattack.oracle` with both.
"""

from __future__ import annotations

import itertools

from literal_reference import fhat_strings
from sdattack.alphabet import EditAlphabet
from sdattack.automata import State
from sdattack.build import DETERMINISTIC, FREE_COUNTER, counter_step
from sdattack.game import IDA, Node
from sdattack.oracle import (
    ClosedLoopConfig,
    EnumBounds,
    Explorer,
    OracleBudgetError,
    Word,
    _has_insertion_cycle,
    _ins_downsets,
    _table_attack,
)
from sdattack.synth import AttackFunction


def reference_point_candidates(
    sc, point, bounds: EnumBounds
) -> list[frozenset[Word]]:
    """All reaction choices a total strategy may take at one decision point.

    The candidates as `sdattack.oracle` stated them before the initial
    burst became the reaction with the empty head, verbatim.
    """
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


def induced_e_state(ida: IDA, s: tuple[str, ...]) -> Node | None:
    """E-state reached by an edited string, contracting control hops.

    Undefined (None) as soon as a move or a control hop is missing.
    """
    z = ida.contract(ida.root)
    for sym in s:
        if z < 0:
            break
        z = ida.steps.get((z, sym), -1)
    return None if z < 0 else ida.node(z)


class _ObservedExplorer(Explorer):
    """An `Explorer` that reports every (endpoint, event) reaction it computes."""

    def __init__(self, cfg: ClosedLoopConfig, reaction_observer) -> None:
        super().__init__(cfg)
        self.reaction_observer = reaction_observer

    def _react(self, ends, e):
        for end in ends:  # the endpoint r * Q + q
            self.reaction_observer(self._rs[end // self._Q], e)
        return super()._react(ends, e)


def reference_enumerate_attackers(
    sc, bounds: EnumBounds = EnumBounds(), certifying_only: bool = False
):
    """Yield every total attack strategy within the bounds, one exploration per table."""
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
        ex = _ObservedExplorer(cfg, reaction_observer=observe)
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
        for choice in reference_point_candidates(sc, point, bounds):
            table[point] = choice
            yield from rec(table)
            del table[point]

    for init_choice in reference_point_candidates(sc, None, bounds):
        yield from rec({None: init_choice})


def reference_check_embedding(
    fa: AttackFunction, ida: IDA, horizon: int, cut: int | None = None
) -> list[tuple[Word, Word]]:
    """Edited histories the game cannot follow, every prefix walked from the start."""
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
