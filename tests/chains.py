"""Insertion-chain scenarios and encoders for the replay tests, built in memory.

The scenario: `a` (compromised, controllable) is accepted by the
supervisor in every state, so inserting it never leaves the supervised
language, and the first `a` the supervisor sees enables `c`, which takes
the plant to the critical state `p1`.  `d` (compromised, uncontrollable)
never occurs, so inserting it is detected at once.  `b` is an
uncontrollable self-loop.
"""

from __future__ import annotations

from sdattack.automata import Automaton, EventDecl
from sdattack.build import Scenario, make_scenario
from sdattack.synth import AttackFunction, make_attack


def chain_scenario(committed: bool) -> Scenario:
    """The chain scenario, unbounded for committed chains, else interruptible."""
    events = (
        EventDecl("a", True, True),
        EventDecl("b", True, False),
        EventDecl("c", True, True),
        EventDecl("d", True, False),
    )
    plant = Automaton(
        "G", ("p0", "p1"), events,
        {("p0", "a"): "p0", ("p0", "b"): "p0", ("p0", "c"): "p1"}, "p0",
    )
    sup = Automaton(
        "R", ("r0", "r1"), events,
        {
            ("r0", "a"): "r1", ("r0", "b"): "r0",
            ("r1", "a"): "r1", ("r1", "b"): "r1", ("r1", "c"): "r1",
        },
        "r0",
    )
    mode = "unbounded" if committed else "interruptible"
    return make_scenario(
        plant, sup, frozenset({"a", "d"}), frozenset({"p1"}), mode=mode, name=f"chain-{mode}"
    )


def chain_attack(
    sc: Scenario, length: int, fail_at: int | None = None
) -> AttackFunction:
    """An encoder whose reactions walk a chain of `length` insertions of `a`.

    An interruptible encoder (`sc` interruptible) may stop anywhere on the
    chain and must insert at least one `a` first; a committed one plays
    the whole chain as its initial burst.  With `fail_at`, the genuine `b`
    leads into a second chain whose insertion number `fail_at` is `d.ins`,
    so the first observation that breaks stealth is `b`.
    """
    committed = sc.mode != "interruptible"
    main = [f"k{i}" for i in range(length + 1)]
    side = [f"s{i}" for i in range(length + 1)] if fail_at is not None else []
    trans: dict = {}
    auto: dict = {}

    def chain(states: list[str], bad: int | None) -> None:
        for i in range(len(states) - 1):
            sym = "d.ins" if i == bad else "a.ins"
            trans[(states[i], sym)] = states[i + 1]
            auto[states[i]] = sym

    chain(main, None)
    if side:
        chain(side, fail_at)
    for r in main[-1:] if committed else main:
        trans.update({(r, "a"): r, (r, "b"): side[0] if side else r, (r, "c"): "sink"})
    for r in side[-1:] if committed else side:
        trans.update({(r, "a"): r, (r, "b"): r, (r, "c"): "sink"})
    states = tuple(main + side + ["sink"])
    return make_attack(sc, "chain", states, trans, main[0], auto, initial_epsilon=not length)
