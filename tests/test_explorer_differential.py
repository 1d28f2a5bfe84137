"""The linear closed-loop `Explorer` against the quadratic one kept in
`explorer_reference.py`, on a seeded sweep.

Both must reach the same macro-states by the same observation histories,
with the same transitions and witnesses, and give the same verdict; the
new `check_problem1` lists the reference's counterexamples once each, in
the order they first occur.  The new macro keys hold packed ids, decoded
here to the reference's (plant state, `_Pos`) nodes and (r, q) endpoints
before the items are compared in order."""

from __future__ import annotations

import functools
from dataclasses import replace
from random import Random

import pytest

import explorer_reference as reference
from chains import chain_attack, chain_scenario
from sdattack.automata import Automaton, EventDecl, state_token
from sdattack.build import make_scenario
from sdattack.game import Node
from sdattack.oracle import (
    ClosedLoopConfig,
    EnumBounds,
    Explorer,
    _has_insertion_cycle,
    check_problem1,
    enumerate_attackers,
)
from sdattack.randgen import random_scenario, tiny_scenario
from sdattack.synth import AttackFunction, make_attack, relay_attack_function, synthesize

HORIZON = 5
# (mode, n_a, bound_initial_insertions)
MODES = (
    ("interruptible", None, True),
    ("unbounded", None, True),
    ("bounded", 1, True),
    ("bounded", 2, True),
    ("bounded", 1, False),
)
SEEDS = range(100)


PHASES = (reference._MID, reference._PRE, reference._ROOT)  # in packing order


def decode_position(ex: Explorer, pos: int) -> reference._Pos:
    phase, rq = divmod(pos, ex._RQ)
    r, q = divmod(rq, ex._Q)
    return reference._Pos(PHASES[phase], ex._rs[r], ex._qs[q])


def decode_key(ex: Explorer, key: tuple) -> tuple:
    """A macro key of `ex` in the reference's form."""
    nodes, ends, pending = key
    return (
        tuple((ex._xs[n // ex._P], decode_position(ex, n % ex._P)) for n in nodes),
        tuple((ex._rs[end // ex._Q], ex._qs[end % ex._Q]) for end in ends),
        pending,
    )


def compare(sc, fa: AttackFunction, horizon: int = HORIZON) -> tuple:
    """Assert both explorers agree on `fa`; returns (verdict, reference
    counterexamples with repeats)."""
    cfg = ClosedLoopConfig(sc.plant, sc.rtilde, fa, horizon, sc.x_crit)
    new, ref = Explorer(cfg), reference.Explorer(cfg)
    new.run()
    ref.run()
    decode = functools.partial(decode_key, new)
    assert [(decode(k), obs) for k, obs in new.macros.items()] == list(ref.macros.items())
    trans = [((decode(k), e), decode(nk)) for (k, e), nk in new.trans.items()]
    assert trans == list(ref.trans.items())
    assert new.weak_witness == ref.weak_witness
    assert new.strong_witness == ref.strong_witness
    verdict = check_problem1(cfg)
    assert verdict.admissible == (not ref.adm_violations)
    assert verdict.stealthy == (not ref.stealth_violations)
    repeated = reference.reference_counterexamples(ref)
    assert verdict.counterexamples == list(dict.fromkeys(repeated))
    return verdict, repeated


def random_encoder(sc, rng: Random, states: int) -> AttackFunction:
    """An interruptible encoder with random edges; insertion cycles included."""
    names = tuple(f"r{i}" for i in range(states))
    trans = {
        (r, sym): rng.choice(names)
        for r in names
        for sym in sorted(sc.ea.edit_symbols)
        if rng.random() < 0.5
    }
    sc = replace(sc, mode="interruptible", n_a=None)
    return make_attack(sc, "rnd", names, trans, names[0], initial_epsilon=rng.random() < 0.5)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_scenarios(seed):
    base = random_scenario(Random(seed), max_states=5, name=f"rand{seed}")
    for mode, n_a, bounded_burst in MODES:
        sc = replace(base, mode=mode, n_a=n_a, bound_initial_insertions=bounded_burst)
        result = synthesize(sc)
        if result.feasible:
            compare(sc, result.attack)
    compare(base, relay_attack_function(base))
    rng = Random(f"encoders/{seed}")
    for states in (1, 2, 3, 4):
        compare(base, random_encoder(base, rng, states))


@pytest.mark.parametrize("seed", range(12))
def test_enumerated_tiny_attackers(seed):
    base = tiny_scenario(Random(seed), name=f"tiny{seed}")
    for mode, n_a, _ in MODES[:4]:
        sc = replace(base, mode=mode, n_a=n_a)
        attackers = enumerate_attackers(sc, EnumBounds(max_attackers=10**6))
        for fa, _ in zip(attackers, range(15)):
            compare(sc, fa, horizon=4)


@pytest.mark.parametrize("committed", [False, True])
@pytest.mark.parametrize("length, fail_at", [(0, None), (1, None), (9, None), (9, 4), (16, 0)])
def test_chains(committed, length, fail_at):
    sc = chain_scenario(committed)
    verdict, _ = compare(sc, chain_attack(sc, length, fail_at), horizon=8)
    assert verdict.stealthy == (fail_at is None)


def test_witness_follows_the_key_order():
    """Two unobservable paths reach the critical state; the one found first
    depends on the order a node handles its positions in."""
    u1, u2, u3, u4, a = (EventDecl(n, n == "a", True) for n in ("u1", "u2", "u3", "u4", "a"))
    events = (a, u1, u2, u3, u4)
    plant = Automaton(
        "G", ("x0", "x1", "x2", "x3"), events,
        {("x0", "u1"): "x1", ("x0", "u2"): "x2", ("x1", "u3"): "x3", ("x2", "u4"): "x3",
         **{(x, "a"): x for x in ("x0", "x1", "x2", "x3")}},
        "x0",
    )
    # u1 is allowed before the supervisor sees `a`, u2 to u4 after it
    sup = Automaton(
        "S", ("s0", "s1"), events,
        {("s0", "a"): "s1", ("s0", "u1"): "s0",
         **{("s1", u): "s1" for u in ("a", "u2", "u3", "u4")}},
        "s0",
    )
    sc = make_scenario(plant, sup, frozenset({"a"}), frozenset({"x3"}), name="order")
    fa = make_attack(sc, "one", ("r0", "r1"), {("r0", "a.ins"): "r1"}, "r0")
    verdict, _ = compare(sc, fa, horizon=2)
    # the inserted `a` position sorts first, so u2 is fired before u1
    assert verdict.weak_witness == ("u2", "u4")


def test_demo(demo_scenario):
    compare(demo_scenario, synthesize(demo_scenario).attack, horizon=6)


def test_packed_ids_sort_as_the_token_keys():
    """Sorting packed ids sorts what they stand for by the reference's
    keys: (phase, token(r), token(q) or "?") for a position, and
    (token(x), position key) for a node.  Every id below `P` (or below
    `|X| * P`) is checked, made or not; the encoders are synthesized
    (`Node` states), relays and random ones, whose supervisor views
    leave the model."""
    left_model = node_states = 0
    for seed in SEEDS:
        base = random_scenario(Random(seed), max_states=5, name=f"rand{seed}")
        rng = Random(f"encoders/{seed}")
        encoders = [relay_attack_function(base), random_encoder(base, rng, 3)]
        for mode, n_a, bounded_burst in MODES[:2]:
            sc = replace(base, mode=mode, n_a=n_a, bound_initial_insertions=bounded_burst)
            result = synthesize(sc)
            if result.feasible:
                encoders.append(result.attack)
        for fa in encoders:
            ex = Explorer(ClosedLoopConfig(base.plant, base.rtilde, fa, HORIZON, base.x_crit))
            ex.run()
            keys = [decode_position(ex, p).key() for p in range(ex._P)]
            assert sorted(range(ex._P), key=keys.__getitem__) == list(range(ex._P))
            nodes = range(len(ex._xs) * ex._P)
            node_keys = [(state_token(ex._xs[n // ex._P]), keys[n % ex._P]) for n in nodes]
            assert sorted(nodes, key=node_keys.__getitem__) == list(nodes)
            built = [n % ex._P for key in ex.macros for n in key[0]]
            left_model += sum(decode_position(ex, p).q is None for p in built)
            node_states += isinstance(ex._rs[0], Node)
    assert left_model and node_states


def test_the_sweep_exercises_what_it_compares():
    unobservable = [s for s in SEEDS if random_scenario(Random(s), max_states=5).plant.unobs_events]
    assert len(unobservable) >= 10
    base = random_scenario(Random(unobservable[0]), max_states=5)
    rng = Random(f"encoders/{unobservable[0]}")
    assert any(_has_insertion_cycle(random_encoder(base, rng, n)) for n in (1, 2, 3, 4))
    # an interruptible chain repeats each failure once per endpoint reaching it
    sc = chain_scenario(False)
    verdict, repeated = compare(sc, chain_attack(sc, 9, 4), horizon=8)
    assert len(repeated) > 10 * len(verdict.counterexamples) > 0
    assert verdict.weak_witness is not None and verdict.strong_witness is not None
