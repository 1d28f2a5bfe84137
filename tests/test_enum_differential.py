"""The incremental enumerator and the linear embedding check against their
from-scratch references in `enum_reference.py`."""

from __future__ import annotations

from dataclasses import replace
from random import Random

import pytest

from enum_reference import (
    reference_check_embedding,
    reference_enumerate_attackers,
    reference_point_candidates,
)
from sdattack.automata import ModelError
from sdattack.build import construct_aida, make_scenario
from sdattack.oracle import (
    EnumBounds,
    OracleBudgetError,
    check_embedding,
    _point_candidates,
    enumerate_attackers,
)
from sdattack.prune import prune_interruptible
from sdattack.randgen import random_scenario, tiny_scenario
from sdattack.synth import AttackFunction, make_attack

MODES = (("interruptible", None), ("unbounded", None), ("bounded", 1), ("bounded", 2))
BOUNDS = EnumBounds(max_attackers=50)
# seeds 5, 7, 8 and 9 draw the unobservable event `u`
SEEDS = range(12)


def signature(fa: AttackFunction) -> tuple:
    return (sorted(fa.f.trans.items()), sorted(fa.auto_insert.items()), fa.initial_epsilon)


def outcome(attackers) -> tuple[list[AttackFunction], tuple | None]:
    """The attackers yielded, and the refusal with the count before it."""
    out: list[AttackFunction] = []
    try:
        for fa in attackers:
            out.append(fa)
    except (OracleBudgetError, ModelError) as exc:
        return out, (type(exc).__name__, str(exc), len(out))
    return out, None


def assert_same_enumeration(sc, bounds: EnumBounds = BOUNDS) -> list[AttackFunction]:
    """Both enumerators agree, certifying or not; returns every attacker seen."""
    seen: list[AttackFunction] = []
    for certifying_only in (True, False):
        new, new_refusal = outcome(enumerate_attackers(sc, bounds, certifying_only))
        ref, ref_refusal = outcome(reference_enumerate_attackers(sc, bounds, certifying_only))
        assert new_refusal == ref_refusal, (sc.name, certifying_only)
        assert [signature(fa) for fa in new] == [signature(fa) for fa in ref], (
            sc.name,
            certifying_only,
        )
        seen += new
    return seen


def assert_same_embedding(attackers, ida, horizon: int = 4) -> int:
    """Both embedding checks give the same list; returns how many are nonempty."""
    nonempty = 0
    for fa in attackers:
        bad = check_embedding(fa, ida, horizon)
        assert bad == reference_check_embedding(fa, ida, horizon)
        nonempty += bool(bad)
    return nonempty


@pytest.mark.parametrize("seed", SEEDS)
def test_tiny_sweep(seed):
    base = tiny_scenario(Random(seed), name=f"tiny{seed}")
    isda = prune_interruptible(construct_aida(base), base).ida
    for mode, n_a in MODES:
        sc = replace(base, mode=mode, n_a=n_a)
        attackers = assert_same_enumeration(sc)
        assert_same_embedding(attackers[:: max(1, len(attackers) // 25)], isda)


def test_the_sweep_exercises_what_it_compares():
    unobservable = [s for s in SEEDS if tiny_scenario(Random(s)).plant.unobs_events]
    assert len(unobservable) >= 3
    # some seed is refused on the attacker budget, and some embedding fails
    base = tiny_scenario(Random(2), name="tiny2")
    _, refusal = outcome(enumerate_attackers(base, BOUNDS))
    assert refusal == ("OracleBudgetError", "too many attackers within the bounds", 50)
    isda = prune_interruptible(construct_aida(base), base).ida
    attackers, _ = outcome(enumerate_attackers(base, BOUNDS))
    assert assert_same_embedding(attackers[:30], isda) > 0


def test_initial_burst_past_the_bound_is_enumerated_alike():
    # Without a bound on the initial burst, the candidates include bursts
    # longer than n_a; their encoders are legal bounded attackers.
    for seed in (1, 8):
        base = tiny_scenario(Random(seed), name=f"tiny{seed}")
        sc = replace(base, mode="bounded", n_a=1, bound_initial_insertions=False)
        assert_same_enumeration(sc)
        attackers, refusal = outcome(enumerate_attackers(sc, BOUNDS))
        assert refusal is None
        assert any(len(fa.chain_from(fa.f.initial)) > sc.n_a for fa in attackers)


def test_point_candidates_match_the_reference():
    """The initial burst as the reaction with the empty head gives the
    candidates of the reference, list for list and in order."""
    modes = [("interruptible", None, True), ("unbounded", None, True)]
    modes += [("bounded", n_a, bounded) for n_a in (1, 2, 3) for bounded in (True, False)]
    bases = [tiny_scenario(Random(s), name=f"tiny{s}") for s in range(200)]
    bases += [random_scenario(Random(s), max_states=3, max_events=3) for s in range(200)]
    calls = 0
    for base in bases:
        points = [None] + [((), e) for e in sorted(base.ea.sigma_o)]
        for mode, n_a, bounded in modes:
            sc = replace(base, mode=mode, n_a=n_a, bound_initial_insertions=bounded)
            # only past n_a + 1 insertions does an unbounded initial burst show that
            # max_reaction alone caps it
            for max_reaction in (1, 2, 3) if mode == "bounded" else (1, 2):
                bounds = EnumBounds(max_reaction=max_reaction)
                for point in points:
                    new = _point_candidates(sc, point, bounds)
                    assert new == reference_point_candidates(sc, point, bounds), (sc, point)
                    calls += 1
    assert calls > 25000


def test_one_shot_instance(one_shot):
    plant, sup = one_shot
    for mode, n_a in MODES:
        sc = make_scenario(plant, sup, {"a"}, {"1"}, mode=mode, n_a=n_a, name="hc")
        assert_same_enumeration(sc, EnumBounds())
        assert_same_enumeration(sc, EnumBounds(max_attackers=10))
        assert_same_enumeration(sc, EnumBounds(max_points=1))


def test_demo_refusal(demo_scenario):
    assert_same_enumeration(demo_scenario)


def test_embedding_with_a_reaction_cut(demo_scenario):
    """A cyclic encoder, expanded to a cut, on the full and the pruned arena."""
    trans = {("r", "a"): "r", ("r", "b"): "r", ("r", "c"): "r", ("r", "b.ins"): "r"}
    fa = make_attack(demo_scenario, "cyc", ("r",), trans, "r")
    aida = construct_aida(demo_scenario)
    isda = prune_interruptible(aida, demo_scenario).ida
    for ida in (aida, isda):
        for cut in (1, 2):
            assert check_embedding(fa, ida, 3, cut) == reference_check_embedding(fa, ida, 3, cut)
    assert check_embedding(fa, isda, 3, cut=1)
