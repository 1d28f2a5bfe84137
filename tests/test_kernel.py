"""The table kernel and its builder against the tuple-keyed ones they replaced.

Over `random_scenario(Random(s))` for s in 0..299 and the demo, in five
attacker modes, `construct_aida` must give every array of the verbatim
tuple-keyed builder (`arena_reference.tuple_construct_aida`), the
estimate table included: estimate ids come from the order in which the
kernel fills its observation steps.  On every state of the arena that
pruning reads in that mode (the counter game in bounded modes), the
kernel's hop, moves and race mask must decode to what the verbatim
kernel (`arena_reference.TupleSuccessors`) gives: the same symbol ids,
the same (side, estimate id, supervisor state) triples, and the race
events as bits.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from random import Random

import pytest

import arena_reference as ref
from sdattack.build import construct_aida, construct_baida
from sdattack.game import E_SIDE, S_SIDE, Successors
from sdattack.randgen import random_scenario
from sdattack.supervisor import DEAD

MODES = {
    "interruptible": dict(mode="interruptible", n_a=None),
    "unbounded": dict(mode="unbounded", n_a=None),
    "bounded-1": dict(mode="bounded", n_a=1),
    "bounded-2": dict(mode="bounded", n_a=2),
    "bounded-free": dict(mode="bounded", n_a=1, bound_initial_insertions=False),
}


def sweep(demo, mode: str):
    for base in (demo, *(random_scenario(Random(s), name=f"rand{s}") for s in range(300))):
        yield replace(base, **MODES[mode])


def triple(succ: Successors, key: int) -> tuple:
    """(side, estimate id, supervisor state) of one of the kernel's state ints."""
    e, r = divmod(key, succ.width)
    return (E_SIDE if r & 1 else S_SIDE), e, succ.rt.automaton.states[r >> 1]


def arrays(ida) -> tuple:
    return (ida.name, ida.syms.labels, ida.ests, ida.side, ida.est, ida.sup, ida.counter,
            ida.off, ida.lab, ida.dst, ida.root, ida.initial)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_builder_matches_the_tuple_builder(demo_scenario, mode):
    for sc in sweep(demo_scenario, mode):
        got, want = construct_aida(sc), ref.tuple_construct_aida(sc)
        assert arrays(got) == arrays(want), sc.name
        if sc.mode == "bounded":
            assert arrays(construct_baida(sc, got)) == arrays(construct_baida(sc, want)), sc.name


@pytest.mark.parametrize("mode", sorted(MODES))
def test_kernel_matches_the_tuple_kernel(demo_scenario, mode):
    for sc in sweep(demo_scenario, mode):
        arena = ref.tuple_construct_aida(sc)
        if sc.mode == "bounded":
            arena = construct_baida(sc, arena)
        new, old = Successors(sc.ctx, arena.ests), ref.TupleSuccessors(sc.ctx, arena.ests)
        assert triple(new, new.initial()) == old.initial(), sc.name
        for side, e, q in dict.fromkeys(zip(arena.side, arena.est, arena.sup)):
            qid = new.qids[q]
            if side == S_SIDE:
                syms, keys = new.moves(e, 2 * qid)
                want = [old.hop(e, q)] if q != DEAD else []
                assert list(zip(syms, map(partial(triple, new), keys))) == want, sc.name
                continue
            mask = new.race_mask(e, qid)
            events = [ev for i, ev in enumerate(new.events) if mask >> i & 1]
            assert events == old.race_events(e, q), (sc.name, e, q)
            syms, keys = new.moves(e, 2 * qid + 1)
            want_syms, want_keys = old.moves(e, q)
            assert syms == want_syms and [triple(new, k) for k in keys] == want_keys, sc.name
        assert new.ests == old.ests, sc.name
