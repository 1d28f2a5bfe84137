"""The id-indexed arena against the Node-based reference it replaced.

Over `random_scenario(Random(s), max_states=6)` for s in 0..99 and the
demo, in five attacker modes, the arrays must give the reference's node
lists in order, its edges in insertion order, its audit messages (on the
arena and on corrupted copies) and its pruning.  The counter arena must
also give the arrays of the first array walk (`walk_baida`), over seeds
0..299.  The last class corrupts the arrays of the demo arena directly
and pins the audit's messages.
"""

from __future__ import annotations

from dataclasses import replace
from random import Random

import pytest

import arena_reference as ref
from prune_reference import reference_prune
from sdattack.build import aida_maximality_violations, construct_aida, construct_baida
from sdattack.game import IDA, S_SIDE, InformationState, Node
from sdattack.prune import prune
from sdattack.randgen import random_scenario
from sdattack.supervisor import DEAD

MODES = {
    "interruptible": dict(mode="interruptible", n_a=None),
    "unbounded": dict(mode="unbounded", n_a=None),
    "bounded-1": dict(mode="bounded", n_a=1),
    "bounded-2": dict(mode="bounded", n_a=2),
    "bounded-free": dict(mode="bounded", n_a=1, bound_initial_insertions=False),
}


def scenarios(demo):
    yield demo
    for seed in range(100):
        yield random_scenario(Random(seed), max_states=6, name=f"rand{seed}")


def as_arena(nodes) -> IDA:
    """The reference's Node-keyed structure as an array arena."""
    return ref.from_nodes(nodes.name, nodes.ctx, nodes.s_states, nodes.e_states,
                          nodes.h_se, nodes.h_es, nodes.initial)


def assert_same(arena: IDA, nodes, label) -> None:
    assert arena.initial == nodes.initial, label
    assert list(arena.s_states) == list(nodes.s_states), label
    assert list(arena.e_states) == list(nodes.e_states), label
    assert list(arena.h_se.items()) == list(nodes.h_se.items()), label
    assert list(arena.h_es.items()) == list(nodes.h_es.items()), label


def corruptions(nodes):
    """Copies of a reference arena with one fault each, as array arenas."""
    moves = list(nodes.h_es)
    if moves:
        dropped = {k: v for k, v in nodes.h_es.items() if k != moves[-1]}
        yield ref.from_nodes(nodes.name, nodes.ctx, nodes.s_states, nodes.e_states,
                             nodes.h_se, dropped, nodes.initial)
        moved = dict(nodes.h_es)
        moved[moves[0]] = next(y for y in nodes.s_states if y != moved[moves[0]])
        yield ref.from_nodes(nodes.name, nodes.ctx, nodes.s_states, nodes.e_states,
                             nodes.h_se, moved, nodes.initial)
    stray = Node(S_SIDE, InformationState(frozenset(nodes.ctx.plant.states), DEAD))
    if stray not in nodes.s_states:
        yield ref.from_nodes(nodes.name, nodes.ctx, [*nodes.s_states, stray], nodes.e_states,
                             nodes.h_se, nodes.h_es, nodes.initial)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_arrays_match_the_node_reference(demo_scenario, mode):
    for base in scenarios(demo_scenario):
        sc = replace(base, **MODES[mode])
        aida, nodes = construct_aida(sc), ref.construct_aida(sc)
        assert_same(aida, nodes, (sc.name, "aida"))
        assert aida_maximality_violations(aida, sc) == []
        assert ref.aida_maximality_violations(aida, sc) == []
        for bad in corruptions(nodes):
            want = ref.aida_maximality_violations(bad, sc)
            assert want and aida_maximality_violations(bad, sc) == want, sc.name
        full, full_nodes = aida, nodes
        if sc.mode == "bounded":
            full, full_nodes = construct_baida(sc, aida), ref.construct_baida(sc, nodes)
            assert_same(full, full_nodes, (sc.name, "baida"))
        got, want = prune(aida, sc), reference_prune(as_arena(full_nodes), sc)
        assert_same(got.ida, want.ida, (sc.name, "pruned"))
        assert got.flagged == want.flagged, sc.name


def arrays(ida: IDA) -> tuple:
    return (ida.name, ida.side, ida.est, ida.sup, ida.counter, ida.off, ida.lab, ida.dst,
            ida.root, ida.initial)


@pytest.mark.parametrize("n_a", [1, 2])
@pytest.mark.parametrize("bound_initial", [True, False])
def test_counter_arena_matches_the_label_walk(demo_scenario, n_a, bound_initial):
    """Counter steps read from the table give the arrays of calling
    `counter_step` on the label of every edge."""
    seeds = (random_scenario(Random(s), max_states=6, name=f"rand{s}") for s in range(300))
    for base in (demo_scenario, *seeds):
        sc = replace(base, mode="bounded", n_a=n_a, bound_initial_insertions=bound_initial)
        aida = construct_aida(sc)
        got, want = construct_baida(sc, aida), ref.walk_baida(sc, aida)
        assert arrays(got) == arrays(want), sc.name


class TestAuditCatchesFaultyArrays:
    """One corrupted entry of the demo arena's arrays, and the audit's message."""

    @pytest.fixture
    def arena(self, demo_scenario):
        return construct_aida(demo_scenario)

    @staticmethod
    def edge(arena, src: str, label: str) -> int:
        i = next(i for i in range(len(arena.side)) if arena.node(i).token() == src)
        return next(k for k in range(arena.off[i], arena.off[i + 1])
                    if arena.syms.labels[arena.lab[k]] == label)

    def test_wrong_move_target(self, demo_scenario, arena):
        # E(3,C) goes to S(0,A) on both a and c; c now leads to S(1,B)
        k = self.edge(arena, "E(3,C)", "c")
        arena.dst[k] = arena.dst[self.edge(arena, "E(0,A)", "a")]
        assert aida_maximality_violations(arena, demo_scenario) == [
            "wrong target for 'c' at E(3,C)"
        ]

    def test_dropped_move(self, demo_scenario, arena):
        k = self.edge(arena, "E(3,C)", "c")
        del arena.lab[k], arena.dst[k]
        arena.off[:] = [o - (o > k) for o in arena.off]
        assert aida_maximality_violations(arena, demo_scenario) == [
            "moves at E(3,C): missing ['c'], unexpected []"
        ]

    def test_wrong_decision_label(self, demo_scenario, arena):
        k = self.edge(arena, "S(1,B)", "gamma:a,b")
        arena.lab[k] = arena.syms.hop(frozenset({"a", "c"}))
        assert aida_maximality_violations(arena, demo_scenario) == [
            "wrong decision label at S(1,B)"
        ]

    def test_unreachable_extra_node(self, demo_scenario, arena):
        # a goal E-state: terminal, so unreachable is all that is wrong with it
        arena.side.append("E")
        arena.est.append(arena.ests.index(frozenset({"2"})))
        arena.sup.append("B")
        arena.counter.append(None)
        arena.off.append(arena.off[-1])
        assert aida_maximality_violations(arena, demo_scenario) == [
            "unreachable state E(2,B)"
        ]
