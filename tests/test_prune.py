"""Winning-region pruning: frozen fixture results and fixpoint laws."""

from __future__ import annotations

from dataclasses import replace
from random import Random

import pytest

from sdattack import ClosedLoopConfig, check_problem1, construct_aida, make_scenario, synthesize
from sdattack.automata import Automaton, EventDecl
from sdattack.build import Scenario, construct_baida
from sdattack.game import is_subsystem
from sdattack.modelio import format_ida, parse_ida
from sdattack.prune import (
    prune,
    prune_bounded,
    prune_interruptible,
    prune_unbounded,
)
from sdattack.randgen import random_scenario
from sdattack.supervisor import DEAD

from prune_reference import drop_dead_supervisor, reference_prune, worklist_prune
from arena_reference import from_nodes, out_labels


def tokens(ida):
    return {n.token() for n in ida.nodes}


def moves(ida):
    return {(z.token(), sym): y.token() for (z, sym), y in ida.h_es.items()}


def same_structure(a, b):
    return (
        set(a.s_states) == set(b.s_states)
        and set(a.e_states) == set(b.e_states)
        and a.h_se == b.h_se
        and a.h_es == b.h_es
        and a.initial == b.initial
    )


def bounded_variant(sc, n_a):
    return Scenario(
        plant=sc.plant,
        supervisor=sc.supervisor,
        ea=sc.ea,
        x_crit=sc.x_crit,
        mode="bounded",
        n_a=n_a,
        name=f"{sc.name}-b{n_a}",
    )


class TestDropDeadSupervisor:
    def test_drops_dead_region(self, demo_aida):
        trimmed = drop_dead_supervisor(demo_aida)
        assert all(n.info.sup != DEAD for n in trimmed.nodes)
        assert len(trimmed.nodes) == 12
        assert ("E(3,B)", "a") not in moves(trimmed)
        assert moves(trimmed)[("E(3,B)", "b.ins")] == "S(3,C)"


class TestInterruptible:
    def test_fixture_structure(self, demo_scenario, demo_aida):
        res = prune_interruptible(demo_aida, demo_scenario)
        assert tokens(res.ida) == {
            "S(0,A)", "E(0,A)",
            "S(1,B)", "E(1,B)",
            "S(3,C)", "E(3,C)",
            "S(1,C)", "E(1,C)",
            "S(2,A)", "E(2,A)",
        }
        assert moves(res.ida) == {
            ("E(0,A)", "a"): "S(1,B)",
            ("E(1,B)", "b"): "S(3,C)",
            ("E(1,B)", "b.ins"): "S(1,C)",
            ("E(3,C)", "a"): "S(0,A)",
            ("E(3,C)", "c"): "S(0,A)",
            ("E(1,C)", "c"): "S(2,A)",
        }
        assert res.flagged == frozenset()
        assert res.rounds >= 1

    def test_idempotent(self, demo_scenario, demo_aida):
        once = prune_interruptible(demo_aida, demo_scenario)
        twice = prune_interruptible(once.ida, demo_scenario)
        assert same_structure(once.ida, twice.ida)

    def test_dispatcher_agrees(self, demo_scenario, demo_aida):
        assert same_structure(
            prune(demo_aida, demo_scenario).ida,
            prune_interruptible(demo_aida, demo_scenario).ida,
        )


@pytest.fixture(scope="module")
def usda(demo_scenario, demo_aida):
    return prune_unbounded(demo_aida, demo_scenario)


class TestUnbounded:
    def test_fixture_structure(self, usda):
        assert tokens(usda.ida) == {
            "S(0,A)", "E(0,A)",
            "S(1,B)", "E(1,B)",
            "S(3,C)", "E(3,C)",
            "S(3,B)", "E(3,B)",
            "S(1,C)", "E(1,C)",
            "S(2,A)", "E(2,A)",
        }
        m = moves(usda.ida)
        assert m[("E(1,B)", "b.del")] == "S(3,B)"
        assert m[("E(3,B)", "b.ins")] == "S(3,C)"
        assert ("E(3,B)", "a") not in m

    def test_flags(self, usda):
        assert {n.token() for n in usda.flagged} == {"E(3,B)"}

    def test_flagged_states_keep_insertions_only(self, usda):
        for z in usda.flagged:
            labels = out_labels(usda.ida, z)
            assert labels
            assert all(sym.endswith(".ins") for sym in labels)

    def test_idempotent(self, demo_scenario, usda):
        twice = prune_unbounded(usda.ida, demo_scenario)
        assert same_structure(usda.ida, twice.ida)
        assert twice.flagged == usda.flagged

    def test_contains_interruptible_region(self, demo_scenario, demo_aida, usda):
        isda = prune_interruptible(demo_aida, demo_scenario)
        assert is_subsystem(isda.ida, usda.ida)


class TestBounded:
    def test_fixture_structure_at_bound_one(self, demo_scenario, demo_aida):
        sc = bounded_variant(demo_scenario, 1)
        res = prune_bounded(construct_baida(sc, demo_aida), sc)
        assert tokens(res.ida) == {
            "S(0,A)#0", "E(0,A)#0",
            "S(1,B)#0", "E(1,B)#0",
            "S(3,C)#1", "E(3,C)#1",
            "S(1,C)#1", "E(1,C)#1",
            "S(2,A)#0", "E(2,A)#0",
        }
        assert moves(res.ida) == {
            ("E(0,A)#0", "a"): "S(1,B)#0",
            ("E(1,B)#0", "b"): "S(3,C)#1",
            ("E(1,B)#0", "b.ins"): "S(1,C)#1",
            ("E(3,C)#1", "a"): "S(0,A)#0",
            ("E(3,C)#1", "c"): "S(0,A)#0",
            ("E(1,C)#1", "c"): "S(2,A)#0",
        }
        assert res.flagged == frozenset()

    def test_dispatcher_builds_counter_game(self, demo_scenario, demo_aida):
        sc = bounded_variant(demo_scenario, 1)
        via_dispatch = prune(demo_aida, sc)
        direct = prune_bounded(construct_baida(sc, demo_aida), sc)
        assert same_structure(via_dispatch.ida, direct.ida)

    def test_idempotent(self, demo_scenario, demo_aida):
        sc = bounded_variant(demo_scenario, 2)
        once = prune_bounded(construct_baida(sc, demo_aida), sc)
        twice = prune_bounded(once.ida, sc)
        assert same_structure(once.ida, twice.ida)
        assert twice.flagged == once.flagged

    def test_generous_bound_mirrors_unbounded_shape(self, demo_scenario, demo_aida):
        # With two insertions allowed the blocked branch reopens: the
        # counter projection of the winning region matches the unbounded one.
        sc = bounded_variant(demo_scenario, 2)
        res = prune_bounded(construct_baida(sc, demo_aida), sc)
        usda = prune_unbounded(demo_aida, demo_scenario)
        flat = {t.split("#")[0] for t in tokens(res.ida)}
        assert flat == tokens(usda.ida)

    def test_rejects_missing_bound(self, demo_scenario, demo_aida):
        with pytest.raises(ValueError):
            prune_bounded(demo_aida, demo_scenario)


@pytest.fixture()
def halting_scenario():
    # Plant can halt outside the critical set: 0 -b-> 4 is a stealthy
    # dead end, 0 -c-> 1 reaches the goal.  The supervisor expects b or
    # c once and nothing afterwards.
    events = (EventDecl("b", True, False), EventDecl("c", True, True))
    plant = Automaton(
        name="G",
        states=("0", "4", "1"),
        events=events,
        trans={("0", "b"): "4", ("0", "c"): "1"},
        initial="0",
    )
    sup = Automaton(
        name="R",
        states=("A", "B", "C"),
        events=events,
        trans={("A", "b"): "B", ("A", "c"): "C"},
        initial="A",
    )
    return make_scenario(
        plant, sup, frozenset({"b"}), frozenset({"1"}), mode="unbounded", name="halting"
    )


class TestHaltingPlant:
    def test_safe_dead_ends_stay_in_unbounded_region(self, halting_scenario):
        # The halted branch loses its only (suicidal) insertion but no
        # observation can ever occur there, so idling is stealthy and
        # the branch must not be pruned away.
        sc = halting_scenario
        aida = construct_aida(sc)
        res = prune_unbounded(aida, sc)
        toks = tokens(res.ida)
        assert "E(4,B)" in toks
        assert "E(1,C)" in toks
        assert res.flagged == frozenset()
        halted = next(n for n in res.ida.nodes if n.token() == "E(4,B)")
        assert out_labels(res.ida, halted) == frozenset()

    def test_interruptible_region_contained(self, halting_scenario):
        sc = halting_scenario
        aida = construct_aida(sc)
        isda = prune_interruptible(aida, sc)
        usda = prune_unbounded(aida, sc)
        assert is_subsystem(isda.ida, usda.ida)

    def test_attack_through_live_branch_verifies(self, halting_scenario):
        sc = halting_scenario
        result = synthesize(sc)
        assert result.feasible
        cfg = ClosedLoopConfig(sc.plant, sc.rtilde, result.attack, 10, sc.x_crit)
        assert check_problem1(cfg, sc.strength).ok(sc.strength)


PRUNERS = {
    "interruptible": prune_interruptible,
    "unbounded": prune_unbounded,
    "bounded": prune_bounded,
}


def mode_variants(sc):
    """The scenario in every attacker mode, each with the arena its pruning takes."""
    aida = construct_aida(sc)
    yield replace(sc, mode="interruptible", n_a=None), aida
    yield replace(sc, mode="unbounded", n_a=None), aida
    for n_a in (1, 2, 3):
        for bound_initial in (True, False):
            var = replace(
                sc, mode="bounded", n_a=n_a, bound_initial_insertions=bound_initial
            )
            yield var, construct_baida(var, aida)


def in_order(res):
    ida = res.ida
    return (
        ida.name,
        ida.s_states,
        ida.e_states,
        list(ida.h_se.items()),
        list(ida.h_es.items()),
        res.flagged,
    )


def assert_matches_reference(sc):
    for var, arena in mode_variants(sc):
        got = PRUNERS[var.mode](arena, var)
        want = reference_prune(arena, var)
        assert in_order(got) == in_order(want), (sc.name, var.mode, var.n_a)


class TestMatchesRoundBasedReference:
    """The worklist fixpoint gives the arenas and flags of whole-arena rounds."""

    def test_demo(self, demo_scenario):
        assert_matches_reference(demo_scenario)

    def test_halting_plant(self, halting_scenario):
        assert_matches_reference(halting_scenario)

    def test_random_sweep(self):
        for seed in range(300):
            assert_matches_reference(
                random_scenario(Random(seed), max_states=6, name=f"rand{seed}")
            )


def arrays(res):
    ida = res.ida
    return (ida.name, ida.side, ida.est, ida.sup, ida.counter, ida.off, ida.lab, ida.dst,
            ida.root, ida.initial, res.flags, res.rounds)


class TestMatchesWorklistReference:
    """The pass gives the arrays, flags and rounds of the first worklist pass,
    on the built arena and again on the arena it pruned.  The second run
    matters: a flagged state keeps only its insertions, so its race
    requirements are no longer in its row."""

    def test_random_sweep(self):
        for seed in range(300):
            sc = random_scenario(Random(seed), name=f"rand{seed}")
            aida = construct_aida(sc)
            variants = [(replace(sc, mode=mode), aida) for mode in ("interruptible", "unbounded")]
            for n_a in (1, 2):
                var = replace(sc, mode="bounded", n_a=n_a)
                variants.append((var, construct_baida(var, aida)))
            for var, arena in variants:
                got, want = PRUNERS[var.mode](arena, var), worklist_prune(arena, var)
                assert arrays(got) == arrays(want), (seed, var.mode, var.n_a)
                again = PRUNERS[var.mode](got.ida, var)
                assert arrays(again) == arrays(worklist_prune(want.ida, var)), (seed, var.mode)


class TestParsedArena:
    """An arena the library did not build: a state the initial state cannot
    reach, and one reached only through a dead S-state that has a hop."""

    EXTRA = ["node x0 E plant=1 sup=A", "edge x0 move a n2",  # nothing reaches x0
             "node x1 E plant=3 sup=A", "edge n10 gamma a x1", "edge x1 move a n2"]
    X0, X1 = (frozenset({"1"}), "A"), (frozenset({"3"}), "A")  # (plant estimate, supervisor)

    @pytest.mark.parametrize("mode", sorted(PRUNERS))
    def test_pruning_drops_both(self, demo_scenario, demo_aida, mode):
        sc = replace(demo_scenario, mode=mode, n_a=1 if mode == "bounded" else None)
        arena, counter = demo_aida, ""
        if mode == "bounded":
            arena, counter = construct_baida(sc, demo_aida), " counter=0"
        extra = [line + counter if line.startswith("node") else line for line in self.EXTRA]
        parsed, _ = parse_ida(format_ida(arena) + "\n".join(extra) + "\n", sc.ctx)
        states = {(parsed.ests[parsed.est[a]], parsed.sup[a]): a for a in range(len(parsed.side))}
        reached = parsed.reach()
        assert not reached[states[self.X0]] and reached[states[self.X1]]
        got, want = PRUNERS[mode](parsed, sc), worklist_prune(parsed, sc)
        assert arrays(got)[:-1] == arrays(want)[:-1]  # all but `rounds`
        kept = {(got.ida.ests[got.ida.est[a]], got.ida.sup[a]) for a in range(len(got.ida.side))}
        assert kept and self.X0 not in kept and self.X1 not in kept


class TestEmptyArena:
    @pytest.mark.parametrize("mode", sorted(PRUNERS))
    def test_absent_initial_state_gives_empty_arena(self, demo_scenario, demo_aida, mode):
        # What pruning leaves of an infeasible arena: the initial state is gone.
        sc = replace(demo_scenario, mode=mode, n_a=1 if mode == "bounded" else None)
        initial = replace(demo_aida.initial, counter=0 if mode == "bounded" else None)
        empty = from_nodes("empty", sc.ctx, [], [], {}, {}, initial)
        res = PRUNERS[mode](empty, sc)
        assert not res.ida.nodes
        assert not res.ida.h_se and not res.ida.h_es
        assert res.flagged == frozenset()

    @pytest.mark.parametrize("bound_initial", [True, False])
    def test_counter_game_without_initial_state_is_empty(self, demo_scenario, demo_aida,
                                                         bound_initial):
        # The counter game of what pruning leaves of an infeasible arena.
        sc = replace(demo_scenario, mode="bounded", n_a=1, bound_initial_insertions=bound_initial)
        empty = from_nodes("empty", sc.ctx, [], [], {}, {}, demo_aida.initial)
        baida = construct_baida(sc, empty)
        assert (baida.root, baida.side, baida.off, baida.lab) == (-1, [], [0], [])
        assert baida.initial == replace(demo_aida.initial, counter=sc.initial_counter)
        res = prune_bounded(baida, sc)
        assert not res.ida.side and res.flags == frozenset() and res.rounds == 0
