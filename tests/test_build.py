"""Arena construction: exactness on the demo fixture plus self-audits."""

from __future__ import annotations

from random import Random

import pytest

from sdattack.alphabet import base_event, is_deleted, is_inserted
from sdattack.automata import ModelError, next_states, unobservable_reach
from sdattack.build import (
    FREE_COUNTER,
    Scenario,
    aida_maximality_violations,
    aida_size_bound,
    construct_aida,
    construct_baida,
    counter_step,
    make_scenario,
    nominal_critical_reachable,
    verify_aida_maximality,
)
from sdattack.game import E_SIDE, InformationState, Node, S_SIDE
from sdattack.randgen import random_scenario
from sdattack.supervisor import DEAD

from arena_reference import from_nodes, out_labels


def node(side, plant, sup, counter=None) -> Node:
    return Node(side, InformationState(frozenset(plant), sup), counter)


def s(plant, sup, counter=None) -> Node:
    return node(S_SIDE, plant, sup, counter)


def e(plant, sup, counter=None) -> Node:
    return node(E_SIDE, plant, sup, counter)


class TestScenarioValidation:
    def test_rejects_unknown_mode(self, demo_scenario):
        sc = demo_scenario
        with pytest.raises(ModelError):
            make_scenario(
                sc.plant, sc.supervisor.automaton, {"b"}, {"2"}, mode="eager"
            )

    def test_bounded_requires_positive_bound(self, demo_scenario):
        sc = demo_scenario
        with pytest.raises(ModelError):
            make_scenario(sc.plant, sc.supervisor.automaton, {"b"}, {"2"}, mode="bounded")
        with pytest.raises(ModelError):
            make_scenario(
                sc.plant, sc.supervisor.automaton, {"b"}, {"2"}, mode="bounded", n_a=0
            )

    def test_rejects_foreign_critical_states(self, demo_scenario):
        sc = demo_scenario
        with pytest.raises(ModelError):
            make_scenario(sc.plant, sc.supervisor.automaton, {"b"}, {"9"})

    def test_rejects_all_states_critical(self, demo_scenario):
        sc = demo_scenario
        with pytest.raises(ModelError):
            make_scenario(
                sc.plant, sc.supervisor.automaton, {"b"}, {"0", "1", "2", "3"}
            )

    def test_nominal_loop_never_reaches_critical(self, demo_scenario):
        assert not nominal_critical_reachable(demo_scenario)


class TestFixtureArena:
    def test_exact_nodes(self, demo_aida):
        assert set(demo_aida.s_states) == {
            s(["0"], "A"),
            s(["1"], "B"),
            s(["3"], "C"),
            s(["3"], "B"),
            s(["1"], "C"),
            s(["0"], DEAD),
            s(["2"], "A"),
        }
        assert set(demo_aida.e_states) == {
            e(["0"], "A"),
            e(["1"], "B"),
            e(["3"], "C"),
            e(["3"], "B"),
            e(["1"], "C"),
            e(["2"], "A"),
        }
        assert demo_aida.initial == s(["0"], "A")

    def test_exact_control_hops(self, demo_aida):
        hops = {
            y.token(): (set(g), z.token()) for y, (g, z) in demo_aida.h_se.items()
        }
        assert hops == {
            "S(0,A)": ({"a"}, "E(0,A)"),
            "S(1,B)": ({"a", "b"}, "E(1,B)"),
            "S(3,C)": ({"a", "c"}, "E(3,C)"),
            "S(3,B)": ({"a", "b"}, "E(3,B)"),
            "S(1,C)": ({"a", "c"}, "E(1,C)"),
            "S(2,A)": ({"a"}, "E(2,A)"),
        }

    def test_exact_environment_moves(self, demo_aida):
        moves = {
            (z.token(), sym): y.token() for (z, sym), y in demo_aida.h_es.items()
        }
        assert moves == {
            ("E(0,A)", "a"): "S(1,B)",
            ("E(1,B)", "b"): "S(3,C)",
            ("E(1,B)", "b.del"): "S(3,B)",
            ("E(1,B)", "b.ins"): "S(1,C)",
            ("E(3,C)", "a"): "S(0,A)",
            ("E(3,C)", "c"): "S(0,A)",
            ("E(3,B)", "a"): "S(0,dead)",
            ("E(3,B)", "b.ins"): "S(3,C)",
            ("E(1,C)", "c"): "S(2,A)",
        }

    def test_dead_supervisor_states_are_terminal(self, demo_aida):
        dead = s(["0"], DEAD)
        assert dead in demo_aida.s_states
        assert dead not in demo_aida.h_se

    def test_critical_e_states_are_terminal(self, demo_aida):
        goal = e(["2"], "A")
        assert goal in demo_aida.e_states
        assert not out_labels(demo_aida, goal)

    def test_construction_is_deterministic(self, demo_scenario, demo_aida):
        again = construct_aida(demo_scenario)
        assert again.s_states == demo_aida.s_states
        assert again.e_states == demo_aida.e_states
        assert again.h_se == demo_aida.h_se
        assert again.h_es == demo_aida.h_es

    def test_size_bound(self, demo_scenario, demo_aida):
        assert aida_size_bound(demo_scenario) == 32
        assert len(demo_aida.nodes) <= 32


class TestMaximalityAudit:
    def test_fixture_passes(self, demo_scenario, demo_aida):
        assert verify_aida_maximality(demo_aida, demo_scenario)
        assert aida_maximality_violations(demo_aida, demo_scenario) == []

    def _copy(self, ida, **overrides):
        kw = dict(
            name=ida.name,
            ctx=ida.ctx,
            s_states=ida.s_states,
            e_states=ida.e_states,
            h_se=dict(ida.h_se),
            h_es=dict(ida.h_es),
            initial=ida.initial,
        )
        kw.update(overrides)
        return from_nodes(**kw)

    def test_states_out_of_discovery_order_pass(self, demo_scenario, demo_aida):
        # S-states first, then E-states: a forward pass in id order misses
        # most of what the initial state reaches, and the search must not
        again = self._copy(demo_aida)
        assert again.side != demo_aida.side
        assert aida_maximality_violations(again, demo_scenario) == []

    def test_missing_move_detected(self, demo_scenario, demo_aida):
        h_es = dict(demo_aida.h_es)
        del h_es[(e(["1"], "B"), "b.del")]
        bad = self._copy(demo_aida, h_es=h_es)
        assert aida_maximality_violations(bad, demo_scenario)

    def test_spurious_move_detected(self, demo_scenario, demo_aida):
        h_es = dict(demo_aida.h_es)
        h_es[(e(["3"], "C"), "b")] = s(["0"], "A")
        bad = self._copy(demo_aida, h_es=h_es)
        assert aida_maximality_violations(bad, demo_scenario)

    def test_wrong_hop_payload_detected(self, demo_scenario, demo_aida):
        h_se = dict(demo_aida.h_se)
        h_se[s(["1"], "B")] = (frozenset({"a", "b"}), e(["0"], "A"))
        bad = self._copy(demo_aida, h_se=h_se)
        assert aida_maximality_violations(bad, demo_scenario)

    def test_wrong_initial_detected(self, demo_scenario, demo_aida):
        bad = self._copy(demo_aida, initial=s(["1"], "B"))
        assert aida_maximality_violations(bad, demo_scenario)

    def test_unreachable_states_listed_in_state_order(self, demo_scenario, demo_aida):
        # a detected S-state and a goal E-state: terminal, so only unreachable
        bad = self._copy(
            demo_aida,
            s_states=list(demo_aida.s_states) + [s(["1"], DEAD)],
            e_states=list(demo_aida.e_states) + [e(["2"], "B")],
        )
        assert aida_maximality_violations(bad, demo_scenario) == [
            "unreachable state S(1,dead)",
            "unreachable state E(2,B)",
        ]

    def test_expanded_dead_state_detected(self, demo_scenario, demo_aida):
        h_se = dict(demo_aida.h_se)
        h_se[s(["0"], DEAD)] = (frozenset({"a"}), e(["0"], DEAD))
        bad = self._copy(
            demo_aida,
            h_se=h_se,
            e_states=list(demo_aida.e_states) + [e(["0"], DEAD)],
        )
        assert aida_maximality_violations(bad, demo_scenario)


def counter_variant(sc, n_a, mode="bounded", **kw) -> Scenario:
    return Scenario(
        plant=sc.plant,
        supervisor=sc.supervisor,
        ea=sc.ea,
        x_crit=sc.x_crit,
        mode=mode,
        n_a=n_a,
        name=f"demo-b{n_a}",
        **kw,
    )


class TestBoundCounter:
    def test_transition_law(self, demo_scenario):
        ea = demo_scenario.ea
        for n in (0, 1, 2):
            assert counter_step(ea, 2, n, "a") == 0
            assert counter_step(ea, 2, n, "c") == 0
            assert counter_step(ea, 2, n, "b") == 1
            assert counter_step(ea, 2, n, "b.del") == 1
        assert counter_step(ea, 2, 0, "b.ins") == 1
        assert counter_step(ea, 2, 1, "b.ins") == 2
        assert counter_step(ea, 2, 2, "b.ins") is None
        baida = construct_baida(counter_variant(demo_scenario, 2))
        assert baida.initial.counter == 0
        assert {a.counter for a in baida.nodes} <= {0, 1, 2}

    def test_free_initial_variant(self, demo_scenario):
        ea = demo_scenario.ea
        assert counter_step(ea, 1, FREE_COUNTER, "b.ins") == FREE_COUNTER
        assert counter_step(ea, 1, FREE_COUNTER, "b") == 1
        assert counter_step(ea, 1, FREE_COUNTER, "a") == 0
        sc = counter_variant(demo_scenario, 1, bound_initial_insertions=False)
        assert construct_baida(sc).initial.counter == FREE_COUNTER

    def test_rejects_nonpositive_bound(self, demo_scenario):
        with pytest.raises(ModelError):
            construct_baida(counter_variant(demo_scenario, 0, mode="interruptible"))


class TestBoundedArena:
    def test_counter_annotated_nodes(self, demo_scenario):
        baida = construct_baida(counter_variant(demo_scenario, 1))
        tokens = {n.token() for n in baida.nodes}
        assert tokens == {
            "S(0,A)#0",
            "E(0,A)#0",
            "S(1,B)#0",
            "E(1,B)#0",
            "S(3,C)#1",
            "S(3,B)#1",
            "S(1,C)#1",
            "E(3,C)#1",
            "E(3,B)#1",
            "E(1,C)#1",
            "S(0,dead)#0",
            "S(2,A)#0",
            "E(2,A)#0",
        }
        # The bound disables the second insertion available in the raw arena.
        at_bound = e(["3"], "B", counter=1)
        assert out_labels(baida, at_bound) == {"a"}

    def test_counters_follow_the_law(self, demo_scenario):
        baida = construct_baida(counter_variant(demo_scenario, 2))
        for (z, sym), y in baida.h_es.items():
            if sym in ("b", "b.del"):
                assert y.counter == 1
            elif sym == "b.ins":
                assert y.counter == z.counter + 1
            else:
                assert y.counter == 0


class TestAgainstPlainRules:
    """The audit shares the successor kernel with the build, so kernel faults
    must show here: every edge, against the automaton operations it stands for."""

    def test_random_arenas(self):
        for seed in range(40):
            sc = random_scenario(Random(seed), max_states=6)
            rt, plant = sc.rtilde, sc.plant
            aida = construct_aida(sc)
            for y, (gamma, z) in aida.h_se.items():
                assert gamma == rt.gamma(y.info.sup), seed
                closed = unobservable_reach(plant, y.info.plant, gamma)
                assert z.info == InformationState(closed, y.info.sup), seed
            for (z, sym), y in aida.h_es.items():
                ev, est, sup = base_event(sym), z.info.plant, z.info.sup
                if not is_inserted(sym):
                    est = next_states(plant, est, ev)
                if not is_deleted(sym):
                    sup = rt.mu(sup, ev)
                assert y.info == InformationState(est, sup), (seed, sym)
