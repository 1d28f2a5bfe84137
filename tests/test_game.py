"""Game arena payloads, move guards and structural relations."""

from __future__ import annotations

import pytest

from sdattack.automata import ModelError
from sdattack.game import (
    E_SIDE,
    IDA,
    InformationState,
    Node,
    S_SIDE,
    es_successor,
    gamma_label,
    induced_e_state,
    is_race_free,
    is_subsystem,
    se_successor,
    union,
)


def info(plant, sup) -> InformationState:
    return InformationState(frozenset(plant), sup)


def enode(plant, sup) -> Node:
    return Node(E_SIDE, info(plant, sup))


def snode(plant, sup) -> Node:
    return Node(S_SIDE, info(plant, sup))


class TestTokens:
    def test_information_state_token(self):
        assert info(["2"], "A").token() == "(2,A)"
        assert info(["0", "1"], "B").token() == "({0,1},B)"

    def test_node_token(self):
        assert snode(["2"], "A").token() == "S(2,A)"
        assert Node(E_SIDE, info(["1"], "B"), counter=0).token() == "E(1,B)#0"

    def test_gamma_label(self):
        assert gamma_label(frozenset({"b", "a"})) == "gamma:a,b"


class TestMoves:
    def test_supervisor_hop(self, demo_scenario):
        sc = demo_scenario
        gamma, nxt = se_successor(sc.rtilde, sc.plant, info(["0"], "A"))
        assert gamma == {"a"}
        assert nxt == info(["0"], "A")

    def test_genuine_guard(self, demo_scenario):
        sc = demo_scenario
        args = (sc.rtilde, sc.plant, sc.ea)
        assert es_successor(*args, info(["0"], "A"), "a") == info(["1"], "B")
        # b is not in the decision at A, c is not feasible at plant state 0.
        assert es_successor(*args, info(["0"], "A"), "b") is None
        assert es_successor(*args, info(["1"], "B"), "c") is None

    def test_insertion_guard(self, demo_scenario):
        sc = demo_scenario
        args = (sc.rtilde, sc.plant, sc.ea)
        # Insertion moves the supervisor only; the plant set stays put.
        assert es_successor(*args, info(["1"], "B"), "b.ins") == info(["1"], "C")
        assert es_successor(*args, info(["0"], "A"), "b.ins") is None

    def test_deletion_guard(self, demo_scenario):
        sc = demo_scenario
        args = (sc.rtilde, sc.plant, sc.ea)
        # Deletion moves the plant only; the supervisor stays put.
        assert es_successor(*args, info(["1"], "B"), "b.del") == info(["3"], "B")
        assert es_successor(*args, info(["3"], "C"), "b.del") is None

    def test_uncompromised_events_cannot_be_edited(self, demo_scenario):
        sc = demo_scenario
        args = (sc.rtilde, sc.plant, sc.ea)
        assert es_successor(*args, info(["1"], "B"), "a.ins") is None
        assert es_successor(*args, info(["1"], "B"), "a.del") is None


class TestRaceFreedom:
    def test_all_aida_e_states_race_free(self, demo_aida):
        for z in demo_aida.e_states:
            assert is_race_free(z, demo_aida)

    def test_trimming_dead_creates_a_race(self, demo_scenario, demo_aida):
        from sdattack.prune import drop_dead_supervisor

        trimmed = drop_dead_supervisor(demo_aida)
        racy = enode(["3"], "B")
        assert racy in trimmed.e_states
        assert not is_race_free(racy, trimmed)

    def test_rejects_s_states(self, demo_aida):
        with pytest.raises(ModelError):
            is_race_free(demo_aida.initial, demo_aida)


class TestInducedState:
    def test_edited_strings_walk_to_e_states(self, demo_aida):
        assert induced_e_state(demo_aida, ()) == enode(["0"], "A")
        assert induced_e_state(demo_aida, ("a",)) == enode(["1"], "B")
        assert induced_e_state(demo_aida, ("a", "b.ins")) == enode(["1"], "C")
        assert induced_e_state(demo_aida, ("a", "b.del")) == enode(["3"], "B")
        assert induced_e_state(demo_aida, ("a", "b.ins", "c")) == enode(["2"], "A")

    def test_undefined_histories_return_none(self, demo_aida):
        assert induced_e_state(demo_aida, ("b",)) is None
        assert induced_e_state(demo_aida, ("a", "a")) is None


class TestStructure:
    def test_subsystem_reflexive(self, demo_aida):
        assert is_subsystem(demo_aida, demo_aida)

    def test_union_idempotent(self, demo_aida):
        u = union(demo_aida, demo_aida)
        assert u.s_states == demo_aida.s_states
        assert u.e_states == demo_aida.e_states
        assert u.h_se == demo_aida.h_se
        assert u.h_es == demo_aida.h_es

    def test_union_rejects_conflicts(self, demo_aida):
        z0 = demo_aida.initial
        other = IDA(
            "conflict",
            demo_aida.ctx,
            frozenset({z0}),
            frozenset({enode(["3"], "C")}),
            {z0: (frozenset({"a"}), enode(["3"], "C"))},
            {},
            z0,
        )
        with pytest.raises(ModelError):
            union(demo_aida, other)

    def test_partial_structure_is_subsystem(self, demo_aida):
        z0 = demo_aida.initial
        e0 = demo_aida.h_se[z0][1]
        small = IDA(
            "sub",
            demo_aida.ctx,
            frozenset({z0}),
            frozenset({e0}),
            {z0: demo_aida.h_se[z0]},
            {},
            z0,
        )
        assert is_subsystem(small, demo_aida)
        assert not is_subsystem(demo_aida, small)
