"""Game arena payloads, move guards and structural relations."""

from __future__ import annotations

from dataclasses import replace
from random import Random

import pytest

from sdattack.alphabet import deleted, inserted
from sdattack.automata import ModelError, next_states, unobservable_reach
from sdattack.build import construct_aida, construct_baida, counter_step
from sdattack.randgen import random_scenario
from sdattack.game import (
    E_SIDE,
    InformationState,
    Node,
    S_SIDE,
    Successors,
    gamma_label,
    is_subsystem,
)

from arena_reference import from_nodes, is_race_free
from enum_reference import induced_e_state
from prune_reference import drop_dead_supervisor


def info(plant, sup) -> InformationState:
    return InformationState(frozenset(plant), sup)


def enode(plant, sup) -> Node:
    return Node(E_SIDE, info(plant, sup))


def snode(plant, sup) -> Node:
    return Node(S_SIDE, info(plant, sup))


def decode(succ, key: int) -> tuple[str, frozenset, object]:
    """(side, estimate, supervisor state) of one of the kernel's state ints."""
    e, r = divmod(key, succ.width)
    return (E_SIDE if r & 1 else S_SIDE), succ.ests[e], succ.rt.automaton.states[r >> 1]


def kernel_moves(succ, at: InformationState) -> dict[str, InformationState]:
    """The kernel's environment moves at an information state, by label."""
    syms, keys = succ.moves(succ.intern(at.plant), 2 * succ.qids[at.sup] + 1)
    moves = {}
    for s, key in zip(syms, keys):
        side, est, q = decode(succ, key)
        assert side == S_SIDE
        moves[succ.syms.labels[s]] = InformationState(est, q)
    return moves


def es_successor(sc, at: InformationState, sym: str) -> InformationState | None:
    return kernel_moves(Successors(sc.ctx), at).get(sym)


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
        succ = Successors(sc.ctx)
        (hop,), (target,) = succ.moves(succ.intern(frozenset({"0"})), 2 * succ.qids["A"])
        assert succ.syms.events[hop] == {"a"}
        assert succ.syms.labels[hop] == "gamma:a"
        assert decode(succ, target) == (E_SIDE, {"0"}, "A")

    def test_genuine_guard(self, demo_scenario):
        sc = demo_scenario
        assert es_successor(sc, info(["0"], "A"), "a") == info(["1"], "B")
        # b is not in the decision at A, c is not feasible at plant state 0.
        assert es_successor(sc, info(["0"], "A"), "b") is None
        assert es_successor(sc, info(["1"], "B"), "c") is None

    def test_insertion_guard(self, demo_scenario):
        sc = demo_scenario
        # Insertion moves the supervisor only; the plant set stays put.
        assert es_successor(sc, info(["1"], "B"), "b.ins") == info(["1"], "C")
        assert es_successor(sc, info(["0"], "A"), "b.ins") is None

    def test_deletion_guard(self, demo_scenario):
        sc = demo_scenario
        # Deletion moves the plant only; the supervisor stays put.
        assert es_successor(sc, info(["1"], "B"), "b.del") == info(["3"], "B")
        assert es_successor(sc, info(["3"], "C"), "b.del") is None

    def test_uncompromised_events_cannot_be_edited(self, demo_scenario):
        sc = demo_scenario
        assert es_successor(sc, info(["1"], "B"), "a.ins") is None
        assert es_successor(sc, info(["1"], "B"), "a.del") is None
        assert "a.ins" not in Successors(sc.ctx).syms.ids


def reference_moves(sc, info):
    """Every environment move at an information state, by the plain rules."""
    rt, plant, sigma_a = sc.rtilde, sc.plant, sc.ea.sigma_a
    decision = rt.gamma(info.sup)
    out = {}
    for d in plant.events:
        e = d.name
        if not d.observable or e not in decision:
            continue
        moved = next_states(plant, info.plant, e)
        nxt_sup = rt.mu(info.sup, e)
        if moved and nxt_sup is not None:
            out[e] = InformationState(moved, nxt_sup)
        if e in sigma_a and moved:
            out[deleted(e)] = InformationState(moved, info.sup)
        if e in sigma_a and nxt_sup is not None:
            out[inserted(e)] = InformationState(info.plant, nxt_sup)
    return out


class TestSuccessorKernel:
    @pytest.mark.parametrize("mode", ["interruptible", "unbounded", "bounded"])
    def test_arena_matches_plain_rules(self, mode):
        """Every hop and move of the arena, against `unobservable_reach` and `next_states`."""
        for seed in range(100):
            sc = random_scenario(
                Random(seed), max_states=6, mode=mode, n_a=2 if mode == "bounded" else None
            )
            aida = construct_aida(sc)
            arenas = [aida] if mode != "bounded" else [aida, construct_baida(sc, aida)]
            for ida in arenas:
                for y, (gamma, z) in ida.h_se.items():
                    assert gamma == sc.rtilde.gamma(y.info.sup)
                    est = unobservable_reach(sc.plant, y.info.plant, gamma)
                    assert z.info == InformationState(est, y.info.sup)
                for z in ida.e_states:
                    moves = {sym: y.info for sym, y in ida.es_adj.get(z, ())}
                    if z.info.plant <= sc.x_crit:
                        assert not moves
                        continue
                    want = reference_moves(sc, z.info)
                    if z.counter is not None:  # insertions stop at the reaction bound
                        want = {
                            sym: tgt
                            for sym, tgt in want.items()
                            if counter_step(sc.ea, sc.n_a, z.counter, sym) is not None
                        }
                    assert moves == want, (seed, z.token())

    def test_dispatch_matches_plain_rules(self):
        for seed in range(100):
            sc = random_scenario(Random(seed), max_states=6)
            succ = Successors(sc.ctx)
            for y in construct_aida(sc).nodes:
                assert kernel_moves(succ, y.info) == reference_moves(sc, y.info), (seed, y.token())

    @pytest.mark.parametrize("mode", ["interruptible", "unbounded", "bounded"])
    def test_race_events_match_plain_rules(self, mode):
        """The race requirement of every E-state, against `gamma` and `next_states`."""
        for seed in range(100):
            sc = random_scenario(
                Random(seed), max_states=6, mode=mode, n_a=2 if mode == "bounded" else None
            )
            succ = Successors(sc.ctx)
            for z in construct_aida(sc).e_states:
                events = sc.rtilde.gamma(z.info.sup) & sc.plant.obs_events
                want = {ev for ev in events if next_states(sc.plant, z.info.plant, ev)}
                mask = succ.race_mask(succ.intern(z.info.plant), succ.qids[z.info.sup])
                got = {ev for i, ev in enumerate(succ.events) if mask >> i & 1}
                assert mask < 1 << len(succ.events) and got == want, (seed, z.token())

    def test_equal_estimates_are_one_object(self):
        for seed in range(20):
            sc = random_scenario(Random(seed), max_states=6)
            nodes = construct_aida(sc).nodes
            assert len({id(a.info.plant) for a in nodes}) == len({a.info.plant for a in nodes})

    def test_kernel_is_per_call(self, demo_scenario):
        a, b = Successors(demo_scenario.ctx), Successors(demo_scenario.ctx)
        (side_a, est_a, q_a), (side_b, est_b, q_b) = decode(a, a.initial()), decode(b, b.initial())
        assert side_a == side_b == S_SIDE and q_a == q_b and est_a == est_b
        assert est_a is not est_b


class TestStoredHash:
    def test_hash_is_the_dataclass_hash(self, demo_aida):
        bounded = [replace(a, counter=k) for a in demo_aida.nodes for k in (0, 2)]
        for a in list(demo_aida.nodes) + bounded:
            assert hash(a.info) == hash((a.info.plant, a.info.sup))
            assert hash(a) == hash((a.side, a.info, a.counter))

    def test_equality_ignores_stored_hash(self):
        x, y = info(["0", "1"], "A"), info(["1", "0"], "A")
        object.__setattr__(y, "_hash", hash(x) + 1)
        assert x == y
        a, b = Node(E_SIDE, x), Node(E_SIDE, y)
        object.__setattr__(b, "_hash", hash(a) + 1)
        assert a == b
        assert a != Node(S_SIDE, x) and a != Node(E_SIDE, x, counter=0)
        assert x != info(["0"], "A") and x != info(["0", "1"], "B")

    def test_replace_rehashes(self):
        a = Node(E_SIDE, info(["0"], "A"))
        b = replace(a, counter=3)
        assert b == Node(E_SIDE, info(["0"], "A"), counter=3)
        assert hash(b) == hash((E_SIDE, a.info, 3)) != hash(a)
        assert replace(b, counter=None) == a and hash(replace(b, counter=None)) == hash(a)
        assert hash(replace(a.info, sup="B")) == hash((a.info.plant, "B"))

    def test_stored_hash_is_not_shown(self):
        assert "_hash" not in repr(snode(["0"], "A"))


class TestRaceFreedom:
    def test_all_aida_e_states_race_free(self, demo_aida):
        for z in demo_aida.e_states:
            assert is_race_free(z, demo_aida)

    def test_trimming_dead_creates_a_race(self, demo_scenario, demo_aida):
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

    def test_partial_structure_is_subsystem(self, demo_aida):
        z0 = demo_aida.initial
        e0 = demo_aida.h_se[z0][1]
        small = from_nodes(
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

    def test_node_views_are_read_only(self, demo_aida):
        z0 = demo_aida.initial
        with pytest.raises(AttributeError):
            demo_aida.s_states.append(z0)
        with pytest.raises(TypeError):
            demo_aida.h_se[z0] = demo_aida.h_se[z0]
        with pytest.raises(AttributeError):
            demo_aida.h_es.clear()

    def test_view_sizes_make_no_nodes(self, demo_scenario):
        ida = construct_aida(demo_scenario)
        views = (ida.s_states, ida.e_states, ida.nodes, ida.h_se, ida.h_es, ida.es_adj)
        sizes = [len(v) for v in views]
        assert "_made" not in vars(ida)
        assert sizes == [len(list(v)) for v in views]
