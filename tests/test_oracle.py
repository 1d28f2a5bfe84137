"""Independent closed-loop checks: literal semantics, explorer, enumeration."""

from __future__ import annotations

import re
import time
import weakref
from dataclasses import replace
from random import Random

import pytest

from sdattack import oracle
from sdattack.alphabet import EditAlphabet, base_event, is_inserted
from sdattack.automata import (
    Automaton,
    EventDecl,
    ModelError,
    next_states,
    unobservable_reach,
)
from sdattack.build import construct_aida, make_scenario
from sdattack.oracle import (
    ClosedLoopConfig,
    EnumBounds,
    Explorer,
    OracleBudgetError,
    _TableSearch,
    _downset_count,
    _has_insertion_cycle,
    _ins_downsets,
    _point_candidates,
    check_embedding,
    check_problem1,
    enumerate_attackers,
    reach_estimate,
)
from sdattack.prune import prune_interruptible
from sdattack.randgen import random_scenario, tiny_scenario
from sdattack.supervisor import RTilde
from sdattack.synth import AttackFunction, relay_attack_function, synthesize

from chains import chain_attack, chain_scenario
from arena_reference import from_nodes
from enum_reference import reference_check_embedding
from literal_reference import (
    closed_loop_language,
    fhat_strings,
    in_closed_loop,
    nominal_closed_loop,
    supervisor_decision,
)


@pytest.fixture(scope="module")
def demo_attack(demo_scenario):
    return synthesize(demo_scenario).attack


@pytest.fixture(scope="module")
def demo_cfg(demo_scenario, demo_attack):
    return ClosedLoopConfig(
        demo_scenario.plant,
        demo_scenario.rtilde,
        demo_attack,
        horizon=6,
        x_crit=demo_scenario.x_crit,
    )


class TestEstimates:
    def test_supervisor_decisions(self, demo_scenario):
        rt, ea = demo_scenario.rtilde, demo_scenario.ea
        assert supervisor_decision(rt, ea, ()) == {"a"}
        assert supervisor_decision(rt, ea, ("a",)) == {"a", "b"}
        assert supervisor_decision(rt, ea, ("a", "b")) == {"a", "c"}
        # Insertions and deletions shape the view, not the plant.
        assert supervisor_decision(rt, ea, ("a", "b.ins")) == {"a", "c"}
        assert supervisor_decision(rt, ea, ("a", "b.del")) == {"a", "b"}
        # Outside the supervised model the decision collapses.
        assert supervisor_decision(rt, ea, ("b",)) == frozenset()

    def test_reach_estimates(self, demo_scenario):
        plant, rt, ea = demo_scenario.plant, demo_scenario.rtilde, demo_scenario.ea
        assert reach_estimate(plant, rt, ea, ("a",)) == {"1"}
        assert reach_estimate(plant, rt, ea, ("a", "b")) == {"3"}
        assert reach_estimate(plant, rt, ea, ("a", "b.del")) == {"3"}
        assert reach_estimate(plant, rt, ea, ("a", "b.ins")) == {"1"}
        assert reach_estimate(plant, rt, ea, ("a", "b.ins", "c")) == {"2"}

    def test_reach_estimate_matches_the_prefix_formula(self):
        """The stepped estimate against re-deciding every prefix from scratch."""

        def by_prefixes(plant, rt, ea, edited):
            est = unobservable_reach(plant, {plant.initial}, supervisor_decision(rt, ea, ()))
            for i, sym in enumerate(edited, 1):
                if not is_inserted(sym):
                    est = next_states(plant, est, base_event(sym))
                est = unobservable_reach(plant, est, supervisor_decision(rt, ea, edited[:i]))
            return est

        left_model = nonempty = 0
        for seed in range(40):
            sc = random_scenario(Random(seed), name=f"rand{seed}")
            plant, rt, ea = sc.plant, sc.rtilde, sc.ea
            rng = Random(1000 + seed)
            symbols = sorted(ea.edit_symbols)
            for _ in range(25):
                edited = tuple(rng.choice(symbols) for _ in range(rng.randint(0, 8)))
                est = reach_estimate(plant, rt, ea, edited)
                assert est == by_prefixes(plant, rt, ea, edited), (seed, edited)
                left_model += not supervisor_decision(rt, ea, edited)
                nonempty += bool(est)
        assert left_model > 100 and nonempty > 100

    def test_reach_estimate_guards(self, demo_scenario):
        plant, rt, ea = demo_scenario.plant, demo_scenario.rtilde, demo_scenario.ea
        with pytest.raises(ModelError):
            reach_estimate(plant, rt, ea, ("a", "x"))


class TestLiteralSemantics:
    def test_fhat_strings(self, demo_attack):
        assert fhat_strings(demo_attack, ()) == {()}
        assert fhat_strings(demo_attack, ("a",)) == {("a",), ("a", "b.ins")}
        assert fhat_strings(demo_attack, ("a", "b")) == {("a", "b")}
        assert fhat_strings(demo_attack, ("a", "c")) == {("a", "b.ins", "c")}

    def test_attack_opens_the_damage_path(self, demo_scenario, demo_cfg):
        # Nominally the supervisor never lets c happen right after a.
        nominal = nominal_closed_loop(
            demo_scenario.plant, demo_scenario.supervisor.automaton, 4
        )
        assert nominal == {
            (),
            ("a",),
            ("a", "b"),
            ("a", "b", "a"),
            ("a", "b", "c"),
            ("a", "b", "a", "a"),
            ("a", "b", "c", "a"),
        }
        assert ("a", "c") not in nominal
        assert in_closed_loop(demo_cfg, ("a", "c"))

    def test_membership_cases(self, demo_cfg):
        assert in_closed_loop(demo_cfg, ())
        assert in_closed_loop(demo_cfg, ("a", "b"))
        assert not in_closed_loop(demo_cfg, ("c",))
        # Not runnable in the plant at all.
        assert not in_closed_loop(demo_cfg, ("b",))

    def test_explorer_matches_literal_language(self, demo_cfg):
        # All demo events are observable, so loop strings are observation
        # histories and the two semantics must enumerate the same set.
        lang = closed_loop_language(demo_cfg)
        ex = Explorer(demo_cfg)
        assert set(ex.realizable_observations()) == lang

    def test_class_states(self, demo_cfg):
        ex = Explorer(demo_cfg)
        ex.run()

        def class_states(obs):
            """Plant states of every loop string with this observation history."""
            key = ex.initial_key
            for e in obs:
                key = ex.trans.get((key, e))
                if key is None:
                    return frozenset()
            return frozenset(ex._xs[node // ex._P] for node in key[0])

        assert class_states(("a",)) == {"1"}
        assert class_states(("a", "c")) == {"2"}
        assert class_states(("a", "b")) == {"3"}
        assert class_states(("c",)) == frozenset()


class TestVerdicts:
    def test_synthesized_attack_certifies(self, demo_cfg):
        v = check_problem1(demo_cfg)
        assert v.admissible and v.stealthy
        assert v.weak_hit and v.strong_hit
        assert v.weak_witness == ("a", "c")
        assert v.strong_witness == ("a", "c")
        assert v.counterexamples == []
        assert v.ok("strong") and v.ok("weak")
        assert v.horizon == 6

    def test_partial_attacker_is_inadmissible(self, demo_scenario, demo_attack):
        # Keeps only the winning line; resting after a genuine a leaves the
        # observation b without any reaction.
        f = Automaton(
            name="po",
            states=("q0", "q1", "q2", "q3"),
            events=demo_attack.f.events,
            trans={
                ("q0", "a"): "q1",
                ("q1", "b.ins"): "q2",
                ("q2", "c"): "q3",
            },
            initial="q0",
        )
        fa = AttackFunction(f, "interruptible", demo_scenario.ea)
        v = check_problem1(
            ClosedLoopConfig(
                demo_scenario.plant, demo_scenario.rtilde, fa, 6, demo_scenario.x_crit
            )
        )
        assert not v.admissible
        assert (("a", "b"), "admissibility") in v.counterexamples
        assert not v.ok("strong")

    def test_detectable_burst_is_unstealthy(self, demo_scenario, demo_attack):
        # Inserting b before anything happened shows the supervisor a string
        # it knows to be impossible.
        f = Automaton(
            name="burst",
            states=("q0", "q1"),
            events=demo_attack.f.events,
            trans={
                ("q0", "b.ins"): "q1",
                ("q0", "a"): "q0",
                ("q1", "a"): "q1",
            },
            initial="q0",
        )
        fa = AttackFunction(f, "interruptible", demo_scenario.ea)
        v = check_problem1(
            ClosedLoopConfig(
                demo_scenario.plant, demo_scenario.rtilde, fa, 4, demo_scenario.x_crit
            )
        )
        assert not v.stealthy
        assert any("stealthiness" in reason for _, reason in v.counterexamples)

    def test_relay_is_safe_and_harmless(self, demo_scenario):
        fa = relay_attack_function(demo_scenario)
        v = check_problem1(
            ClosedLoopConfig(
                demo_scenario.plant, demo_scenario.rtilde, fa, 6, demo_scenario.x_crit
            )
        )
        assert v.admissible and v.stealthy
        assert not v.weak_hit and not v.strong_hit


class TestReplayCost:
    def test_position_steps_grow_linearly_with_the_chain(self, monkeypatch):
        # Every reaction of an interruptible chain may stop at any of its
        # positions; the replay must still compute each position's moves
        # about once, not once per position it starts from.
        calls = 0
        step = Explorer._advance_step

        def counted(self, pos, pending):
            nonlocal calls
            calls += 1
            return step(self, pos, pending)

        monkeypatch.setattr(Explorer, "_advance_step", counted)
        sc = chain_scenario(committed=False)
        counts = []
        for length in (100, 400):
            calls = 0
            v = check_problem1(
                ClosedLoopConfig(sc.plant, sc.rtilde, chain_attack(sc, length), 10, sc.x_crit)
            )
            assert v.ok("strong")
            counts.append(calls)
        assert counts[1] <= 5 * counts[0]


class TestTokenTies:
    """Packed ranks cannot tie, so the explorer refuses distinct states
    that share a token, naming it; the text format could not tell them
    apart either."""

    @staticmethod
    def with_twins(a: Automaton, twins) -> Automaton:
        return Automaton(a.name, a.states + twins, a.events, a.trans, a.initial)

    @pytest.mark.parametrize("which", ["plant", "encoder", "completion", "out of the model"])
    def test_shared_token_is_refused(self, which):
        sc = chain_scenario(committed=False)
        plant, rt, fa = sc.plant, sc.rtilde, chain_attack(sc, 3)
        twins, token = ("{z}", frozenset({"z"})), "'{z}'"
        if which == "plant":
            plant = self.with_twins(plant, twins)
        elif which == "encoder":
            fa = replace(fa, f=self.with_twins(fa.f, twins))
        elif which == "completion":
            rt = RTilde(self.with_twins(rt.automaton, twins), rt.origin)
        else:
            rt, token = RTilde(self.with_twins(rt.automaton, ("?",)), rt.origin), "'?'"
        with pytest.raises(ModelError, match=re.escape(token)):
            Explorer(ClosedLoopConfig(plant, rt, fa, 4, sc.x_crit))
        with pytest.raises(ModelError, match=re.escape(token)):
            check_problem1(ClosedLoopConfig(plant, rt, fa, 4, sc.x_crit))


class TestEmbedding:
    def test_synthesized_attack_embeds(self, demo_scenario, demo_attack, demo_aida):
        isda = prune_interruptible(demo_aida, demo_scenario)
        assert check_embedding(demo_attack, isda.ida, 6) == []

    def test_missing_move_breaks_embedding(self, demo_scenario, demo_attack, demo_aida):
        isda = prune_interruptible(demo_aida, demo_scenario).ida
        key = next(k for k in isda.h_es if k[1] == "b.ins")
        crippled = from_nodes(
            name=isda.name,
            ctx=isda.ctx,
            s_states=isda.s_states,
            e_states=isda.e_states,
            h_se=isda.h_se,
            h_es={k: v for k, v in isda.h_es.items() if k != key},
            initial=isda.initial,
        )
        bad = check_embedding(demo_attack, crippled, 6)
        assert bad
        assert any(edited == ("a", "b.ins") for _, edited in bad)

    def test_cyclic_encoder_needs_a_cut(self, demo_scenario, demo_attack, demo_aida):
        f = Automaton(
            name="cyc",
            states=("r",),
            events=demo_attack.f.events,
            trans={
                ("r", "a"): "r",
                ("r", "b"): "r",
                ("r", "c"): "r",
                ("r", "b.ins"): "r",
            },
            initial="r",
        )
        fa = AttackFunction(f, "interruptible", demo_scenario.ea)
        isda = prune_interruptible(demo_aida, demo_scenario).ida
        with pytest.raises(OracleBudgetError):
            check_embedding(fa, isda, 3)
        assert check_embedding(fa, isda, 3, cut=1)

    def test_insertion_cycle_search_is_iterative(self, demo_scenario, demo_attack, demo_aida):
        def insertion_chain(n: int, closed: bool) -> AttackFunction:
            states = tuple(f"r{i}" for i in range(n))
            trans = {(states[i], "b.ins"): states[i + 1] for i in range(n - 1)}
            if closed:
                trans[(states[-1], "b.ins")] = states[0]
            f = Automaton("chain", states, demo_attack.f.events, trans, states[0])
            return AttackFunction(f, "interruptible", demo_scenario.ea)

        # Far deeper than the interpreter's recursion limit.
        assert not _has_insertion_cycle(insertion_chain(1200, closed=False))
        cycle = insertion_chain(2, closed=True)
        assert _has_insertion_cycle(cycle)
        isda = prune_interruptible(demo_aida, demo_scenario).ida
        with pytest.raises(OracleBudgetError):
            check_embedding(cycle, isda, 3)


class TestOneExploration:
    """`check_embedding` walks the observation tree `check_problem1` left on
    the attack, and the checkers of one plant and completion share tables."""

    @pytest.fixture
    def runs(self, monkeypatch):
        """The explorers whose `run` is called, in order."""
        out = []
        run = Explorer.run

        def counted(ex):
            out.append(ex)
            run(ex)

        monkeypatch.setattr(Explorer, "run", counted)
        return out

    def test_embedding_reuses_the_tree(self, demo_scenario, demo_aida, runs):
        isda = prune_interruptible(demo_aida, demo_scenario).ida
        fa = synthesize(demo_scenario).attack
        expected = check_embedding(fa, isda, 6)  # no tree yet: it explores
        assert len(runs) == 1
        runs.clear()
        cfg = ClosedLoopConfig(isda.ctx.plant, isda.ctx.rt, fa, 6, demo_scenario.x_crit)
        assert check_problem1(cfg).ok("strong")
        assert check_embedding(fa, isda, 6) == expected == []
        assert len(runs) == 1

    def test_another_horizon_or_scenario_explores_again(self, demo_scenario, demo_aida, runs):
        isda = prune_interruptible(demo_aida, demo_scenario).ida
        other = replace(demo_scenario)  # equal, but a scenario object of its own
        other_isda = prune_interruptible(construct_aida(other), other).ida
        assert other_isda.ctx.rt is not isda.ctx.rt
        fa = synthesize(demo_scenario).attack
        check_problem1(ClosedLoopConfig(isda.ctx.plant, isda.ctx.rt, fa, 6))
        assert check_embedding(fa, isda, 5) == check_embedding(fa, other_isda, 6) == []
        assert len(runs) == 3
        assert [ex.cfg.horizon for ex in runs] == [6, 5, 6]
        assert runs[2].rt is other_isda.ctx.rt

    def test_reused_tree_matches_the_reference(self):
        # the seeds and modes of `test_enum_differential.test_tiny_sweep`
        nonempty = 0
        for seed in range(12):
            base = tiny_scenario(Random(seed), name=f"tiny{seed}")
            isda = prune_interruptible(construct_aida(base), base).ida
            plant, rt = isda.ctx.plant, isda.ctx.rt
            for mode, n_a in (("interruptible", None), ("unbounded", None), ("bounded", 1),
                              ("bounded", 2)):
                sc = replace(base, mode=mode, n_a=n_a)
                attackers = []
                try:
                    for fa in enumerate_attackers(sc, EnumBounds(max_attackers=50)):
                        attackers.append(fa)
                except OracleBudgetError:
                    pass
                for fa in attackers[:: max(1, len(attackers) // 25)]:
                    for cut in (None, 1):
                        check_problem1(ClosedLoopConfig(plant, rt, fa, 4, sc.x_crit))
                        assert fa._tree[0] is plant and fa._tree[1] is rt  # so it is reused
                        bad = check_embedding(fa, isda, 4, cut)
                        assert bad == reference_check_embedding(fa, isda, 4, cut)
                        nonempty += bool(bad)
        assert nonempty > 0

    def test_the_tree_makes_no_cycle(self, demo_scenario, demo_aida):
        isda = prune_interruptible(demo_aida, demo_scenario).ida
        fa = synthesize(demo_scenario).attack
        check_problem1(ClosedLoopConfig(isda.ctx.plant, isda.ctx.rt, fa, 6))
        check_embedding(fa, isda, 6)
        ref = weakref.ref(fa)
        del fa
        assert ref() is None

    def test_checkers_of_one_loop_share_tables(self, demo_scenario, demo_cfg):
        relay = relay_attack_function(demo_scenario)
        one = Explorer(demo_cfg)
        two = Explorer(replace(demo_cfg, attack=relay))
        search = _TableSearch(demo_scenario, 4)
        tables = demo_scenario.rtilde.loop_tables[id(demo_scenario.plant)]
        for name in ("_xs", "_qs", "_x_rank", "_bad", "_x_succ", "_mus", "_gammas", "_unobs"):
            assert getattr(one, name) is getattr(two, name) is getattr(search, name)
            assert getattr(one, name) is getattr(tables, name)
        assert one._adv is not two._adv

    def test_another_plant_gets_tables_of_its_own(self):
        # the twin-token plant of `TestTokenTies` is refused; the
        # completion's tables for the scenario's plant stay as they were
        sc = chain_scenario(committed=False)
        fa = chain_attack(sc, 3)
        ex = Explorer(ClosedLoopConfig(sc.plant, sc.rtilde, fa, 4, sc.x_crit))
        twin = TestTokenTies.with_twins(sc.plant, ("{z}", frozenset({"z"})))
        with pytest.raises(ModelError, match=re.escape("'{z}'")):
            Explorer(ClosedLoopConfig(twin, sc.rtilde, fa, 4, sc.x_crit))
        assert list(sc.rtilde.loop_tables) == [id(sc.plant)]
        assert Explorer(ClosedLoopConfig(sc.plant, sc.rtilde, fa, 4))._mus is ex._mus
        # an equal plant that is another object gets tables of its own
        copy = Automaton(sc.plant.name, sc.plant.states, sc.plant.events, sc.plant.trans,
                         sc.plant.initial)
        other = Explorer(ClosedLoopConfig(copy, sc.rtilde, fa, 4))
        assert other._mus is not ex._mus and other._xs == ex._xs
        assert sc.rtilde.loop_tables[id(copy)].plant is copy


class TestEnumeration:
    def test_counts_on_the_one_shot_instance(self, one_shot):
        # With one pause point per extra burst prefix, the reaction table
        # has 1, 2 or 3 holes (8 choices each) on top of 2 silent bursts:
        # 2 + 8 + 8**2 + 8**3 = 586.
        plant, sup = one_shot
        sc = make_scenario(plant, sup, {"a"}, {"1"}, mode="interruptible", name="hc")
        assert sum(1 for _ in enumerate_attackers(sc)) == 586

    def test_deterministic_counts(self, one_shot):
        plant, sup = one_shot
        # Unbounded: two silent bursts plus four reactions to a: 6.
        sc = make_scenario(plant, sup, {"a"}, {"1"}, mode="unbounded", name="hc")
        assert sum(1 for _ in enumerate_attackers(sc)) == 6
        # Bounded at 1: one silent burst, two reactions (a or its deletion).
        sc = make_scenario(plant, sup, {"a"}, {"1"}, mode="bounded", n_a=1, name="hc")
        assert sum(1 for _ in enumerate_attackers(sc)) == 3

    def test_certifying_cut_is_a_subset(self, one_shot):
        plant, sup = one_shot
        sc = make_scenario(plant, sup, {"a"}, {"1"}, mode="interruptible", name="hc")
        cert = list(enumerate_attackers(sc, certifying_only=True))
        assert len(cert) == 11
        for fa in cert:
            cfg = ClosedLoopConfig(plant, sc.rtilde, fa, 4, sc.x_crit)
            assert check_problem1(cfg).stealthy

    def test_without_attack_events_only_the_relay_exists(self, one_shot):
        plant, sup = one_shot
        sc = make_scenario(plant, sup, set(), {"1"}, name="noea")
        attackers = list(enumerate_attackers(sc))
        assert len(attackers) == 1
        only = attackers[0]
        assert sorted(only.f.trans) == [((), "a")]

    def test_budget_refusals(self, demo_scenario, one_shot):
        with pytest.raises(OracleBudgetError):
            list(enumerate_attackers(demo_scenario))
        plant, sup = one_shot
        sc = make_scenario(plant, sup, {"a"}, {"1"}, mode="interruptible", name="hc")
        with pytest.raises(OracleBudgetError):
            list(enumerate_attackers(sc, EnumBounds(max_attackers=10)))
        with pytest.raises(OracleBudgetError):
            list(enumerate_attackers(sc, EnumBounds(max_points=1)))

    def test_reaction_choices_are_counted_before_they_are_built(self, monkeypatch):
        # three insertions, three deep: about 3.9 * 10^8 initial bursts
        sc = random_scenario(Random(38), max_states=3, max_events=3)
        assert sc.mode == "interruptible" and len(sc.ea.insertions) == 3
        start = time.perf_counter()
        with pytest.raises(OracleBudgetError, match="reaction choices"):
            _point_candidates(sc, None, EnumBounds(max_reaction=3))
        assert time.perf_counter() - start < 1.0
        # the count is the number built: a cap of it builds them, one less refuses
        modes = [("interruptible", None, True), ("unbounded", None, True),
                 ("bounded", 1, True), ("bounded", 2, False)]
        calls = 0
        for seed in range(40):
            base = random_scenario(Random(seed), max_states=3, max_events=3)
            points = [None] + [((), e) for e in sorted(base.ea.sigma_o)]
            for mode, n_a, bounded in modes:
                sc = replace(base, mode=mode, n_a=n_a, bound_initial_insertions=bounded)
                for max_reaction in (1, 2, 3):
                    bounds = EnumBounds(max_reaction=max_reaction)
                    for point in points:
                        monkeypatch.setattr(oracle, "_MAX_CANDIDATES", 10**5)
                        try:
                            n = len(_point_candidates(sc, point, bounds))
                        except OracleBudgetError:
                            continue
                        monkeypatch.setattr(oracle, "_MAX_CANDIDATES", n)
                        assert len(_point_candidates(sc, point, bounds)) == n
                        monkeypatch.setattr(oracle, "_MAX_CANDIDATES", n - 1)
                        with pytest.raises(OracleBudgetError):
                            _point_candidates(sc, point, bounds)
                        calls += 1
        assert calls > 1000

    def test_downset_count_is_the_number_built(self):
        for k in range(4):
            syms = tuple("abc"[:k])
            for depth in range(4 if k < 3 else 3):
                n = len(_ins_downsets(syms, depth))
                assert _downset_count(k, depth, 10**6) == n
                assert _downset_count(k, depth, n - 1) == n  # saturates at cap + 1

    def test_wide_alphabet_is_refused(self):
        decls = tuple(EventDecl(n, True, True) for n in ("a", "b", "c"))
        plant = Automaton(
            name="P",
            states=("0", "1"),
            events=decls,
            trans={("0", "a"): "1", ("0", "b"): "1", ("0", "c"): "1"},
            initial="0",
        )
        sup = Automaton(
            name="S",
            states=("r0",),
            events=decls,
            trans={("r0", n): "r0" for n in ("a", "b", "c")},
            initial="r0",
        )
        sc = make_scenario(plant, sup, {"a"}, {"1"}, name="wide")
        with pytest.raises(OracleBudgetError):
            list(enumerate_attackers(sc))
