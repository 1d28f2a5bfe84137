"""Strategy extraction: frozen fixture strategies for all three modes."""

from __future__ import annotations

from dataclasses import replace
from itertools import islice
from random import Random

import pytest

from sdattack.alphabet import EditAlphabet, is_inserted
from sdattack.automata import Automaton, EventDecl, ModelError
from sdattack.build import Scenario
from sdattack.modelio import parse_attack
from sdattack.oracle import EnumBounds, enumerate_attackers
from sdattack.prune import prune, prune_interruptible
from sdattack.randgen import random_scenario, tiny_scenario
from sdattack.synth import (
    AttackFunction,
    SynthesisError,
    decision_table,
    expand_path,
    feasibility,
    initial_reactions,
    reactions,
    relay_attack_function,
    shortest_path,
    synthesize,
)

import literal_reference
from chains import chain_attack, chain_scenario
from literal_reference import evaluate


def variant(sc, mode, n_a=None, **kw):
    return Scenario(
        plant=sc.plant,
        supervisor=sc.supervisor,
        ea=sc.ea,
        x_crit=sc.x_crit,
        mode=mode,
        n_a=n_a,
        name=sc.name,
        **kw,
    )


def trans_tokens(fa):
    return {(k[0].token(), k[1]): t.token() for k, t in fa.f.trans.items()}


@pytest.fixture(scope="module")
def isda(demo_scenario, demo_aida):
    return prune_interruptible(demo_aida, demo_scenario)


class TestFeasibility:
    def test_fixture_target(self, demo_scenario, isda):
        target = feasibility(isda.ida, demo_scenario.x_crit, "strong")
        assert target is not None
        assert isda.ida.node(target).token() == "E(2,A)"

    def test_weak_goal_includes_strong(self, demo_scenario, isda):
        assert feasibility(isda.ida, demo_scenario.x_crit, "weak") is not None

    def test_unreachable_goal(self, isda):
        assert feasibility(isda.ida, frozenset({"9"}), "strong") is None


class TestShortestPath:
    def test_fixture_path(self, demo_scenario, isda):
        target = feasibility(isda.ida, demo_scenario.x_crit, "strong")
        ida = isda.ida
        path = shortest_path(ida, target)
        tokens = [(ida.node(a).token(), sym, ida.node(b).token()) for a, sym, b in path]
        assert tokens == [
            ("S(0,A)", "gamma:a", "E(0,A)"),
            ("E(0,A)", "a", "S(1,B)"),
            ("S(1,B)", "gamma:a,b", "E(1,B)"),
            ("E(1,B)", "b.ins", "S(1,C)"),
            ("S(1,C)", "gamma:a,c", "E(1,C)"),
            ("E(1,C)", "c", "S(2,A)"),
            ("S(2,A)", "gamma:a", "E(2,A)"),
        ]
        assert all(sym.startswith("gamma:") for a, sym, _ in tokens if a.startswith("S"))

    def test_unknown_target_raises(self, isda):
        with pytest.raises(SynthesisError):
            shortest_path(isda.ida, len(isda.ida.side))


class TestInterruptibleStrategy:
    def test_encoder_structure(self, demo_scenario):
        res = synthesize(demo_scenario)
        assert res.feasible
        fa = res.attack
        assert [s.token() for s in fa.f.states] == [
            "E(0,A)", "E(1,B)", "E(3,C)", "E(1,C)", "E(2,A)"
        ]
        assert trans_tokens(fa) == {
            ("E(0,A)", "a"): "E(1,B)",
            ("E(1,B)", "b"): "E(3,C)",
            ("E(1,B)", "b.ins"): "E(1,C)",
            ("E(3,C)", "a"): "E(0,A)",
            ("E(3,C)", "c"): "E(0,A)",
            ("E(1,C)", "c"): "E(2,A)",
        }
        assert not fa.deterministic
        assert fa.initial_epsilon

    def test_reaction_sets(self, demo_scenario):
        fa = synthesize(demo_scenario).attack
        assert initial_reactions(fa) == {()}
        assert evaluate(fa, (), "a") == {("a",), ("a", "b.ins")}
        assert evaluate(fa, ("a",), "b") == {("b",)}
        assert evaluate(fa, ("a", "b"), "a") == {("a",)}
        assert evaluate(fa, ("a", "b"), "c") == {("c",)}
        assert evaluate(fa, ("a", "b.ins"), "c") == {("c",)}
        # Histories outside the encoder are rejected as undefined.
        assert evaluate(fa, ("b",), "a") is None
        assert evaluate(fa, (), "") == initial_reactions(fa)
        with pytest.raises(ValueError):
            evaluate(fa, (), "b.ins")

    def test_decision_table_snapshot(self, demo_scenario):
        fa = synthesize(demo_scenario).attack
        assert decision_table(fa) == (
            "mode: interruptible\n"
            "initial burst: {eps}\n"
            "E(0,A) / a: {a, a b.ins}\n"
            "E(1,B) / b: {b}\n"
            "E(3,C) / a: {a}\n"
            "E(3,C) / c: {c}\n"
            "E(1,C) / c: {c}\n"
        )

    def test_prefer_deletion_changes_nothing_here(self, demo_scenario):
        # The interruptible region has no deletion moves left to prefer.
        plain = synthesize(demo_scenario).attack
        pref = synthesize(demo_scenario, prefer_deletion=True).attack
        assert trans_tokens(plain) == trans_tokens(pref)


class TestDeterministicStrategies:
    def test_unbounded_commits_the_insertion(self, demo_scenario):
        res = synthesize(variant(demo_scenario, "unbounded"))
        fa = res.attack
        assert fa.deterministic
        assert {s.token(): v for s, v in fa.auto_insert.items()} == {
            "E(0,A)": None,
            "E(1,B)": "b.ins",
            "E(3,C)": None,
            "E(1,C)": None,
            "E(2,A)": None,
        }
        assert fa.initial_epsilon
        assert initial_reactions(fa) == {()}
        assert evaluate(fa, (), "a") == {("a", "b.ins")}
        assert evaluate(fa, ("a", "b.ins"), "c") == {("c",)}

    def test_unbounded_prefer_deletion_routes_through_flag(self, demo_scenario):
        fa = synthesize(variant(demo_scenario, "unbounded"), prefer_deletion=True).attack
        assert trans_tokens(fa) == {
            ("E(0,A)", "a"): "E(1,B)",
            ("E(1,B)", "b.del"): "E(3,B)",
            ("E(1,B)", "b.ins"): "E(1,C)",
            ("E(3,B)", "b.ins"): "E(3,C)",
            ("E(3,C)", "a"): "E(0,A)",
            ("E(3,C)", "c"): "E(0,A)",
            ("E(1,C)", "c"): "E(2,A)",
        }
        # The flagged state escapes by committing to an insertion.
        assert {s.token(): v for s, v in fa.auto_insert.items()}["E(3,B)"] == "b.ins"
        assert evaluate(fa, ("a",), "b") == {("b.del", "b.ins")}

    def test_bounded_at_one(self, demo_scenario):
        res = synthesize(variant(demo_scenario, "bounded", n_a=1))
        fa = res.attack
        assert res.target.token() == "E(2,A)#0"
        assert [s.token() for s in fa.f.states] == [
            "E(0,A)#0", "E(1,B)#0", "E(3,C)#1", "E(1,C)#1", "E(2,A)#0"
        ]
        assert fa.n_a == 1
        assert evaluate(fa, (), "a") == {("a", "b.ins")}
        assert decision_table(fa).startswith("mode: bounded\nreaction bound: 1\n")

    def test_bounded_prefer_deletion_respects_the_budget(self, demo_scenario):
        # b.del then b.ins costs 2 edits, so at bound 1 the deletion branch
        # is gone and preferring deletions cannot resurrect it.
        fa = synthesize(variant(demo_scenario, "bounded", n_a=1), prefer_deletion=True).attack
        assert ("E(1,B)#0", "b.del") not in trans_tokens(fa)

    def test_infeasible_without_attack_events(self, demo_scenario):
        sc = Scenario(
            plant=demo_scenario.plant,
            supervisor=demo_scenario.supervisor,
            ea=EditAlphabet(set(demo_scenario.ea.sigma_o), set()),
            x_crit=demo_scenario.x_crit,
            mode="interruptible",
            name="demo-noattack",
        )
        res = synthesize(sc)
        assert not res.feasible
        assert res.target is None
        assert res.path == []
        assert res.attack is None


class TestExpandPathDirect:
    def test_empty_path_still_totalizes(self, demo_scenario, isda):
        fa = expand_path(isda.ida, isda.flags, demo_scenario, [])
        assert evaluate(fa, (), "a") is not None

    def test_bounded_strategy_respects_counter_law(self, demo_scenario, demo_aida):
        sc = variant(demo_scenario, "bounded", n_a=2)
        pruned = prune(demo_aida, sc)
        target = feasibility(pruned.ida, sc.x_crit, sc.strength)
        path = shortest_path(pruned.ida, target)
        fa = expand_path(pruned.ida, pruned.flags, sc, path)
        for (r, sym), dst in fa.f.trans.items():
            if sym.endswith(".ins"):
                assert dst.counter == r.counter + 1


class TestShapeChecks:
    def ea(self):
        return EditAlphabet({"a", "b"}, {"b"})

    def test_rejects_foreign_event(self):
        ea = self.ea()
        f = Automaton(
            name="f",
            states=("r",),
            events=(EventDecl("x", True, True),),
            trans={},
            initial="r",
        )
        with pytest.raises(ModelError):
            AttackFunction(f, "interruptible", ea)

    def test_rejects_deterministic_choice(self):
        ea = self.ea()
        f = Automaton(
            name="f",
            states=("r", "s"),
            events=(
                EventDecl("b", True, True),
                EventDecl("b.del", True, True),
            ),
            trans={("r", "b"): "s", ("r", "b.del"): "s"},
            initial="r",
        )
        with pytest.raises(ModelError):
            AttackFunction(f, "unbounded", ea, auto_insert={"r": None, "s": None})
        # The same encoder is fine for an interruptible attacker.
        AttackFunction(f, "interruptible", ea)

    def test_rejects_committed_non_insertion(self):
        ea = self.ea()
        f = Automaton(
            name="f",
            states=("r", "s"),
            events=(EventDecl("b", True, True),),
            trans={("r", "b"): "s"},
            initial="r",
        )
        with pytest.raises(ModelError):
            AttackFunction(f, "unbounded", ea, auto_insert={"r": "b", "s": None})

    def test_rejects_endless_committed_chain(self):
        ea = self.ea()
        f = Automaton(
            name="f",
            states=("r",),
            events=(EventDecl("b.ins", True, True),),
            trans={("r", "b.ins"): "r"},
            initial="r",
        )
        with pytest.raises(ModelError, match="never terminates"):
            AttackFunction(f, "unbounded", ea, auto_insert={"r": "b.ins"})
        # A chain that runs into a cycle further on never terminates either.
        f = Automaton(
            name="f",
            states=("r", "s", "t"),
            events=(EventDecl("b.ins", True, True),),
            trans={("r", "b.ins"): "s", ("s", "b.ins"): "t", ("t", "b.ins"): "s"},
            initial="r",
        )
        auto = {"r": "b.ins", "s": "b.ins", "t": "b.ins"}
        with pytest.raises(ModelError, match="never terminates"):
            AttackFunction(f, "unbounded", ea, auto_insert=auto)

    def test_long_committed_chain_parses(self):
        n = 3000
        lines = [
            "strategy",
            "mode unbounded",
            "automaton F",
            "event b obs ctrl",
            "event b.ins obs ctrl",
        ]
        lines += [f"state r{i}" + (" initial" if i == 0 else "") for i in range(n)]
        lines += [f"trans r{i} b.ins r{i + 1}" for i in range(n - 1)]
        lines += [f"auto r{i} b.ins" for i in range(n - 1)] + [f"auto r{n - 1} -"]
        fa = parse_attack("\n".join(lines) + "\n", self.ea())
        assert len(fa.chain_from("r0")) == n - 1

    def test_rejects_overlong_bounded_reaction(self):
        ea = self.ea()
        f = Automaton(
            name="f",
            states=("r", "s", "t"),
            events=(
                EventDecl("b", True, True),
                EventDecl("b.ins", True, True),
            ),
            trans={("r", "b"): "s", ("s", "b.ins"): "t"},
            initial="r",
        )
        with pytest.raises(ModelError, match="has length 2 > 1"):
            AttackFunction(
                f,
                "bounded",
                ea,
                n_a=1,
                auto_insert={"r": None, "s": "b.ins", "t": None},
            )

    def test_bounded_needs_a_bound(self):
        ea = self.ea()
        f = Automaton(name="f", states=("r",), events=(), trans={}, initial="r")
        with pytest.raises(ModelError):
            AttackFunction(f, "bounded", ea, auto_insert={"r": None})


class TestRelay:
    @pytest.mark.parametrize("mode,n_a", [
        ("interruptible", None), ("unbounded", None), ("bounded", 1),
    ])
    def test_relay_forwards_everything(self, demo_scenario, mode, n_a):
        fa = relay_attack_function(variant(demo_scenario, mode, n_a))
        assert initial_reactions(fa) == {()}
        for e in sorted(demo_scenario.ea.sigma_o):
            assert reactions(fa, fa.f.initial, e) == {(e,)}
        assert evaluate(fa, ("a", "b", "c"), "a") == {("a",)}


def test_reaction_sets_match_the_reference(demo_scenario):
    """One tail rule for the initial burst and every reaction gives the
    sets of the separate rules in `literal_reference`."""
    modes = [("interruptible", None, True), ("unbounded", None, True),
             ("bounded", 1, True), ("bounded", 2, True), ("bounded", 1, False)]
    attackers = []
    for seed in range(40):
        base = random_scenario(Random(seed), name=f"rand{seed}")
        for mode, n_a, bounded in modes:
            sc = replace(base, mode=mode, n_a=n_a, bound_initial_insertions=bounded)
            attackers.append(relay_attack_function(sc))
            try:
                attackers.append(synthesize(sc).attack)
            except SynthesisError:
                continue
    # a deterministic strategy that says no to the empty initial burst but commits to nothing
    # (the parser refuses one, so it is made directly)
    attackers.append(replace(synthesize(variant(demo_scenario, "unbounded")).attack,
                             initial_epsilon=False))
    for seed in range(10):  # enumerated attackers start with every initial burst in reach
        base = tiny_scenario(Random(seed), name=f"tiny{seed}")
        for mode, n_a, bounded in modes:
            sc = replace(base, mode=mode, n_a=n_a, bound_initial_insertions=bounded)
            attackers += islice(enumerate_attackers(sc, EnumBounds()), 20)
    for committed in (True, False):  # reactions along chains of insertions
        attackers += [chain_attack(chain_scenario(committed), n, 3) for n in (5, 12)]
    attackers = [fa for fa in attackers if fa is not None]
    assert sum(not fa.deterministic for fa in attackers) > 200
    assert sum(not fa.initial_epsilon for fa in attackers) > 50
    assert sum(any(is_inserted(sym) for _, sym in fa.f.trans) for fa in attackers) > 200
    for fa in attackers:
        for max_len in (None, 2, 8):
            assert initial_reactions(fa, max_len) == literal_reference.initial_reactions(
                fa, max_len)
            for r in fa.f.states:
                for e in sorted(fa.ea.sigma_o):
                    assert reactions(fa, r, e, max_len) == literal_reference.reactions(
                        fa, r, e, max_len)
