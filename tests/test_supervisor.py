"""Supervisor validation and the dead-sink completion rules."""

from __future__ import annotations

import pytest

from sdattack.automata import Automaton, EventDecl, ModelError
from sdattack.supervisor import (
    DEAD,
    _spreadsheet_names,
    build_rtilde,
    validate_supervisor,
)

PLANT_DECLS = (
    EventDecl("a", True, False),
    EventDecl("b", True, True),
    EventDecl("u", False, False),
    EventDecl("v", False, True),
)


def small_plant() -> Automaton:
    # 0 -a-> 1 -b-> 0; u loops at 1, v loops at 0.
    return Automaton(
        "G",
        ("0", "1"),
        PLANT_DECLS,
        {
            ("0", "a"): "1",
            ("0", "v"): "0",
            ("1", "u"): "1",
            ("1", "b"): "0",
        },
        "0",
    )


def permissive_supervisor() -> Automaton:
    return Automaton(
        "R",
        ("r0",),
        PLANT_DECLS,
        {("r0", ev): "r0" for ev in ("a", "b", "u", "v")},
        "r0",
    )


class TestSpreadsheetNames:
    def test_wraps_past_z(self):
        names = _spreadsheet_names(28)
        assert names[0] == "A"
        assert names[25] == "Z"
        assert names[26] == "AA"
        assert names[27] == "AB"
        assert len(set(names)) == 28


class TestValidation:
    def test_accepts_conventional_realization(self):
        validate_supervisor(small_plant(), permissive_supervisor())

    def test_alphabet_mismatch_rejected(self):
        sup = Automaton("R", ("r0",), PLANT_DECLS[:2], {}, "r0")
        with pytest.raises(ModelError):
            validate_supervisor(small_plant(), sup)

    def test_attribute_mismatch_rejected(self):
        decls = (
            EventDecl("a", True, True),
            EventDecl("b", True, True),
            EventDecl("u", False, False),
            EventDecl("v", False, True),
        )
        sup = Automaton("R", ("r0",), decls, {}, "r0")
        with pytest.raises(ModelError):
            validate_supervisor(small_plant(), sup)

    def test_unobservable_must_self_loop(self):
        sup = Automaton(
            "R",
            ("r0", "r1"),
            PLANT_DECLS,
            {("r0", "u"): "r1"},
            "r0",
        )
        with pytest.raises(ModelError):
            validate_supervisor(small_plant(), sup)

    def test_dead_name_reserved(self):
        sup = Automaton("R", ("dead",), PLANT_DECLS, {}, "dead")
        with pytest.raises(ModelError):
            validate_supervisor(small_plant(), sup)


class TestCompletionRules:
    def setup_method(self):
        real = validate_supervisor(small_plant(), permissive_supervisor())
        self.rt = build_rtilde(small_plant(), real)

    def test_exact_transition_map(self):
        # A = {(r0,0)}, B = {(r0,1)} in discovery order.
        assert self.rt.automaton.states == ("A", "B", DEAD)
        assert self.rt.automaton.trans == {
            ("A", "a"): "B",
            ("A", "u"): "A",
            ("A", "v"): "A",
            ("B", "b"): "A",
            ("B", "a"): DEAD,
            ("B", "u"): "B",
            (DEAD, "a"): DEAD,
            (DEAD, "u"): DEAD,
        }

    def test_gamma_values(self):
        assert self.rt.gamma("A") == {"a", "u", "v"}
        assert self.rt.gamma("B") == {"a", "b", "u"}
        assert self.rt.gamma(DEAD) == {"a", "u"}

    def test_unexpected_uncontrollable_goes_dead(self):
        assert self.rt.mu("B", "a") == DEAD

    def test_controllable_never_reaches_dead(self):
        ctrl = {"b", "v"}
        for (src, ev), dst in self.rt.automaton.trans.items():
            if ev in ctrl:
                assert dst != DEAD

    def test_mu_stays_partial_on_disabled_controllables(self):
        assert self.rt.mu("A", "b") is None

    def test_dead_absorbs_uncontrollables_only(self):
        assert self.rt.mu(DEAD, "a") == DEAD
        assert self.rt.mu(DEAD, "u") == DEAD
        assert self.rt.mu(DEAD, "b") is None
        assert self.rt.mu(DEAD, "v") is None

    def test_run_follows_views(self):
        assert self.rt.run(self.rt.initial, ("a", "b")) == "A"
        assert self.rt.run(self.rt.initial, ("a", "a")) == DEAD
        assert self.rt.run(self.rt.initial, ("b",)) is None

    def test_origin_payloads(self):
        assert self.rt.origin[DEAD] == frozenset()
        assert self.rt.origin["A"] == frozenset({("r0", "0")})
        assert self.rt.origin["B"] == frozenset({("r0", "1")})


class TestFixtureCompletion:
    def test_demo_rtilde_shape(self, demo_scenario):
        rt = demo_scenario.rtilde
        assert rt.automaton.states == ("A", "B", "C", DEAD)
        assert rt.gamma("A") == {"a"}
        assert rt.gamma("B") == {"a", "b"}
        assert rt.gamma("C") == {"a", "c"}
        assert rt.gamma(DEAD) == {"a"}
        assert rt.mu("B", "a") == DEAD
        assert rt.mu("B", "b") == "C"
        assert rt.mu("C", "c") == "A"
