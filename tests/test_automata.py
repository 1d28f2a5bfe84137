"""Core automaton operations against brute-force oracles."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from sdattack.automata import (
    Automaton,
    EventDecl,
    ModelError,
    iter_strings,
    language,
    next_states,
    observer,
    parallel,
    rename_states,
    state_token,
    step,
    stringify_states,
    trim_accessible,
    unobservable_reach,
)


@st.composite
def automata(draw, max_states: int = 4, max_events: int = 3, prefix: str = ""):
    n = draw(st.integers(1, max_states))
    m = draw(st.integers(1, max_events))
    decls = tuple(
        EventDecl(prefix + name, draw(st.booleans()), draw(st.booleans()))
        for name in ("a", "b", "c")[:m]
    )
    states = tuple(prefix + str(i) for i in range(n))
    trans = {}
    for x in states:
        for d in decls:
            if draw(st.booleans()):
                trans[(x, d.name)] = draw(st.sampled_from(states))
    return Automaton("t" + prefix, states, decls, trans, states[0])


def ur_oracle(a: Automaton, starts, gamma) -> frozenset:
    """Reachability over enabled unobservable events by naive iteration."""
    reach = set(starts)
    changed = True
    while changed:
        changed = False
        for (x, e), y in a.trans.items():
            if x in reach and e in gamma and not a.event_map[e].observable:
                if y not in reach:
                    reach.add(y)
                    changed = True
    return frozenset(reach)


def observed_words_oracle(a: Automaton, k: int) -> set:
    """Projections of the generated language, truncated at k observables."""
    out = {()}
    seen = set()
    frontier = [(a.initial, ())]
    while frontier:
        x, w = frontier.pop()
        if (x, w) in seen:
            continue
        seen.add((x, w))
        for e in a.out_events(x):
            y = a.succ(x, e)
            if a.event_map[e].observable:
                if len(w) < k:
                    out.add(w + (e,))
                    frontier.append((y, w + (e,)))
            else:
                frontier.append((y, w))
    return out


def runnable(a: Automaton, s) -> bool:
    return step(a, a.initial, s) is not None


class TestConstruction:
    def test_duplicate_states_rejected(self):
        with pytest.raises(ModelError):
            Automaton("x", ("0", "0"), (EventDecl("a", True, True),), {}, "0")

    def test_duplicate_events_rejected(self):
        decls = (EventDecl("a", True, True), EventDecl("a", False, False))
        with pytest.raises(ModelError):
            Automaton("x", ("0",), decls, {}, "0")

    def test_unknown_initial_rejected(self):
        with pytest.raises(ModelError):
            Automaton("x", ("0",), (EventDecl("a", True, True),), {}, "1")

    def test_unknown_transition_endpoint_rejected(self):
        decls = (EventDecl("a", True, True),)
        with pytest.raises(ModelError):
            Automaton("x", ("0",), decls, {("0", "a"): "1"}, "0")
        with pytest.raises(ModelError):
            Automaton("x", ("0",), decls, {("1", "a"): "0"}, "0")

    def test_unknown_transition_event_rejected(self):
        with pytest.raises(ModelError):
            Automaton("x", ("0",), (EventDecl("a", True, True),), {("0", "b"): "0"}, "0")

    def test_rename_requires_injective_map(self):
        a = Automaton(
            "x", ("0", "1"), (EventDecl("a", True, True),), {("0", "a"): "1"}, "0"
        )
        with pytest.raises(ModelError):
            rename_states(a, {"0": "z", "1": "z"})


class TestBasics:
    def test_step_walks_and_fails_cleanly(self):
        a = Automaton(
            "x",
            ("0", "1"),
            (EventDecl("a", True, True), EventDecl("b", True, True)),
            {("0", "a"): "1", ("1", "b"): "0"},
            "0",
        )
        assert step(a, "0", ("a", "b", "a")) == "1"
        assert step(a, "0", ("b",)) is None

    def test_state_token_and_canon_order(self):
        assert state_token(frozenset({"b", "a"})) == "{a,b}"
        assert state_token(("x", frozenset({"q"}))) == "(x,{q})"

    def test_iter_strings_is_breadth_first(self):
        a = Automaton(
            "x",
            ("0", "1"),
            (EventDecl("a", True, True), EventDecl("b", True, True)),
            {("0", "a"): "1", ("0", "b"): "0", ("1", "a"): "1"},
            "0",
        )
        words = [s for s, _ in iter_strings(a, 2)]
        assert words[0] == ()
        assert set(words[1:3]) == {("a",), ("b",)}
        assert all(len(w) == 2 for w in words[3:])

    @given(automata())
    def test_language_closed_under_prefix(self, a):
        lang = language(a, 3)
        for s in lang:
            assert s[:-1] in lang


class TestUnobservableReach:
    @given(automata(), st.data())
    def test_matches_naive_iteration(self, a, data):
        starts = data.draw(
            st.frozensets(st.sampled_from(a.states), min_size=1, max_size=len(a.states))
        )
        gamma = data.draw(st.frozensets(st.sampled_from([d.name for d in a.events])))
        got = unobservable_reach(a, starts, gamma)
        assert got == ur_oracle(a, starts, gamma)

    @given(automata())
    def test_contains_starts_and_is_idempotent(self, a):
        gamma = frozenset(d.name for d in a.events)
        got = unobservable_reach(a, {a.initial}, gamma)
        assert a.initial in got
        assert unobservable_reach(a, got, gamma) == got


class TestObserver:
    @given(automata())
    def test_language_is_projection(self, a):
        obs = observer(a)
        assert language(obs, 3) == observed_words_oracle(a, 3)

    @given(automata())
    def test_observer_is_deterministic_over_observables(self, a):
        obs = observer(a)
        for (x, e), _ in obs.trans.items():
            assert obs.event_map[e].observable

    @given(automata())
    def test_initial_closed_under_unobservables(self, a):
        obs = observer(a)
        full = frozenset(d.name for d in a.events)
        assert obs.initial == ur_oracle(a, {a.initial}, full)

    @given(automata())
    def test_next_states_feed_observer(self, a):
        obs = observer(a)
        full = frozenset(d.name for d in a.events)
        for (xs, e), ys in obs.trans.items():
            assert ys == ur_oracle(a, next_states(a, xs, e), full)


class TestParallel:
    @given(automata(prefix=""), automata(prefix=""))
    def test_projection_characterization(self, a, b):
        try:
            par = parallel(a, b)
        except ModelError:
            ev = {d.name: d for d in a.events}
            assert any(
                d.name in ev and d != ev[d.name] for d in b.events
            )
            return
        alpha_a = {d.name for d in a.events}
        alpha_b = {d.name for d in b.events}
        merged = sorted(alpha_a | alpha_b)
        lang = language(par, 3)

        def onto(alpha, s):
            return tuple(e for e in s if e in alpha)

        def member(s):
            return runnable(a, onto(alpha_a, s)) and runnable(b, onto(alpha_b, s))

        candidates = [()]
        for _ in range(3):
            candidates += [s + (e,) for s in candidates for e in merged]
        for s in candidates:
            assert (s in lang) == member(s), s

    @given(automata())
    def test_parallel_with_self_is_language_preserving(self, a):
        par = parallel(a, a)
        assert language(par, 3) == language(a, 3)

    def test_attribute_conflict_rejected(self):
        a = Automaton("x", ("0",), (EventDecl("a", True, True),), {}, "0")
        b = Automaton("y", ("0",), (EventDecl("a", False, True),), {}, "0")
        with pytest.raises(ModelError):
            parallel(a, b)


class TestTrim:
    @given(automata())
    def test_trim_preserves_language_and_reachability(self, a):
        t = trim_accessible(a)
        assert language(t, 4) == language(a, 4)
        reachable = {a.initial}
        frontier = [a.initial]
        while frontier:
            x = frontier.pop()
            for _, y in a.out_edges(x):
                if y not in reachable:
                    reachable.add(y)
                    frontier.append(y)
        assert set(t.states) == reachable

    @given(automata())
    def test_stringify_preserves_language(self, a):
        assert language(stringify_states(a), 3) == language(a, 3)
