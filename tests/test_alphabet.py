"""Edit alphabet symbols and the supervisor's view of an edited string."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from sdattack.alphabet import (
    EditAlphabet,
    base_event,
    deleted,
    inserted,
    is_deleted,
    is_inserted,
)
from sdattack.automata import ModelError

EA = EditAlphabet(frozenset({"a", "b", "c"}), frozenset({"b", "c"}))

edit_strings = st.lists(
    st.sampled_from(["a", "b", "c", "b.ins", "b.del", "c.ins", "c.del"]),
    max_size=6,
).map(tuple)


class TestSymbols:
    def test_suffix_round_trip(self):
        assert inserted("b") == "b.ins"
        assert deleted("b") == "b.del"
        assert base_event("b.ins") == "b"
        assert base_event("b.del") == "b"
        assert base_event("b") == "b"

    def test_predicates(self):
        assert is_inserted("b.ins") and not is_inserted("b.del")
        assert is_deleted("b.del") and not is_deleted("b")


class TestEditAlphabet:
    def test_attack_set_must_be_observable(self):
        with pytest.raises(ModelError):
            EditAlphabet(frozenset({"a"}), frozenset({"b"}))

    def test_reserved_suffixes_rejected(self):
        with pytest.raises(ModelError):
            EditAlphabet(frozenset({"a.ins"}), frozenset())
        with pytest.raises(ModelError):
            EditAlphabet(frozenset({"a", "x.del"}), frozenset({"a"}))

    def test_symbol_sets(self):
        assert EA.insertions == {"b.ins", "c.ins"}
        assert EA.deletions == {"b.del", "c.del"}
        assert EA.editable == {"b.ins", "c.ins", "b.del", "c.del"}
        assert EA.edit_symbols == {"a", "b", "c", "b.ins", "c.ins", "b.del", "c.del"}

    def test_reaction_heads(self):
        # the genuine symbol first, then the deletion of a compromised event
        assert EA.reaction_heads("a") == ("a",)
        assert EA.reaction_heads("b") == ("b", "b.del")
        assert EA.reaction_heads("c") == ("c", "c.del")
        for e in EA.sigma_o:
            heads = EA.reaction_heads(e)
            assert all(base_event(h) == e for h in heads)
            assert set(heads) - {e} == {h for h in EA.deletions if base_event(h) == e}
        assert EditAlphabet(frozenset({"a"}), frozenset()).reaction_heads("a") == ("a",)

    def test_check_string_rejects_foreign_symbols(self):
        EA.check_string(("a", "b.ins", "c.del"))
        with pytest.raises(ModelError):
            EA.check_string(("d",))
        with pytest.raises(ModelError):
            EA.check_string(("a.ins",))


class TestViews:
    def test_hand_values(self):
        s = ("a", "b.ins", "b", "c.del", "a")
        assert EA.supervisor_view(s) == ("a", "b", "b", "a")

    @given(edit_strings)
    def test_views_drop_one_side_each(self, s):
        sup = EA.supervisor_view(s)
        assert len(sup) == len(s) - sum(is_deleted(x) for x in s)

    @given(edit_strings)
    def test_views_land_in_base_alphabet(self, s):
        assert all(sym in EA.sigma_o for sym in EA.supervisor_view(s))

    @given(edit_strings)
    def test_plain_strings_are_fixed_points(self, s):
        plain = tuple(base_event(x) for x in s)
        assert EA.supervisor_view(plain) == plain
