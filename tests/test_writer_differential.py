"""The streaming arena writer against the one-string writer it replaced.

Over `random_scenario(Random(s), max_states=6)` for s in 0..99 and the
demo, each also with its plant's events declared in reverse order (so
that rows are not built in label order), in five attacker modes, `format_ida` must give the bytes of
`writer_reference.format_ida` on the full arena, on the pruned arena
(with its flags), in the bounded modes on the counter arena, and on two
arenas whose initial state was removed (`arenas`); `IDA.listing` must
give the order and the edge rows of `writer_reference.listing`.  `ida_chunks` must yield
whole lines in chunks of at most `CHUNK_ROWS` states.
"""

from __future__ import annotations

from dataclasses import replace
from random import Random

import pytest

import writer_reference as ref
from arena_reference import from_nodes
from sdattack import modelio
from sdattack.automata import Automaton
from sdattack.build import construct_aida, construct_baida
from sdattack.cli import main
from sdattack.modelio import format_ida, ida_chunks, write_ida
from sdattack.prune import prune, prune_unbounded
from sdattack.randgen import random_scenario

from conftest import DEMO_DIR

MODES = {
    "interruptible": dict(mode="interruptible", n_a=None),
    "unbounded": dict(mode="unbounded", n_a=None),
    "bounded-1": dict(mode="bounded", n_a=1),
    "bounded-2": dict(mode="bounded", n_a=2),
    "bounded-free": dict(mode="bounded", n_a=1, bound_initial_insertions=False),
}


def reversed_events(sc):
    """`sc` with its plant's events declared in reverse order."""
    p = sc.plant
    return replace(sc, plant=Automaton(p.name, p.states, p.events[::-1], p.trans, p.initial),
                   name=f"{sc.name}-reversed")


def without_initial(ida):
    """The arena less its initial state and the edges at it."""
    a = ida.initial
    return from_nodes(ida.name, ida.ctx, [y for y in ida.s_states if y != a],
                      [z for z in ida.e_states if z != a],
                      {y: h for y, h in ida.h_se.items() if a not in (y, h[1])},
                      {k: z for k, z in ida.h_es.items() if a not in (k[0], z)}, a)


def arenas(sc):
    """(label, arena, flags) of the full, pruned and counter arenas of `sc`,
    and of two arenas without their initial state: the full one less that
    state, and what pruning leaves of an arena that has only it."""
    aida = construct_aida(sc)
    yield "full", aida, frozenset()
    pruned = prune(aida, sc)
    yield "pruned", pruned.ida, pruned.flags
    if sc.mode == "bounded":
        yield "counter", construct_baida(sc, aida), frozenset()
    yield "rootless", without_initial(aida), frozenset()
    emptied = prune(from_nodes("empty", sc.ctx, [], [], {}, {}, aida.initial), sc)
    yield "emptied", emptied.ida, emptied.flags


def assert_same_listing(ida) -> bool:
    """Whether some row of `ida` is sorted other than as built."""
    order, sort, sorts = ida.listing()
    ref_order, ref_rows = ref.listing(ida)
    assert order == ref_order
    for i in [*range(len(ida.side)), -1]:
        assert [ida.off[i] + k for k in sorts[sort[i]]] == list(ref_rows[i])
    return any(k != tuple(range(len(k))) for k in sorts)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_same_bytes_as_the_reference(demo_scenario, mode):
    seen = set()
    for base in [demo_scenario, *(random_scenario(Random(seed), max_states=6, name=f"rand{seed}")
                                  for seed in range(100))]:
        for sc in (replace(base, **MODES[mode]), reversed_events(replace(base, **MODES[mode]))):
            for label, ida, flags in arenas(sc):
                assert format_ida(ida, flags) == ref.format_ida(ida, flags), (sc.name, label)
                seen.add((label, bool(flags), ida.root < 0, assert_same_listing(ida)))
    # the sweep reaches flags where the mode has them, and rows that need sorting
    assert ("pruned", mode != "interruptible", False, True) in seen
    assert {("full", False, False, True), ("rootless", False, True, True),
            ("emptied", False, True, False)} <= seen


def chunk_states(chunk: str) -> set[str]:
    """The states whose node, edge or flag lines a chunk holds."""
    return {line.split()[1] for line in chunk.splitlines()
            if line.split()[0] in ("node", "edge", "flag")}


def test_chunks_hold_a_bounded_number_of_states(monkeypatch, demo_scenario):
    usda = prune_unbounded(construct_aida(demo_scenario), demo_scenario)
    ida, flags = usda.ida, usda.flags
    assert flags and len(ida.side) > 3
    monkeypatch.setattr(modelio, "CHUNK_ROWS", 3)
    chunks = list(ida_chunks(ida, flags))
    assert "".join(chunks) == ref.format_ida(ida, flags)
    assert len([c for c in chunks if chunk_states(c)]) > 1
    assert all(c.endswith("\n") for c in chunks if c)
    assert max(len(chunk_states(c)) for c in chunks) == 3


def test_files_are_written_as_formatted(tmp_path, demo_scenario, capsys):
    aida = construct_aida(demo_scenario)
    write_ida(aida, tmp_path / "a.ida")
    assert main(["build-aida", str(DEMO_DIR / "attack.cfg"), "-o", str(tmp_path / "b.ida")]) == 0
    assert main(["build-aida", str(DEMO_DIR / "attack.cfg")]) == 0
    expected = ref.format_ida(aida)
    assert (tmp_path / "a.ida").read_text() == (tmp_path / "b.ida").read_text() == expected
    assert capsys.readouterr().out == expected
