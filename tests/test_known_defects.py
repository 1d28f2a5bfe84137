"""The known defects of the pipeline, each as a strict expected failure.

Each test asserts the correct outcome on one instance whose model text is
in this file (written in a compact form that `_automaton` expands), and is
marked `xfail(strict=True)` with the ROADMAP item that tracks its defect
and the exception its failure raises, so a failure of another kind fails.
A change that mends a defect turns its test into a failing XPASS, so the
change that mends it must also remove the mark; a change that moves a
verdict by accident shows the same way.  The instances come from the
benchmark generator's families (`FAULT` seeds 15 and 71, `LADDER` seed 5,
`TINY` seed 108).
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout

import pytest

from sdattack import ClosedLoopConfig, SynthesisError, check_problem1, synthesize
from sdattack.build import construct_aida
from sdattack.cli import main
from sdattack.modelio import read_scenario
from sdattack.oracle import EnumBounds, check_embedding, enumerate_attackers
from sdattack.prune import prune_interruptible

FAULT_EVENTS_15 = """\
event e0 obs ctrl
event e1 obs ctrl
event e2 obs ctrl
event e3 obs unctrl
event e4 obs unctrl
event e5 unobs ctrl"""

FAULT_EVENTS_71 = """\
event e0 obs unctrl
event e1 unobs unctrl
event e2 obs unctrl
event e3 unobs ctrl
event e4 unobs ctrl
event e5 unobs unctrl"""

LADDER_EVENTS_5 = """\
event e0 obs unctrl
event e1 obs unctrl
event e2 obs unctrl
event e3 unobs unctrl
event e4 obs unctrl
event e5 obs ctrl"""

# name -> (attack events, critical states, mode, strength, plant, supervisor)
INSTANCES = {
    "fault15": ("e0", "2,4", "interruptible", "strong", f"""\
automaton G
{FAULT_EVENTS_15}
states 0* 1 2 3 4 6 7
trans 0 e1 4; 0 e2 3; 0 e5 6; 1 e0 7; 3 e0 2; 3 e5 7
trans 6 e3 2; 6 e4 7; 7 e0 4; 7 e3 0; 7 e5 4""", f"""\
automaton R
{FAULT_EVENTS_15}
states s0* s1 s2 s3 s4 s5
trans s0 e1 s1; s0 e2 s2; s0 e3 s3; s0 e4 s4; s1 e5 s1; s2 e0 s5
trans s2 e3 s0; s2 e5 s2; s3 e5 s3; s4 e3 s0; s4 e5 s4; s5 e5 s5"""),
    "fault71": ("e0", "5,6", "interruptible", "strong", f"""\
automaton G
{FAULT_EVENTS_71}
states 0* 1 2 3 5 6
trans 0 e3 2; 0 e4 0; 1 e2 6; 1 e4 0; 1 e5 2; 2 e0 5
trans 2 e1 0; 2 e2 3; 2 e4 3; 2 e5 2; 3 e4 1; 3 e5 3""", f"""\
automaton R
{FAULT_EVENTS_71}
states s0* s1 s2
trans s0 e0 s1; s0 e1 s0; s0 e2 s2; s0 e3 s0; s0 e4 s0; s1 e3 s1
trans s1 e4 s1; s1 e5 s1; s2 e0 s1; s2 e1 s2; s2 e2 s2; s2 e3 s2
trans s2 e5 s2"""),
    "ladder5": ("e0,e1,e2", "12,23", "unbounded", "weak", f"""\
automaton G
{LADDER_EVENTS_5}
states 0* 1 2 4 5 6 7 8 9 10 11 12 13 14 15 16 17 19 22 23 24 25 26 27 28 29
trans 0 e1 17; 0 e2 7; 0 e3 6; 0 e5 27; 1 e1 25; 1 e2 19
trans 1 e4 0; 2 e0 24; 2 e1 5; 2 e3 6; 4 e0 19; 4 e4 11
trans 5 e1 15; 5 e3 8; 5 e5 23; 7 e4 7; 8 e1 11; 8 e3 14
trans 8 e4 23; 9 e1 13; 9 e3 10; 10 e0 8; 10 e3 10; 10 e4 25
trans 10 e5 4; 11 e1 15; 11 e2 1; 11 e3 19; 13 e1 6; 13 e2 23
trans 13 e4 28; 14 e0 13; 14 e2 13; 14 e3 14; 15 e0 16; 15 e5 12
trans 16 e1 26; 17 e0 2; 17 e5 25; 19 e0 15; 19 e1 22; 19 e4 5
trans 22 e5 26; 24 e3 17; 25 e1 5; 25 e4 24; 26 e1 15; 26 e3 28
trans 26 e4 10; 27 e5 6; 28 e0 28; 29 e4 9""", f"""\
automaton R
{LADDER_EVENTS_5}
states s0* s1 s2 s3 s4 s5 s6 s7 s8 s9 s10 s11 s12 s13 s14 s15 s16 s17 s18 s19 s20 s21 s22 s23 s24 s25 s26
trans s0 e1 s1; s0 e2 s2; s0 e3 s0; s0 e5 s3; s1 e0 s4; s1 e3 s1
trans s1 e5 s5; s2 e3 s2; s2 e4 s2; s3 e3 s3; s4 e0 s7; s4 e1 s8
trans s4 e3 s4; s5 e1 s8; s5 e4 s7; s6 e3 s6; s7 e0 s4; s7 e3 s7
trans s7 e5 s5; s8 e0 s9; s8 e1 s10; s8 e2 s9; s8 e4 s11; s8 e5 s11
trans s9 e1 s6; s9 e2 s11; s9 e3 s9; s9 e4 s12; s10 e0 s13; s10 e1 s14
trans s10 e2 s15; s10 e4 s8; s10 e5 s16; s11 e3 s11; s12 e0 s12; s13 e0 s17
trans s13 e1 s18; s13 e3 s13; s13 e5 s16; s14 e0 s17; s14 e5 s19; s15 e1 s5
trans s15 e2 s20; s15 e4 s0; s16 e3 s16; s17 e1 s18; s17 e3 s17; s18 e0 s12
trans s18 e1 s21; s18 e4 s22; s19 e0 s12; s19 e1 s21; s19 e3 s19; s19 e4 s22
trans s20 e0 s21; s20 e1 s23; s20 e3 s20; s20 e4 s8; s21 e0 s17; s21 e3 s21
trans s21 e5 s16; s22 e0 s24; s22 e3 s22; s22 e4 s5; s22 e5 s25; s23 e3 s23
trans s24 e0 s9; s24 e1 s26; s24 e2 s9; s24 e3 s24; s24 e4 s11; s25 e0 s20
trans s25 e4 s26; s26 e0 s21; s26 e1 s14; s26 e2 s15; s26 e3 s26; s26 e4 s8"""),
    "tiny108": ("e0", "1", "interruptible", "strong", """\
automaton G
event e0 obs ctrl
event e1 obs unctrl
states 0* 1 2
trans 0 e0 2; 2 e1 1""", """\
automaton R
event e0 obs ctrl
event e1 obs unctrl
states s0* s1 s2
trans s0 e0 s1; s1 e1 s2"""),
}


def _automaton(compact: str) -> str:
    """Automaton file text: `states` lists the states in order, the initial
    one starred, and a `trans` line holds `;`-separated transitions."""
    lines = []
    for line in compact.splitlines():
        word, _, rest = line.partition(" ")
        if word == "states":
            lines += [f"state {x.rstrip('*')}" + (" initial" if x.endswith("*") else "")
                      for x in rest.split()]
        elif word == "trans":
            lines += [f"trans {t.strip()}" for t in rest.split(";")]
        else:
            lines.append(line)
    return "\n".join(lines) + "\n"


def write_instance(root, name) -> str:
    attack, critical, mode, strength, plant, supervisor = INSTANCES[name]
    d = root / name
    d.mkdir()
    (d / "plant.aut").write_text(_automaton(plant), encoding="utf-8")
    (d / "supervisor.aut").write_text(_automaton(supervisor), encoding="utf-8")
    (d / "attack.cfg").write_text(
        "plant = plant.aut\nsupervisor = supervisor.aut\n"
        f"attack_events = {attack}\ncritical_states = {critical}\n"
        f"mode = {mode}\nstrength = {strength}\nname = {name}\n", encoding="utf-8")
    return str(d / "attack.cfg")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: the arena and the checker close "
                   "the plant estimate differently after a genuine observation")
@pytest.mark.parametrize("name", ["fault15", "fault71"])
def test_synthesized_attack_verifies(tmp_path, name):
    out = io.StringIO()
    with redirect_stdout(out):
        main(["verify", write_instance(tmp_path, name)])
    assert "verdict: ok" in out.getvalue().splitlines()


@pytest.mark.xfail(strict=True, raises=SynthesisError,
                   reason="ROADMAP item 3: unbounded pruning keeps flagged "
                   "states with no insertion escape")
def test_unbounded_synthesis_gives_a_verified_attack_or_none(tmp_path):
    sc = read_scenario(write_instance(tmp_path, "ladder5"))
    result = synthesize(sc)
    if result.feasible:
        cfg = ClosedLoopConfig(sc.plant, sc.rtilde, result.attack, 10, sc.x_crit)
        assert check_problem1(cfg, sc.strength).ok(sc.strength)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: the checker extends edited "
                   "strings that no run makes")
def test_every_certified_attacker_embeds(tmp_path):
    sc = read_scenario(write_instance(tmp_path, "tiny108"))
    bounds = EnumBounds(max_attackers=1500)
    isda = prune_interruptible(construct_aida(sc), sc).ida
    not_embedded = []
    for fa in enumerate_attackers(sc, bounds, certifying_only=True):
        verdict = check_problem1(ClosedLoopConfig(sc.plant, sc.rtilde, fa, bounds.horizon,
                                                  sc.x_crit), sc.strength)
        if verdict.admissible and verdict.stealthy and check_embedding(fa, isda, bounds.horizon):
            not_embedded.append(fa)
    assert not_embedded == []
