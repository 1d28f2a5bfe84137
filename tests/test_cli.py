"""Command line behavior: exit codes, artifacts, reproducibility."""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import sdattack
from sdattack.automata import Automaton
from sdattack.cli import main
from sdattack.modelio import (
    format_attack,
    format_scenario_config,
    parse_ida,
    read_attack,
    read_automaton,
    read_scenario,
    write_attack,
    write_automaton,
)
from sdattack.synth import (
    AttackFunction,
    decision_table,
    relay_attack_function,
    synthesize,
)

from chains import chain_attack, chain_scenario
from conftest import DEMO_DIR

CFG = str(DEMO_DIR / "attack.cfg")


def write_variant(tmp_path, sc, **overrides):
    """Write a scenario directory with selected config fields replaced."""
    write_automaton(sc.plant, tmp_path / "plant.aut")
    write_automaton(sc.supervisor.automaton, tmp_path / "supervisor.aut")
    text = format_scenario_config(sc)
    for key, value in overrides.items():
        lines = [l for l in text.splitlines() if not l.startswith(f"{key} ")]
        if value is not None:
            lines.append(f"{key} = {value}")
        text = "\n".join(lines) + "\n"
    cfg = tmp_path / "variant.cfg"
    cfg.write_text(text)
    return str(cfg)


class TestValidate:
    def test_demo(self, capsys):
        assert main(["validate", CFG]) == 0
        out = capsys.readouterr().out
        assert "scenario demo: ok" in out
        assert "critical reachable without attack: no" in out
        assert "mode: interruptible" in out

    def test_missing_file(self, capsys):
        assert main(["validate", "nowhere.cfg"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("plant = plant.aut\ncolor = red\n")
        assert main(["validate", str(bad)]) == 2
        assert ":2:" in capsys.readouterr().err


class TestBuildArtifacts:
    def test_rtilde(self, tmp_path, capsys):
        out = tmp_path / "rtilde.aut"
        assert main(["build-rtilde", CFG, "-o", str(out)]) == 0
        rt = read_automaton(out)
        assert set(rt.states) == {"A", "B", "C", "dead"}

    def test_rtilde_stdout(self, capsys):
        assert main(["build-rtilde", CFG]) == 0
        assert capsys.readouterr().out.startswith("automaton ")

    def test_aida_reproducible(self, tmp_path, demo_scenario):
        a, b = tmp_path / "a.ida", tmp_path / "b.ida"
        assert main(["build-aida", CFG, "-o", str(a)]) == 0
        assert main(["build-aida", CFG, "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        ida, flagged = parse_ida(a.read_text(), demo_scenario.ctx, str(a))
        assert len(ida.nodes) == 13
        assert flagged == frozenset()

    def test_prune(self, tmp_path, demo_scenario):
        out = tmp_path / "pruned.ida"
        assert main(["prune", CFG, "-o", str(out)]) == 0
        ida, flagged = parse_ida(out.read_text(), demo_scenario.ctx, str(out))
        assert len(ida.nodes) == 10
        assert flagged == frozenset()

    def test_prune_unbounded_writes_flags(self, tmp_path, demo_scenario):
        cfg = write_variant(tmp_path, demo_scenario, mode="unbounded", name="demo-u")
        out = tmp_path / "pruned.ida"
        assert main(["prune", cfg, "-o", str(out)]) == 0
        sc = read_scenario(cfg)
        ida, flags = parse_ida(out.read_text(), sc.ctx, str(out))
        assert {ida.node(i).token() for i in flags} == {"E(3,B)"}


class TestSynthesize:
    def test_to_stdout_is_just_the_strategy(self, capsys, demo_scenario):
        assert main(["synthesize", CFG]) == 0
        out = capsys.readouterr().out
        assert out == format_attack(synthesize(demo_scenario).attack)

    def test_to_file_reports_summary(self, tmp_path, capsys, demo_scenario):
        out = tmp_path / "demo.strategy"
        assert main(["synthesize", CFG, "-o", str(out)]) == 0
        report = capsys.readouterr().out
        assert f"attack written to {out}" in report
        assert "goal state: E(2,A), path length 7" in report
        assert "mode: interruptible" in report
        fa = read_attack(out, demo_scenario.ea)
        assert decision_table(fa) == decision_table(synthesize(demo_scenario).attack)

    def test_prefer_deletion_flag(self, tmp_path, demo_scenario, capsys):
        cfg = write_variant(tmp_path, demo_scenario, mode="unbounded", name="demo-u")
        assert main(["synthesize", cfg, "--prefer-deletion"]) == 0
        out = capsys.readouterr().out
        assert "b.del" in out

    def test_infeasible_exits_one(self, tmp_path, demo_scenario, capsys):
        cfg = write_variant(tmp_path, demo_scenario, attack_events="-", name="quiet")
        assert main(["synthesize", cfg]) == 1
        assert "no strong attack" in capsys.readouterr().out

    def test_bounded_variant(self, tmp_path, demo_scenario, capsys):
        cfg = write_variant(tmp_path, demo_scenario, mode="bounded", n_a="1", name="demo-b")
        assert main(["synthesize", cfg]) == 0
        out = capsys.readouterr().out
        assert "mode bounded" in out and "n_a 1" in out


class TestVerify:
    def test_own_attack_passes(self, capsys):
        assert main(["verify", CFG]) == 0
        out = capsys.readouterr().out
        assert "admissible: yes" in out
        assert "stealthy:   yes" in out
        assert "strong hit: yes (witness: a c)" in out
        assert "verdict: ok" in out

    def test_infeasible_scenario_exits_one(self, tmp_path, demo_scenario, capsys):
        cfg = write_variant(tmp_path, demo_scenario, attack_events="-", name="quiet")
        assert main(["verify", cfg]) == 1

    def test_harmless_user_attack_fails_politely(self, tmp_path, demo_scenario, capsys):
        strategy = tmp_path / "relay.strategy"
        write_attack(relay_attack_function(demo_scenario), strategy)
        assert main(["verify", CFG, "--attack", str(strategy)]) == 1
        out = capsys.readouterr().out
        assert "strong hit: no" in out
        assert "verdict: fail" in out

    def test_broken_user_attack_prints_counterexamples(
        self, tmp_path, demo_scenario, capsys
    ):
        # Keeps only the winning line; after a genuine a the observation b
        # finds no reaction, an admissibility violation.
        full = synthesize(demo_scenario).attack
        f = Automaton(
            name="po",
            states=("q0", "q1", "q2", "q3"),
            events=full.f.events,
            trans={
                ("q0", "a"): "q1",
                ("q1", "b.ins"): "q2",
                ("q2", "c"): "q3",
            },
            initial="q0",
        )
        strategy = tmp_path / "cut.strategy"
        write_attack(AttackFunction(f, "interruptible", demo_scenario.ea), strategy)
        assert main(["verify", CFG, "--attack", str(strategy)]) == 1
        out = capsys.readouterr().out
        assert "admissible: no" in out
        assert "counterexample: a b (admissibility)" in out

    def test_each_counterexample_is_printed_once(self, tmp_path, capsys):
        # A reaction of an interruptible chain may stop at any of its
        # positions; a failure reached from several of them is one line.
        sc = chain_scenario(committed=False)
        write_automaton(sc.plant, tmp_path / "plant.aut")
        write_automaton(sc.supervisor.automaton, tmp_path / "supervisor.aut")
        (tmp_path / "chain.cfg").write_text(format_scenario_config(sc))
        write_attack(chain_attack(sc, 6, fail_at=3), tmp_path / "chain.fa")
        argv = [str(tmp_path / "chain.cfg"), "--attack", str(tmp_path / "chain.fa")]
        assert main(["verify", *argv, "--horizon", "4"]) == 1
        printed = [l for l in capsys.readouterr().out.splitlines() if l.startswith("counterexample:")]
        histories = (
            "b", "a b", "b a", "b b", "b c", "b a a", "b a b", "b a c", "b b a", "b b b",
            "b b c", "b a a a", "b a a b", "b a a c", "b a b a", "b a b b", "b a b c",
        )
        assert printed == [
            f"counterexample: {obs} (stealthiness: reaction to '{obs[-1]}' drives "
            "the supervisor view out of the supervised language)"
            for obs in histories
        ]

    def test_horizon_flag(self, capsys):
        assert main(["verify", CFG, "--horizon", "4"]) == 0
        assert "horizon: 4" in capsys.readouterr().out

    @pytest.mark.parametrize("initial", ["s", "s#-1"])
    def test_initial_burst_bound_comes_from_the_scenario(
        self, tmp_path, demo_scenario, capsys, initial
    ):
        # Two committed insertions before the first observation, at n_a = 1:
        # refused exactly when the scenario bounds the initial burst, whatever
        # the initial state is called.
        strategy = tmp_path / "burst.strategy"
        lines = [
            "strategy", "mode bounded", "n_a 1", "initial_epsilon false",
            "automaton F", "event a obs unctrl", "event b obs ctrl",
            "event b.del obs ctrl", "event b.ins obs ctrl", "event c obs ctrl",
            f"state {initial} initial", "state s1", "state s2",
            f"trans {initial} b.ins s1", "trans s1 b.ins s2",
            "trans s2 a s2", "trans s2 b s2", "trans s2 c s2",
            f"auto {initial} b.ins", "auto s1 b.ins", "auto s2 -",
        ]
        strategy.write_text("\n".join(lines) + "\n")
        for bounded, code in (("true", 2), ("false", 1)):
            cfg = write_variant(
                tmp_path, demo_scenario, mode="bounded", n_a=1,
                bound_initial_insertions=bounded,
            )
            assert main(["verify", cfg, "--attack", str(strategy)]) == code, bounded
            out, err = capsys.readouterr()
            if code == 2:
                assert "initial burst longer than the bound 1" in err
            else:
                assert "stealthy:   no" in out and "verdict: fail" in out

    def test_malformed_strategy_exits_two(self, tmp_path, demo_scenario, capsys):
        text = format_attack(relay_attack_function(demo_scenario))
        strategy = tmp_path / "relay.strategy"
        strategy.write_text(text.replace("mode interruptible\n",
                                         "mode interruptible\nmode unbounded\n"))
        assert main(["verify", CFG, "--attack", str(strategy)]) == 2
        assert f"{strategy}:3: second mode line" in capsys.readouterr().err


    def test_contradictory_initial_epsilon_exits_two(self, tmp_path, demo_scenario, capsys):
        cfg = write_variant(tmp_path, demo_scenario, mode="unbounded")
        fa = synthesize(replace(demo_scenario, mode="unbounded")).attack
        lines = format_attack(fa).splitlines()
        i = lines.index("initial_epsilon true")
        lines[i] = "initial_epsilon false"
        strategy = tmp_path / "unbounded.strategy"
        strategy.write_text("\n".join(lines) + "\n")
        assert main(["verify", cfg, "--attack", str(strategy)]) == 2
        assert f"{strategy}:{i + 1}: initial_epsilon false contradicts" in capsys.readouterr().err

class TestExportDot:
    @pytest.mark.parametrize("stage", ["plant", "supervisor", "rtilde", "aida", "pruned"])
    def test_stages(self, stage, capsys):
        assert main(["export-dot", CFG, "--stage", stage]) == 0
        assert capsys.readouterr().out.startswith("digraph ")

    def test_to_file(self, tmp_path):
        out = tmp_path / "aida.dot"
        assert main(["export-dot", CFG, "-o", str(out)]) == 0
        assert out.read_text().startswith("digraph ")


class TestTopLevel:
    def test_help_exits_via_argparse(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_missing_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestCrossProcessDeterminism:
    COMMANDS = (
        ["validate"],
        ["build-rtilde"],
        ["build-aida"],
        ["prune"],
        ["synthesize"],
        ["synthesize", "--prefer-deletion"],
        ["verify"],
        ["export-dot", "--stage", "pruned"],
    )

    @staticmethod
    def run(args, hash_seed):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = str(hash_seed)
        src = str(Path(sdattack.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = "import sys; from sdattack.cli import main; sys.exit(main(sys.argv[1:]))"
        done = subprocess.run(
            [sys.executable, "-c", code, *args], env=env, capture_output=True, timeout=60
        )
        return done.returncode, done.stdout

    def test_outputs_do_not_depend_on_the_hash_seed(self, tmp_path, demo_scenario):
        bounded = write_variant(
            tmp_path, demo_scenario, mode="bounded", n_a=2, bound_initial_insertions="false"
        )
        for cfg in (CFG, bounded):
            for cmd in self.COMMANDS:
                args = [cmd[0], cfg, *cmd[1:]]
                assert self.run(args, 0) == self.run(args, 1), args
