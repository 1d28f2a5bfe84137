"""Text formats: byte-stable round trips and positioned parse errors."""

from __future__ import annotations

from dataclasses import replace

import pytest

from sdattack.automata import Automaton, EventDecl
from sdattack.build import Scenario, aida_maximality_violations, construct_aida
from sdattack.game import E_SIDE, S_SIDE, InformationState, Node
from sdattack.modelio import (
    ParseError,
    format_attack,
    format_automaton,
    format_ida,
    format_scenario_config,
    parse_attack,
    parse_automaton,
    parse_ida,
    read_attack,
    read_automaton,
    read_ida,
    read_scenario,
    write_attack,
    write_automaton,
    write_ida,
)
from sdattack.prune import prune_unbounded
from sdattack.supervisor import DEAD
from sdattack.synth import relay_attack_function, synthesize

from arena_reference import from_nodes


def same_automaton(a, b):
    return (
        a.name == b.name
        and a.states == b.states
        and a.events == b.events
        and a.trans == b.trans
        and a.initial == b.initial
    )


class TestAutomatonFormat:
    def test_round_trip_demo_plant(self, demo_scenario):
        text = format_automaton(demo_scenario.plant)
        again = parse_automaton(text)
        assert same_automaton(again, demo_scenario.plant)
        assert format_automaton(again) == text

    def test_file_round_trip(self, demo_scenario, tmp_path):
        p = tmp_path / "plant.aut"
        write_automaton(demo_scenario.plant, p)
        assert p.read_text().endswith("\n")
        assert same_automaton(read_automaton(p), demo_scenario.plant)

    def test_structured_states_are_stringified(self):
        a = Automaton(
            name="m",
            states=(frozenset({"x", "y"}), frozenset({"z"})),
            events=(EventDecl("a", True, True),),
            trans={(frozenset({"x", "y"}), "a"): frozenset({"z"})},
            initial=frozenset({"x", "y"}),
        )
        text = format_automaton(a)
        assert "state {x,y} initial" in text
        again = parse_automaton(text)
        assert again.states == ("{x,y}", "{z}")
        assert format_automaton(again) == text

    def test_hash_in_state_names_survives(self):
        text = (
            "automaton m\n"
            "event a obs ctrl\n"
            "state q#0 initial\n"
            "state q#1\n"
            "trans q#0 a q#1\n"
        )
        a = parse_automaton(text)
        assert a.states == ("q#0", "q#1")
        assert format_automaton(a) == text

    def test_full_line_comments_and_blanks(self):
        text = (
            "# header comment\n"
            "automaton m\n"
            "\n"
            "event a obs ctrl\n"
            "state 0 initial\n"
        )
        assert parse_automaton(text).name == "m"

    @pytest.mark.parametrize(
        "text,line",
        [
            ("automaton m\nevent a obs\n", 2),
            ("automaton m\nevent a obs ctrl\nevent a obs ctrl\n", 3),
            ("automaton m\nstate 0 initial\nstate 0\n", 3),
            ("automaton m\nstate 0 initial\ntrans 0 a 0\n", 3),
            ("automaton m\nevent a obs ctrl\nstate 0 initial\ntrans 0 a 1\n", 4),
            ("automaton m\nbogus 1 2\n", 2),
            ("automaton m\nevent a obs ctrl\nstate 0 initial\ntrans 0 a 0 # x\n", 4),
        ],
    )
    def test_errors_carry_the_line(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_automaton(text, source="model.aut")
        assert f"model.aut:{line}:" in str(err.value)

    def test_header_errors(self):
        with pytest.raises(ParseError, match="empty input"):
            parse_automaton("", source="x")
        with pytest.raises(ParseError, match="missing automaton header"):
            parse_automaton("event a obs ctrl\nstate 0 initial\n")
        with pytest.raises(ParseError, match="no state marked initial"):
            parse_automaton("automaton m\nstate 0\n")


class TestScenarioFormat:
    def test_demo_config(self, demo_scenario):
        assert demo_scenario.name == "demo"
        assert demo_scenario.mode == "interruptible"
        assert demo_scenario.strength == "strong"
        assert sorted(demo_scenario.ea.sigma_a) == ["b"]
        assert demo_scenario.x_crit == {"2"}

    def test_round_trip(self, demo_scenario, tmp_path):
        write_automaton(demo_scenario.plant, tmp_path / "plant.aut")
        write_automaton(demo_scenario.supervisor.automaton, tmp_path / "supervisor.aut")
        text = format_scenario_config(demo_scenario)
        (tmp_path / "demo.cfg").write_text(text)
        again = read_scenario(tmp_path / "demo.cfg")
        assert again.name == demo_scenario.name
        assert again.mode == demo_scenario.mode
        assert again.ea.sigma_a == demo_scenario.ea.sigma_a
        assert again.x_crit == demo_scenario.x_crit
        assert format_scenario_config(again) == text

    def test_empty_lists_use_dash(self, demo_scenario, tmp_path):
        sc = Scenario(
            plant=demo_scenario.plant,
            supervisor=demo_scenario.supervisor,
            ea=type(demo_scenario.ea)(set(demo_scenario.ea.sigma_o), set()),
            x_crit=demo_scenario.x_crit,
            name="quiet",
        )
        text = format_scenario_config(sc)
        assert "attack_events = -" in text
        write_automaton(sc.plant, tmp_path / "plant.aut")
        write_automaton(sc.supervisor.automaton, tmp_path / "supervisor.aut")
        (tmp_path / "quiet.cfg").write_text(text)
        assert read_scenario(tmp_path / "quiet.cfg").ea.sigma_a == frozenset()

    def _write(self, tmp_path, demo_scenario, body):
        write_automaton(demo_scenario.plant, tmp_path / "plant.aut")
        write_automaton(demo_scenario.supervisor.automaton, tmp_path / "supervisor.aut")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(body)
        return cfg

    def test_missing_required_key(self, demo_scenario, tmp_path):
        cfg = self._write(
            tmp_path,
            demo_scenario,
            "plant = plant.aut\nsupervisor = supervisor.aut\nattack_events = b\n",
        )
        with pytest.raises(ParseError, match="critical_states"):
            read_scenario(cfg)

    def test_unknown_key_with_line(self, demo_scenario, tmp_path):
        for line in ("color = red", "literal_bounded_race = true"):
            key = line.partition(" = ")[0]
            cfg = self._write(
                tmp_path,
                demo_scenario,
                "plant = plant.aut\nsupervisor = supervisor.aut\n"
                f"attack_events = b\ncritical_states = 2\n{line}\n",
            )
            with pytest.raises(ParseError) as err:
                read_scenario(cfg)
            assert ":5:" in str(err.value)
            assert f"unknown key {key!r}" in str(err.value)

    def test_duplicate_key(self, demo_scenario, tmp_path):
        cfg = self._write(
            tmp_path,
            demo_scenario,
            "plant = plant.aut\nplant = plant.aut\nsupervisor = supervisor.aut\n"
            "attack_events = b\ncritical_states = 2\n",
        )
        with pytest.raises(ParseError, match="duplicate key"):
            read_scenario(cfg)

    def test_bad_mode_and_bool(self, demo_scenario, tmp_path):
        cfg = self._write(
            tmp_path,
            demo_scenario,
            "plant = plant.aut\nsupervisor = supervisor.aut\n"
            "attack_events = b\ncritical_states = 2\nmode = eager\n",
        )
        with pytest.raises(ParseError, match="mode"):
            read_scenario(cfg)
        cfg = self._write(
            tmp_path,
            demo_scenario,
            "plant = plant.aut\nsupervisor = supervisor.aut\n"
            "attack_events = b\ncritical_states = 2\n"
            "bound_initial_insertions = maybe\n",
        )
        with pytest.raises(ParseError):
            read_scenario(cfg)

    def test_semantic_errors_are_positioned_at_the_file(self, demo_scenario, tmp_path):
        cfg = self._write(
            tmp_path,
            demo_scenario,
            "plant = plant.aut\nsupervisor = supervisor.aut\n"
            "attack_events = b\ncritical_states = 9\n",
        )
        with pytest.raises(ParseError, match="bad.cfg"):
            read_scenario(cfg)


class TestIdaFormat:
    def test_round_trip_plain(self, demo_scenario, demo_aida, tmp_path):
        text = format_ida(demo_aida)
        again, flagged = parse_ida(text, demo_scenario.ctx)
        assert flagged == frozenset()
        assert format_ida(again) == text
        assert set(again.s_states) == set(demo_aida.s_states)
        assert again.h_se == demo_aida.h_se
        assert again.h_es == demo_aida.h_es
        assert again.initial == demo_aida.initial
        assert aida_maximality_violations(again, demo_scenario) == []
        p = tmp_path / "arena.ida"
        write_ida(demo_aida, p)
        loaded, _ = read_ida(p, demo_scenario.ctx)
        assert loaded.h_es == demo_aida.h_es

    def test_round_trip_with_flags_and_counters(self, demo_scenario, demo_aida):
        usda = prune_unbounded(demo_aida, demo_scenario)
        assert usda.flags
        text = format_ida(usda.ida, usda.flags)
        again, flags = parse_ida(text, demo_scenario.ctx)
        assert {again.node(i) for i in flags} == usda.flagged
        assert format_ida(again, flags) == text

        bounded = Scenario(
            plant=demo_scenario.plant,
            supervisor=demo_scenario.supervisor,
            ea=demo_scenario.ea,
            x_crit=demo_scenario.x_crit,
            mode="bounded",
            n_a=1,
            name="demo-b1",
        )
        from sdattack.build import construct_baida

        baida = construct_baida(bounded)
        text = format_ida(baida)
        assert "counter=" in text
        again, _ = parse_ida(text, bounded.ctx)
        assert format_ida(again) == text
        assert {n.counter for n in again.nodes} == {0, 1}

    def test_unreachable_nodes_listed_in_state_order(self, demo_aida):
        # detected S-states and goal E-states that the initial state does not reach
        extra_s = [Node(S_SIDE, InformationState(frozenset({x}), DEAD)) for x in ("3", "1")]
        extra_e = [Node(E_SIDE, InformationState(frozenset({"2"}), q)) for q in ("C", "B")]
        arena = from_nodes(
            name=demo_aida.name,
            ctx=demo_aida.ctx,
            s_states=[*demo_aida.s_states, *extra_s],
            e_states=[*demo_aida.e_states, *extra_e],
            h_se=demo_aida.h_se,
            h_es=demo_aida.h_es,
            initial=demo_aida.initial,
        )
        nodes = [line.split() for line in format_ida(arena).splitlines() if line.startswith("node")]
        assert len(nodes) == len(demo_aida.nodes) + 4
        assert [(side, plant, sup) for _, _, side, plant, sup in nodes[-4:]] == [
            ("S", "plant=3", f"sup={DEAD}"),
            ("S", "plant=1", f"sup={DEAD}"),
            ("E", "plant=2", "sup=C"),
            ("E", "plant=2", "sup=B"),
        ]

    def test_errors_carry_the_line(self, demo_scenario):
        with pytest.raises(ParseError) as err:
            parse_ida("ida x\nnode n0 Q plant=0 sup=A\n", demo_scenario.ctx, "a.ida")
        assert "a.ida:2:" in str(err.value)
        with pytest.raises(ParseError, match="missing initial"):
            parse_ida("ida x\nnode n0 S plant=0 sup=A\n", demo_scenario.ctx)
        with pytest.raises(ParseError, match="unknown node id"):
            parse_ida(
                "ida x\nnode n0 S plant=0 sup=A\ninitial n0\n"
                "edge n0 gamma a n9\n",
                demo_scenario.ctx,
            )


class TestAttackFormat:
    def test_round_trip_interruptible(self, demo_scenario, tmp_path):
        fa = synthesize(demo_scenario).attack
        text = format_attack(fa)
        again = parse_attack(text, demo_scenario.ea)
        assert again.mode == "interruptible"
        assert again.initial_epsilon == fa.initial_epsilon
        assert format_attack(again) == text
        p = tmp_path / "attack.strategy"
        write_attack(fa, p)
        assert format_attack(read_attack(p, demo_scenario.ea)) == text

    def test_round_trip_deterministic(self, demo_scenario):
        sc = Scenario(
            plant=demo_scenario.plant,
            supervisor=demo_scenario.supervisor,
            ea=demo_scenario.ea,
            x_crit=demo_scenario.x_crit,
            mode="bounded",
            n_a=1,
            name="demo-b1",
        )
        fa = synthesize(sc).attack
        text = format_attack(fa)
        assert "auto " in text and "n_a 1" in text
        again = parse_attack(text, sc.ea)
        assert again.n_a == 1
        assert {k: v for k, v in again.auto_insert.items() if v} == {
            "E(1,B)#0": "b.ins"
        }
        assert format_attack(again) == text

    def test_shape_violations_become_parse_errors(self, demo_scenario):
        text = (
            "strategy\n"
            "mode unbounded\n"
            "initial_epsilon true\n"
            "automaton f\n"
            "event b obs ctrl\n"
            "event b.del obs ctrl\n"
            "state r initial\n"
            "state s\n"
            "trans r b s\n"
            "trans r b.del s\n"
            "auto r -\n"
            "auto s -\n"
        )
        with pytest.raises(ParseError, match="deletion"):
            parse_attack(text, demo_scenario.ea)

    def test_missing_mode(self, demo_scenario):
        with pytest.raises(ParseError, match="missing mode"):
            parse_attack(
                "strategy\nautomaton f\nstate r initial\n", demo_scenario.ea
            )

    @pytest.mark.parametrize("attack, old, new, message", [
        ("relay", "mode interruptible", ["mode interruptible", "mode unbounded"],
         "second mode line"),
        ("relay", "strategy", ["strategy junk"], "expected: strategy"),
        ("unbounded", "mode unbounded", ["mode unbounded", "n_a 2 7"], "expected: n_a"),
        ("relay", "initial_epsilon true", ["initial_epsilon true", "initial_epsilon false"],
         "second initial_epsilon line"),
        ("unbounded", "auto E(1,B) b.ins", ["auto E(1,B) b.ins", "auto E(1,B) -"],
         "second auto line"),
        ("unbounded", "strategy", [], "expected: strategy"),
    ], ids=["second-mode", "strategy-junk", "n_a-two-values", "second-initial-epsilon",
            "second-auto", "no-strategy-header"])
    def test_malformed_headers_are_refused(self, demo_scenario, attack, old, new, message):
        # `old` becomes `new`; the error names the line of the last new one
        if attack == "relay":
            fa = relay_attack_function(demo_scenario)
        else:
            fa = synthesize(replace(demo_scenario, mode="unbounded")).attack
        lines = format_attack(fa).splitlines()
        i = lines.index(old)
        lines[i:i + 1] = new
        with pytest.raises(ParseError, match=message) as err:
            parse_attack("\n".join(lines) + "\n", demo_scenario.ea, "f.strategy")
        assert f"f.strategy:{i + max(len(new), 1)}:" in str(err.value)

    def test_contradictory_initial_epsilon_is_refused(self, demo_scenario):
        # the unbounded demo strategy commits to nothing at its initial state
        fa = synthesize(replace(demo_scenario, mode="unbounded")).attack
        lines = format_attack(fa).splitlines()
        i = lines.index("initial_epsilon true")
        lines[i] = "initial_epsilon false"
        with pytest.raises(ParseError, match="initial_epsilon false contradicts") as err:
            parse_attack("\n".join(lines) + "\n", demo_scenario.ea, "f.strategy")
        assert f"f.strategy:{i + 1}:" in str(err.value)
        del lines[i]  # a missing line reads as the commitment says: true
        assert parse_attack("\n".join(lines) + "\n", demo_scenario.ea).initial_epsilon
        # an interruptible strategy takes the flag as written
        relay = format_attack(relay_attack_function(demo_scenario))
        relay = relay.replace("initial_epsilon true", "initial_epsilon false")
        assert not parse_attack(relay, demo_scenario.ea).initial_epsilon

    # a strategy that commits to b.ins at its initial state
    COMMITTING = [
        "strategy", "mode unbounded", "automaton F", "event a obs unctrl",
        "event b obs ctrl", "event b.del obs ctrl", "event b.ins obs ctrl",
        "event c obs ctrl", "state s initial", "state s1", "trans s b.ins s1",
        "trans s1 a s1", "trans s1 b s1", "trans s1 c s1", "auto s b.ins", "auto s1 -",
    ]

    @pytest.mark.parametrize("flag, eps", [("true", None), ("false", False), (None, False)])
    def test_initial_commitment_needs_initial_epsilon_false(self, demo_scenario, flag, eps):
        # without a line, the flag follows the commitment
        lines = list(self.COMMITTING)
        if flag is not None:
            lines.insert(2, f"initial_epsilon {flag}")
        text = "\n".join(lines) + "\n"
        if eps is not None:
            assert parse_attack(text, demo_scenario.ea).initial_epsilon is eps
        else:
            with pytest.raises(ParseError, match="f.strategy:3: initial_epsilon true "
                               "contradicts the commitment 'b.ins'"):
                parse_attack(text, demo_scenario.ea, "f.strategy")

    @pytest.mark.parametrize("attack", ["committing", "relay", "unbounded"])
    def test_parse_format_parse_round_trips(self, demo_scenario, attack):
        # each text without its initial_epsilon line, then as formatted
        if attack == "committing":
            text = "\n".join(self.COMMITTING) + "\n"
        else:
            fa = relay_attack_function(demo_scenario) if attack == "relay" else synthesize(
                replace(demo_scenario, mode="unbounded")).attack
            text = "".join(line for line in format_attack(fa).splitlines(keepends=True)
                           if not line.startswith("initial_epsilon"))
        first = parse_attack(text, demo_scenario.ea)
        again = parse_attack(format_attack(first), demo_scenario.ea)
        assert again == first
        assert format_attack(again) == format_attack(first)

    def test_unknown_auto_state(self, demo_scenario):
        text = (
            "strategy\n"
            "mode unbounded\n"
            "automaton f\n"
            "state r initial\n"
            "auto q -\n"
        )
        with pytest.raises(ParseError, match="auto"):
            parse_attack(text, demo_scenario.ea)


class TestHeaderErrorLines:
    """Header errors cite the first content line of the file (or of the
    embedded automaton), after leading comments and blank lines."""

    def parse(self, kind, text, demo_scenario):
        if kind == "automaton":
            return parse_automaton(text, "f")
        if kind == "ida":
            return parse_ida(text, demo_scenario.ctx, "f")
        return parse_attack(text, demo_scenario.ea, "f")

    @pytest.mark.parametrize("kind, text, message, line", [
        ("automaton", "# c\n\nevent a obs ctrl\nstate 0 initial\n",
         "missing automaton header", 3),
        ("automaton", "# c\n\n  \nautomaton m\nstate 0\n", "no state marked initial", 4),
        ("ida", "# c\n\nnode n0 S plant=0 sup=A\ninitial n0\n", "missing ida header", 3),
        ("ida", "# c\nida x\nnode n0 S plant=0 sup=A\n", "missing initial line", 2),
        ("attack", "# c\n\nstrategy\nautomaton f\nstate r initial\n", "missing mode line", 3),
        ("attack", "# c\nautomaton f\n", "expected: strategy", 2),
        ("attack", "# c\nstrategy\nmode unbounded\n\nevent b obs ctrl\nstate r initial\n",
         "missing automaton header", 5),
        ("attack", "strategy\nmode unbounded\n# c\nautomaton f\nstate r\n",
         "no state marked initial", 4),
        ("automaton", "# only\n\n# comments\n", "empty input", 1),
        ("ida", "# only\n\n# comments\n", "empty input", 1),
        ("attack", "# only\n\n# comments\n", "empty input", 1),
        # no automaton line at all: the error cites the strategy header
        ("attack", "strategy\nmode interruptible\n", "missing automaton header", 1),
        ("attack", "# c\n\nstrategy\nmode unbounded\nauto r -\n", "missing automaton header", 3),
    ], ids=["automaton-header", "automaton-initial", "ida-header", "ida-initial", "attack-mode",
            "attack-strategy", "attack-automaton-header", "attack-automaton-initial",
            "automaton-empty", "ida-empty", "attack-empty", "attack-no-automaton",
            "attack-no-automaton-after-comments"])
    def test_header_errors_cite_the_first_content_line(
        self, demo_scenario, kind, text, message, line
    ):
        with pytest.raises(ParseError, match=f"^f:{line}: {message}"):
            self.parse(kind, text, demo_scenario)


class TestDeterminism:
    def test_formatting_is_reproducible(self, demo_scenario, demo_aida):
        assert format_ida(demo_aida) == format_ida(construct_aida(demo_scenario))
        assert format_automaton(demo_scenario.plant) == format_automaton(
            demo_scenario.plant
        )
        a = synthesize(demo_scenario).attack
        b = synthesize(demo_scenario).attack
        assert format_attack(a) == format_attack(b)
