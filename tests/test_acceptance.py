"""Acceptance harness: whole-pipeline checks with explicit runtime budgets.

One test per acceptance check.  Random instances come from the seeded
generators, so every run sees the same 200 scenarios and the same 30
tiny scenarios; budgets are asserted with perf_counter.
"""

from __future__ import annotations

import time
from dataclasses import replace
from random import Random

from sdattack.alphabet import deleted
from sdattack.automata import next_states
from sdattack.build import (
    aida_maximality_violations,
    aida_size_bound,
    construct_aida,
    construct_baida,
)
from sdattack.game import E_SIDE, S_SIDE, IDA, InformationState, Node
from sdattack.modelio import read_scenario
from sdattack.oracle import (
    ClosedLoopConfig,
    EnumBounds,
    OracleBudgetError,
    check_embedding,
    check_problem1,
    enumerate_attackers,
    reach_estimate,
)
from sdattack.prune import prune_bounded, prune_interruptible, prune_unbounded
from sdattack.randgen import random_scenario, tiny_scenario
from sdattack.synth import synthesize

from arena_reference import out_labels
from conftest import DEMO_DIR
from literal_reference import evaluate

POOL_SIZE = 200

_pool_cache: list | None = None


def _pool() -> list:
    global _pool_cache
    if _pool_cache is None:
        _pool_cache = []
        for seed in range(POOL_SIZE):
            sc = random_scenario(Random(seed), name=f"rand{seed}")
            _pool_cache.append((sc, construct_aida(sc)))
    return _pool_cache


def _s(plant_states, sup) -> Node:
    return Node(S_SIDE, InformationState(frozenset(plant_states), sup))


def _e(plant_states, sup) -> Node:
    return Node(E_SIDE, InformationState(frozenset(plant_states), sup))


def _same_structure(a: IDA, b: IDA) -> bool:
    return (
        set(a.s_states) == set(b.s_states)
        and set(a.e_states) == set(b.e_states)
        and a.h_se == b.h_se
        and a.h_es == b.h_es
    )


def test_demo_pipeline_reproduces_reference_structure():
    t0 = time.perf_counter()
    sc = read_scenario(DEMO_DIR / "attack.cfg")
    aida = construct_aida(sc)
    isda = prune_interruptible(aida, sc).ida
    usda = prune_unbounded(aida, sc).ida
    result = synthesize(sc)

    assert len(aida.nodes) == 13

    # a detection state on the supervisor side, and a terminal goal state
    s0dead = _s(["0"], "dead")
    e2a = _e(["2"], "A")
    assert s0dead in set(aida.s_states)
    assert e2a in set(aida.e_states)
    assert not aida.es_adj.get(e2a, ())
    assert e2a.info.plant <= sc.x_crit

    # the interruptible game forbids deleting b after one genuine a
    e1b = _e(["1"], "B")
    assert e1b in isda.nodes
    assert (e1b, "b.del") not in isda.h_es

    # the unbounded game loses exactly the detection state and its one
    # incoming edge, nothing else
    e3b = _e(["3"], "B")
    assert set(usda.nodes) == set(aida.nodes) - {s0dead}
    assert usda.h_se == aida.h_se
    assert usda.h_es == {k: v for k, v in aida.h_es.items() if v != s0dead}
    assert set(aida.h_es) - set(usda.h_es) == {(e3b, "a")}

    # but it keeps both riskier moves the interruptible game dropped
    assert (e1b, "b.del") in usda.h_es
    assert (e3b, "b.ins") in usda.h_es

    # shortest winning path and the strategy read off from it
    visited = [dst.token() for _, _, dst in result.path if dst.side == E_SIDE]
    assert visited == ["E(0,A)", "E(1,B)", "E(1,C)", "E(2,A)"]
    fa = result.attack
    assert evaluate(fa, (), "a") == {("a",), ("a", "b.ins")}
    assert evaluate(fa, ("a",), "b") == {("b",)}
    assert evaluate(fa, ("a", "b"), "a") == {("a",)}
    assert evaluate(fa, ("a", "b"), "c") == {("c",)}

    assert time.perf_counter() - t0 < 1.0


def test_arena_size_stays_within_bound():
    t0 = time.perf_counter()
    pool = _pool()
    assert len(pool) == POOL_SIZE
    for sc, aida in pool:
        cap = 2 ** (len(sc.plant.states) + 1) * len(sc.rtilde.automaton.states)
        assert len(aida.nodes) <= aida_size_bound(sc) <= cap, sc.name
    assert time.perf_counter() - t0 < 60.0


def test_arena_is_maximal_on_random_instances():
    demo = read_scenario(DEMO_DIR / "attack.cfg")
    checked = 0
    for sc, aida in [(demo, construct_aida(demo))] + _pool():
        assert aida_maximality_violations(aida, sc) == [], sc.name
        checked += 1
    assert checked == POOL_SIZE + 1


def test_arena_information_states_match_estimates():
    """Random arena walks: the supervisor component must equal the completion
    state of the edited string's supervisor view, and the estimate component
    must equal the independent reach estimate."""
    walks = 0
    checks = 0
    for idx, (sc, aida) in enumerate(_pool()):
        rt, plant, ea = sc.rtilde, sc.plant, sc.ea
        rng = Random(10_000 + idx)
        for _ in range(6):
            walks += 1
            node = aida.initial
            word: tuple[str, ...] = ()
            for _ in range(12):
                if node.side == S_SIDE:
                    hop = aida.h_se.get(node)
                    if hop is None:
                        break
                    node = hop[1]
                    q = rt.run(rt.initial, ea.supervisor_view(word))
                    assert q == node.info.sup, (sc.name, word)
                    est = reach_estimate(plant, rt, ea, word)
                    assert est == node.info.plant, (sc.name, word)
                    checks += 1
                else:
                    edges = aida.es_adj.get(node, ())
                    if not edges:
                        break
                    sym, node = edges[rng.randrange(len(edges))]
                    word = word + (sym,)
    assert walks >= 1000 and checks >= 1000


def test_interruptible_pruning_is_sound():
    for sc, aida in _pool():
        rt, plant, ea = sc.rtilde, sc.plant, sc.ea
        isda = prune_interruptible(aida, sc).ida

        # no feasible observation can outrun the attacker
        for z in isda.e_states:
            labels = out_labels(isda, z)
            for ev in rt.gamma(z.info.sup) & plant.obs_events:
                if not next_states(plant, z.info.plant, ev):
                    continue
                assert ev in labels or (
                    ev in ea.sigma_a and deleted(ev) in labels
                ), (sc.name, z.token(), ev)

        # every surviving state tolerates all moves it cannot control
        for y in isda.s_states:
            if y in aida.h_se:
                assert y in isda.h_se, (sc.name, y.token())
        for z in isda.e_states:
            for sym, _ in aida.es_adj.get(z, ()):
                if sym in plant.obs_events and sym not in ea.sigma_a:
                    assert (z, sym) in isda.h_es, (sc.name, z.token(), sym)

        # a second pass must change nothing, for any of the three pruners
        assert _same_structure(isda, prune_interruptible(isda, sc).ida), sc.name
        usda = prune_unbounded(aida, sc).ida
        assert _same_structure(usda, prune_unbounded(usda, sc).ida), sc.name
        bsc = replace(sc, mode="bounded", n_a=1)
        bsda = prune_bounded(construct_baida(bsc, aida), bsc).ida
        assert _same_structure(bsda, prune_bounded(bsda, bsc).ida), sc.name


def test_synthesized_attacks_pass_independent_verification():
    t0 = time.perf_counter()
    feasible = 0
    for sc, _ in _pool():
        for mode in ("interruptible", "unbounded", "bounded"):
            for strength in ("strong", "weak"):
                var = replace(
                    sc,
                    mode=mode,
                    n_a=1 if mode == "bounded" else None,
                    strength=strength,
                )
                result = synthesize(var)
                if not result.feasible:
                    continue
                feasible += 1
                cfg = ClosedLoopConfig(
                    var.plant, var.rtilde, result.attack, 10, var.x_crit
                )
                verdict = check_problem1(cfg, strength)
                assert verdict.ok(strength), (sc.name, mode, strength, verdict)
    assert feasible > 100
    assert time.perf_counter() - t0 < 120.0


def test_exhaustive_search_agrees_at_tiny_scale():
    """Every certified small attacker embeds in the pruned game, and game
    feasibility matches whether the exhaustive search finds a hitting one.

    Instances the enumerator refuses on budget grounds are skipped whole:
    nothing is checked or asserted for them.  The refusal depends only on
    how many attackers fit the bounds, never on any check outcome, so the
    skip cannot hide a failure on an instance that completes.  The
    attackers are enumerated in full before any check, so a budget error
    raised by a check is not mistaken for a refusal.
    """
    bounds = EnumBounds(max_attackers=1500)
    completed = 0
    feasible_seen = infeasible_seen = 0
    seed = 0
    while completed < 30:
        assert seed < 80, "not enough tiny instances within the search budget"
        sc = tiny_scenario(Random(seed), name=f"tiny{seed}")
        seed += 1
        try:
            attackers = list(enumerate_attackers(sc, bounds, certifying_only=True))
        except OracleBudgetError:
            continue
        isda = prune_interruptible(construct_aida(sc), sc).ida
        result = synthesize(sc)
        found_hit = False
        not_embedded: list = []
        for fa in attackers:
            cfg = ClosedLoopConfig(sc.plant, sc.rtilde, fa, bounds.horizon, sc.x_crit)
            verdict = check_problem1(cfg, sc.strength)
            if not (verdict.admissible and verdict.stealthy):
                continue
            if check_embedding(fa, isda, bounds.horizon):
                not_embedded.append(fa)
            if verdict.ok(sc.strength):
                found_hit = True
        assert not_embedded == [], sc.name
        assert found_hit == result.feasible, sc.name
        completed += 1
        if result.feasible:
            feasible_seen += 1
        else:
            infeasible_seen += 1
    assert completed == 30
    assert feasible_seen and infeasible_seen


def test_pipeline_artifacts_are_deterministic(tmp_path, capsys):
    from sdattack.cli import main
    from sdattack.modelio import format_scenario_config, write_automaton

    demo_cfg = str(DEMO_DIR / "attack.cfg")

    def artifact(args, out):
        assert main(args + ["-o", str(out)]) == 0
        return out.read_bytes()

    commands = [
        ["build-rtilde", demo_cfg],
        ["build-aida", demo_cfg],
        ["prune", demo_cfg],
        ["synthesize", demo_cfg],
    ]
    commands += [
        ["export-dot", demo_cfg, "--stage", stage]
        for stage in ("plant", "supervisor", "rtilde", "aida", "pruned")
    ]
    for i, args in enumerate(commands):
        first = artifact(args, tmp_path / f"a{i}")
        second = artifact(args, tmp_path / f"b{i}")
        assert first == second, args
    capsys.readouterr()

    # report text is reproducible too
    for args in (["validate", demo_cfg], ["verify", demo_cfg]):
        assert main(args) == 0
        one = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == one, args

    # same determinism on a generated instance with a feasible attack
    sc = next(sc for sc, _ in _pool() if synthesize(sc).feasible)
    write_automaton(sc.plant, tmp_path / "plant.aut")
    write_automaton(sc.supervisor.automaton, tmp_path / "supervisor.aut")
    (tmp_path / "rand.cfg").write_text(format_scenario_config(sc))
    rand_cfg = str(tmp_path / "rand.cfg")
    for i, args in enumerate([["build-aida", rand_cfg], ["synthesize", rand_cfg]]):
        first = artifact(args, tmp_path / f"ra{i}")
        second = artifact(args, tmp_path / f"rb{i}")
        assert first == second, args
    capsys.readouterr()
