"""Command line front end for the attack synthesis pipeline.

Exit codes: 0 success, 1 no attack exists or verification failed,
2 malformed input, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .automata import ModelError
from .build import construct_aida, nominal_critical_reachable, verify_aida_maximality
from .dot import automaton_dot, ida_dot
from .modelio import (
    ParseError,
    format_attack,
    format_automaton,
    format_ida,
    read_attack,
    read_scenario,
)
from .oracle import ClosedLoopConfig, OracleBudgetError, check_problem1
from .prune import prune
from .synth import SynthesisError, check_initial_burst, decision_table, synthesize


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _cmd_validate(args: argparse.Namespace) -> int:
    sc = read_scenario(args.config)
    plant, rt = sc.plant, sc.rtilde
    print(f"scenario {sc.name}: ok")
    print(f"  plant: {len(plant.states)} states, {len(plant.events)} events")
    print(f"  observable: {','.join(sorted(sc.ea.sigma_o)) or '-'}")
    print(f"  compromised: {','.join(sorted(sc.ea.sigma_a)) or '-'}")
    print(f"  critical: {','.join(sorted(map(str, sc.x_crit))) or '-'}")
    print(f"  supervisor completion: {len(rt.automaton.states)} states")
    print(f"  mode: {sc.mode}" + (f" (n_a={sc.n_a})" if sc.n_a is not None else ""))
    print(f"  goal: {sc.strength}")
    nominal = nominal_critical_reachable(sc)
    print(f"  critical reachable without attack: {'yes' if nominal else 'no'}")
    return 0


def _cmd_build_rtilde(args: argparse.Namespace) -> int:
    sc = read_scenario(args.config)
    _emit(format_automaton(sc.rtilde.automaton), args.output)
    return 0


def _cmd_build_aida(args: argparse.Namespace) -> int:
    sc = read_scenario(args.config)
    aida = construct_aida(sc)
    if not verify_aida_maximality(aida, sc):
        print("internal: constructed arena fails its own audit", file=sys.stderr)
        return 3
    _emit(format_ida(aida), args.output)
    return 0


def _cmd_prune(args: argparse.Namespace) -> int:
    sc = read_scenario(args.config)
    result = prune(construct_aida(sc), sc)
    _emit(format_ida(result.ida, result.flags), args.output)
    return 0


def _cmd_synthesize(args: argparse.Namespace) -> int:
    sc = read_scenario(args.config)
    result = synthesize(sc, prefer_deletion=args.prefer_deletion)
    if not result.feasible:
        print(f"scenario {sc.name}: no {sc.strength} attack in mode {sc.mode}")
        return 1
    assert result.attack is not None and result.target is not None
    _emit(format_attack(result.attack), args.output)
    if args.output not in (None, "-"):
        print(f"scenario {sc.name}: attack written to {args.output}")
        print(f"  goal state: {result.target.token()}, path length {len(result.path)}")
        print(decision_table(result.attack))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    sc = read_scenario(args.config)
    own = args.attack is None
    if own:
        result = synthesize(sc)
        if not result.feasible:
            print(f"scenario {sc.name}: no {sc.strength} attack in mode {sc.mode}")
            return 1
        fa = result.attack
    else:
        fa = read_attack(args.attack, sc.ea)
        check_initial_burst(fa, sc)
    cfg = ClosedLoopConfig(sc.plant, sc.rtilde, fa, args.horizon, sc.x_crit)
    verdict = check_problem1(cfg, sc.strength)
    print(f"admissible: {'yes' if verdict.admissible else 'no'}")
    print(f"stealthy:   {'yes' if verdict.stealthy else 'no'}")
    weak = f"weak hit:   {'yes' if verdict.weak_hit else 'no'}"
    if verdict.weak_witness is not None:
        weak += " (witness: " + " ".join(verdict.weak_witness) + ")"
    print(weak)
    strong = f"strong hit: {'yes' if verdict.strong_hit else 'no'}"
    if verdict.strong_witness is not None:
        strong += " (witness: " + " ".join(verdict.strong_witness) + ")"
    print(strong)
    for note in verdict.notes:
        print(f"note: {note}")
    for obs, reason in verdict.counterexamples:
        shown = " ".join(obs) if obs else "eps"
        print(f"counterexample: {shown} ({reason})")
    print(f"horizon: {verdict.horizon}")
    if verdict.ok(sc.strength):
        print("verdict: ok")
        return 0
    print("verdict: fail")
    return 3 if own else 1


def _cmd_export_dot(args: argparse.Namespace) -> int:
    sc = read_scenario(args.config)
    if args.stage == "plant":
        text = automaton_dot(sc.plant, sc.x_crit)
    elif args.stage == "supervisor":
        text = automaton_dot(sc.supervisor.automaton)
    elif args.stage == "rtilde":
        text = automaton_dot(sc.rtilde.automaton)
    elif args.stage == "aida":
        text = ida_dot(construct_aida(sc), x_crit=sc.x_crit)
    else:
        result = prune(construct_aida(sc), sc)
        text = ida_dot(result.ida, result.flags, sc.x_crit)
    _emit(text, args.output)
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdattack",
        description="Synthesize sensor deception attacks on supervisory control loops.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="scenario config file")
        p.set_defaults(func=func)
        return p

    add("validate", _cmd_validate, "parse a scenario and report its shape")
    p = add("build-rtilde", _cmd_build_rtilde, "write the supervisor completion")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p = add("build-aida", _cmd_build_aida, "write the attack arena")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p = add("prune", _cmd_prune, "write the arena pruned for the scenario mode")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p = add("synthesize", _cmd_synthesize, "extract an attack strategy if one exists")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p.add_argument("--prefer-deletion", action="store_true", help="cover with deletions where possible")
    p = add("verify", _cmd_verify, "replay an attack against the closed loop")
    p.add_argument("--attack", default=None, help="strategy file (default: synthesize)")
    p.add_argument("--horizon", type=int, default=10, help="observation horizon")
    p = add("export-dot", _cmd_export_dot, "write a Graphviz view of one stage")
    p.add_argument(
        "--stage",
        choices=("plant", "supervisor", "rtilde", "aida", "pruned"),
        default="aida",
    )
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SynthesisError, OracleBudgetError, AssertionError) as exc:
        print(f"internal: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
