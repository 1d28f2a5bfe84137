"""Synthesis of sensor deception attacks on supervisory control loops.

The package models a controlled discrete event system, an attacker that
sits on the sensor channel between plant and supervisor, and the game
that decides which observation edits the attacker can make while staying
undetected.  The main entry points are:

  - `make_scenario` / `Scenario`: bundle plant, supervisor, compromised
    events and critical states into one validated object;
  - `construct_aida`: build the insertion-deletion attack arena;
  - `prune`: cut the arena down to the winning region for one of the
    three attacker classes;
  - `synthesize`: extract a concrete attack strategy, if one exists;
  - `check_problem1`: replay a strategy against the closed loop and
    verify admissibility, stealthiness and the hit condition.
"""

from .alphabet import EditAlphabet, base_event, deleted, inserted, is_deleted, is_inserted
from .automata import (
    Automaton,
    EventDecl,
    ModelError,
    State,
    language,
    observer,
    parallel,
    step,
    trim_accessible,
)
from .build import (
    Scenario,
    aida_size_bound,
    construct_aida,
    construct_baida,
    make_scenario,
    verify_aida_maximality,
)
from .game import IDA, InformationState, Node
from .oracle import (
    ClosedLoopConfig,
    Verdict,
    check_embedding,
    check_problem1,
    enumerate_attackers,
    reach_estimate,
)
from .prune import PruneResult, prune, prune_bounded, prune_interruptible, prune_unbounded
from .supervisor import DEAD, RTilde, SupervisorRealization, build_rtilde, validate_supervisor
from .synth import (
    AttackFunction,
    SynthesisError,
    SynthesisResult,
    decision_table,
    relay_attack_function,
    synthesize,
)

__version__ = "0.1.0"

__all__ = [
    "AttackFunction",
    "Automaton",
    "ClosedLoopConfig",
    "DEAD",
    "EditAlphabet",
    "EventDecl",
    "IDA",
    "InformationState",
    "ModelError",
    "Node",
    "PruneResult",
    "RTilde",
    "Scenario",
    "State",
    "SupervisorRealization",
    "SynthesisError",
    "SynthesisResult",
    "Verdict",
    "aida_size_bound",
    "base_event",
    "check_embedding",
    "check_problem1",
    "construct_aida",
    "construct_baida",
    "decision_table",
    "deleted",
    "enumerate_attackers",
    "inserted",
    "is_deleted",
    "is_inserted",
    "language",
    "make_scenario",
    "observer",
    "parallel",
    "prune",
    "prune_bounded",
    "prune_interruptible",
    "prune_unbounded",
    "reach_estimate",
    "relay_attack_function",
    "step",
    "synthesize",
    "trim_accessible",
    "validate_supervisor",
    "verify_aida_maximality",
]
