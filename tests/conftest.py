"""Shared fixtures: the demo scenario, the one-shot instance and deterministic
hypothesis settings."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from sdattack.modelio import read_scenario

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

DEMO_DIR = Path(__file__).resolve().parent.parent / "scenarios" / "demo"


@pytest.fixture(scope="session")
def demo_scenario():
    return read_scenario(DEMO_DIR / "attack.cfg")


@pytest.fixture(scope="session")
def demo_aida(demo_scenario):
    from sdattack.build import construct_aida

    return construct_aida(demo_scenario)


@pytest.fixture(scope="session")
def one_shot():
    """Two-state plant, one compromised observable, permissive supervisor."""
    from sdattack.automata import Automaton, EventDecl

    a = EventDecl("a", True, True)
    plant = Automaton(
        name="P", states=("0", "1"), events=(a,), trans={("0", "a"): "1"}, initial="0"
    )
    sup = Automaton(
        name="S", states=("r0",), events=(a,), trans={("r0", "a"): "r0"}, initial="r0"
    )
    return plant, sup
