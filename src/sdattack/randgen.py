"""Seeded random instance generators for sweeps and stress tests.

Both generators draw from a caller-supplied `random.Random`, so a fixed
seed reproduces the exact same scenario.  Generated plants are trimmed
to their accessible part, critical states are made absorbing, and the
supervisor is grown from the plant's observer with some controllable
edges dropped, which is what makes deception opportunities appear.
"""

from __future__ import annotations

from random import Random

from .automata import Automaton, EventDecl, ModelError, observer, trim_accessible
from .build import Scenario, make_scenario

_EVENT_NAMES = ("a", "b", "c", "d")


def _random_plant(rng: Random, n_states: int, decls: list[EventDecl], density: float) -> Automaton:
    states = tuple(str(i) for i in range(n_states))
    trans = {}
    for x in states:
        for d in decls:
            if rng.random() < density:
                trans[(x, d.name)] = rng.choice(states)
    plant = Automaton("G", states, tuple(decls), trans, "0")
    return trim_accessible(plant)


def _random_supervisor(
    rng: Random,
    plant: Automaton,
    drop_ctrl: float,
    unobs_loop: float,
) -> Automaton:
    """Observer skeleton with some controllable edges withheld."""
    obs = observer(plant)
    trans = dict(obs.trans)
    for (x, ev), y in list(trans.items()):
        if plant.event_map[ev].controllable and rng.random() < drop_ctrl:
            del trans[(x, ev)]
    for x in obs.states:
        for d in plant.events:
            if not d.observable and rng.random() < unobs_loop:
                trans[(x, d.name)] = x
    sup = Automaton("R", obs.states, plant.events, trans, obs.initial)
    return trim_accessible(sup)


def _pick_critical(rng: Random, plant: Automaton) -> frozenset:
    candidates = [x for x in plant.states if x != plant.initial]
    k = 1 if len(candidates) < 3 else rng.randint(1, 2)
    return frozenset(rng.sample(candidates, k))


def _make_absorbing(plant: Automaton, x_crit: frozenset) -> Automaton:
    trans = {k: v for k, v in plant.trans.items() if k[0] not in x_crit}
    return Automaton(plant.name, plant.states, plant.events, trans, plant.initial)


def random_scenario(
    rng: Random,
    *,
    max_states: int = 5,
    max_events: int = 4,
    name: str = "rand",
    **scenario_kw,
) -> Scenario:
    """One random attack scenario with at most the given plant size."""
    while True:
        n_events = rng.randint(2, max_events)
        decls = []
        for i in range(n_events):
            observable = rng.random() < 0.8
            controllable = rng.random() < 0.5
            decls.append(EventDecl(_EVENT_NAMES[i], observable, controllable))
        if not any(d.observable for d in decls):
            decls[0] = EventDecl(decls[0].name, True, decls[0].controllable)
        plant = _random_plant(rng, rng.randint(2, max_states), decls, density=0.4)
        if len(plant.states) < 2:
            continue
        x_crit = _pick_critical(rng, plant)
        plant = _make_absorbing(plant, x_crit)
        observable = [d.name for d in plant.events if d.observable]
        attack = [e for e in observable if rng.random() < 0.5]
        if not attack:
            attack = [rng.choice(observable)]
        sup = _random_supervisor(rng, plant, drop_ctrl=0.3, unobs_loop=0.7)
        try:
            return make_scenario(
                plant, sup, frozenset(attack), x_crit, name=name, **scenario_kw
            )
        except ModelError:
            continue


def tiny_scenario(
    rng: Random,
    *,
    name: str = "tiny",
    **scenario_kw,
) -> Scenario:
    """A scenario small enough for exhaustive attacker enumeration."""
    while True:
        decls = [
            EventDecl("a", True, rng.random() < 0.5),
            EventDecl("b", True, rng.random() < 0.5),
        ]
        if rng.random() < 0.2:
            decls.append(EventDecl("u", False, True))
        plant = _random_plant(rng, rng.randint(2, 3), decls, density=0.6)
        if len(plant.states) < 2:
            continue
        x_crit = frozenset([rng.choice([x for x in plant.states if x != plant.initial])])
        plant = _make_absorbing(plant, x_crit)
        attack = [rng.choice([d.name for d in plant.events if d.observable])]
        sup = _random_supervisor(rng, plant, drop_ctrl=0.4, unobs_loop=0.7)
        try:
            return make_scenario(
                plant, sup, frozenset(attack), x_crit, name=name, **scenario_kw
            )
        except ModelError:
            continue
