"""Supervisor realizations and their total completion over observations.

A supervisor is given as a deterministic automaton R over the plant
alphabet; the control decision at a state is its enabled event set.
Feedback semantics require every enabled unobservable event to self-loop,
so R changes state only on observations.

For attack analysis R is completed into `rtilde`: the observer of R||G
plus a `dead` sink that absorbs exactly the uncontrollable observations
the supervisor never expects.  Reaching `dead` is the detection event;
remaining inside the live part is what stealthy attacks preserve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .automata import (
    Automaton,
    ModelError,
    State,
    observer,
    parallel,
    state_token,
    step,
)

DEAD = "dead"


def _spreadsheet_names(n: int) -> list[str]:
    """A, B, ..., Z, AA, AB, ...  Stable display names for observer states."""
    out = []
    for i in range(n):
        k, name = i, ""
        while True:
            k, r = divmod(k, 26)
            name = chr(ord("A") + r) + name
            if k == 0:
                break
            k -= 1
        out.append(name)
    return out


@dataclass(frozen=True)
class SupervisorRealization:
    automaton: Automaton


def validate_supervisor(plant: Automaton, sup: Automaton) -> SupervisorRealization:
    """Check realization conventions against the plant; reject, never repair."""
    if set(d.name for d in sup.events) != set(d.name for d in plant.events):
        raise ModelError(
            f"{sup.name}: supervisor alphabet differs from plant alphabet"
        )
    for d in sup.events:
        if plant.event_map[d.name] != d:
            raise ModelError(
                f"{sup.name}: event {d.name!r} attributes differ from plant"
            )
    for (src, ev), dst in sup.trans.items():
        if ev in sup.unobs_events and dst != src:
            raise ModelError(
                f"{sup.name}: enabled unobservable event {ev!r} must self-loop "
                f"at state {state_token(src)}"
            )
    if DEAD in {state_token(x) for x in sup.states}:
        raise ModelError(f"{sup.name}: state name {DEAD!r} is reserved")
    return SupervisorRealization(sup)


@dataclass(frozen=True)
class RTilde:
    """Total-under-uncontrollables completion of the supervised observer.

    States are short display names plus the `dead` sink; `origin` maps each
    live state back to its observer macro-state (a set of (supervisor,
    plant) pairs).  The transition function stays partial on controllable
    observations the supervisor does not enable.
    """

    automaton: Automaton
    origin: dict[State, frozenset]

    @cached_property
    def initial(self) -> State:
        return self.automaton.initial

    @cached_property
    def loop_tables(self) -> dict:  # per plant, by id: the tables of `oracle`'s checkers
        return {}

    def gamma(self, q: State) -> frozenset[str]:
        """Control decision at q.  The dead sink keeps uncontrollables enabled."""
        return self.automaton.out_events(q)

    def mu(self, q: State, ev: str) -> State | None:
        return self.automaton.succ(q, ev)

    def run(self, q: State, s: Iterable[str]) -> State | None:
        return step(self.automaton, q, s)


def build_rtilde(plant: Automaton, sup: SupervisorRealization) -> RTilde:
    """Complete the supervised observer with a dead sink.

    Beyond the observer transitions, exactly four rules apply:
      - unexpected uncontrollable observations go to dead,
      - uncontrollable unobservables self-loop everywhere,
      - controllable unobservables self-loop where the loop enables them,
      - dead absorbs every uncontrollable event.
    No controllable event ever leads to dead.
    """
    loop = parallel(sup.automaton, plant)
    h = observer(loop)  # every observation history the supervised loop emits
    names = _spreadsheet_names(len(h.states))
    rename = dict(zip(h.states, names))
    uc_obs = sorted(plant.unctrl_events & plant.obs_events)
    uc_unobs = sorted(plant.unctrl_events & plant.unobs_events)
    c_unobs = sorted(plant.ctrl_events & plant.unobs_events)

    trans: dict[tuple[State, str], State] = {}
    for (src, ev), dst in h.trans.items():
        trans[(rename[src], ev)] = rename[dst]
    for macro in h.states:
        q = rename[macro]
        enabled = h.out_events(macro)
        for ev in uc_obs:
            if ev not in enabled:
                trans[(q, ev)] = DEAD
        for ev in uc_unobs:
            trans[(q, ev)] = q
        for ev in c_unobs:
            if any((x, ev) in loop.trans for x in macro):
                trans[(q, ev)] = q
    for ev in sorted(plant.unctrl_events):
        trans[(DEAD, ev)] = DEAD

    aut = Automaton(
        name=f"rtilde({sup.automaton.name})",
        states=tuple(names) + (DEAD,),
        events=plant.events,
        trans=trans,
        initial=rename[h.initial],
    )
    origin = {rename[m]: m for m in h.states}
    origin[DEAD] = frozenset()
    return RTilde(aut, origin)
