"""Seeded input generators for the benchmark workloads.

Everything here is plain standard library and never imports `sdattack`:
the inputs must stay byte-identical across versions of the program, so
the generator carries its own plant sampler, observer construction and
text writer.  The same seed always yields the same files.

Each generator writes scenario directories (`plant.aut`,
`supervisor.aut`, `attack.cfg`, and for `replay-chain` a strategy file)
plus a `manifest.json` that lists the instances in operation order,
with whatever the checks need to know about how each was built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from random import Random

# Event attributes: (name, observable, controllable).
Event = tuple[str, bool, bool]


@dataclass(frozen=True)
class PlantSpec:
    """Generator settings for one random scenario family."""

    states: int
    events: int
    density: float  # chance that a (state, event) pair has a transition
    unobs_share: float  # chance that an event is unobservable
    compromised_share: float  # chance that an observable event is compromised
    drop_ctrl: float  # chance that the supervisor disables a controllable edge
    unobs_ctrl: bool = False  # may unobservable events be controllable


UNOBS_LOOP = 0.7  # chance that the supervisor enables an unobservable event

# ---------------------------------------------------------------------------
# plants and supervisors as (state list, event list, transition dict)


def _random_plant(rng: Random, spec: PlantSpec) -> tuple[list[str], list[Event], dict]:
    events: list[Event] = []
    for i in range(spec.events):
        observable = rng.random() >= spec.unobs_share
        controllable = rng.random() < 0.5 and (observable or spec.unobs_ctrl)
        events.append((f"e{i}", observable, controllable))
    if not any(obs for _, obs, _ in events):
        name, _, ctrl = events[0]
        events[0] = (name, True, ctrl)
    states = [str(i) for i in range(spec.states)]
    trans: dict[tuple[str, str], str] = {}
    for x in states:
        for name, _, _ in events:
            if rng.random() < spec.density:
                trans[(x, name)] = rng.choice(states)
    reach = _reachable("0", trans, [e[0] for e in events])
    states = [x for x in states if x in reach]
    trans = {k: v for k, v in trans.items() if k[0] in reach}
    return states, events, trans


def _reachable(initial: str, trans: dict, names: list[str]) -> set[str]:
    out = {initial}
    stack = [initial]
    while stack:
        x = stack.pop()
        for ev in names:
            y = trans.get((x, ev))
            if y is not None and y not in out:
                out.add(y)
                stack.append(y)
    return out


def _closure(states, trans: dict, names: list[str]) -> frozenset:
    out = set(states)
    stack = list(out)
    while stack:
        x = stack.pop()
        for ev in names:
            y = trans.get((x, ev))
            if y is not None and y not in out:
                out.add(y)
                stack.append(y)
    return frozenset(out)


def _observer(states, events: list[Event], trans: dict) -> tuple[list, dict]:
    """Subset construction over the observable events, breadth first."""
    unobs = [n for n, obs, _ in events if not obs]
    obs = [n for n, o, _ in events if o]
    init = _closure(["0"], trans, unobs)
    order = [init]
    seen = {init}
    otrans: dict = {}
    i = 0
    while i < len(order):
        cur = order[i]
        i += 1
        for ev in obs:
            nxt = {trans[(x, ev)] for x in cur if (x, ev) in trans}
            if not nxt:
                continue
            macro = _closure(nxt, trans, unobs)
            otrans[(cur, ev)] = macro
            if macro not in seen:
                seen.add(macro)
                order.append(macro)
    return order, otrans


def _supervisor(
    rng: Random, states, events: list[Event], trans: dict, spec: PlantSpec
) -> tuple[list[str], dict]:
    """Observer skeleton with some controllable edges withheld."""
    order, otrans = _observer(states, events, trans)
    ctrl = {n for n, _, c in events if c}
    name = {m: f"s{i}" for i, m in enumerate(order)}
    strans: dict[tuple[str, str], str] = {}
    for m in order:
        for ev, o, _ in events:
            if not o:
                if rng.random() < UNOBS_LOOP:
                    strans[(name[m], ev)] = name[m]
                continue
            dst = otrans.get((m, ev))
            if dst is None:
                continue
            if ev in ctrl and rng.random() < spec.drop_ctrl:
                continue
            strans[(name[m], ev)] = name[dst]
    reach = _reachable("s0", strans, [e[0] for e in events])
    sstates = [name[m] for m in order if name[m] in reach]
    return sstates, {k: v for k, v in strans.items() if k[0] in reach}


def format_automaton(name: str, states, events: list[Event], trans: dict, initial: str) -> str:
    lines = [f"automaton {name}"]
    for ev, obs, ctrl in events:
        lines.append(f"event {ev} {'obs' if obs else 'unobs'} {'ctrl' if ctrl else 'unctrl'}")
    for x in states:
        lines.append(f"state {x} initial" if x == initial else f"state {x}")
    for x in states:
        for ev, _, _ in events:
            y = trans.get((x, ev))
            if y is not None:
                lines.append(f"trans {x} {ev} {y}")
    return "\n".join(lines) + "\n"


def _config(name: str, attack: list[str], crit: list[str], mode: str, strength: str, n_a=None) -> str:
    lines = [
        "plant = plant.aut",
        "supervisor = supervisor.aut",
        "attack_events = " + (",".join(attack) or "-"),
        "critical_states = " + ",".join(crit),
        f"mode = {mode}",
    ]
    if n_a is not None:
        lines.append(f"n_a = {n_a}")
    lines += [f"strength = {strength}", f"name = {name}"]
    return "\n".join(lines) + "\n"


@dataclass
class Models:
    """One generated plant/supervisor pair with its attack surface."""

    states: list[str]
    events: list[Event]
    trans: dict
    sup_states: list[str]
    sup_trans: dict
    attack: list[str]
    crit: list[str]


def random_models(rng: Random, spec: PlantSpec) -> Models:
    """Sample until the plant has a proper critical set."""
    while True:
        states, events, trans = _random_plant(rng, spec)
        candidates = [x for x in states if x != "0"]
        if len(candidates) < 2:
            continue
        crit = sorted(rng.sample(candidates, 1 if len(candidates) < 4 else 2), key=int)
        trans = {k: v for k, v in trans.items() if k[0] not in crit}
        observable = [n for n, o, _ in events if o]
        attack = [e for e in observable if rng.random() < spec.compromised_share]
        if not attack:
            attack = [rng.choice(observable)]
        sstates, strans = _supervisor(rng, states, events, trans, spec)
        return Models(states, events, trans, sstates, strans, attack, crit)


def relabel(m: Models, rng: Random, events: bool = True) -> Models:
    """The same scenario under fresh state names and state declaration order,
    and with `events`, fresh event names and event order.

    Every size the pipeline computes (arena nodes, prune rounds, attacker
    counts) is invariant under renaming, so relabelled copies cost about
    the same while their bytes, hash order and tie-breaks differ.  The
    attacker enumerator is the exception: it searches in the order of the
    event names, and its work varies several-fold with that order, so its
    inputs keep their event names.
    """
    pnames = rng.sample(range(10 * len(m.states)), len(m.states))
    pmap = {x: f"x{n}" for x, n in zip(m.states, pnames)}
    snames = rng.sample(range(10 * len(m.sup_states)), len(m.sup_states))
    smap = {x: f"q{n}" for x, n in zip(m.sup_states, snames)}
    enames = rng.sample(range(10 * len(m.events)), len(m.events))
    emap = {e[0]: (f"v{n}" if events else e[0]) for e, n in zip(m.events, enames)}
    new_events = [(emap[n], o, c) for n, o, c in m.events]
    if events:
        rng.shuffle(new_events)
    states = [m.states[0]] + rng.sample(m.states[1:], len(m.states) - 1)
    sup_states = [m.sup_states[0]] + rng.sample(m.sup_states[1:], len(m.sup_states) - 1)
    return Models(
        states=[pmap[x] for x in states],
        events=new_events,
        trans={(pmap[x], emap[e]): pmap[y] for (x, e), y in m.trans.items()},
        sup_states=[smap[x] for x in sup_states],
        sup_trans={(smap[x], emap[e]): smap[y] for (x, e), y in m.sup_trans.items()},
        attack=sorted(emap[e] for e in m.attack),
        crit=sorted(pmap[x] for x in m.crit),
    )


def write_scenario(
    root: Path, name: str, m: Models, mode: str, strength: str, n_a=None
) -> Path:
    d = root / name
    d.mkdir(parents=True, exist_ok=True)
    plant = format_automaton("G", m.states, m.events, m.trans, m.states[0])
    sup = format_automaton("R", m.sup_states, m.events, m.sup_trans, m.sup_states[0])
    (d / "plant.aut").write_text(plant, encoding="utf-8")
    (d / "supervisor.aut").write_text(sup, encoding="utf-8")
    cfg = d / "attack.cfg"
    cfg.write_text(_config(name, m.attack, m.crit, mode, strength, n_a), encoding="utf-8")
    return cfg


# ---------------------------------------------------------------------------
# replay-chain: a hand-built scenario where inserting the compromised
# event is always stealthy, replayed against long insertion chains


def chain_scenario(root: Path, name: str, names: dict[str, str], mode: str) -> Path:
    """Plant and supervisor of the chain family.

    `a` (compromised, controllable) is accepted by the supervisor in every
    state, so inserting it never leaves the supervised language; the first
    `a` the supervisor sees enables `c`, which takes the plant to the
    critical state.  `d` (compromised, uncontrollable) never occurs, so
    inserting it is detected at once.  `b` is an uncontrollable self-loop.
    """
    a, b, c, d = (names[k] for k in "abcd")
    events = [(a, True, True), (b, True, False), (c, True, True), (d, True, False)]
    plant = format_automaton(
        "G", ["p0", "p1"], events, {("p0", a): "p0", ("p0", b): "p0", ("p0", c): "p1"}, "p0"
    )
    sup_trans = {
        ("r0", a): "r1", ("r0", b): "r0",
        ("r1", a): "r1", ("r1", b): "r1", ("r1", c): "r1",
    }
    sup = format_automaton("R", ["r0", "r1"], events, sup_trans, "r0")
    folder = root / name
    folder.mkdir(parents=True, exist_ok=True)
    (folder / "plant.aut").write_text(plant, encoding="utf-8")
    (folder / "supervisor.aut").write_text(sup, encoding="utf-8")
    cfg = folder / "attack.cfg"
    cfg.write_text(_config(name, sorted([a, d]), ["p1"], mode, "strong"), encoding="utf-8")
    return cfg


def chain_strategy(
    rng: Random, names: dict[str, str], length: int, committed: bool, fail_at: int | None
) -> str:
    """Strategy file for an insertion chain of `length` insertions.

    Interruptible chains offer every prefix of the chain in every reaction
    and insert at least one `a` before anything happens; committed chains
    play the whole chain once, as the initial burst.  With
    `fail_at`, the genuine `b` leads into a second chain whose insertion
    number `fail_at` is `d.ins`, so the first observation that breaks
    stealth is exactly `b`.
    """
    a, b, c, d = (names[k] for k in "abcd")
    ids = rng.sample(range(100 * (2 * length + 4)), 2 * length + 3)
    main = [f"k{i}" for i in ids[: length + 1]]
    side = [f"k{i}" for i in ids[length + 1 : 2 * length + 2]] if fail_at is not None else []
    sink = f"k{ids[-1]}"
    trans: list[tuple[str, str, str]] = []
    auto: dict[str, str | None] = {}

    def chain(states: list[str], bad: int | None) -> None:
        for i in range(len(states) - 1):
            sym = d if i == bad else a
            trans.append((states[i], sym + ".ins", states[i + 1]))
            auto[states[i]] = sym + ".ins"
        auto[states[-1]] = None

    chain(main, None)
    if side:
        chain(side, fail_at)
    stops = main if not committed else [main[-1]]
    side_stops = side if not committed else side[-1:]
    for r in stops:
        trans.append((r, a, r))
        trans.append((r, b, side[0] if side else r))
        trans.append((r, c, sink))
    for r in side_stops:
        trans += [(r, a, r), (r, b, r), (r, c, sink)]
    events = [(a, True, True), (a + ".del", True, True), (a + ".ins", True, True),
              (b, True, False), (c, True, True),
              (d, True, False), (d + ".del", True, True), (d + ".ins", True, True)]
    states = main + side + [sink]
    auto[sink] = None
    mode = "unbounded" if committed else "interruptible"
    lines = ["strategy", f"mode {mode}",
             f"initial_epsilon {'false' if length else 'true'}",
             "automaton attack"]
    lines += [f"event {n} obs {'ctrl' if ctrl else 'unctrl'}" for n, _, ctrl in events]
    lines += [f"state {x} initial" if x == main[0] else f"state {x}" for x in states]
    lines += [f"trans {x} {ev} {y}" for x, ev, y in trans]
    if committed:
        lines += [f"auto {x} {auto[x] or '-'}" for x in states]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# workload catalogs
#
# Random bases are fixed (family settings plus a generator seed) and were
# picked for their arena size; the run seed draws a relabelling of each,
# so every seed gives different bytes at the same problem size.  Costs
# that vary by orders of magnitude between random instances of one
# family would otherwise swamp any change to the program.

LADDER = PlantSpec(states=30, events=6, density=0.35, unobs_share=0.3,
                   compromised_share=0.4, drop_ctrl=0.3)
EXPORT = PlantSpec(states=60, events=7, density=0.3, unobs_share=0.3,
                   compromised_share=0.4, drop_ctrl=0.3)
FAULT = PlantSpec(states=8, events=6, density=0.35, unobs_share=0.3,
                  compromised_share=0.4, drop_ctrl=0.3, unobs_ctrl=True)
TINY = PlantSpec(states=3, events=2, density=0.6, unobs_share=0.0,
                 compromised_share=0.5, drop_ctrl=0.4)

# (generator seed, mode, strength, n_a, feasible, full arena nodes)
SYNTH_LADDER = [
    (28, "interruptible", "strong", None, True, 132),
    (4, "bounded", "weak", 1, True, 220),
    (15, "unbounded", "weak", None, True, 305),
    (0, "bounded", "strong", 1, True, 561),
    (9, "interruptible", "weak", None, True, 619),
    (32, "unbounded", "strong", None, True, 1250),
    (12, "bounded", "weak", 2, False, 1633),
    (25, "unbounded", "weak", None, True, 2745),
    (16, "interruptible", "strong", None, False, 3201),
    (13, "bounded", "strong", 1, False, 5660),
    (19, "interruptible", "strong", None, False, 10462),
]
# Scenarios hit by the arena's unobservable-closure fault: synthesis
# succeeds, the checker finds the attack inadmissible.  They are written
# byte for byte the same for every seed.  (generator seed, first failing
# observation, full arena nodes)
SYNTH_FAULTS = [(15, ("e2", "e3", "e3"), 13), (71, ("e2", "e0"), 13)]

# (generator seed, full arena nodes)
ARENA_EXPORT = [(3, 14515), (12, 15158), (9, 19508)]

# (generator seed, attackers within the bounds, synthesis feasible)
EXHAUSTIVE_TINY = [
    (126, 538, True), (64, 128, True), (31, 51, True), (61, 50, True),
    (41, 11, True), (40, 5, True), (0, 11, False), (13, 5, True),
]

# (committed, insertions, fails stealth)
REPLAY_CHAIN = [
    (False, 80, False), (False, 120, False), (False, 70, True),
    (True, 700, False), (True, 1400, False), (True, 2000, False), (True, 900, True),
]

WORKLOADS = ("synth-ladder", "arena-export", "exhaustive-tiny", "replay-chain")


def generate(workload: str, seed: int, root: Path) -> dict:
    """Write the inputs of one workload run under root; return the manifest."""
    rng = Random(f"{workload}/{seed}")
    root.mkdir(parents=True, exist_ok=True)
    items: list[dict] = []
    if workload == "synth-ladder":
        for gseed, mode, strength, n_a, feasible, nodes in SYNTH_LADDER:
            m = relabel(random_models(Random(gseed), LADDER), rng)
            cfg = write_scenario(root, f"ladder{gseed}", m, mode, strength, n_a)
            items.append({"config": str(cfg.relative_to(root)), "feasible": feasible,
                          "fault": None, "nodes": nodes})
        for gseed, obs, nodes in SYNTH_FAULTS:
            m = random_models(Random(gseed), FAULT)
            cfg = write_scenario(root, f"fault{gseed}", m, "interruptible", "strong")
            items.append({"config": str(cfg.relative_to(root)), "feasible": True,
                          "fault": list(obs), "nodes": nodes})
    elif workload == "arena-export":
        for gseed, nodes in ARENA_EXPORT:
            m = relabel(random_models(Random(gseed), EXPORT), rng)
            cfg = write_scenario(root, f"export{gseed}", m, "interruptible", "strong")
            items.append({"config": str(cfg.relative_to(root)), "nodes": nodes,
                          "output": f"export{gseed}/arena.ida"})
    elif workload == "exhaustive-tiny":
        for gseed, count, feasible in EXHAUSTIVE_TINY:
            m = relabel(random_models(Random(gseed), TINY), rng, events=False)
            cfg = write_scenario(root, f"tiny{gseed}", m, "interruptible", "strong")
            items.append({"config": str(cfg.relative_to(root)), "attackers": count,
                          "feasible": feasible})
    elif workload == "replay-chain":
        picks = rng.sample(range(100), 4)
        names = {k: f"w{n}" for k, n in zip("abcd", picks)}
        for mode in ("interruptible", "unbounded"):
            chain_scenario(root, mode, names, mode)
        for i, (committed, length, fails) in enumerate(REPLAY_CHAIN):
            mode = "unbounded" if committed else "interruptible"
            fail_at = length // 2 if fails else None
            path = root / f"chain{i}.fa"
            path.write_text(chain_strategy(rng, names, length, committed, fail_at), encoding="utf-8")
            items.append({
                "config": f"{mode}/attack.cfg", "attack": path.name,
                "expect": {"admissible": True, "stealthy": not fails, "weak_hit": True,
                           "strong_hit": True, "first_failure": [names["b"]] if fails else None},
            })
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest = {"workload": workload, "seed": seed, "instances": items}
    (root / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return manifest
