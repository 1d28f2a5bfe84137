"""Line-oriented text formats for models, arenas and strategies.

Four artifact kinds share one lexical convention: whitespace-separated
fields, full-line comments starting with '#', UTF-8, and a trailing
newline.  Tokens never contain whitespace.  Writers are deterministic,
so equal objects serialize to identical bytes.

  automaton files   `automaton` / `event` / `state` / `trans` lines
  scenario configs  `key = value` lines, model paths relative to the file
  arena files       `ida` / `node` / `initial` / `edge` / `flag` lines
  strategy files    a `strategy` header, an embedded automaton, `auto` lines
"""

from __future__ import annotations

from pathlib import Path

from .automata import Automaton, EventDecl, ModelError, State, state_token, stringify_states
from .build import DETERMINISTIC, MODES, Scenario, make_scenario
from .game import HOP, IDA, GameContext, Symbols
from .synth import AttackFunction


class ParseError(ModelError):
    """A text artifact is malformed; the message carries file and line."""


def _lex(text: str, source: str) -> list[tuple[int, list[str]]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((lineno, line.split()))
    if not out:
        raise ParseError(f"{source}:1: empty input")
    return out


def _fail(source: str, lineno: int, msg: str) -> None:
    raise ParseError(f"{source}:{lineno}: {msg}")


# ---------------------------------------------------------------------------
# automata

_OBS = {"obs": True, "unobs": False}
_CTRL = {"ctrl": True, "unctrl": False}


def parse_automaton(text: str, source: str = "<string>") -> Automaton:
    return _parse_automaton_lines(_lex(text, source), source)


def _parse_automaton_lines(lines: list[tuple[int, list[str]]], source: str) -> Automaton:
    name: str | None = None
    events: list[EventDecl] = []
    states: list[str] = []
    initial: str | None = None
    trans: dict[tuple[State, str], State] = {}
    seen_events: set[str] = set()
    seen_states: set[str] = set()
    for lineno, fields in lines:
        kind = fields[0]
        if kind == "automaton":
            if name is not None:
                _fail(source, lineno, "second automaton header")
            if len(fields) != 2:
                _fail(source, lineno, "expected: automaton <name>")
            name = fields[1]
        elif kind == "event":
            if len(fields) != 4 or fields[2] not in _OBS or fields[3] not in _CTRL:
                _fail(source, lineno, "expected: event <name> obs|unobs ctrl|unctrl")
            if fields[1] in seen_events:
                _fail(source, lineno, f"duplicate event {fields[1]!r}")
            seen_events.add(fields[1])
            events.append(EventDecl(fields[1], _OBS[fields[2]], _CTRL[fields[3]]))
        elif kind == "state":
            if len(fields) not in (2, 3) or (len(fields) == 3 and fields[2] != "initial"):
                _fail(source, lineno, "expected: state <id> [initial]")
            if fields[1] in seen_states:
                _fail(source, lineno, f"duplicate state {fields[1]!r}")
            seen_states.add(fields[1])
            states.append(fields[1])
            if len(fields) == 3:
                if initial is not None:
                    _fail(source, lineno, "second initial state")
                initial = fields[1]
        elif kind == "trans":
            if len(fields) != 4:
                _fail(source, lineno, "expected: trans <src> <event> <dst>")
            src, ev, dst = fields[1], fields[2], fields[3]
            if src not in seen_states:
                _fail(source, lineno, f"unknown source state {src!r}")
            if dst not in seen_states:
                _fail(source, lineno, f"unknown target state {dst!r}")
            if ev not in seen_events:
                _fail(source, lineno, f"unknown event {ev!r}")
            if (src, ev) in trans:
                _fail(source, lineno, f"duplicate transition on {ev!r} from {src!r}")
            trans[(src, ev)] = dst
        else:
            _fail(source, lineno, f"unknown directive {kind!r}")
    if name is None:
        _fail(source, lines[0][0], "missing automaton header")
    if initial is None:
        _fail(source, lines[0][0], "no state marked initial")
    try:
        return Automaton(name, tuple(states), tuple(events), trans, initial)
    except ModelError as exc:
        raise ParseError(f"{source}: {exc}") from exc


def format_automaton(a: Automaton) -> str:
    a = stringify_states(a)
    lines = [f"automaton {a.name}"]
    for d in a.events:
        obs = "obs" if d.observable else "unobs"
        ctrl = "ctrl" if d.controllable else "unctrl"
        lines.append(f"event {d.name} {obs} {ctrl}")
    for x in a.states:
        lines.append(f"state {x} initial" if x == a.initial else f"state {x}")
    sidx = {x: i for i, x in enumerate(a.states)}
    eidx = {d.name: i for i, d in enumerate(a.events)}
    for (x, ev), y in sorted(a.trans.items(), key=lambda kv: (sidx[kv[0][0]], eidx[kv[0][1]])):
        lines.append(f"trans {x} {ev} {y}")
    return "\n".join(lines) + "\n"


def read_automaton(path: str | Path) -> Automaton:
    path = Path(path)
    return parse_automaton(path.read_text(encoding="utf-8"), str(path))


def write_automaton(a: Automaton, path: str | Path) -> None:
    Path(path).write_text(format_automaton(a), encoding="utf-8")


# ---------------------------------------------------------------------------
# scenario configs

_SCENARIO_KEYS = {
    "plant",
    "supervisor",
    "attack_events",
    "critical_states",
    "mode",
    "n_a",
    "strength",
    "bound_initial_insertions",
    "name",
}

_REQUIRED_KEYS = ("plant", "supervisor", "attack_events", "critical_states")


def _parse_bool(value: str, source: str, lineno: int) -> bool:
    low = value.lower()
    if low in ("true", "false"):
        return low == "true"
    _fail(source, lineno, f"expected true or false, got {value!r}")
    raise AssertionError


def _split_list(value: str) -> tuple[str, ...]:
    if value in ("", "-"):
        return ()
    return tuple(part.strip() for part in value.split(",") if part.strip())


def read_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    source = str(path)
    pairs: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            _fail(source, lineno, "expected: key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCENARIO_KEYS:
            _fail(source, lineno, f"unknown key {key!r}")
        if key in pairs:
            _fail(source, lineno, f"duplicate key {key!r}")
        pairs[key] = (lineno, value)
    for key in _REQUIRED_KEYS:
        if key not in pairs:
            raise ParseError(f"{source}: missing required key {key!r}")

    def resolve(rel: str) -> Path:
        p = Path(rel)
        return p if p.is_absolute() else path.parent / p

    plant = read_automaton(resolve(pairs["plant"][1]))
    supervisor = read_automaton(resolve(pairs["supervisor"][1]))
    kwargs: dict = {"name": path.stem}
    if "mode" in pairs:
        lineno, value = pairs["mode"]
        if value not in MODES:
            _fail(source, lineno, f"mode must be one of {sorted(MODES)}")
        kwargs["mode"] = value
    if "n_a" in pairs:
        lineno, value = pairs["n_a"]
        try:
            kwargs["n_a"] = int(value)
        except ValueError:
            _fail(source, lineno, f"n_a must be an integer, got {value!r}")
    if "strength" in pairs:
        lineno, value = pairs["strength"]
        if value not in ("strong", "weak"):
            _fail(source, lineno, "strength must be strong or weak")
        kwargs["strength"] = value
    if "bound_initial_insertions" in pairs:
        lineno, value = pairs["bound_initial_insertions"]
        kwargs["bound_initial_insertions"] = _parse_bool(value, source, lineno)
    if "name" in pairs:
        kwargs["name"] = pairs["name"][1]
    try:
        return make_scenario(
            plant,
            supervisor,
            _split_list(pairs["attack_events"][1]),
            _split_list(pairs["critical_states"][1]),
            **kwargs,
        )
    except ModelError as exc:
        raise ParseError(f"{source}: {exc}") from exc


def format_scenario_config(
    sc: Scenario, plant_path: str = "plant.aut", supervisor_path: str = "supervisor.aut"
) -> str:
    lines = [
        f"plant = {plant_path}",
        f"supervisor = {supervisor_path}",
        "attack_events = " + (",".join(sorted(sc.ea.sigma_a)) or "-"),
        "critical_states = "
        + (",".join(sorted(state_token(x) for x in sc.x_crit)) or "-"),
        f"mode = {sc.mode}",
    ]
    if sc.n_a is not None:
        lines.append(f"n_a = {sc.n_a}")
    lines.append(f"strength = {sc.strength}")
    if not sc.bound_initial_insertions:
        lines.append("bound_initial_insertions = false")
    lines.append(f"name = {sc.name}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# arenas

def format_ida(ida: IDA, flags: frozenset[int] = frozenset()) -> str:
    """The arena as text, in `IDA.listing` order; `flags` are ids of `ida`."""
    order, rows = ida.listing()
    side, est, sup, counter, ests = ida.side, ida.est, ida.sup, ida.counter, ida.ests
    if ida.root < 0:  # a removed initial state is still written: as id -1, the last
        a = ida.initial
        side, sup, counter = side + [a.side], sup + [a.info.sup], counter + [a.counter]
        est, ests = est + [len(ests)], ests + [a.info.plant]
    name = [""] * len(side)
    for k, i in enumerate(order):
        name[i] = f"n{k}"
    plant = [",".join(sorted(map(state_token, x))) or "-" for x in ests]
    tok = {q: state_token(q) for q in set(sup)}
    text = [f"move {label}" if kind != HOP else "gamma " + (",".join(sorted(ev)) or "-")
            for kind, label, ev in zip(ida.syms.kinds, ida.syms.labels, ida.syms.events)]
    lines = [f"ida {ida.name}"]
    lines += [f"node {name[i]} {side[i]} plant={plant[est[i]]} sup={tok[sup[i]]}"
              + ("" if counter[i] is None else f" counter={counter[i]}") for i in order]
    lines.append(f"initial {name[ida.root]}")
    lab, dst = ida.lab, ida.dst
    lines += [f"edge {name[i]} {text[lab[e]]} {name[dst[e]]}" for i in order for e in rows[i]]
    lines += [f"flag {name[i]}" for i in order if i in flags]
    return "\n".join(lines) + "\n"


def parse_ida(
    text: str, ctx: GameContext, source: str = "<string>"
) -> tuple[IDA, frozenset[int]]:
    """An arena written by `format_ida`, with ids in file order, and its flagged ids."""
    lines = _lex(text, source)
    name: str | None = None
    syms = Symbols(ctx)
    nodes: dict[str, int] = {}
    states: list[tuple] = []  # (side, estimate id, supervisor state, counter)
    ests: dict[frozenset[State], int] = {}
    initial: int | None = None
    rows: list[list[tuple[int, int]]] = []
    flags: set[int] = set()
    for lineno, fields in lines:
        kind = fields[0]
        if kind == "ida":
            if len(fields) != 2:
                _fail(source, lineno, "expected: ida <name>")
            name = fields[1]
        elif kind == "node":
            if len(fields) not in (5, 6) or fields[2] not in ("S", "E"):
                _fail(source, lineno, "expected: node <id> S|E plant=.. sup=.. [counter=..]")
            node_id = fields[1]
            if node_id in nodes:
                _fail(source, lineno, f"duplicate node id {node_id!r}")
            attrs = {}
            for field in fields[3:]:
                key, eq, value = field.partition("=")
                if not eq or key not in ("plant", "sup", "counter"):
                    _fail(source, lineno, f"bad node attribute {field!r}")
                attrs[key] = value
            if "plant" not in attrs or "sup" not in attrs:
                _fail(source, lineno, "node needs plant= and sup=")
            counter = None
            if "counter" in attrs:
                try:
                    counter = int(attrs["counter"])
                except ValueError:
                    _fail(source, lineno, f"bad counter {attrs['counter']!r}")
            plant = frozenset(_split_list(attrs["plant"]))
            nodes[node_id] = len(states)
            states.append((fields[2], ests.setdefault(plant, len(ests)), attrs["sup"], counter))
            rows.append([])
        elif kind == "initial":
            if len(fields) != 2 or fields[1] not in nodes:
                _fail(source, lineno, "expected: initial <known node id>")
            initial = nodes[fields[1]]
        elif kind == "edge":
            if len(fields) != 5 or fields[2] not in ("gamma", "move"):
                _fail(source, lineno, "expected: edge <src> gamma|move <label> <dst>")
            if fields[1] not in nodes or fields[4] not in nodes:
                _fail(source, lineno, "edge references an unknown node id")
            src, dst = nodes[fields[1]], nodes[fields[4]]
            hop = fields[2] == "gamma"
            sym = syms.hop(frozenset(_split_list(fields[3]))) if hop else syms.ids.get(fields[3])
            if sym is None or states[src][0] != ("S" if hop else "E"):
                _fail(source, lineno, f"no {fields[2]} {fields[3]!r} from {fields[1]}")
            if hop and rows[src]:
                _fail(source, lineno, f"second gamma edge from {fields[1]}")
            if any(s == sym for s, _ in rows[src]):
                _fail(source, lineno, f"duplicate move {fields[3]!r} from {fields[1]}")
            rows[src].append((sym, dst))
        elif kind == "flag":
            if len(fields) != 2 or fields[1] not in nodes:
                _fail(source, lineno, "expected: flag <known node id>")
            flags.add(nodes[fields[1]])
        else:
            _fail(source, lineno, f"unknown directive {kind!r}")
    if name is None:
        _fail(source, lines[0][0], "missing ida header")
    if initial is None:
        _fail(source, lines[0][0], "missing initial line")
    return IDA.from_rows(name, ctx, syms, list(ests), states, rows, initial), frozenset(flags)


def read_ida(path: str | Path, ctx: GameContext) -> tuple[IDA, frozenset[int]]:
    path = Path(path)
    return parse_ida(path.read_text(encoding="utf-8"), ctx, str(path))


def write_ida(ida: IDA, path: str | Path, flags: frozenset[int] = frozenset()) -> None:
    Path(path).write_text(format_ida(ida, flags), encoding="utf-8")


# ---------------------------------------------------------------------------
# attack strategies

def format_attack(fa: AttackFunction) -> str:
    f = stringify_states(fa.f)
    lines = ["strategy", f"mode {fa.mode}"]
    if fa.n_a is not None:
        lines.append(f"n_a {fa.n_a}")
    lines.append(f"initial_epsilon {'true' if fa.initial_epsilon else 'false'}")
    lines.append(format_automaton(f).rstrip("\n"))
    if fa.deterministic:
        token = {x: state_token(x) for x in fa.f.states}
        for x in fa.f.states:
            sym = fa.auto_insert.get(x)
            lines.append(f"auto {token[x]} {sym if sym is not None else '-'}")
    return "\n".join(lines) + "\n"


def parse_attack(text: str, ea, source: str = "<string>") -> AttackFunction:
    lines = _lex(text, source)
    mode: str | None = None
    n_a: int | None = None
    initial_epsilon: bool | None = None
    eps_line = 0
    auto: dict[State, str | None] = {}
    auto_lines: list[tuple[int, list[str]]] = []
    aut_lines: list[tuple[int, list[str]]] = []
    if lines[0][1] != ["strategy"]:
        _fail(source, lines[0][0], "expected: strategy")
    for lineno, fields in lines[1:]:
        kind = fields[0]
        if kind == "mode":
            if mode is not None:
                _fail(source, lineno, "second mode line")
            if len(fields) != 2 or fields[1] not in MODES:
                _fail(source, lineno, f"mode must be one of {sorted(MODES)}")
            mode = fields[1]
        elif kind == "n_a":
            if n_a is not None:
                _fail(source, lineno, "second n_a line")
            try:
                (value,) = fields[1:]
                n_a = int(value)
            except ValueError:
                _fail(source, lineno, "expected: n_a <integer>")
        elif kind == "initial_epsilon":
            if initial_epsilon is not None:
                _fail(source, lineno, "second initial_epsilon line")
            if len(fields) != 2:
                _fail(source, lineno, "expected: initial_epsilon true|false")
            initial_epsilon, eps_line = _parse_bool(fields[1], source, lineno), lineno
        elif kind == "auto":
            auto_lines.append((lineno, fields))
        elif kind == "strategy":
            _fail(source, lineno, "second strategy line")
        else:
            aut_lines.append((lineno, fields))
    if mode is None:
        _fail(source, lines[0][0], "missing mode line")
    f = _parse_automaton_lines(aut_lines, source)
    state_set = set(f.states)
    for lineno, fields in auto_lines:
        if len(fields) != 3 or fields[1] not in state_set:
            _fail(source, lineno, "expected: auto <known state> <symbol|->")
        if fields[1] in auto:
            _fail(source, lineno, f"second auto line for {fields[1]!r}")
        auto[fields[1]] = None if fields[2] == "-" else fields[2]
    # a deterministic attacker skips the initial burst exactly when it commits to nothing there
    first = auto.get(f.initial)
    if initial_epsilon is None:
        initial_epsilon = mode not in DETERMINISTIC or first is None
    elif mode in DETERMINISTIC and initial_epsilon != (first is None):
        _fail(source, eps_line, f"initial_epsilon {'true' if initial_epsilon else 'false'} "
              f"contradicts the commitment {first or '-'!r} at the initial state")
    try:
        return AttackFunction(
            f, mode, ea, n_a=n_a, auto_insert=auto, initial_epsilon=initial_epsilon
        )
    except ModelError as exc:
        raise ParseError(f"{source}: {exc}") from exc


def read_attack(path: str | Path, ea) -> AttackFunction:
    path = Path(path)
    return parse_attack(path.read_text(encoding="utf-8"), ea, str(path))


def write_attack(fa: AttackFunction, path: str | Path) -> None:
    Path(path).write_text(format_attack(fa), encoding="utf-8")
