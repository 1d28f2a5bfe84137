"""Scenario assembly and construction of the full attack structure.

`construct_aida` explores every joint information state the attacker can
force while the supervisor stays consistent: supervisor states issue their
control decision, environment states branch over genuine observations,
deletions and insertions.  Exploration stops at detection (supervisor in
`dead`) and at goal states (estimate inside the critical set).

`construct_baida` walks the same structure with a reaction-length
counter so that bounded attackers can be pruned on it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from .alphabet import EditAlphabet, base_event, deleted, inserted, is_inserted
from .automata import Automaton, ModelError, State, parallel, state_token
from .game import (
    E_SIDE,
    S_SIDE,
    GameContext,
    IDA,
    InformationState,
    Node,
    Successors,
)
from .supervisor import DEAD, RTilde, SupervisorRealization, build_rtilde, validate_supervisor

DETERMINISTIC = ("unbounded", "bounded")  # modes whose attacker commits to its insertions
MODES = ("interruptible", *DETERMINISTIC)


@dataclass
class Scenario:
    """One attack synthesis problem: models, compromised events, goal."""

    plant: Automaton
    supervisor: SupervisorRealization
    ea: EditAlphabet
    x_crit: frozenset[State]
    mode: str = "interruptible"
    n_a: int | None = None
    strength: str = "strong"
    bound_initial_insertions: bool = True
    name: str = "scenario"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ModelError(f"unknown attacker mode {self.mode!r}")
        if self.strength not in ("strong", "weak"):
            raise ModelError(f"unknown goal strength {self.strength!r}")
        if self.mode == "bounded":
            if self.n_a is None or self.n_a < 1:
                raise ModelError("bounded mode needs a positive reaction bound n_a")
        unknown = self.x_crit - set(self.plant.states)
        if unknown:
            raise ModelError(
                f"critical states not in plant: {sorted(map(state_token, unknown))}"
            )
        if self.x_crit >= set(self.plant.states):
            raise ModelError("critical set must be a proper subset of plant states")

    @cached_property
    def rtilde(self) -> RTilde:
        return build_rtilde(self.plant, self.supervisor)

    @cached_property
    def ctx(self) -> GameContext:
        return GameContext(self.plant, self.rtilde, self.ea)

    @property
    def initial_counter(self) -> int:
        """The `counter_step` counter before the first observation."""
        return 0 if self.bound_initial_insertions else FREE_COUNTER


def make_scenario(
    plant: Automaton,
    supervisor: Automaton,
    attack_events: frozenset[str],
    x_crit: frozenset[State],
    **kw,
) -> Scenario:
    sup = validate_supervisor(plant, supervisor)
    ea = EditAlphabet(plant.obs_events, frozenset(attack_events))
    return Scenario(plant, sup, ea, frozenset(x_crit), **kw)


def nominal_critical_reachable(sc: Scenario) -> frozenset[State]:
    """Critical plant states reachable in the unattacked closed loop."""
    loop = parallel(sc.supervisor.automaton, sc.plant)
    return frozenset(x for _, x in loop.states if x in sc.x_crit)


def _observable_moves(plant: Automaton) -> list[tuple[str, str, str]]:
    """(event, deletion, insertion) symbols of the observable events, in declaration order."""
    return [(d.name, deleted(d.name), inserted(d.name)) for d in plant.events if d.observable]


def construct_aida(sc: Scenario) -> IDA:
    """Breadth-first construction of the full insertion-deletion game."""
    rt, ea = sc.rtilde, sc.ea
    succ = Successors(sc.ctx)
    y0 = Node(S_SIDE, succ.initial())
    s_states: list[Node] = [y0]
    e_states: list[Node] = []
    h_se: dict[Node, tuple[frozenset[str], Node]] = {}
    h_es: dict[tuple[Node, str], Node] = {}
    # one node per information state and side
    s_of: dict[InformationState, Node] = {y0.info: y0}
    e_of: dict[InformationState, Node] = {}
    queue: deque[Node] = deque([y0])

    def add_s(info: InformationState) -> Node:
        y = s_of.get(info)
        if y is None:
            y = s_of[info] = Node(S_SIDE, info)
            s_states.append(y)
            if info.sup != DEAD:
                queue.append(y)
        return y

    def add_e(info: InformationState) -> Node:
        z = e_of.get(info)
        if z is None:
            z = e_of[info] = Node(E_SIDE, info)
            e_states.append(z)
            if not info.plant <= sc.x_crit:
                queue.append(z)
        return z

    moves = _observable_moves(sc.plant)
    while queue:
        c = queue.popleft()
        if c.side == S_SIDE:
            gamma, info = succ.se_successor(c.info)
            h_se[c] = (gamma, add_e(info))
            continue
        decision = rt.gamma(c.info.sup)
        for e, e_del, e_ins in moves:
            if e not in decision:
                continue
            genuine = succ.genuine(c.info, e)
            if genuine is not None:
                h_es[(c, e)] = add_s(genuine)
            if e in ea.sigma_a:
                gone = succ.deletion(c.info, e)
                if gone is not None:
                    h_es[(c, e_del)] = add_s(gone)
                faked = succ.insertion(c.info, e)
                if faked is not None:
                    h_es[(c, e_ins)] = add_s(faked)

    return IDA(
        name=f"aida({sc.name})",
        ctx=sc.ctx,
        s_states=s_states,
        e_states=e_states,
        h_se=h_se,
        h_es=h_es,
        initial=y0,
    )


def aida_size_bound(sc: Scenario) -> int:
    """Worst-case node count of the full game."""
    n_x = len(sc.plant.states)
    n_q = len(sc.rtilde.automaton.states)
    if not sc.plant.unobs_events:
        return 2 * n_x * n_q
    return 2 ** (n_x + 1) * n_q


def aida_maximality_violations(ida: IDA, sc: Scenario) -> list[str]:
    """Why the structure is not the full game (empty list means it is)."""
    rt = sc.rtilde
    succ = Successors(sc.ctx)
    bad: list[str] = []
    y0 = Node(S_SIDE, succ.initial())
    if ida.initial != y0:
        bad.append(f"initial state is {ida.initial.token()}, expected {y0.token()}")
        return bad

    s_set, e_set = set(ida.s_states), set(ida.e_states)
    if len(s_set) != len(ida.s_states) or len(e_set) != len(ida.e_states):
        bad.append("duplicate state entries")

    reach = {ida.initial}
    stack = [ida.initial]
    while stack:
        cur = stack.pop()
        if cur.side == S_SIDE:
            hop = ida.h_se.get(cur)
            targets = [hop[1]] if hop else []
        else:
            targets = [dst for _, dst in ida.es_adj.get(cur, ())]
        for t in targets:
            if t not in reach:
                reach.add(t)
                stack.append(t)
    for a in dict.fromkeys(ida.s_states + ida.e_states):
        if a not in reach:
            bad.append(f"unreachable state {a.token()}")

    for y in ida.s_states:
        hop = ida.h_se.get(y)
        if y.info.sup == DEAD:
            if hop is not None:
                bad.append(f"detected state {y.token()} must be terminal")
            continue
        if hop is None:
            bad.append(f"missing control hop at {y.token()}")
            continue
        gamma, z = hop
        want_gamma, want_info = succ.se_successor(y.info)
        if gamma != want_gamma:
            bad.append(f"wrong decision label at {y.token()}")
        if z.side != E_SIDE or z.info != want_info or z not in e_set:
            bad.append(f"wrong control hop target at {y.token()}")

    moves = _observable_moves(sc.plant)
    for z in ida.e_states:
        stored = dict(ida.es_adj.get(z, ()))
        if z.info.plant <= sc.x_crit:
            if stored:
                bad.append(f"goal state {z.token()} must be terminal")
            continue
        expected: dict[str, InformationState] = {}
        decision = rt.gamma(z.info.sup)
        for syms in moves:
            if syms[0] not in decision:
                continue
            for sym in syms:
                info = succ.es_successor(z.info, sym)
                if info is not None:
                    expected[sym] = info
        if set(stored) != set(expected):
            missing = sorted(set(expected) - set(stored))
            extra = sorted(set(stored) - set(expected))
            bad.append(
                f"moves at {z.token()}: missing {missing}, unexpected {extra}"
            )
            continue
        for sym, tgt in stored.items():
            if tgt.side != S_SIDE or tgt.info != expected[sym] or tgt not in s_set:
                bad.append(f"wrong target for {sym!r} at {z.token()}")
    return bad


def verify_aida_maximality(ida: IDA, sc: Scenario) -> bool:
    return not aida_maximality_violations(ida, sc)


FREE_COUNTER = -1


def counter_step(ea: EditAlphabet, n_a: int, n: int, sym: str) -> int | None:
    """Reaction-length counter after one environment move; None at the bound.

    A compromised genuine event or a deletion restarts the count at 1, an
    uncompromised event resets it to 0, an insertion increments, and
    insertions are disabled once the bound is hit.  With an unbounded
    initial burst allowed, the pre-observation counter (-1) lets insertions
    free-run until the first observation.
    """
    if not is_inserted(sym):
        return 1 if base_event(sym) in ea.sigma_a else 0
    if n == FREE_COUNTER:
        return FREE_COUNTER
    return n + 1 if n < n_a else None


def construct_baida(sc: Scenario, aida: IDA | None = None) -> IDA:
    """Counter-augmented game: the full game walked with the bound counter.

    (node, counter) pairs are discovered breadth-first; an S-state takes its
    control hop and an E-state its moves in `es_adj` order.
    """
    if sc.n_a is None or sc.n_a < 1:
        raise ModelError("counter-augmented game needs a positive n_a")
    if aida is None:
        aida = construct_aida(sc)
    ea, n_a = sc.ea, sc.n_a
    s_states: list[Node] = []
    e_states: list[Node] = []
    h_se: dict[Node, tuple[frozenset[str], Node]] = {}
    h_es: dict[tuple[Node, str], Node] = {}
    seen: set[Node] = set()
    queue: deque[tuple[Node, Node]] = deque()

    def visit(node: Node, n: int) -> Node:
        x = Node(node.side, node.info, counter=n)
        if x not in seen:
            seen.add(x)
            (s_states if x.side == S_SIDE else e_states).append(x)
            queue.append((x, node))
        return x

    x0 = visit(aida.initial, sc.initial_counter)
    while queue:
        x, node = queue.popleft()
        if x.side == S_SIDE:
            hop = aida.h_se.get(node)
            if hop is not None:
                h_se[x] = (hop[0], visit(hop[1], x.counter))
            continue
        for sym, dst in aida.es_adj.get(node, ()):
            n = counter_step(ea, n_a, x.counter, sym)
            if n is not None:
                h_es[(x, sym)] = visit(dst, n)
    return IDA(
        name=f"baida({sc.name})",
        ctx=sc.ctx,
        s_states=s_states,
        e_states=e_states,
        h_se=h_se,
        h_es=h_es,
        initial=x0,
    )
