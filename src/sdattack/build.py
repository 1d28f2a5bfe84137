"""Scenario assembly and construction of the full attack structure.

`construct_aida` explores every joint information state the attacker can
force while the supervisor stays consistent: supervisor states issue their
control decision, environment states branch over genuine observations,
deletions and insertions.  Exploration stops at detection (supervisor in
`dead`) and at goal states (estimate inside the critical set).  It keys
states by the kernel's ints (`game.Successors`) and walks their rows of
moves itself; `aida_maximality_violations` re-derives every row from a
kernel of its own, keyed the same way.

`construct_baida` walks the same structure with a reaction-length
counter so that bounded attackers can be pruned on it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .alphabet import EditAlphabet, base_event, is_inserted
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


def construct_aida(sc: Scenario) -> IDA:
    """Breadth-first construction of the full insertion-deletion game.

    States are numbered as they are discovered and expanded in that order,
    so each one's out-edges are appended as its row of the arrays.  The
    loop keys states by the kernel's ints and walks each state's row of
    moves itself, as `Successors.moves` does.  Detected S-states (their
    row is empty) and goal E-states stay unexpanded.
    """
    succ = Successors(sc.ctx)
    keys = [succ.initial()]  # the kernel's int of each state
    ids = {keys[0]: 0}
    off, lab, dst = [0], [], []
    ests, steps, rows, step, w, x_crit = (succ.ests, succ.steps, succ.rows, succ.step,
                                          succ.width, sc.x_crit)
    new, grow = ids.get, keys.append
    for key in keys:  # grows as states are discovered
        e, r = divmod(key, w)
        st = steps[e]
        for i, sym, to in rows[r] if not (r & 1 and ests[e] <= x_crit) else ():
            m = e if i < 0 else st[i]
            if m is None:
                m = step(e, i)
            if m >= 0:
                t = m * w + to
                j = new(t)
                if j is None:
                    j = ids[t] = len(keys)
                    grow(t)
                lab.append(sym)
                dst.append(j)
        off.append(len(lab))
    states = succ.rt.automaton.states
    side = [E_SIDE if key & 1 else S_SIDE for key in keys]
    est = [key // w for key in keys]
    sup = [states[key % w >> 1] for key in keys]
    return IDA(f"aida({sc.name})", sc.ctx, succ.syms, ests, side, est, sup,
               [None] * len(side), off, lab, dst, 0, None)


def aida_size_bound(sc: Scenario) -> int:
    """Worst-case node count of the full game."""
    n_x = len(sc.plant.states)
    n_q = len(sc.rtilde.automaton.states)
    if not sc.plant.unobs_events:
        return 2 * n_x * n_q
    return 2 ** (n_x + 1) * n_q


def aida_maximality_violations(ida: IDA, sc: Scenario) -> list[str]:
    """Why the structure is not the full game (empty list means it is).

    A kernel of its own, over a copy of the arena's estimate table, derives
    every state's successors again: the pass walks each state's row of the
    kernel against the stored row, edge by edge, and asks `Successors.moves`
    for the row only to word a mismatch.  The same pass marks what the
    initial state reaches, forward in id order; a depth-first search
    decides only the states it leaves unmarked (none in an arena
    `construct_aida` or `construct_baida` made).
    """
    succ = Successors(sc.ctx, ida.ests)
    side, est, sup, off, lab, dst = ida.side, ida.est, ida.sup, ida.off, ida.lab, ida.dst
    n, labels, w, qids = len(side), ida.syms.labels, succ.width, succ.qids
    # the kernel's key of each state; a supervisor state it does not know keeps its triple
    key = [e * w + 2 * qids[q] + (s == E_SIDE) if q in qids else (s, e, q)
           for s, e, q in zip(side, est, sup)]
    tok = lambda i: ida.node(i).token()  # noqa: E731
    y0, r = succ.initial(), ida.root
    if r < 0 or key[r] != y0 or ida.counter[r] is not None:
        want = Node(S_SIDE, InformationState(succ.ests[y0 // w], sc.rtilde.initial))
        return [f"initial state is {ida.initial.token()}, expected {want.token()}"]
    unique = set(key) if ida.counter.count(None) == n else set(zip(key, ida.counter))
    bad = ["duplicate state entries"] if len(unique) != n else []

    goal = [x <= sc.x_crit for x in ida.ests]
    moves_of, steps, rows, step = succ.moves, succ.steps, succ.rows, succ.step
    s_bad: list[str] = []
    e_bad: list[str] = []
    reach = [False] * n
    reach[r] = True
    for i in range(n):
        a, b = off[i], off[i + 1]
        row = dst[a:b]
        if reach[i]:
            for t in row:
                reach[t] = True
        s, e = side[i], est[i]
        if s == S_SIDE and sup[i] == DEAD or s == E_SIDE and goal[e]:
            if b > a:
                (s_bad if s == S_SIDE else e_bad).append(
                    f"{'detected' if s == S_SIDE else 'goal'} state {tok(i)} must be terminal")
            continue
        if s == S_SIDE and b == a:
            s_bad.append(f"missing control hop at {tok(i)}")
            continue
        r = 2 * qids[sup[i]] + (s == E_SIDE)
        st, k = steps[e], a
        for j, sym, to in rows[r]:  # the kernel's row, compared with the stored one edge by edge
            m = e if j < 0 else st[j]
            if m is None:
                m = step(e, j)
            if m >= 0:
                if k == b or lab[k] != sym or key[dst[k]] != m * w + to:
                    break
                k += 1
        else:
            if k == b:
                continue
        syms, keys = moves_of(e, r)
        if s == S_SIDE:
            if lab[a] != syms[0]:
                s_bad.append(f"wrong decision label at {tok(i)}")
            if key[row[0]] != keys[0]:
                s_bad.append(f"wrong control hop target at {tok(i)}")
            continue
        stored, expected = {labels[s] for s in lab[a:b]}, {labels[s] for s in syms}
        if stored != expected:
            missing, extra = sorted(expected - stored), sorted(stored - expected)
            e_bad.append(f"moves at {tok(i)}: missing {missing}, unexpected {extra}")
            continue
        targets = dict(zip(syms, keys))
        e_bad += [f"wrong target for {labels[lab[k]]!r} at {tok(i)}"
                  for k in range(a, b) if key[dst[k]] != targets[lab[k]]]
    if not all(reach):  # the forward pass above is exact only when ids follow discovery order
        reach = ida.reach()
        for s in (S_SIDE, E_SIDE):
            bad += [f"unreachable state {tok(i)}"
                    for i in range(n) if side[i] == s and not reach[i]]
    return bad + s_bad + e_bad


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

    (state, counter) pairs are numbered breadth-first; an S-state takes its
    control hop and an E-state its moves in row order, with counters from a
    table of `counter_step`.  Without an initial state the game is empty.
    """
    if sc.n_a is None or sc.n_a < 1:
        raise ModelError("counter-augmented game needs a positive n_a")
    if aida is None:
        aida = construct_aida(sc)
    name, width, labels = f"baida({sc.name})", sc.n_a + 2, aida.syms.labels
    if aida.root < 0:
        return IDA(name, sc.ctx, aida.syms, aida.ests, [], [], [], [], [0], [], [], -1,
                   replace(aida.initial, counter=sc.initial_counter))
    # a (state, counter) pair is the int state * width + counter + 1, a table entry counter + 1
    step = [[None if m is None else m + 1 for m in (counter_step(sc.ea, sc.n_a, c - 1, sym)
                                                    for sym in labels)] for c in range(width)]
    hold = [[c] * len(labels) for c in range(width)]  # a control hop keeps the counter
    keys = [aida.root * width + sc.initial_counter + 1]
    ids = {keys[0]: 0}
    off, lab, dst = [0], [], []
    for key in keys:  # grows as states are discovered
        a, c = divmod(key, width)
        row, i, j = step[c] if aida.side[a] == E_SIDE else hold[c], aida.off[a], aida.off[a + 1]
        for sym, d in zip(aida.lab[i:j], aida.dst[i:j]):
            if row[sym] is not None:
                d = d * width + row[sym]
                t = ids.get(d)
                if t is None:
                    t = ids[d] = len(keys)
                    keys.append(d)
                lab.append(sym)
                dst.append(t)
        off.append(len(lab))
    base = [key // width for key in keys]
    pick = lambda xs: [xs[a] for a in base]  # noqa: E731
    return IDA(name, sc.ctx, aida.syms, aida.ests, pick(aida.side), pick(aida.est),
               pick(aida.sup), [key % width - 1 for key in keys], off, lab, dst, 0, None)
