"""Graphviz renderings of automata and attack arenas.

Output is deterministic: node ids follow the same traversal order the
text format uses, so repeated exports of the same object are identical.
"""

from __future__ import annotations

from .automata import Automaton, State, state_token
from .game import DELETION, HOP, IDA, INSERTION, S_SIDE
from .supervisor import DEAD


_COLORS = {HOP: "gray40", DELETION: "firebrick", INSERTION: "royalblue"}  # by symbol kind


def _esc(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def automaton_dot(a: Automaton, x_crit: frozenset[State] = frozenset()) -> str:
    lines = [
        "digraph {",
        "  rankdir=LR;",
        '  node [shape=circle, fontname="Helvetica"];',
        '  __init [shape=point, label=""];',
    ]
    ids = {x: f"q{i}" for i, x in enumerate(a.states)}
    for x in a.states:
        attrs = [f'label="{_esc(state_token(x))}"']
        if x in x_crit:
            attrs.append('style=filled, fillcolor="palegreen"')
        lines.append(f"  {ids[x]} [{', '.join(attrs)}];")
    lines.append(f"  __init -> {ids[a.initial]};")
    sidx = {x: i for i, x in enumerate(a.states)}
    eidx = {d.name: i for i, d in enumerate(a.events)}
    for (x, ev), y in sorted(a.trans.items(), key=lambda kv: (sidx[kv[0][0]], eidx[kv[0][1]])):
        attrs = [f'label="{_esc(ev)}"']
        if not a.event_map[ev].observable:
            attrs.append("style=dashed")
        lines.append(f"  {ids[x]} -> {ids[y]} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def ida_dot(
    ida: IDA,
    flags: frozenset[int] = frozenset(),
    x_crit: frozenset[State] = frozenset(),
) -> str:
    """Graphviz view of the arena; `flags` are ids of `ida`."""
    order, rows = ida.listing()
    ids = {i: f"n{k}" for k, i in enumerate(order)}
    lines = [
        "digraph {",
        "  rankdir=LR;",
        '  node [fontname="Helvetica"];',
        '  __init [shape=point, label=""];',
    ]
    for i in order:
        node = ida.node(i) if i >= 0 else ida.initial
        attrs = [f'label="{_esc(node.token())}"']
        attrs.append("shape=ellipse" if node.side == S_SIDE else "shape=box")
        styles = ["filled"]
        if i in flags:
            styles.append("dashed")
        fill = "white"
        if node.info.sup == DEAD:
            fill = "lightcoral"
        elif node.side != S_SIDE and node.info.plant and node.info.plant <= x_crit:
            fill = "palegreen"
        elif node.side != S_SIDE and node.info.plant & x_crit:
            fill = "lightgoldenrod1"
        attrs.append(f'style="{",".join(styles)}"')
        attrs.append(f'fillcolor="{fill}"')
        lines.append(f"  {ids[i]} [{', '.join(attrs)}];")
    lines.append(f"  __init -> {ids[ida.root]};")
    kinds, labels = ida.syms.kinds, ida.syms.labels
    for i in order:
        for e in rows[i]:
            sym, tgt = ida.lab[e], ids[ida.dst[e]]
            color = _COLORS.get(kinds[sym], "black")
            lines.append(f'  {ids[i]} -> {tgt} [label="{_esc(labels[sym])}", color="{color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
