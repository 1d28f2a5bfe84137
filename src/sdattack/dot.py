"""Graphviz renderings of automata and attack arenas.

Output is deterministic: node ids follow the same traversal order the
text format uses, so repeated exports of the same object are identical.
"""

from __future__ import annotations

from .alphabet import is_deleted, is_inserted
from .automata import Automaton, State, state_token
from .game import IDA, Node, S_SIDE, gamma_label
from .modelio import _ida_order, _sorted_moves
from .supervisor import DEAD


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
    flagged: frozenset[Node] = frozenset(),
    x_crit: frozenset[State] = frozenset(),
) -> str:
    order = _ida_order(ida)
    ids = {node: f"n{i}" for i, node in enumerate(order)}
    lines = [
        "digraph {",
        "  rankdir=LR;",
        '  node [fontname="Helvetica"];',
        '  __init [shape=point, label=""];',
    ]
    for node in order:
        attrs = [f'label="{_esc(node.token())}"']
        attrs.append("shape=ellipse" if node.side == S_SIDE else "shape=box")
        styles = ["filled"]
        if node in flagged:
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
        lines.append(f"  {ids[node]} [{', '.join(attrs)}];")
    lines.append(f"  __init -> {ids[ida.initial]};")
    for node in order:
        if node in ida.h_se:
            gamma, tgt = ida.h_se[node]
            label = gamma_label(gamma)
            lines.append(
                f'  {ids[node]} -> {ids[tgt]} [label="{_esc(label)}", color="gray40"];'
            )
        else:
            for sym, tgt in _sorted_moves(ida, node):
                color = "black"
                if is_deleted(sym):
                    color = "firebrick"
                elif is_inserted(sym):
                    color = "royalblue"
                lines.append(
                    f'  {ids[node]} -> {ids[tgt]} [label="{_esc(sym)}", color="{color}"];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"
