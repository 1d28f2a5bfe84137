"""The arena writer as it was before it streamed, kept as the test-only reference.

`listing` is `IDA.listing` and `format_ida` is `modelio.format_ida` as
they were when the writer built one string per line and joined them,
verbatim but for `listing` taking the arena as its argument.  The tests
compare the streaming writer with them byte for byte.
"""

from __future__ import annotations

from sdattack.automata import state_token
from sdattack.game import E_SIDE, HOP, IDA, S_SIDE


def listing(self: IDA) -> tuple[list[int], list]:
    """The order the writers list states in, and each state's out-edges by label.

    Breadth-first from the initial state, then the states it does not
    reach, S-states first, in id order.  A removed initial state is
    listed first, as -1 (its row, the last, is empty).  Rows are sorted
    by an int per edge, its symbol's rank in label order.
    """
    labels, dst = self.syms.labels, self.dst
    rank = dict(zip(sorted(set(labels)), range(len(labels))))  # equal labels, equal rank
    by_label = list(map(rank.__getitem__, labels))  # of each symbol
    key = list(map(by_label.__getitem__, self.lab)).__getitem__  # of each edge
    rows = [range(a, b) if b - a < 2 else sorted(range(a, b), key=key)
            for a, b in zip(self.off, self.off[1:])] + [()]
    order, seen = [self.root], [False] * len(rows)
    seen[self.root] = True
    for i in order if self.root >= 0 else ():
        for e in rows[i]:
            d = dst[e]
            if not seen[d]:
                seen[d] = True
                order.append(d)
    for side in (S_SIDE, E_SIDE):
        order += [i for i, s in enumerate(self.side) if s == side and not seen[i]]
    return order, rows


def format_ida(ida: IDA, flags: frozenset[int] = frozenset()) -> str:
    """The arena as text, in `IDA.listing` order; `flags` are ids of `ida`."""
    order, rows = listing(ida)
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
