"""Attacker edit alphabet and what the supervisor sees of an edited string.

Compromised observable events come in three flavours: the genuine event
`e`, an inserted copy `e.ins` (seen by the supervisor, never executed by
the plant) and a deleted copy `e.del` (executed by the plant, hidden from
the supervisor).  The `.ins` / `.del` suffixes are reserved in model files.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .automata import ModelError

INS_SUFFIX = ".ins"
DEL_SUFFIX = ".del"


def inserted(name: str) -> str:
    return name + INS_SUFFIX


def deleted(name: str) -> str:
    return name + DEL_SUFFIX


def is_inserted(sym: str) -> bool:
    return sym.endswith(INS_SUFFIX)


def is_deleted(sym: str) -> bool:
    return sym.endswith(DEL_SUFFIX)


def base_event(sym: str) -> str:
    """Strip an edit suffix, if any."""
    if is_inserted(sym):
        return sym[: -len(INS_SUFFIX)]
    if is_deleted(sym):
        return sym[: -len(DEL_SUFFIX)]
    return sym


@dataclass(frozen=True)
class EditAlphabet:
    """Compromised-event bookkeeping for one scenario.

    sigma_o: all observable events; sigma_a: the compromised subset.
    """

    sigma_o: frozenset[str]
    sigma_a: frozenset[str]

    def __post_init__(self) -> None:
        if not self.sigma_a <= self.sigma_o:
            extra = sorted(self.sigma_a - self.sigma_o)
            raise ModelError(f"compromised events must be observable: {extra}")
        clash = [e for e in self.sigma_o if is_inserted(e) or is_deleted(e)]
        if clash:
            raise ModelError(f"reserved edit suffix in event names: {clash}")

    @cached_property
    def insertions(self) -> frozenset[str]:
        return frozenset(inserted(e) for e in self.sigma_a)

    @cached_property
    def deletions(self) -> frozenset[str]:
        return frozenset(deleted(e) for e in self.sigma_a)

    @cached_property
    def editable(self) -> frozenset[str]:
        return self.insertions | self.deletions

    @cached_property
    def edit_symbols(self) -> frozenset[str]:
        """Everything an edited string may contain."""
        return self.sigma_o | self.editable

    @cached_property
    def _heads(self) -> dict[str, tuple[str, ...]]:
        return {e: (e, deleted(e)) if e in self.sigma_a else (e,) for e in self.sigma_o}

    def reaction_heads(self, e: str) -> tuple[str, ...]:
        """The symbols that pass the observation `e` on: `e`, then `e.del` if compromised.

        A reaction to `e` starts with one of them, and `e` cannot outrun
        the attacker while one of them is playable.
        """
        return self._heads.get(e, (e,))

    def check_string(self, s: Iterable[str]) -> None:
        for sym in s:
            if sym not in self.edit_symbols:
                raise ModelError(f"symbol {sym!r} not in the edit alphabet")

    def supervisor_view(self, s: Sequence[str]) -> tuple[str, ...]:
        """What the supervisor receives: insertions look genuine, deletions vanish."""
        out: list[str] = []
        for sym in s:
            if is_deleted(sym):
                continue
            out.append(base_event(sym) if is_inserted(sym) else sym)
        return tuple(out)
