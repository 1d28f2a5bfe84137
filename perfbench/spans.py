"""Spans and counts around the calls into each layer of `sdattack`.

The tracer wraps public functions of the layer modules by rebinding the
module attributes that hold them, so calls made inside the library (for
example `synthesize` calling `construct_aida`) are recorded too.  Each
span holds a name, a start, an end, its parent and the id of the
operation it belongs to.  Spans stay in memory and are written out when
the run ends.  Counts are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# span name -> (module, attribute) of every function that belongs to it
LAYER_FUNCTIONS = {
    "modelio.read": [("modelio", "read_scenario"), ("modelio", "read_automaton")],
    "modelio.format_ida": [("modelio", "format_ida")],
    "modelio.parse_attack": [("modelio", "read_attack"), ("modelio", "parse_attack")],
    "supervisor.rtilde": [("supervisor", "build_rtilde")],
    "build.aida": [("build", "construct_aida")],
    "build.baida": [("build", "construct_baida")],
    "build.audit": [("build", "verify_aida_maximality")],
    "prune.prune": [
        ("prune", "prune"),
        ("prune", "prune_interruptible"),
        ("prune", "prune_unbounded"),
        ("prune", "prune_bounded"),
    ],
    "synth.extract": [("synth", "synthesize")],
    "oracle.check": [("oracle", "check_problem1")],
    "oracle.embedding": [("oracle", "check_embedding")],
}

# metric -> span name; `oracle.enumerate` and `io.write` are spans the
# workloads open themselves, around advancing the enumerator and writing
# an artifact
TIME_METRICS = [
    ("modelio.read_s", "modelio.read"),
    ("modelio.format_ida_s", "modelio.format_ida"),
    ("modelio.parse_attack_s", "modelio.parse_attack"),
    ("supervisor.rtilde_s", "supervisor.rtilde"),
    ("build.aida_s", "build.aida"),
    ("build.baida_s", "build.baida"),
    ("build.audit_s", "build.audit"),
    ("prune.prune_s", "prune.prune"),
    ("synth.extract_s", "synth.extract"),
    ("oracle.check_s", "oracle.check"),
    ("oracle.enumerate_s", "oracle.enumerate"),
    ("oracle.embedding_s", "oracle.embedding"),
    ("io.write_s", "io.write"),
]

COUNT_METRICS = [
    "build.arena_nodes",
    "build.arena_edges",
    "prune.rounds",
    "oracle.macros",
]


class Tracer:
    """In-memory span recorder.  One instance per worker process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (op, id, parent, name, start, end)
        self.stack: list[int] = []
        self.group = "setup0"  # one set-up or one round of operations
        self.op = "setup0"
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))

    # -- spans

    def span(self, name: str):
        return _Span(self, name)

    def _open(self, name: str) -> tuple[int, float]:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append((self.op, sid, parent, name, 0.0, 0.0))
        self.stack.append(sid)
        return sid, time.perf_counter()

    def _close(self, sid: int, start: float) -> None:
        end = time.perf_counter()
        op, _, parent, name, _, _ = self.spans[sid]
        self.spans[sid] = (op, sid, parent, name, start, end)
        self.stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[s][3] == name for s in self.stack)

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = not tracer.inside(name)
            sid, start = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, start)
            tracer._count(name, result, outermost)
            return result

        return traced

    def _count(self, name: str, result, outermost: bool) -> None:
        if name in ("build.aida", "build.baida"):
            counts = self.counts[self.group]
            counts["build.arena_nodes"] += len(result.s_states) + len(result.e_states)
            counts["build.arena_edges"] += len(result.h_se) + len(result.h_es)
        elif name == "prune.prune" and outermost:
            self.counts[self.group]["prune.rounds"] += result.rounds

    # -- installation

    def install(self) -> None:
        """Rebind every module attribute that refers to a layer function."""
        mods = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "sdattack"}
        for name, targets in LAYER_FUNCTIONS.items():
            for mod_name, attr in targets:
                orig = getattr(mods[f"sdattack.{mod_name}"], attr)
                wrapped = self.wrap(name, orig)
                for mod in mods.values():
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapped)
        explorer = mods["sdattack.oracle"].Explorer
        run = explorer.run
        tracer = self

        @functools.wraps(run)
        def counted_run(ex):
            fresh = not ex._ran
            run(ex)
            if fresh:
                counts = tracer.counts[tracer.group]
                counts["oracle.macros"] += len(ex.macros)
                if tracer.inside("oracle.enumerate"):
                    counts["oracle.enumerator_runs"] += 1

        explorer.run = counted_run

    # -- reduction

    def self_times(self, group: str) -> dict[str, float]:
        """Summed self time per span name over the spans of one group."""
        child = defaultdict(float)
        for op, sid, parent, name, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for op, sid, parent, name, start, end in self.spans:
            if op.split("/")[0] == group:
                out[name] += (end - start) - child[sid]
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "sid", "start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.sid, self.start = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.sid, self.start)
