"""One workload run in its own process: set up, time whole rounds, check.

Started by `run.py` after the inputs are on disk, so the peak resident
memory of this process counts the program's data and not the
generator's.  Prints one JSON object on its last stdout line.

Set-up is repeated several times and its median reported: each repeat
imports `sdattack` afresh, reads and validates every input, completes the
supervisors and builds what the operations need.  Then the workload runs
whole rounds of its operations until the measuring time is over.  Each
operation is timed alone, after a `gc.collect()` outside the timer, so
that garbage left by one large arena is not collected on the next
operation's clock.  The first round checks every output in full; later
rounds check that each output is the same as in the first.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from random import Random  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from spans import COUNT_METRICS, TIME_METRICS, Tracer  # noqa: E402

MODULES = ("automata", "alphabet", "supervisor", "game", "build", "prune", "synth",
           "oracle", "modelio")
SETUP_REPEATS = 9
VERIFY_HORIZON = 10  # the default horizon of `sdattack verify`
EXHAUSTIVE_MAX_ATTACKERS = 1500  # the bound of the acceptance cross-check
WALKS_PER_ARENA = 40
WALK_LENGTH = 12


class CheckError(AssertionError):
    """An output of the program is wrong."""


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def import_sdattack(src: Path) -> SimpleNamespace:
    """Import the package afresh from src and return its layer modules."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [k for k in sys.modules if k == "sdattack" or k.startswith("sdattack.")]:
        del sys.modules[name]
    pkg = importlib.import_module("sdattack")
    if Path(pkg.__file__).resolve().parent != (src / "sdattack").resolve():
        raise SystemExit(f"sdattack imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{n: importlib.import_module(f"sdattack.{n}") for n in MODULES})


def digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def same_structure(a, b) -> bool:
    return (set(a.s_states) == set(b.s_states) and set(a.e_states) == set(b.e_states)
            and a.h_se == b.h_se and a.h_es == b.h_es and a.initial == b.initial)


class Runner:
    """Times operations and keeps the per-run bookkeeping."""

    def __init__(self, tracer: Tracer | None, quick: bool) -> None:
        self.tracer = tracer
        self.quick = quick
        self.times: list[float] = []
        self.failed = 0
        self.round = 0
        self.round_ops: list[int] = []  # operations done by the end of each round
        self.first: dict[str, str] = {}  # output digests of the first round

    def quick_done(self) -> bool:
        return self.quick and len(self.times) >= 1

    def timed(self, fn, *args):
        gc.collect()
        t = self.tracer
        if t is None:
            t0 = time.perf_counter()
            result = fn(*args)
            self.times.append(time.perf_counter() - t0)
            return result
        t.group = f"round{self.round}"
        t.op = f"round{self.round}/{len(self.times)}"
        t0 = time.perf_counter()
        with t.span("op"):
            result = fn(*args)
        self.times.append(time.perf_counter() - t0)
        t.group = t.op = "check"
        return result

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def same_as_first(self, key: str, value: str) -> bool:
        """Record an output digest in the first round; compare it later."""
        if self.round == 0:
            self.first[key] = value
            return True
        check(self.first.get(key) == value, f"{key}: output differs from the first round")
        return False


# ---------------------------------------------------------------------------
# workloads


class SynthLadder:
    """`sdattack verify <cfg>`: synthesize, then check the attack found."""

    def setup(self, m, manifest, root):
        self.m = m
        self.items = manifest["instances"]
        self.scenarios = [m.modelio.read_scenario(root / it["config"]) for it in self.items]
        for sc in self.scenarios:
            sc.rtilde

    def op(self, sc):
        m = self.m
        res = m.synth.synthesize(sc)
        verdict = None
        if res.feasible:
            cfg = m.oracle.ClosedLoopConfig(sc.plant, sc.rtilde, res.attack, VERIFY_HORIZON, sc.x_crit)
            verdict = m.oracle.check_problem1(cfg, sc.strength)
        return res, verdict

    def run_round(self, run: Runner) -> None:
        m = self.m
        for it, sc in zip(self.items, self.scenarios):
            if run.quick_done():
                return
            res, verdict = run.timed(self.op, sc)
            name = it["config"]
            check(res.feasible == it["feasible"], f"{name}: feasible={res.feasible}")
            if it["fault"] is not None:
                # the kept fault: the synthesized attack has no reaction for
                # an observation the checker reaches
                check(not verdict.admissible, f"{name}: expected the kept fault")
                first = min(obs for obs, why in verdict.counterexamples if why == "admissibility")
                check(list(first) == it["fault"], f"{name}: first failure {first}")
                run.failed += 1
            elif res.feasible:
                check(verdict.ok(sc.strength), f"{name}: synthesized attack fails the checker")
            text = m.modelio.format_attack(res.attack) if res.feasible else ""
            vkey = None if verdict is None else (verdict.admissible, verdict.stealthy,
                                                  verdict.weak_hit, verdict.strong_hit)
            pruned = res.pruned
            if run.same_as_first(name, digest(text, vkey, len(pruned.ida.s_states),
                                              len(pruned.ida.e_states), len(pruned.flagged))):
                aida = m.build.construct_aida(sc)
                nodes = len(aida.s_states) + len(aida.e_states)
                del aida
                check(nodes == it["nodes"], f"{name}: full arena has {nodes} nodes")
                if not res.feasible:
                    self.check_pruned(sc, res.pruned, name)

    def check_pruned(self, sc, pruned, name) -> None:
        """Properties every pruning must have, checked without the pruner."""
        m = self.m
        if sc.mode == "bounded":
            full = m.build.construct_baida(sc)
            again = m.prune.prune_bounded(pruned.ida, sc)
        else:
            full = m.build.construct_aida(sc)
            again = (m.prune.prune_interruptible if sc.mode == "interruptible"
                     else m.prune.prune_unbounded)(pruned.ida, sc)
        ida, plant, ea, rt = pruned.ida, sc.plant, sc.ea, sc.rtilde
        check(set(ida.s_states) <= set(full.s_states), f"{name}: S-states outside the arena")
        check(set(ida.e_states) <= set(full.e_states), f"{name}: E-states outside the arena")
        check(all(full.h_se.get(y) == hop for y, hop in ida.h_se.items()),
              f"{name}: control hop outside the arena")
        check(all(full.h_es.get(k) == y for k, y in ida.h_es.items()),
              f"{name}: move outside the arena")
        for z in ida.e_states:
            if z in pruned.flagged:
                continue
            here = {sym for sym, _ in ida.es_adj.get(z, ())}
            for ev in rt.gamma(z.info.sup) & plant.obs_events:
                if not any((x, ev) in plant.trans for x in z.info.plant):
                    continue
                check(ev in here or (ev in ea.sigma_a and ev + ".del" in here),
                      f"{name}: {z.token()} can be outrun by {ev}")
        if sc.mode == "interruptible":
            for y in ida.s_states:
                check(y not in full.h_se or y in ida.h_se, f"{name}: {y.token()} lost its hop")
            for z in ida.e_states:
                for sym, _ in full.es_adj.get(z, ()):
                    if sym in plant.obs_events and sym not in ea.sigma_a:
                        check((z, sym) in ida.h_es, f"{name}: {z.token()} lost {sym}")
        check(same_structure(ida, again.ida) and again.flagged == pruned.flagged,
              f"{name}: pruning again changes the arena")


class ArenaExport:
    """`sdattack build-aida <cfg> -o FILE`: build, audit, format, write."""

    def setup(self, m, manifest, root):
        self.m, self.root, self.seed = m, root, manifest["seed"]
        self.items = manifest["instances"]
        self.scenarios = [m.modelio.read_scenario(root / it["config"]) for it in self.items]
        for sc in self.scenarios:
            sc.rtilde

    def op(self, run: Runner, sc, out: Path):
        m = self.m
        aida = m.build.construct_aida(sc)
        check(m.build.verify_aida_maximality(aida, sc), f"{sc.name}: arena fails its audit")
        text = m.modelio.format_ida(aida)
        with run.span("io.write"):
            out.write_text(text, encoding="utf-8")
        return aida, text

    def run_round(self, run: Runner) -> None:
        for i, (it, sc) in enumerate(zip(self.items, self.scenarios)):
            if run.quick_done():
                return
            out = self.root / it["output"]
            aida, text = run.timed(self.op, run, sc, out)
            if run.same_as_first(sc.name, digest(text)):
                self.check_arena(sc, it, aida, out, i)
            del aida, text

    def check_arena(self, sc, it, aida, out: Path, idx: int) -> None:
        m, name = self.m, sc.name
        text = out.read_text(encoding="utf-8")
        lines = text.splitlines()
        n_nodes = sum(1 for line in lines if line.startswith("node "))
        n_edges = sum(1 for line in lines if line.startswith("edge "))
        nodes = len(aida.s_states) + len(aida.e_states)
        check(n_nodes == nodes == it["nodes"], f"{name}: {n_nodes} node lines, {nodes} nodes")
        check(n_edges == len(aida.h_se) + len(aida.h_es), f"{name}: edge lines")
        check(nodes <= m.build.aida_size_bound(sc), f"{name}: arena exceeds its size bound")
        back, flagged = m.modelio.parse_ida(text, sc.ctx, str(out))
        check(same_structure(back, aida) and not flagged, f"{name}: artifact parses back differently")
        rt, plant, ea = sc.rtilde, sc.plant, sc.ea
        rng = Random(f"walks/{self.seed}/{idx}")
        for _ in range(WALKS_PER_ARENA):
            node, word = aida.initial, ()
            for _ in range(WALK_LENGTH):
                if node.side == "S":
                    hop = aida.h_se.get(node)
                    if hop is None:
                        break
                    node = hop[1]
                    q = rt.run(rt.initial, ea.supervisor_view(word))
                    check(q == node.info.sup, f"{name}: supervisor state after {word}")
                    est = m.oracle.reach_estimate(plant, rt, ea, word)
                    check(est == node.info.plant, f"{name}: estimate after {word}")
                else:
                    edges = aida.es_adj.get(node, ())
                    if not edges:
                        break
                    sym, node = edges[rng.randrange(len(edges))]
                    word = word + (sym,)


class ExhaustiveTiny:
    """One attacker of the exhaustive cross-check per operation."""

    def setup(self, m, manifest, root):
        self.m = m
        self.items = manifest["instances"]
        self.bounds = m.oracle.EnumBounds(max_attackers=EXHAUSTIVE_MAX_ATTACKERS)
        self.scenarios, self.isda, self.feasible = [], [], []
        for it in self.items:
            sc = m.modelio.read_scenario(root / it["config"])
            sc.rtilde
            self.scenarios.append(sc)
            self.isda.append(m.prune.prune_interruptible(m.build.construct_aida(sc), sc).ida)
            self.feasible.append(m.synth.synthesize(sc).feasible)

    def step(self, run: Runner, gen, sc, isda):
        m = self.m
        with run.span("oracle.enumerate"):
            fa = next(gen, None)
        if fa is None:
            return None
        if run.tracer:
            run.tracer.counts[run.tracer.group]["oracle.attackers"] += 1
        cfg = m.oracle.ClosedLoopConfig(sc.plant, sc.rtilde, fa, self.bounds.horizon, sc.x_crit)
        verdict = m.oracle.check_problem1(cfg, sc.strength)
        emb = None
        if verdict.admissible and verdict.stealthy:
            emb = m.oracle.check_embedding(fa, isda, self.bounds.horizon)
        return verdict, emb

    def run_round(self, run: Runner) -> None:
        for it, sc, isda, feasible in zip(self.items, self.scenarios, self.isda, self.feasible):
            name = it["config"]
            check(feasible == it["feasible"], f"{name}: feasible={feasible}")
            gen = self.m.oracle.enumerate_attackers(sc, self.bounds, certifying_only=True)
            count, hit = 0, False
            while not run.quick_done():
                out = run.timed(self.step, run, gen, sc, isda)
                if out is None:
                    check(count == it["attackers"], f"{name}: {count} attackers")
                    check(hit == feasible, f"{name}: a hitting attacker exists={hit}")
                    break
                verdict, emb = out
                count += 1
                check(not emb, f"{name}: attacker {count} is certified but does not embed")
                hit = hit or verdict.ok(sc.strength)
            if run.quick_done():
                return


class ReplayChain:
    """`sdattack verify <cfg> --attack FILE` on long insertion chains."""

    def setup(self, m, manifest, root):
        self.m, self.root = m, root
        self.items = manifest["instances"]
        self.scenarios = {}
        for it in self.items:
            if it["config"] not in self.scenarios:
                sc = m.modelio.read_scenario(root / it["config"])
                sc.rtilde
                self.scenarios[it["config"]] = sc

    def op(self, sc, path: Path):
        m = self.m
        fa = m.modelio.read_attack(path, sc.ea)
        cfg = m.oracle.ClosedLoopConfig(sc.plant, sc.rtilde, fa, VERIFY_HORIZON, sc.x_crit)
        return m.oracle.check_problem1(cfg, sc.strength)

    def run_round(self, run: Runner) -> None:
        for it in self.items:
            if run.quick_done():
                return
            sc = self.scenarios[it["config"]]
            v = run.timed(self.op, sc, self.root / it["attack"])
            want, name = it["expect"], it["attack"]
            for key in ("admissible", "stealthy", "weak_hit", "strong_hit"):
                check(getattr(v, key) == want[key], f"{name}: {key}={getattr(v, key)}")
            obs = sorted((o for o, _ in v.counterexamples), key=lambda o: (len(o), o))
            first = list(obs[0]) if obs else None
            check(first == want["first_failure"], f"{name}: first failing observation {first}")


WORKLOADS = {
    "synth-ladder": SynthLadder,
    "arena-export": ArenaExport,
    "exhaustive-tiny": ExhaustiveTiny,
    "replay-chain": ReplayChain,
}


# ---------------------------------------------------------------------------


def trace_metrics(tracer: Tracer, setups: int, rounds: int) -> dict:
    """Per-layer self time and counts of one set-up plus one round."""
    groups = [f"setup{k}" for k in range(setups)], [f"round{r}" for r in range(rounds)]
    out: dict = {}
    selfs = [[tracer.self_times(g) for g in gs] for gs in groups]
    # the root spans ("setup", "op") keep as self time what no layer span covers
    for metric, span in TIME_METRICS + [("trace.unattributed_s", "op"), ("trace.unattributed_s", "setup")]:
        value = sum(statistics.fmean(s.get(span, 0.0) for s in part) for part in selfs)
        out[metric] = out.get(metric, 0.0) + value
    out["trace.total_s"] = sum(
        statistics.fmean(sum(s.values()) for s in part) for part in selfs)
    for part in groups:
        counts = [dict(tracer.counts[g]) for g in part]
        if any(c != counts[0] for c in counts):
            raise CheckError(f"counts differ between {part[0]} and a later group")
    setup_counts, round_counts = tracer.counts[groups[0][0]], tracer.counts[groups[1][0]]
    for metric in COUNT_METRICS:
        out[metric] = setup_counts.get(metric, 0) + round_counts.get(metric, 0)
    attackers = round_counts.get("oracle.attackers", 0)
    runs = round_counts.get("oracle.enumerator_runs", 0)
    out["oracle.explorer_runs_per_attacker"] = runs / attackers if attackers else 0.0
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--src", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", type=Path)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()
    manifest = json.loads((args.inputs / "manifest.json").read_text(encoding="utf-8"))
    tracer = Tracer() if args.trace else None
    run = Runner(tracer, args.quick)
    workload = WORKLOADS[args.workload]()
    error = None

    setup_times = []
    repeats = 1 if args.quick else SETUP_REPEATS
    try:
        for k in range(repeats):
            gc.collect()
            t0 = time.perf_counter()
            if tracer:
                tracer.group = tracer.op = f"setup{k}"
                with tracer.span("setup"):
                    m = import_sdattack(args.src)
                    tracer.install()
                    workload.setup(m, manifest, args.inputs)
                tracer.group = tracer.op = "check"
            else:
                m = import_sdattack(args.src)
                workload.setup(m, manifest, args.inputs)
            setup_times.append(time.perf_counter() - t0)
        deadline = time.perf_counter() + args.seconds
        while True:
            workload.run_round(run)
            run.round += 1
            run.round_ops.append(len(run.times))
            if run.quick or time.perf_counter() >= deadline:
                break
    except CheckError as exc:
        error = str(exc)
    except Exception as exc:  # the program failed in a way no check expects
        traceback.print_exc()
        error = f"{type(exc).__name__}: {exc}"
    if error:
        print(f"check failed: {error}", file=sys.stderr)
    if not run.times:
        print("no operation completed", file=sys.stderr)
        return 1

    result: dict = {"correct": error is None, "attempted": len(run.times), "failed": run.failed}
    times = run.times
    info = {
        "rounds": run.round,
        "setup_repeats": len(setup_times),
        "setup_times": setup_times,
        "start_to_end_s": time.perf_counter() - T_START,
        "op_s_p90": statistics.quantiles(times, n=10)[-1] if len(times) >= 2 else times[0],
        "op_samples": len(run.times),
        "summed_op_s": sum(run.times),
        "round_op_s": [sum(run.times[a:b]) for a, b in zip([0] + run.round_ops, run.round_ops)],
        "first_round_op_s": run.times[: run.round_ops[0]] if run.round_ops else run.times,
    }
    if tracer is None:
        result["metrics"] = {
            "ops_per_s": {"value": len(run.times) / sum(times), "unit": "1/s"},
            "op_s_p50": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    else:
        units = {name: "s" for name, _ in TIME_METRICS}
        units.update({n: "count" for n in COUNT_METRICS})
        units.update({"oracle.explorer_runs_per_attacker": "ratio", "trace.unattributed_s": "s",
                      "trace.total_s": "s"})
        values = trace_metrics(tracer, len(setup_times), max(run.round, 1)) if error is None else {}
        result["metrics"] = {k: {"value": values.get(k, 0.0), "unit": u} for k, u in units.items()}
        info["ops_per_s_traced"] = len(run.times) / sum(times)
        if args.trace_out:
            tracer.dump(args.trace_out)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
