"""Build, prune, audit and write the XL arena probe; print its size, times and peak memory.

The probe is the `EXPORT` family of `perfbench/gen.py` with 90 plant
states, generator seed 6, in unbounded mode: an arena of about 7 * 10^5
nodes, of which pruning keeps none.  Run it from the root of a checkout:

    PYTHONPATH=src python3 scripts/arena_probe.py

It prints the node and edge counts (`len(aida.side)`, `len(aida.lab)`),
the wall time of `construct_aida` and of `prune`, the worklist
generations of the pruning (`PruneResult.rounds`), the ratio of the two
times (pruning should take no longer than the build) and the peak
resident memory (`ru_maxrss`) of the process after them.  It then times
the other steps of `build-aida -o`, the maximality audit
`verify_aida_maximality` and `write_ida`, which streams the chunks of
`ida_chunks` into a temporary file, and prints the file's size and
sha256 and the peak resident memory again, after the write.
"""

from __future__ import annotations

import hashlib
import resource
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from random import Random

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402  (standard library only)

from sdattack.build import construct_aida, verify_aida_maximality  # noqa: E402
from sdattack.modelio import read_scenario, write_ida  # noqa: E402
from sdattack.prune import prune  # noqa: E402


def main() -> int:
    models = gen.random_models(Random(6), replace(gen.EXPORT, states=90))
    with tempfile.TemporaryDirectory() as tmp:
        sc = read_scenario(gen.write_scenario(Path(tmp), "xl", models, "unbounded", "strong"))
    sc.rtilde
    rss = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss >> 10  # noqa: E731
    t0 = time.perf_counter()
    aida = construct_aida(sc)
    t1 = time.perf_counter()
    pruned = prune(aida, sc)
    t2 = time.perf_counter()
    print(f"nodes: {len(aida.side)}")
    print(f"edges: {len(aida.lab)}")
    print(f"surviving nodes: {len(pruned.ida.side)}")
    print(f"build: {t1 - t0:.1f} s")
    print(f"prune: {t2 - t1:.1f} s")
    print(f"rounds: {pruned.rounds}")
    print(f"prune/build: {(t2 - t1) / (t1 - t0):.2f}")
    print(f"peak rss after build and prune: {rss()} MB")
    t2 = time.perf_counter()
    if not verify_aida_maximality(aida, sc):
        raise SystemExit("the arena fails its audit")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "xl.ida"
        t3 = time.perf_counter()
        write_ida(aida, path)
        t4 = time.perf_counter()
        peak = rss()
        with path.open("rb") as f:
            sha = hashlib.file_digest(f, "sha256").hexdigest()
        size = path.stat().st_size
    print(f"audit: {t3 - t2:.1f} s")
    print(f"write: {t4 - t3:.1f} s ({size >> 20} MiB, sha256 {sha})")
    print(f"peak rss after the write: {peak} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
