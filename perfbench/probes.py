"""Fixed-size single-layer readings for the traced run.

They repeat the baselines measured by hand before the benchmark existed:
Dehn on a ~1226-letter trivial word of the genus-2 surface group, Britton
(stable letter a, fresh engine) on a ~1220-letter one, a Stallings graph
of 32 generators of length 24, and a saturated acceptor with 521 states.
Inputs come from the seed; each time is the median of three.
"""

import random
import statistics
import time
import tracemalloc

import algebra as alg
from workloads import GROUPS

REPEAT = 3


def check(ok, message):
    if not ok:
        raise RuntimeError(message)


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return (time.perf_counter() - t0) * 1e3, out


def baselines(submon, seed):
    from submon.automata import SaturatedAcceptor, StallingsGraph
    from submon.magnus import BrittonEngine
    from submon.rewrite import DehnEngine

    rng = random.Random(f"probes:{seed}")
    s2 = GROUPS["S2"]
    pres = s2.presentation(submon)
    out = {}

    dehn = DehnEngine(pres)
    times = []
    for _ in range(REPEAT):
        w = submon.Word(pres.alphabet, alg.trivial_word(rng, 4, s2.relator, 1220))
        ms, ok = timed(lambda: dehn.is_trivial(w))
        check(ok, "Dehn rejected a trivial word")
        times.append(ms)
    out["probe.dehn_s2_1226_ms"] = statistics.median(times)

    times = []
    for _ in range(REPEAT):
        w = submon.Word(pres.alphabet, alg.trivial_word(rng, 4, s2.relator, 1214))
        engine = BrittonEngine(pres, "a")
        ms, ok = timed(lambda: engine.is_trivial(w))
        check(ok, "Britton rejected a trivial word")
        times.append(ms)
    out["probe.britton_s2_1220_ms"] = statistics.median(times)

    abcd = submon.Alphabet("abcd")
    gens = [submon.Word(abcd, alg.random_word(rng, 4, 24)) for _ in range(32)]
    times = []
    for _ in range(REPEAT):
        ms, graph = timed(lambda: StallingsGraph(abcd, gens))
        times.append(ms)
    out["probe.stallings_32x24_ms"] = statistics.median(times)
    out["probe.stallings_32x24_folds"] = len(getattr(graph, "history", ()))
    tracemalloc.start()
    try:
        StallingsGraph(abcd, gens)
        out["probe.stallings_32x24_peak_mb"] = (
            tracemalloc.get_traced_memory()[1] / 2 ** 20)
    finally:
        tracemalloc.stop()

    ab = submon.Alphabet("ab")
    raw = [alg.random_word(rng, 2, 21) for _ in range(26)]  # 1 + 26*20 states
    gens = [submon.Word(ab, g) for g in raw]
    times = []
    for _ in range(REPEAT):
        ms, acc = timed(lambda: SaturatedAcceptor(ab, gens))
        times.append(ms)
    out["probe.acceptor_521_build_ms"] = statistics.median(times)
    times = []
    for _ in range(20):
        idx = [rng.randrange(len(raw)) for _ in range(rng.randrange(1, 6))]
        w = submon.Word(ab, alg.mul(*(raw[i] for i in idx)))
        ms, count = timed(lambda: acc.factor_count(w))
        check(count is not None, "acceptor missed a product of generators")
        times.append(ms)
    out["probe.acceptor_521_query_ms"] = statistics.median(times)
    return out
