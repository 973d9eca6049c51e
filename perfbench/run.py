"""Benchmark runner for submon.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; submon is imported from its `src/`.  One
closed-loop client sends the workload's queries one after another until
the submon calls have taken S seconds, checks every answer, and prints as
its last line one JSON object: correct / attempted / failed / metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
same stream runs with spans around every layer and the metrics are the
per-layer ones, plus fixed-size readings, the tracing overhead and the
known-defect repros.  Lines before the last carry context: the query
count, which tail percentile was used, the src/ line count, the commit,
the input digest and a per-class summary.

setup_s is the median, over several fresh interpreters, of the wall time
from starting one to its being ready: submon imported, the workload's
groups parsed and their engines built.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_SAMPLES = 9     # fresh interpreters per run, after one warm-up
DIGEST_QUERIES = 40   # queries hashed to check that inputs are seeded
WATCHDOG_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a set-up sample, or the untraced twin of a traced run
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--count", type=int, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def digest(workload, seed):
    stream = workload.queries(seed)
    h = hashlib.sha256()
    for _ in range(DIGEST_QUERIES):
        h.update(next(stream).text.encode() + b"\n")
    return h.hexdigest()


def setup_probe(args, workloads):
    t0 = time.perf_counter()
    import submon
    imported = time.perf_counter() - t0
    workloads.WORKLOADS[args.workload].setup(submon)
    print("ready", imported, flush=True)
    print("digest", digest(workloads.WORKLOADS[args.workload], args.seed))
    return 0


def child(args, extra, hashseed=None):
    """Start this script again; returns its Popen."""
    env = dict(os.environ)
    if hashseed is not None:
        env["PYTHONHASHSEED"] = str(hashseed)
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + extra
    return subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)


def measure_setup(args):
    """(median wall s, median import s, digests) over fresh interpreters."""
    walls, imports, digests = [], [], []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        with child(args, ["--setup-probe"], hashseed=i) as p:
            line = p.stdout.readline()
            wall = time.perf_counter() - t0
            rest = p.stdout.read()
            code = p.wait(timeout=60)
        if code != 0 or not line.startswith("ready"):
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        if i == 0:
            continue  # warm-up: byte-compiles src/ in a fresh checkout
        walls.append(wall)
        imports.append(float(line.split()[1]))
        digests.append(rest.split()[1])
    return statistics.median(walls), statistics.median(imports), digests


def percentile(sorted_values, p):
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def src_context():
    lines = 0
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    data = fh.read()
                lines += data.count(b"\n")
                h.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"src_lines": lines, "src_sha256": h.hexdigest()[:16],
            "commit": commit}


def run_stream(workload, env, args, tracer, count=None):
    """The closed loop.  Stops at the first round boundary after the timed
    calls add up to --seconds, so every run covers whole rounds of the
    same mix (or after `count` queries), or at the wall-clock cap."""
    paused = tracer.paused if tracer else contextlib.nullcontext
    stream = workload.queries(args.seed)
    records = []
    failures = []
    measured = 0.0
    wall0 = time.perf_counter()
    cap = min(3 * args.seconds + 10, 75)
    while True:
        q = next(stream)
        if count is None:
            if (measured >= args.seconds and q.round != records[-1][3]
                    or time.perf_counter() - wall0 > cap):
                break
        elif len(records) >= count:
            break
        with paused():
            prepared = workload.prepare(env, q)
        if tracer:
            tracer.qid = len(records)
        # garbage from preparing and checking is not the query's to collect
        gc.collect(1)
        t0 = time.perf_counter()
        try:
            answer = workload.execute(env, q, prepared)
            error = None
        except Exception as e:  # any exception is a failed query
            answer, error = None, e
        dt = time.perf_counter() - t0
        if tracer:
            tracer.qid = -1
        if error is not None:
            status, reason = "failed", f"{type(error).__name__}: {error}"
        else:
            with paused():
                status, reason = workload.check(env, q, prepared, answer)
        records.append((q.kind, dt, status, q.round))
        if reason:
            failures.append(f"{q.kind}: {reason} [{q.text[:80]}]")
        measured += dt
    return records, failures, measured, time.perf_counter() - wall0


def known_defects(submon):
    """The two defects known at the time the benchmark was written,
    replayed outside the timed stream: 1 when a defect still shows."""
    pres = submon.Presentation.parse("gens: a b\nrel: aabbb")
    # b^-3 = a^2 in <a, b | a^2 b^3>, so BBB lies in Mon<a>
    v = submon.decide_surface_submonoid(pres, ["a"], "BBB")
    import submon.cli
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            submon.cli.main(["analyze", "--group", "BS 2 3", "--stable", "a"])
        crashed = 0
    except Exception:
        crashed = 1
    return {"unsound_non_member": int(v.outcome == "non-member"),
            "analyze_crash": crashed}


def summary(records):
    kinds = {}
    for kind, dt, status, _ in records:
        k = kinds.setdefault(kind, {"n": 0, "decided": 0, "failed": 0,
                                    "ms": []})
        k["n"] += 1
        k["decided"] += status == "decided"
        k["failed"] += status == "failed"
        k["ms"].append(dt * 1e3)
    for k in kinds.values():
        ms = k.pop("ms")
        k["median_ms"] = round(statistics.median(ms), 3)
        k["total_ms"] = round(sum(ms), 1)
    return dict(sorted(kinds.items()))


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "submon", "__init__.py")):
        print(f"no submon sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, lambda *_: sys.exit("watchdog: run too long"))
    signal.alarm(WATCHDOG_S)
    sys.path[:0] = [SRC, HERE]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args, workloads)

    workload = workloads.WORKLOADS[args.workload]
    setup_s, import_s, child_digests = (None, None, [])
    if args.count is None:
        setup_s, import_s, child_digests = measure_setup(args)
    import submon
    if not os.path.abspath(submon.__file__).startswith(SRC + os.sep):
        print(f"submon imported from {submon.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    env = workload.setup(submon)  # traced as query -1
    records, failures, measured, wall = run_stream(
        workload, env, args, tracer, args.count)
    if args.count is not None:
        print(json.dumps({"measured_s": measured, "wall_s": wall}))
        return 0

    own_digest = digest(workload, args.seed)
    digests_ok = all(d == own_digest for d in child_digests)
    n = len(records)
    n_failed = sum(r[2] == "failed" for r in records)
    n_decided = sum(r[2] == "decided" for r in records)
    latencies = sorted(r[1] for r in records)
    p_tail = workload.TAIL_PERCENTILE
    beyond = sum(1 for x in latencies if x > percentile(latencies, p_tail))
    with tracer.paused() if tracer else contextlib.nullcontext():
        defects = known_defects(submon)
    context = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "queries": n,
        "measured_s": round(measured, 4), "wall_s": round(wall, 4),
        "error_share": n_failed / n,
        "tail_percentile": p_tail, "samples_beyond_tail": beyond,
        "rounds": records[-1][3] + 1,
        "engines": {g: getattr(e, "name", None)
                    for g, e in env.get("engines", {}).items()},
        "input_digest": own_digest[:16], "digest_ok": digests_ok,
        "known_defects": defects,
        **src_context(),
    }
    print("context:", json.dumps(context, sort_keys=True))
    print("classes:", json.dumps(summary(records), sort_keys=True))
    for line in failures[:20]:
        print("failure:", line)
    if beyond < 10:
        print(f"warning: only {beyond} samples beyond p{p_tail}")

    if args.trace:
        import probes
        metrics = tracer.layer_metrics()
        peaks = tracer.replay_peaks()
        metrics["automata.stallings_peak_mb"] = peaks["stallings"]
        metrics["automata.acceptor_peak_mb"] = peaks["acceptor"]
        with tracer.paused():
            metrics.update(probes.baselines(submon, args.seed))
        metrics["probe.import_ms"] = import_s * 1e3
        metrics["deciders.known_unsound_non_member"] = defects[
            "unsound_non_member"]
        metrics["cli.known_analyze_crash"] = defects["analyze_crash"]
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(
            out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
        with child(args, ["--count", str(n)]) as p:
            twin = json.loads(p.stdout.read().strip().splitlines()[-1])
            if p.wait(timeout=120) != 0:
                raise RuntimeError("untraced twin run failed")
        metrics["trace.spans"] = len(tracer.spans)
        metrics["trace.traced_s"] = measured
        metrics["trace.untraced_s"] = twin["measured_s"]
        metrics["trace.overhead_s"] = measured - twin["measured_s"]
        metrics["trace.overhead_share"] = (
            (measured - twin["measured_s"]) / twin["measured_s"])
        units = {m["name"]: m["unit"] for m in bench_spec()["per_layer"]}
        # totals over a run depend on how many rounds fitted in it; every
        # round is the same mix, so per-round figures compare across runs
        rounds = records[-1][3] + 1
        for name, unit in units.items():
            if unit.endswith("/round") and name in metrics:
                metrics[name] /= rounds
    else:
        metrics = {
            "setup_s": setup_s,
            "throughput_qps": n / measured,
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_tail_ms": percentile(latencies, p_tail) * 1e3,
            "decided_share": n_decided / n,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {m["name"]: m["unit"] for m in bench_spec()["end_to_end"]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    result = {
        "correct": n_failed == 0 and digests_ok,
        "attempted": n,
        "failed": n_failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
