"""Spans around the public calls of each submon layer, for the traced run.

`Tracer.install` replaces each traced function or method with a wrapper,
everywhere it is looked up: a function imported into another module (such
as `submon.deciders.bounded_search`) is patched there too.  A span records
(name, start, end, parent, query id); spans stay in memory until the run
ends.  `Word.__init__` and `Word.__mul__` are only counted, not spanned:
they run millions of times.

Peak memory of Stallings and acceptor builds is measured afterwards by
`replay_peaks`, which rebuilds the largest inputs seen under tracemalloc,
so the timed spans carry no tracemalloc cost.
"""

import contextlib
import functools
import json
import sys
import time
import tracemalloc

PUBLIC_DECIDERS = (
    "decide_surface_submonoid", "decide_surface_magnus",
    "decide_prefix_surface", "decide_bs_magnus", "decide_burns_magnus",
    "decide_positivity_fbc", "powers_decider",
)

# span names of word-problem engine calls
ENGINE_SPANS = frozenset({
    "presentations.engine", "presentations.free_engine",
    "presentations.bs_pinch", "rewrite.dehn", "magnus.britton",
    "magnus.fbc",
})

KEEP_BUILDS = 3  # largest builds of each kind replayed under tracemalloc


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index, query id]
        self._stack = []
        self.qid = -1          # -1: set-up
        self._paused = 0
        self.words = 0
        self.muls = 0
        self.folds = 0
        self.acceptor_states = 0
        self.searches = []     # (states, found, exhausted)
        self.builds = {"stallings": [], "acceptor": []}

    @contextlib.contextmanager
    def paused(self):
        """Benchmark-side work (inputs, answer checks) records nothing."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else None, self.qid])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def _count(self, attr, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._paused:
                setattr(self, attr, getattr(self, attr) + 1)
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        from submon import automata, cli, deciders, distortion, magnus
        from submon import presentations, rewrite, words
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "submon" or n.startswith("submon.")]

        def patch_function(owner, attr, name, after=None):
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)

        def patch_method(cls, attr, name, after=None):
            setattr(cls, attr, self._wrap(name, getattr(cls, attr), after))

        def stallings_built(args, _):
            graph = args[0]
            self.folds += len(getattr(graph, "history", ()))
            self._keep("stallings", graph.alphabet, graph.generators)

        def acceptor_built(args, _):
            acc = args[0]
            self.acceptor_states = max(self.acceptor_states,
                                       getattr(acc, "n_states", 0))
            self._keep("acceptor", acc.alphabet, acc.generators)

        def searched(_, res):
            self.searches.append(
                (res.states, bool(res.found),
                 not res.found and not res.complete))

        patch_method(automata.StallingsGraph, "__init__",
                     "automata.stallings_build", stallings_built)
        patch_method(automata.StallingsGraph, "witness",
                     "automata.stallings_witness")
        patch_method(automata.StallingsGraph, "contains",
                     "automata.stallings_contains")
        patch_method(automata.SaturatedAcceptor, "__init__",
                     "automata.acceptor_build", acceptor_built)
        patch_method(automata.SaturatedAcceptor, "factor_count",
                     "automata.acceptor_query")
        patch_method(automata.SaturatedAcceptor, "witness",
                     "automata.acceptor_witness")

        patch_method(magnus.BrittonEngine, "is_trivial", "magnus.britton")
        patch_method(magnus.HnnData, "__init__", "magnus.hnn_build")
        patch_method(magnus.FbcGroup, "is_trivial", "magnus.fbc")
        patch_method(magnus.FbcGroup, "normal_form", "magnus.fbc_normal_form")
        patch_function(magnus, "magnus_rewrite", "magnus.rewrite")

        patch_method(rewrite.DehnEngine, "is_trivial", "rewrite.dehn")
        patch_method(rewrite.RewritingSystem, "normalize",
                     "rewrite.normalize")
        patch_function(rewrite, "closure_membership",
                       "rewrite.closure_membership")

        patch_function(distortion, "bounded_search", "distortion.search",
                       searched)
        patch_function(distortion, "positive_functional",
                       "distortion.functional")

        patch_function(presentations, "select_engine",
                       "presentations.select_engine")
        patch_method(presentations.EngineInfo, "is_trivial",
                     "presentations.engine")
        patch_method(presentations._FreeEngine, "is_trivial",
                     "presentations.free_engine")
        patch_method(presentations.BsEngine, "is_trivial",
                     "presentations.bs_pinch")
        patch_method(presentations.BsEngine, "base_power",
                     "presentations.bs_pinch")

        for name in PUBLIC_DECIDERS + ("reduce_to_dg_instance",):
            patch_function(deciders, name, "deciders." + name)
        patch_function(cli, "main", "cli.main")

        words.Word.__init__ = self._count("words", words.Word.__init__)
        words.Word.__mul__ = self._count("muls", words.Word.__mul__)

    def _keep(self, kind, alphabet, generators):
        size = sum(len(w) for w in generators)
        kept = self.builds[kind]
        kept.append((size, len(kept), alphabet, tuple(generators)))
        kept.sort(key=lambda item: (-item[0], item[1]))
        del kept[KEEP_BUILDS:]

    def replay_peaks(self):
        """Peak traced memory, in MB, of rebuilding the largest inputs."""
        from submon.automata import SaturatedAcceptor, StallingsGraph
        out = {}
        with self.paused():
            for kind, cls in (("stallings", StallingsGraph),
                              ("acceptor", SaturatedAcceptor)):
                peak = 0.0
                for _, _, alphabet, gens in self.builds[kind]:
                    tracemalloc.start()
                    try:
                        cls(alphabet, list(gens))
                        peak = max(peak, tracemalloc.get_traced_memory()[1])
                    finally:
                        tracemalloc.stop()
                out[kind] = peak / 2 ** 20
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self):
        """Per-layer totals from the spans (times in ms)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent is not None:
                child[parent] += t1 - t0

        def has_ancestor(idx, pred):
            parent = spans[idx][3]
            while parent is not None:
                if pred(spans[parent][0]):
                    return parent
                parent = spans[parent][3]
            return None

        total = {}    # inclusive ms, outermost span of each name only
        calls = {}
        self_ms = {}
        for idx, (name, t0, t1, parent, _) in enumerate(spans):
            self_ms[name] = self_ms.get(name, 0.0) + (t1 - t0 - child[idx]) * 1e3
            if has_ancestor(idx, name.__eq__) is None:
                total[name] = total.get(name, 0.0) + (t1 - t0) * 1e3
                calls[name] = calls.get(name, 0) + 1

        britton_with_build = set()
        verify_calls = search_engine_calls = 0
        for idx, (name, _, _, parent, _) in enumerate(spans):
            if name == "magnus.hnn_build":
                owner = has_ancestor(idx, "magnus.britton".__eq__)
                if owner is not None:
                    britton_with_build.add(owner)
            elif name in ENGINE_SPANS and parent is not None:
                pname = spans[parent][0]
                if pname in ENGINE_SPANS:
                    continue
                if pname.startswith("deciders."):
                    verify_calls += 1
                elif pname == "distortion.search":
                    search_engine_calls += 1

        def ms(name):
            return total.get(name, 0.0)

        def n(name):
            return calls.get(name, 0)

        states = sum(s for s, _, _ in self.searches)
        search_s = ms("distortion.search") / 1e3
        britton_calls = n("magnus.britton")
        out = {
            "automata.stallings_build_ms": ms("automata.stallings_build"),
            "automata.stallings_builds": n("automata.stallings_build"),
            "automata.stallings_folds": self.folds,
            "automata.stallings_witness_ms": ms("automata.stallings_witness"),
            "automata.stallings_witness_calls": n("automata.stallings_witness"),
            "automata.stallings_contains_ms": ms("automata.stallings_contains"),
            "automata.acceptor_build_ms": ms("automata.acceptor_build"),
            "automata.acceptor_builds": n("automata.acceptor_build"),
            "automata.acceptor_states": self.acceptor_states,
            "automata.acceptor_query_ms": ms("automata.acceptor_query"),
            "automata.acceptor_witness_ms": ms("automata.acceptor_witness"),
            "magnus.britton_ms": ms("magnus.britton"),
            "magnus.britton_calls": britton_calls,
            "magnus.hnn_builds": n("magnus.hnn_build"),
            "magnus.hnn_build_ms": ms("magnus.hnn_build"),
            "magnus.window_reuse_ratio": (
                (britton_calls - len(britton_with_build)) / britton_calls
                if britton_calls else 0.0),
            "magnus.fbc_normal_form_ms": ms("magnus.fbc_normal_form"),
            "magnus.rewrite_ms": ms("magnus.rewrite"),
            "rewrite.dehn_ms": ms("rewrite.dehn"),
            "rewrite.dehn_calls": n("rewrite.dehn"),
            "rewrite.normalize_ms": ms("rewrite.normalize"),
            "rewrite.closure_membership_ms": ms("rewrite.closure_membership"),
            "distortion.search_ms": ms("distortion.search"),
            "distortion.search_calls": len(self.searches),
            "distortion.search_states": states,
            "distortion.search_states_per_s": (
                states / search_s if search_s else 0.0),
            "distortion.search_exhausted": sum(e for _, _, e in self.searches),
            "distortion.search_found_ratio": (
                sum(f for _, f, _ in self.searches) / len(self.searches)
                if self.searches else 0.0),
            "distortion.search_engine_calls": search_engine_calls,
            "distortion.functional_ms": ms("distortion.functional"),
            "presentations.select_engine_ms": ms("presentations.select_engine"),
            "presentations.select_engine_calls": n("presentations.select_engine"),
            "presentations.bs_pinch_ms": ms("presentations.bs_pinch"),
            "deciders.verify_engine_calls": verify_calls,
            "deciders.reduce_to_dg_ms": ms("deciders.reduce_to_dg_instance"),
            "cli.main_self_ms": self_ms.get("cli.main", 0.0),
            "cli.calls": n("cli.main"),
            "words.word_constructions": self.words,
            "words.mul_calls": self.muls,
        }
        for name in PUBLIC_DECIDERS:
            out[f"deciders.{name}_self_ms"] = self_ms.get("deciders." + name, 0.0)
        return out
