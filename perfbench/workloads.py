"""The three workloads: inputs made from a seed, calls into submon, checks.

Each workload is a closed loop with one client: `queries(seed)` yields an
endless stream in rounds, each round one fixed mix of query classes with
fresh random content, shuffled.  Fixing the mix per round keeps the cost
of a run steady across seeds.  For each query the runner calls
`prepare` (untimed: turns benchmark data into submon objects), then
`execute` (timed: the submon call), then `check` (untimed: compares the
answer with the key from `algebra`, or multiplies a witness back through a
second engine).

`check` returns "decided" (a member / non-member answer that passed its
check), "undecided" (an honest unknown) or "failed" with a reason: an
exception, a CLI crash, a member-by-construction answered non-member, a
witness that does not multiply back to the query, or a key contradicted.
"""

import contextlib
import io
import json
import random

import algebra as alg


class Group:
    """A one-relator presentation as the benchmark knows it."""

    def __init__(self, name, names, relator):
        self.name = name          # as submon's CLI and `builtin` take it
        self.names = tuple(names)
        self.k = len(self.names)
        self.relator = alg.parse(self.names, relator)
        self.relators = (self.relator,)

    def fmt(self, letters):
        return alg.fmt(self.names, letters)

    def presentation(self, submon):
        if self.name.startswith("gens:"):
            return submon.Presentation.parse(self.name.replace(";", "\n"))
        pres = submon.builtin(self.name)
        if (pres.alphabet.names != self.names
                or pres.relator.letters != self.relator):
            raise RuntimeError(f"{self.name}: submon presents it differently")
        return pres


GROUPS = {g.name: g for g in (
    Group("S2", "abcd", "abABcdCD"),
    Group("S3", ("a1", "b1", "a2", "b2", "a3", "b3"),
          "a1 b1 a1' b1' a2 b2 a2' b2' a3 b3 a3' b3'"),
    Group("N2", "cd", "ccdd"),
    Group("N3", ("a1", "a2", "a3"), "a1 a1 a2 a2 a3 a3"),
    Group("BURNS", "at", "tatATaTA"),
    Group("BS 2 3", "at", "taaTAAA"),
    # no word-problem engine applies to this one
    Group("gens: a b;rel: aabbb", "ab", "aabbb"),
)}


def bs_group(m, n):
    """<a, t | t a^m t^-1 a^-n>, named as decide_bs_magnus's m and n."""
    a, t = 1, 2
    rel = ((t,) + (a if m > 0 else -a,) * abs(m) + (-t,)
           + (-a if n > 0 else a,) * abs(n))
    return Group(f"BS {m} {n}", "at", alg.fmt("at", rel))


_QUOTIENTS = {}


def quotient(group):
    """A fixed non-abelian permutation quotient of the group."""
    if group.name not in _QUOTIENTS:
        rng = random.Random("quotient:" + group.name)
        _QUOTIENTS[group.name] = alg.Quotient.find(rng, group.k,
                                                   group.relators)
    return _QUOTIENTS[group.name]


class Query:
    __slots__ = ("kind", "text", "args", "key", "round")

    def __init__(self, kind, text, args, key):
        self.kind = kind    # query class, for the per-class summary
        self.text = text    # canonical spelling, hashed for determinism
        self.args = args
        self.key = key
        self.round = None   # index of the round the query belongs to


def rounds(rng, make_round, shuffle=True):
    """The endless stream: round after round, each one fixed mix."""
    index = 0
    while True:
        batch = make_round(rng)
        if shuffle:
            rng.shuffle(batch)
        for q in batch:
            q.round = index
            yield q
        index += 1


# -- word problems -----------------------------------------------------------

def wp_word(rng, group, length, kind):
    """A word with its triviality key.

    trivial: a product of conjugated relator rotations.  zero-sum: such a
    product with a commutator spliced in whose image in a finite quotient is
    not the identity, so the abelian filter cannot decide it.  nonzero-sum:
    a generator power spliced in so the exponent vector leaves the relator's
    multiples."""
    k = group.k
    if kind == "trivial":
        return alg.trivial_word(rng, k, group.relator, length), True
    if kind == "zero-sum":
        # spliced between two products, so the stable-letter excursions
        # (and with them the Britton windows) stay those of single pieces
        c = alg.nontrivial_commutator(rng, k, quotient(group))
        head = rng.randrange(length - len(c) + 1)
        w = alg.mul(alg.trivial_word(rng, k, group.relator, head), c,
                    alg.trivial_word(rng, k, group.relator,
                                     length - len(c) - head))
        if quotient(group).is_identity(w):
            raise RuntimeError("spliced commutator lost its key")
        return w, False
    while True:
        w = alg.trivial_word(rng, k, group.relator, length)
        x = rng.choice([i for i in range(-k, k + 1) if i != 0])
        at = rng.randrange(len(w) + 1)
        w = alg.mul(w[:at], (x,) * rng.randrange(1, 3), w[at:])
        if alg.abelian_nontrivial(w, k, group.relators):
            return w, False


class WpStream:
    """Word problems answered by the engine select_engine picks, one warm
    engine per group for the whole run."""

    name = "wp-stream"
    GROUPS = ("S2", "S3", "N2", "N3", "BURNS", "BS 2 3")
    LENGTHS = (24, 60, 150, 380, 760, 1226)
    # per group and round: a trivial word at every length, zero-sum
    # non-trivial words at four of them, nonzero-sum ones at two
    PLAN = (("trivial", (0, 1, 2, 3, 4, 5)), ("zero-sum", (0, 2, 4, 5)),
            ("nonzero-sum", (1, 3)))
    TAIL_PERCENTILE = 90

    def setup(self, submon):
        env = {"submon": submon, "pres": {}, "engines": {}}
        for name in self.GROUPS:
            pres = GROUPS[name].presentation(submon)
            env["pres"][name] = pres
            env["engines"][name] = submon.select_engine(pres)
        return env

    def queries(self, seed):
        def make_round(rng):
            batch = []
            for name in self.GROUPS:
                group = GROUPS[name]
                for kind, rungs in self.PLAN:
                    for r in rungs:
                        w, trivial = wp_word(rng, group, self.LENGTHS[r], kind)
                        batch.append(Query(
                            f"{name}:{kind}", f"wp {name} {group.fmt(w)}",
                            (name, w), trivial))
            return batch
        return rounds(random.Random(f"wp-stream:{seed}"), make_round)

    def prepare(self, env, q):
        name, letters = q.args
        return env["submon"].Word(env["pres"][name].alphabet, letters)

    def execute(self, env, q, word):
        return env["engines"][q.args[0]].is_trivial(word)

    def check(self, env, q, word, answer):
        if answer is q.key:
            return "decided", None
        return "failed", f"answered {answer!r}, key says {q.key!r}"


# -- membership deciders -------------------------------------------------------

class Checker:
    """Group equality through an engine other than the deciding one."""

    def __init__(self, submon):
        self.submon = submon
        self._engines = {}

    def _engine(self, key, make):
        if key not in self._engines:
            self._engines[key] = make()
        return self._engines[key]

    def equal(self, group, other_than, u, v):
        """u == v in the group; None when no second engine applies."""
        d = alg.mul(u, alg.inverse(v))
        if not d:
            return True
        name = group.name
        if name.startswith("BS "):
            _, m, n = name.split()
            return alg.bs_trivial(int(m), int(n), d)
        if name in ("S2", "S3"):
            return alg.dehn_trivial(group.relator, d)
        from submon.magnus import BrittonEngine, FbcGroup, substitute_generator
        pres = group.presentation(self.submon)
        word = self.submon.Word(pres.alphabet, d)
        if name in ("N2", "N3"):
            def make():
                stable = group.names[0]
                new, forward = substitute_generator(
                    pres, group.names[1], "x", f"x {stable}'")
                return FbcGroup(new, stable), forward
            fbc, forward = self._engine(name, make)
            return fbc.is_trivial(forward(word))
        if name == "BURNS":
            if other_than == "fbc":
                eng = self._engine("BURNS/britton",
                                   lambda: BrittonEngine(pres, "a"))
            else:
                eng = self._engine("BURNS/fbc", lambda: FbcGroup(pres, "t"))
            return eng.is_trivial(word)
        return None


def product(rng, gens, count, signed=False):
    """(indices, letters) of a random product of `count` generators."""
    idx = [rng.randrange(len(gens)) for _ in range(count)]
    if signed:
        idx = [i + 1 if rng.random() < 0.5 else -(i + 1) for i in idx]
        letters = alg.mul(*(gens[i - 1] if i > 0 else alg.inverse(gens[-i - 1])
                            for i in idx))
    else:
        letters = alg.mul(*(gens[i] for i in idx))
    return idx, letters


def splice_relator(rng, group, letters):
    g = alg.random_word(rng, group.k, rng.randrange(0, 3))
    piece = g + rng.choice(alg.rotations(group.relator)) + alg.inverse(g)
    at = rng.randrange(len(letters) + 1)
    return alg.mul(letters[:at], piece, letters[at:])


def membership_query(rng, group, gens, mode):
    """(query letters, key) for a generating set.  member: a product of
    generators (spliced: with a conjugated relator rotation inside);
    non-member: a product the benchmark's functional sends below zero.
    Returns None when no functional separates the set."""
    if mode in ("member", "spliced"):
        _, w = product(rng, gens, rng.randrange(1, 5))
        if mode == "spliced":
            w = splice_relator(rng, group, w)
        return w, "member"
    phi = alg.separating_functional(group.k, group.relators, gens, rng)
    if phi is None:
        return None
    positive = [i for i, g in enumerate(gens) if alg.functional_value(phi, g) > 0]
    _, w = product(rng, gens, rng.randrange(0, 3))
    w = alg.inverse(alg.mul(w, gens[rng.choice(positive)]))
    if rng.random() < 0.5:
        w = splice_relator(rng, group, w)
    return w, "non-member"


def random_gens(rng, group, count, max_len=3):
    out = []
    while len(out) < count:
        w = alg.random_word(rng, group.k, rng.randrange(1, max_len + 1))
        if w not in out:
            out.append(w)
    return out


def signed_letters(k):
    return [x for i in range(1, k + 1) for x in (i, -i)]


def signed_subset(rng, k, both, most=None):
    """Two or more signed generators.  With `both`, exactly one generator
    comes with both signs, which leaves no positive functional on the set;
    without, every generator comes with one sign.  Deciders spend very
    different times on the two kinds, so each round fixes their numbers."""
    most = min(most or k + 1, k + 1)
    chosen = rng.sample(range(1, k + 1), rng.randrange(1 if both else 2,
                                                        most if both else
                                                        min(most, k) + 1))
    out = [x * rng.choice((1, -1)) for x in chosen]
    if both:
        out.append(-out[0])
    rng.shuffle(out)
    return out


BS_LETTERS = ("a", "A", "t", "T")


def prefix_gens(g, orientable):
    if orientable and g == 2:
        names = "abcd"
        return [alg.parse(names, t)
                for t in ("a", "ab", "abA", "abAB", "d", "dc", "dcD", "dcDC")]
    rel = GROUPS[f"{'S' if orientable else 'N'}{g}"].relator
    return [rel[:i] for i in range(1, len(rel))]


class Case:
    """One decide-mix query before it is a Query: the call and its key."""

    def __init__(self, kind, group, gens, word, key, decided_by, call):
        self.kind = kind
        self.group = group
        self.gens = gens            # label -> letters, for witnesses
        self.word = word
        self.key = key              # "member", "non-member", or a dict
        self.decided_by = decided_by  # the decider's engine, to avoid
        self.call = call            # ("lib", fn, args) or ("cli", argv)


class DecideMix:
    """Short membership queries through every public decider, each with a
    fresh generating set, plus a fixed share through the command line."""

    name = "decide-mix"
    SS_GROUPS = ("S2", "S3", "N2", "BURNS", "BS 2 3", "gens: a b;rel: aabbb")
    MAGNUS = ((2, True), (2, False), (3, False))
    PREFIX = ((2, True), (3, True), (2, False), (3, False))
    BS_PARAMS = ((2, 3), (1, 2), (3, 2), (2, -3), (-2, 3), (1, -2))
    POWERS_GROUPS = ("S2", "N2", "BURNS")
    # library calls search to depth 8 over at most 20k states, so that an
    # exhausted search costs tens of milliseconds rather than the default
    # 200k states' half second; command-line calls keep the default
    BUDGET = (8, 20_000)
    TAIL_PERCENTILE = 98

    def setup(self, submon):
        import submon.cli  # noqa: F401  (part of what this workload loads)
        env = {"submon": submon, "pres": {}, "engines": {}}
        for name in self.SS_GROUPS + ("N3",):
            pres = GROUPS[name].presentation(submon)
            env["pres"][name] = pres
            env["engines"][name] = submon.select_engine(pres)
        env["checker"] = Checker(submon)
        return env

    # each maker returns a Case, or None to draw again

    def _ss(self, rng, name, mode, via_cli=False):
        group = GROUPS[name]
        gens = random_gens(rng, group, rng.randrange(2, 4))
        made = membership_query(rng, group, gens, mode)
        if made is None:
            return None
        w, key = made
        labels = [group.fmt(g) for g in gens]
        if via_cli:
            call = ("cli", ["member", "--group", name, "--gens",
                            ", ".join(labels), "--word", group.fmt(w)])
        else:
            call = ("lib", "decide_surface_submonoid",
                    ("@pres:" + name, labels, group.fmt(w)))
        return Case(f"{'cli:' if via_cli else ''}member:{mode}", group,
                    dict(zip(labels, gens)), w, key, "select", call)

    def _magnus(self, rng, g, orientable, mode, both, via_cli=False):
        name = f"{'S' if orientable else 'N'}{g}"
        group = GROUPS[name]
        gens = [(x,) for x in signed_subset(rng, group.k, both)]
        made = membership_query(rng, group, gens, mode)
        if made is None:
            return None
        w, key = made
        labels = [group.fmt(x) for x in gens]
        if via_cli:
            # depth 6 keeps the default 200k-state table out of reach
            call = ("cli", ["magnus", "--group", name, "--letters",
                            ",".join(labels), "--word", group.fmt(w),
                            "--depth", "6"])
        else:
            call = ("lib", "decide_surface_magnus",
                    (g, orientable, labels, group.fmt(w)))
        return Case(f"{'cli:' if via_cli else ''}magnus:{name}:{mode}"
                    f"{':both' if both else ''}", group,
                    dict(zip(labels, gens)), w, key, "select", call)

    def _prefix(self, rng, g, orientable, mode, via_cli=False):
        name = f"{'S' if orientable else 'N'}{g}"
        group = GROUPS[name]
        gens = prefix_gens(g, orientable)
        made = membership_query(rng, group, gens, mode)
        if made is None:
            return None
        w, key = made
        labels = [group.fmt(x) for x in gens]
        if via_cli:
            call = ("cli", ["prefix", "--group", name, "--word", group.fmt(w)])
        else:
            call = ("lib", "decide_prefix_surface",
                    (g, orientable, group.fmt(w)))
        return Case(f"{'cli:' if via_cli else ''}prefix:{name}:{mode}", group,
                    dict(zip(labels, gens)), w, key, "select", call)

    def _letters_case(self, rng, group, mode):
        subset = rng.sample(BS_LETTERS, rng.randrange(1, 4))
        gens = [alg.parse(group.names, c) for c in subset]
        made = membership_query(rng, group, gens, mode)
        if made is None:
            return None
        return subset, gens, made

    def _bs(self, rng, m, n, mode, via_cli=False):
        group = bs_group(m, n)
        got = self._letters_case(rng, group, mode)
        if got is None:
            return None
        subset, gens, (w, key) = got
        if via_cli:
            call = ("cli", ["bs-magnus", "--m", str(m), "--n", str(n),
                            "--letters", ",".join(subset),
                            "--word", group.fmt(w)])
        else:
            call = ("lib", "decide_bs_magnus", (m, n, subset, group.fmt(w)))
        return Case(f"{'cli:' if via_cli else ''}bs-magnus:{m},{n}:{mode}",
                    group, dict(zip(subset, gens)), w, key, "bs",
                    call)

    def _burns(self, rng, mode, via_cli=False):
        group = GROUPS["BURNS"]
        got = self._letters_case(rng, group, mode)
        if got is None:
            return None
        subset, gens, (w, key) = got
        if via_cli:
            call = ("cli", ["burns", "--letters", ",".join(subset),
                            "--word", group.fmt(w)])
        else:
            call = ("lib", "decide_burns_magnus", (subset, group.fmt(w)))
        return Case(f"{'cli:' if via_cli else ''}burns:{mode}", group,
                    dict(zip(subset, gens)), w, key, "fbc", call)

    def _positivity(self, rng, mode, via_cli=False):
        group = GROUPS["BURNS"]
        gens = [(1,), (2,)]
        if mode == "member":
            w = tuple(rng.choice((1, 2)) for _ in range(rng.randrange(2, 11)))
            key = "member"
        else:
            w, key = membership_query(rng, group, gens, mode)
        if via_cli:
            call = ("cli", ["positivity", "--group", "BURNS",
                            "--word", group.fmt(w)])
        else:
            call = ("lib", "decide_positivity_fbc",
                    ("@pres:BURNS", group.fmt(w)))
        return Case(f"{'cli:' if via_cli else ''}positivity:{mode}", group,
                    {"a": (1,), "t": (2,)}, w, key, "fbc", call)

    def _powers(self, rng, name, mode, both, via_cli=False):
        group = GROUPS[name]
        gens = [(x,) * rng.randrange(1, 4)
                for x in signed_subset(rng, group.k, both, most=3)]
        made = membership_query(rng, group, gens, mode)
        if made is None:
            return None
        w, key = made
        labels = [group.fmt(p) for p in gens]
        if via_cli:
            call = ("cli", ["powers", "--group", name, "--powers",
                            ", ".join(labels), "--word", group.fmt(w)])
        else:
            call = ("lib", "powers_decider",
                    ("@pres:" + name, labels, group.fmt(w)))
        return Case(f"{'cli:' if via_cli else ''}powers:{name}:{mode}"
                    f"{':both' if both else ''}", group,
                    dict(zip(labels, gens)), w, key, "select", call)

    def _cli_wp(self, rng):
        name = rng.choice(WpStream.GROUPS)
        group = GROUPS[name]
        kind = rng.choice(("trivial", "zero-sum", "nonzero-sum"))
        w, trivial = wp_word(rng, group, rng.randrange(10, 60), kind)
        return Case("cli:wp", group, None, w, {"wp": trivial}, None,
                    ("cli", ["wp", "--group", name, "--word", group.fmt(w)]))

    def _cli_analyze(self, rng):
        name, stable = rng.choice((("BURNS", "t"), ("BURNS", "a"),
                                   ("BS 2 3", "t"), ("S2", "a"), ("S2", "c"),
                                   ("S3", "b2")))
        group = GROUPS[name]
        sigma, qualifying = alg.max_min(group.names, group.relator, stable)
        return Case("cli:analyze", group, None, (),
                    {"analyze": (sigma, qualifying)}, None,
                    ("cli", ["analyze", "--group", name, "--stable", stable]))

    def _cli_reduce_dg(self, rng):
        group = GROUPS["BURNS"]
        gens = []
        while len(gens) < rng.randrange(2, 4):
            w = alg.random_word(rng, 2, rng.randrange(1, 5))
            if alg.exponent_vector(w, 2)[1] >= 0 and w not in gens:
                gens.append(w)
        _, q = product(rng, gens, rng.randrange(1, 4))
        js = [alg.exponent_vector(g, 2)[1] for g in gens]
        return Case("cli:reduce-dg", group, None, q,
                    {"reduce-dg": js}, None,
                    ("cli", ["reduce-dg", "--group", "BURNS", "--stable", "t",
                             "--gens", ", ".join(group.fmt(g) for g in gens),
                             "--query", group.fmt(q)]))

    def _cli_signs(self, rng):
        name = rng.choice(("S2", "N2", "BURNS", "BS 2 3"))
        group = GROUPS[name]
        gens = random_gens(rng, group, rng.randrange(2, 5))
        vectors = [alg.exponent_vector(g, group.k) for g in gens]
        gen, signs = group.names[0], [1] * len(gens)
        for i, t in enumerate(group.names):
            if any(v[i] for v in vectors):
                gen, signs = t, [1 if v[i] >= 0 else -1 for v in vectors]
                break
        return Case("cli:signs", group, None, (),
                    {"signs": (gen, signs)}, None,
                    ("cli", ["signs", "--group", name, "--gens",
                             ", ".join(group.fmt(g) for g in gens)]))

    def _cli_gadget(self, rng):
        name = rng.choice(("S2", "N2", "BURNS", "BS 2 3"))
        group = GROUPS[name]
        gens = random_gens(rng, group, rng.randrange(1, 4))
        return Case("cli:gadget", group, None, (),
                    {"gadget": len(gens)}, None,
                    ("cli", ["gadget", "--group", name, "--gens",
                             ", ".join(group.fmt(g) for g in gens)]))

    def _plan(self):
        """(maker, args) for one round."""
        plan = []
        for name in self.SS_GROUPS:
            modes = ("member", "member", "non-member") if name.startswith(
                "gens:") else ("member", "spliced", "non-member")
            plan += [(self._ss, (name, m)) for m in modes]
        for mode in ("member", "non-member"):
            # in N2 a generator with both signs leaves no functional key
            plan += [(self._magnus, (g, o, mode, both))
                     for g, o in self.MAGNUS for both in (False, True)
                     if not (both and mode == "non-member" and (g, o) == (2, False))]
            plan += [(self._prefix, (g, o, mode)) for g, o in self.PREFIX]
            plan += [(self._bs, (m, n, mode)) for m, n in self.BS_PARAMS]
            plan += [(self._burns, (mode,))] * 2
            plan += [(self._positivity, (mode,))]
            plan += [(self._powers, (name, mode, both))
                     for name in self.POWERS_GROUPS for both in (False, True)
                     if not (both and mode == "non-member" and name == "N2")]
        # the command line share: every command of the README once
        plan += [
            (self._ss, ("S2", "member", True)),
            (self._prefix, (2, False, "non-member", True)),
            (self._cli_wp, ()),
            (self._cli_analyze, ()),
            (self._bs, (2, 3, "member", True)),
            (self._burns, ("non-member", True)),
            (self._magnus, (2, True, "member", False, True)),
            (self._positivity, ("member", True)),
            (self._cli_reduce_dg, ()),
            (self._powers, ("S2", "member", False, True)),
            (self._cli_signs, ()),
            (self._cli_gadget, ()),
        ]
        return plan

    def queries(self, seed):
        plan = self._plan()

        def make_round(rng):
            batch = []
            for maker, args in plan:
                for _ in range(100):
                    case = maker(rng, *args)
                    if case is not None:
                        break
                else:
                    raise RuntimeError(f"{maker.__name__}{args}: no keyed query")
                call = case.call
                text = (" ".join(["cli"] + call[1]) if call[0] == "cli"
                        else f"{call[1]} {json.dumps(call[2])}")
                batch.append(Query(case.kind, text, case, case.key))
            return batch
        return rounds(random.Random(f"decide-mix:{seed}"), make_round)

    def prepare(self, env, q):
        call = q.args.call
        if call[0] == "cli":
            return call[1] + ["--json"]
        args = [env["pres"][a[len("@pres:"):]]
                if isinstance(a, str) and a.startswith("@pres:") else a
                for a in call[2]]
        from submon.distortion import SearchBudget
        return args + [SearchBudget(*self.BUDGET)]

    def execute(self, env, q, prepared):
        submon = env["submon"]
        call = q.args.call
        if call[0] == "lib":
            return getattr(submon, call[1])(*prepared)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = submon.cli.main(prepared)
        return code, out.getvalue(), err.getvalue()

    def check(self, env, q, prepared, answer):
        case = q.args
        if case.call[0] == "cli":
            code, out, err = answer
            try:
                payload = json.loads(out) if out.strip() else None
            except ValueError:
                return "failed", f"exit {code}, output is not JSON"
            if isinstance(case.key, dict):
                return self._check_cli_special(case, code, payload)
            if payload is None:
                return "failed", f"exit {code}: {err.strip()[:120]}"
            want = {"member": 0, "non-member": 1, "unknown": 2}
            if want.get(payload.get("verdict")) != code:
                return "failed", f"exit {code} for {payload.get('verdict')}"
            return self._check_verdict(env, case, payload["verdict"],
                                       payload["witness"])
        return self._check_verdict(env, case, answer.outcome, answer.witness)

    def _check_verdict(self, env, case, outcome, witness):
        if outcome == "unknown":
            return "undecided", None
        if outcome == "non-member":
            if case.key == "member":
                return "failed", "member by construction answered non-member"
            return "decided", None
        if case.key == "non-member":
            return "failed", "key says non-member, answered member"
        try:
            letters = alg.mul(*(case.gens[label] for label in witness))
        except KeyError as e:
            return "failed", f"witness label {e} is not a generator"
        same = env["checker"].equal(case.group, case.decided_by, letters,
                                    case.word)
        if same is None:
            return "failed", "witness not freely equal and no second engine"
        if not same:
            return "failed", "witness does not multiply back to the query"
        return "decided", None

    def _check_cli_special(self, case, code, payload):
        (kind, want), = case.key.items()
        if payload is None:
            return "failed", f"{kind}: exit {code} without output"
        if kind == "wp":
            ok = payload.get("answer") is want and code == (0 if want else 1)
        elif kind == "analyze":
            sigma, qualifying = want
            ok = (payload.get("sigma") == sigma
                  and payload.get("qualifying") == qualifying
                  and code == (0 if qualifying else 1))
        elif kind == "reduce-dg":
            ok = code == 0 and [g["j"] for g in payload["generators"]] == want
        elif kind == "signs":
            gen, signs = want
            ok = (code == 0 and payload.get("generator") == gen
                  and payload.get("signs") == signs)
        else:  # gadget
            relators = payload["presentation"].count("rel:")
            ok = (code == 0 and len(payload["conjugates"]) == want
                  and relators == len(case.group.relators) + want)
        return ("decided", None) if ok else ("failed", f"{kind} key contradicted")


# -- free-monoid automata ----------------------------------------------------

class FreeMonoid:
    """Generating sets over free groups: build the saturated acceptor and the
    Stallings graph, then answer a batch of queries against each."""

    name = "free-monoid"
    # (generators, shortest, longest, rank of the free group); acceptor
    # states are 1 + sum(len - 1), from a few up to about 500
    SIZES = ((2, 3, 4, 2), (4, 4, 6, 4), (6, 6, 10, 2), (10, 8, 14, 4),
             (16, 10, 18, 2), (24, 12, 22, 4), (32, 8, 24, 4))
    MEMBERS, NON_MEMBERS = 4, 2
    TAIL_PERCENTILE = 97

    def setup(self, submon):
        return {"submon": submon, "current": {}}

    @staticmethod
    def make_set(rng, count, lo, hi, k, cancelling):
        """Generators whose images in a random permutation quotient fix the
        point 0, so anything whose image moves it is outside the monoid and
        the subgroup.  Cancelling sets start each word with the inverse of
        the previous word's tail."""
        # the same lengths every time, lo to hi evenly, so a class always
        # has the same number of acceptor states
        lengths = [lo + (hi - lo) * i // (count - 1) for i in range(count)]
        points = list(range(5))
        while True:
            images = []
            while all(p[0] == 0 for p in images):
                images = []
                for _ in range(k):
                    rng.shuffle(points)
                    images.append(tuple(points))
            quo = alg.Quotient(images)
            rng.shuffle(lengths)
            gens = []
            for length in lengths:
                for _ in range(1000):
                    head = ()
                    if cancelling and gens:
                        prev = gens[-1]
                        cut = min(rng.randint(1, len(prev) // 2 + 1),
                                  length - 1)
                        head = alg.inverse(prev[len(prev) - cut:])
                    w = head + alg.random_word(rng, k, length - len(head))
                    if (w == alg.reduce(w) and w not in gens
                            and quo.image(w)[0] == 0):
                        gens.append(w)
                        break
                else:
                    break  # no such word under this quotient: draw another
            if len(gens) == count:
                return gens, quo

    def queries(self, seed):
        parity = [0]

        def make_round(rng):
            batch = []
            parity[0] ^= 1
            for i, (count, lo, hi, k) in enumerate(self.SIZES):
                # every class alternates between cancelling and plain sets
                cancelling = (i + parity[0]) % 2 == 0
                gens, quo = self.make_set(rng, count, lo, hi, k, cancelling)
                tag = f"{count}x{hi}"
                names = "abcd"[:k]
                text = " ".join(alg.fmt(names, g) for g in gens)
                ops = [Query(f"acceptor-build:{tag}", f"acc {text}",
                             ("acc-build", k, gens), None),
                       Query(f"stallings-build:{tag}", f"stall {text}",
                             ("stall-build", k, gens), None)]
                for kind in ("acc", "stall"):
                    for _ in range(self.MEMBERS):
                        idx, w = product(rng, gens, rng.randrange(1, 6),
                                         signed=kind == "stall")
                        ops.append(Query(f"{kind}-query:member",
                                         f"{kind}? {alg.fmt(names, w)}",
                                         (kind + "-query", k, w),
                                         ("member", len(idx))))
                    for _ in range(self.NON_MEMBERS):
                        while True:
                            w = alg.random_word(rng, k, rng.randrange(4, 21))
                            if quo.image(w)[0] != 0:
                                break
                        ops.append(Query(f"{kind}-query:non-member",
                                         f"{kind}? {alg.fmt(names, w)}",
                                         (kind + "-query", k, w),
                                         ("non-member", None)))
                # builds first, then the set's queries in random order
                queries = ops[2:]
                rng.shuffle(queries)
                batch += ops[:2] + queries
            return batch
        return rounds(random.Random(f"free-monoid:{seed}"), make_round,
                      shuffle=False)

    def prepare(self, env, q):
        submon = env["submon"]
        op, k, data = q.args
        alphabet = submon.Alphabet("abcd"[:k])
        if op.endswith("build"):
            env["current"]["gens"] = data
            return alphabet, [submon.Word(alphabet, g) for g in data]
        return submon.Word(alphabet, data)

    def execute(self, env, q, prepared):
        from submon.automata import SaturatedAcceptor, StallingsGraph
        op = q.args[0]
        cur = env["current"]
        if op == "acc-build":
            cur["acc"] = SaturatedAcceptor(*prepared)
            return None
        if op == "stall-build":
            cur["stall"] = StallingsGraph(*prepared)
            return None
        if op == "acc-query":
            acc = cur["acc"]
            return acc.factor_count(prepared), acc.witness(prepared)
        graph = cur["stall"]
        return graph.contains(prepared), graph.witness(prepared)

    def check(self, env, q, prepared, answer):
        op = q.args[0]
        if op.endswith("build"):
            return "decided", None
        gens = env["current"]["gens"]
        want, factors = q.key
        first, witness = answer
        if want == "non-member":
            if not (first is None or first is False) or witness is not None:
                return "failed", f"{op}: quotient key says non-member"
            return "decided", None
        if first is None or first is False or witness is None:
            return "failed", f"{op}: product of generators not found"
        if op == "acc-query":
            if len(witness) != first or first > factors:
                return "failed", "factor count disagrees with the witness"
            got = alg.mul(*(gens[i] for i in witness))
        else:
            got = alg.mul(*(gens[i - 1] if i > 0 else alg.inverse(gens[-i - 1])
                            for i in witness))
        if got != q.args[2]:
            return "failed", f"{op}: witness does not multiply back"
        return "decided", None


WORKLOADS = {w.name: w for w in (WpStream(), DecideMix(), FreeMonoid())}
