"""Membership deciders for submonoids of one-relator groups.

Every decision returns a Verdict.  Member verdicts carry a witness that is
re-verified against a word-problem engine before being returned; non-member
verdicts carry a certificate (a sign obstruction, an exhausted certified
search bound, a normal-form letter outside the allowed set, or an image
outside the image submonoid); everything else is an honest unknown, naming
the search budget that ran out, with a machine-readable instance attached
when one can be built.

On surface groups and BS(m, n) every route tries the image route before it
searches.  Each free collapse f of the group (`free_collapses`) maps a
product of generators to the product of their images, so when the Benois
acceptor rejects f(w) for Mon<f(gens)>, w is a non-member (method "image",
with the collapse and f(w) in the certificate); when the acceptor's
factorization of f(w), multiplied out over the generators, equals w in the
group, w is a member (method "image-lift").  Otherwise the next collapse,
then the search, decides.

A `SubmonoidDecider` runs these routes for one generating set and keeps
what depends on the set alone (engine, acceptors, factor bounds) across
queries.  `decide_surface_submonoid` asks a fresh one; the prefix monoid of
each surface group has one for good (`prefix_decider`), so prefix queries
run the same routes, with "prefix" leading the methods.
"""

from functools import cached_property, lru_cache
from math import gcd

from submon.words import (
    Alphabet, Word, Presentation, GroupHom, invert_letters, product,
    solve_relator,
)
from submon.magnus import (
    MagnusError, magnus_rewrite, britton_engine, FbcGroup, sub_name,
    sub_invert, substitute_generator,
)
from submon.automata import StallingsGraph, SaturatedAcceptor, no_cancellation
from submon.distortion import (
    SearchBudget, bounded_search, positive_functional, functional_value,
    free_image_graded,
)
from submon.presentations import (
    surface_presentation, nonorientable_presentation, bs_presentation,
    burns_presentation, prefix_generators, free_collapses, select_engine,
    BsEngine,
)
from submon.rewrite import bs_system, closure_membership, ClosureError
from submon.verdict import Verdict


class DeciderError(ValueError):
    pass


def _parse_word(presentation, item):
    return item if isinstance(item, Word) else presentation.word(item)


def _parse_words(presentation, items):
    return [_parse_word(presentation, item) for item in items]


def _product(gens, picks, alphabet):
    return product(alphabet, (gens[i].free_reduce().letters for i in picks))


def _verified_member(engine, gens, labels, picks, word, methods,
                     certificate=None, bound=None):
    """The one exit for a member verdict with a witness: the product of the
    picked generators is checked against the query through the engine
    first, by an explicit raise that `python -O` keeps."""
    if engine is not None:
        if not engine.equal(_product(gens, picks, word.alphabet), word):
            raise AssertionError("witness failed verification")
    return Verdict.member([labels[i] for i in picks], methods=methods,
                          certificate=certificate, bound=bound)


def _certified_search(gens, labels, word, engine, bound=None, budget=None,
                      methods=(), certificate=None):
    """Search tail shared by the deciders.

    `bound` is a proven cap on factor counts; covering it with a certified
    search turns a miss into a non-member verdict.  Without it, or without
    an engine (the search then only covered the free group), a miss is
    unknown.
    """
    budget = budget or SearchBudget(8)
    depth = budget.max_depth if bound is None else min(bound, budget.max_depth)
    res = bounded_search(
        gens, word, SearchBudget(depth, budget.max_states, budget.group_checks),
        engine=engine)
    methods = list(methods) + [res.method]
    if res.found:
        return _verified_member(engine, gens, labels, res.witness, word,
                                methods, certificate, bound=depth)
    if bound is not None and depth >= bound and res.complete and res.certified:
        cert = dict(certificate or {})
        cert["exhausted"] = depth
        return Verdict.non_member(cert, methods=methods, bound=depth)
    methods.append("semi-decision")
    return Verdict.unknown(methods=methods,
                           certificate=dict(certificate or {}, limit=res.limit),
                           bound=depth)


class DgInstance:
    """Membership instance over a subscript window: generators in the form
    stable^j u with u over the window letters, plus the splitting data
    `hnn`, which also holds the presentation, the stable letter, the
    window, its interval presentation and the eliminated generator."""

    def __init__(self, hnn, generators, labels, query=None, inverted=False):
        self.hnn = hnn
        self.generators = generators
        self.labels = labels
        self.query = query
        self.inverted = inverted

    @property
    def groups(self):
        """Generators bucketed by stable exponent: W0 holds the kernel-side
        ones, W'j the exponent-j ones."""
        out = {"W0": []}
        for (j, u), label in zip(self.generators, self.labels):
            key = "W0" if j == 0 else f"W'{j}"
            out.setdefault(key, []).append(label)
        return out

    def serialize(self):
        hnn = self.hnn
        ip, basis = hnn.ip, hnn.basis
        base = ip.original.alphabet
        p_gens = [sub_name(base, g, s) for g, s in hnn.P_letters]
        return {
            "presentation": ip.original.format(),
            "stable": ip.stable,
            "eliminated": basis.gen,
            "window": [ip.n, ip.m],
            "interval": ip.full_presentation.format(),
            "basis": list(basis.alphabet.names),
            "substitutions": {
                name: basis.expressions[name].format()
                for name in sorted(basis.expressions)
            },
            "pGens": p_gens,
            "qGens": [sub_name(base, g, s) for g, s in hnn.Q_letters],
            "phi": dict(zip(p_gens, (w.format() for w in hnn.Q_words))),
            "generators": [
                {"j": j, "u": u.format(), "label": label}
                for (j, u), label in zip(self.generators, self.labels)
            ],
            "query": (None if self.query is None
                      else {"j": self.query[0], "u": self.query[1].format()}),
            "inverted": self.inverted,
            "groups": self.groups,
        }


def reduce_to_dg_instance(presentation, stable, gens, query=None):
    """Rewrite a generating set into stable^j u coordinates over a window
    wide enough for every u, with the splitting data attached.

    The relator report, the eliminated generator and the splitting come
    from the presentation's Britton engine (`britton_engine`), whose window
    cache they share, and every decomposition is checked through that
    engine before the instance is returned."""
    gens = _parse_words(presentation, gens)
    labels = [w.format() for w in gens]
    if query is not None:
        query = _parse_word(presentation, query)
    try:
        engine = britton_engine(presentation, stable)
    except MagnusError as e:
        raise DeciderError(str(e)) from None
    report = engine.report
    alphabet = presentation.alphabet
    names = alphabet.names
    t_letter = alphabet.letter(stable)

    js = [w.exponent_sum(stable) for w in gens]
    inverted = False
    if any(j < 0 for j in js):
        if any(j > 0 for j in js):
            raise DeciderError(
                f"mixed {stable!r} exponent signs across the generating set")
        inverted = True
        gens = [~w for w in gens]
        if query is not None:
            query = ~query

    def decompose(w):
        j = w.exponent_sum(stable)
        head = Word(alphabet, (-t_letter,) * j if j >= 0 else (t_letter,) * -j)
        image = magnus_rewrite(head * w, stable)
        return j, image.triples

    decomps = [decompose(w) for w in gens]
    query_decomp = decompose(query) if query is not None else None
    all_triples = [t for _, ts in decomps for t in ts]
    if query_decomp is not None:
        all_triples.extend(query_decomp[1])
    lows = [s - report.stats[names[g]]["min"] for g, s, _ in all_triples]
    highs = [s - report.stats[names[g]]["max"] for g, s, _ in all_triples]
    n = min(lows, default=0)
    m = max(highs + [n + 1])
    hnn = engine.window(n, m)
    ip = hnn.ip
    generators = [(j, ip.word_from_triples(ts)) for j, ts in decomps]
    query_pair = (None if query_decomp is None else
                  (query_decomp[0], ip.word_from_triples(query_decomp[1])))

    for (j, ts), w in zip(decomps, gens):
        letters = [t_letter] * j if j >= 0 else [-t_letter] * -j
        for g, s, e in ts:
            body = [t_letter] * s if s >= 0 else [-t_letter] * -s
            letters.extend(body + [e * alphabet.letter(names[g])]
                           + [-x for x in reversed(body)])
        rebuilt = Word(alphabet, letters)
        if not engine.equal(rebuilt, w):
            raise AssertionError("window decomposition failed to verify")

    return DgInstance(hnn, generators, labels, query_pair, inverted)


def _residual_instance(presentation, stables, gens, word):
    """The DG instance over the first of the stable letters that admits
    one, or None."""
    for stable in stables:
        try:
            return reduce_to_dg_instance(presentation, stable, gens,
                                         query=word)
        except (DeciderError, MagnusError):
            continue
    return None


class SubmonoidDecider:
    """Membership in the submonoid generated by one generating set.

    Holds what depends only on the generating set: the parsed generators,
    their labels, the word-problem engine, one image acceptor per free
    collapse (built when a query first needs it), and the two proven factor
    bounds, the positive functional `psi` and the graded free image
    `graded` (computed on first use).  A decider kept for a generating set
    (`prefix_decider`) pays for each of them once; a query settled as the
    identity pays for none.

    `decide` runs the routes in order: positive functional (complete),
    graded free image (complete when the composed bound fits the budget),
    bounded search (member or unknown).  On surface groups and BS(m, n)
    each route runs the image route first and searches only when no
    collapse settles the query.  An unknown from the last route carries the
    DG instance of the residual problem, built only then, with "instance"
    leading its methods.
    """

    def __init__(self, presentation, gens, labels=None, engine=None):
        self.presentation = presentation
        self.gens = _parse_words(presentation, gens)
        self.labels = ([w.format() for w in self.gens] if labels is None
                       else labels)
        self.engine = (select_engine(presentation) if engine is None
                       else engine)
        self._acceptors = {}

    @cached_property
    def psi(self):
        """A functional positive on every generator, or None."""
        return positive_functional(self.presentation, self.gens)

    @cached_property
    def graded(self):
        """The graded free image through the collapse onto a free group,
        or None."""
        f = dict(free_collapses(self.presentation)).get("collapse")
        if f is None:
            return None
        return free_image_graded(self.presentation, f, self.gens)

    def _image(self, word, methods, certificate=None, bound=None):
        """The image route: a verdict from the first free collapse that
        settles the query, or None when none does."""
        for name, f in free_collapses(self.presentation):
            acceptor = self._acceptors.get(name)
            if acceptor is None:
                acceptor = self._acceptors[name] = SaturatedAcceptor(
                    f.target, [f(g) for g in self.gens])
            image = f(word)
            picks = acceptor.witness(image)
            if picks is None:
                cert = dict(certificate or {}, hom=name, image=image.format(),
                            reason="image outside the image submonoid")
                return Verdict.non_member(cert, methods=methods + ["image"])
            if self.engine.equal(_product(self.gens, picks, word.alphabet),
                                 word):
                return _verified_member(self.engine, self.gens, self.labels,
                                        picks, word, methods + ["image-lift"],
                                        certificate, bound=bound)
        return None

    def decide(self, word, budget=None):
        word = _parse_word(self.presentation, word)
        gens, labels, engine = self.gens, self.labels, self.engine
        w0 = word.free_reduce()
        if not w0 or (engine is not None and engine.is_trivial(word)):
            return Verdict.member([], methods=["identity"])
        if not any(w.free_reduce() for w in gens):
            if engine is not None:
                return Verdict.non_member(
                    {"reason": "the generating set only spans the identity"},
                    methods=["identity"])
            return Verdict.unknown(methods=["identity"])

        methods = []
        if self.psi is not None:
            val = functional_value(self.psi, word)
            methods.append("functional")
            cert = {"functional": self.psi, "value": val}
            if val < 0:
                cert["reason"] = "negative functional value"
                return Verdict.non_member(cert, methods=methods)
            if val == 0:
                if engine is not None:
                    cert["reason"] = "only the empty product has value 0"
                    return Verdict.non_member(cert, methods=methods)
                return Verdict.unknown(methods=methods, certificate=cert)
            return (self._image(word, methods, cert, val)
                    or _certified_search(gens, labels, word, engine,
                                         bound=val, budget=budget,
                                         methods=methods, certificate=cert))

        graded = self.graded
        if graded is not None:
            methods.append("free-image")
            bound = graded.budget.bound(len(w0))
            cert = {
                "kind": graded.kind,
                "slope": graded.budget.slope,
                "offset": graded.budget.offset,
                "stretch": graded.data.get("stretch"),
            }
            return (self._image(word, methods, cert, bound)
                    or _certified_search(gens, labels, word, engine,
                                         bound=bound, budget=budget,
                                         methods=methods, certificate=cert))

        verdict = (self._image(word, methods)
                   or _certified_search(gens, labels, word, engine,
                                        budget=budget, methods=methods))
        if verdict.is_unknown and self.presentation.is_one_relator:
            verdict.instance = _residual_instance(
                self.presentation, self.presentation.alphabet.names, gens,
                word)
            if verdict.instance is not None:
                verdict.methods.insert(0, "instance")
        return verdict


def decide_surface_submonoid(presentation, gens, word, budget=None,
                             labels=None, engine=None):
    """Membership of a word in the submonoid generated by given words: one
    query to a fresh `SubmonoidDecider`."""
    return SubmonoidDecider(presentation, gens, labels, engine).decide(
        word, budget)


def _single_letters(presentation, items):
    words = _parse_words(presentation, items)
    letters = []
    for w in words:
        r = w.free_reduce()
        if len(r) != 1:
            raise DeciderError(f"{w.format()!r} is not a signed generator")
        letters.append(r.letters[0])
    return words, letters


def decide_surface_magnus(g, orientable, letters, word, budget=None):
    """Membership for submonoids generated by signed generators of a
    surface group, under the condition that some generator is missing a
    sign from the set."""
    pres = surface_presentation(g) if orientable else nonorientable_presentation(g)
    gens, lits = _single_letters(pres, letters)
    word = _parse_word(pres, word)
    labels = [w.format() for w in gens]
    signed = set(lits)
    k = len(pres.alphabet)
    if orientable:
        if all(i in signed and -i in signed for i in range(1, k + 1)):
            raise DeciderError("every generator occurs with both signs")
        return decide_surface_submonoid(pres, gens, word, budget,
                                        labels=labels)
    return _nonorientable_magnus(pres, gens, lits, labels, word, budget)


def _whole_group_witness(pres, lits, word, positive):
    """Generator picks spelling a word over all-positive (or all-negative)
    generators, using the cyclic relator conjugates to flip letters of the
    wrong sign."""
    k = len(pres.alphabet)
    position = {lit: i for i, lit in enumerate(lits)}
    out = []
    for x in word.letters:
        i = abs(x)
        if (x > 0) == positive:
            out.append(position[x])
            continue
        # a_i^-1 = a_i a_{i+1}^2 ... a_{i-1}^2 from the rotated relator,
        # and its mirror image on the negative side
        sign = 1 if positive else -1
        out.append(position[sign * i])
        order = range(1, k) if positive else range(k - 1, 0, -1)
        for step in order:
            j = (i - 1 + step) % k + 1
            out.extend([position[sign * j]] * 2)
    return out


def _nonorientable_magnus(pres, gens, lits, labels, word, budget,
                          flipped=False):
    k = len(pres.alphabet)
    signed = set(lits)
    engine = select_engine(pres)
    w0 = word.free_reduce()
    if not w0 or engine.is_trivial(word):
        return Verdict.member([], methods=["identity"])
    for positive in (True, False):
        want = range(1, k + 1) if positive else range(-k, 0)
        if all(i in signed for i in want):
            picks = _whole_group_witness(pres, lits, word, positive)
            cert = {"reason": "all generators present with one sign",
                    "sign": "+" if positive else "-"}
            return _verified_member(engine, gens, labels, picks, word,
                                    ["whole-group"], cert)
    pick = None
    for i in range(1, k + 1):
        if i in signed and -i not in signed:
            pick = i
            break
    if pick is None:
        if flipped:
            return Verdict.unknown(
                methods=["magnus"],
                certificate={"reason": "inversion-closed generating set; "
                                       "subgroup membership is out of scope"})
        inv_gens = [~w for w in gens]
        inv_lits = [-x for x in lits]
        verdict = _nonorientable_magnus(pres, inv_gens, inv_lits, labels,
                                        ~word, budget, flipped=True)
        if verdict.is_member:
            verdict.witness.reverse()
        return verdict
    other = None
    for j in range(1, k + 1):
        if j != pick and j not in signed:
            other = j
            break
    assert other is not None, "all-positive sets are whole-group"
    names = pres.alphabet.names
    fresh = next(nm for nm in ("x", "y", "z") if nm not in names)
    new_pres, forward = substitute_generator(
        pres, names[other - 1], fresh, f"{names[pick - 1]}' {fresh}")
    new_gens = [forward(w) for w in gens]
    verdict = decide_surface_submonoid(new_pres, new_gens, forward(word),
                                       budget, labels=labels)
    verdict.methods.insert(0, "substitution")
    return verdict


@lru_cache(maxsize=None)
def prefix_decider(g, orientable):
    """The decider for the relator prefixes of the genus-g surface group
    (`prefix_generators`), one per genus and orientability.  Its factor
    bound is linear in the query length, as the paper proves for the prefix
    monoid: `psi` on non-orientable groups, `graded` on orientable ones."""
    return SubmonoidDecider(*prefix_generators(g, orientable))


def decide_prefix_surface(g, orientable, word, budget=None):
    """Membership in the prefix monoid through the same routes as
    `decide_surface_submonoid`, with "prefix" leading the methods."""
    verdict = prefix_decider(g, orientable).decide(word, budget)
    verdict.methods.insert(0, "prefix")
    return verdict


_BS_LETTERS = ("a", "A", "t", "T")


def _bs_swap(items, pair):
    lo, hi = pair
    table = {lo: hi, hi: lo}
    return [table.get(x, x) for x in items]


def _letter_subset(letters):
    """The generating set as a list of distinct letters from a, A, t, T,
    a proper nonempty subset."""
    S = []
    for item in letters:
        item = item.strip() if isinstance(item, str) else item
        if item not in _BS_LETTERS or item in S:
            raise DeciderError(f"bad letter {item!r}")
        S.append(item)
    if not S or len(S) == 4:
        raise DeciderError(
            "the generating set must be a proper nonempty subset of a, A, t, T")
    return S


def decide_bs_magnus(m, n, letters, word, budget=None):
    """Membership in the submonoid of BS(m, n) generated by a proper subset
    of the four signed letters."""
    if m == 0 or n == 0 or m == n:
        raise DeciderError(
            f"parameters ({m}, {n}) are outside the decided range")
    S = _letter_subset(letters)
    pres = bs_presentation(m, n)
    word = _parse_word(pres, word)

    swaps = []
    if abs(m) > abs(n):
        m, n = n, m
        swaps.append(("t", "T"))
    if (m < 0 and n < 0) or (m > 0 > n):
        m, n = -m, -n
        swaps.append(("a", "A"))
    work_S = list(S)
    work_word = word
    for pair in swaps:
        work_S = _bs_swap(work_S, pair)
        lo, hi = pair
        i = pres.alphabet.letter(lo)
        flipped = tuple(-x if abs(x) == i else x for x in work_word.letters)
        work_word = Word(pres.alphabet, flipped)
    work_pres = bs_presentation(m, n)
    engine = BsEngine(m, n, work_pres.alphabet)

    def restore(witness):
        out = list(witness)
        for pair in reversed(swaps):
            out = _bs_swap(out, pair)
        return out

    cert_base = {"normalized": {"m": m, "n": n,
                                "swaps": ["".join(p) for p in swaps]}}
    verdict = _bs_decide_normalized(work_pres, engine, m, n, work_S,
                                    work_word, budget, cert_base)
    if verdict.is_member and verdict.witness:
        verdict.witness = restore(verdict.witness)
    return verdict


def _bs_decide_normalized(pres, engine, m, n, S, word, budget, cert_base):
    w0 = word.free_reduce()
    if not w0 or engine.is_trivial(word):
        return Verdict.member([], methods=["identity"])
    gens = [_parse_word(pres, s) for s in S]
    present = set(S)

    if 0 < m < n:
        allowed = set(S)
        for variant in ("positive", "negative"):
            system = bs_system(m, n, variant)
            try:
                ok = closure_membership(system, allowed, word.format())
            except ClosureError:
                continue
            nf = system.normalize(word.format())
            if not engine.equal(_parse_word(pres, nf) if nf else
                                Word(pres.alphabet, ()), word):
                raise AssertionError("normal form failed to verify")
            methods = ["rewriting", variant]
            if ok:
                return _verified_member(engine, gens, S,
                                        [S.index(c) for c in nf], word,
                                        methods,
                                        dict(cert_base, normal_form=nf))
            outside = sorted(set(nf) - allowed)
            cert = dict(cert_base, normal_form=nf, outside_letters=outside,
                        reason="normal form leaves the letter set")
            return Verdict.non_member(cert, methods=methods)
        raise DeciderError("no rewriting variant covers this letter set")

    # mixed signs: m < 0 < n
    p = -m
    methods = ["mixed-pinch"]
    if {"t", "T"} <= present and ("a" in present or "A" in present):
        if "a" in present:
            expansion = {"A": ["a"] * (p - 1) + ["T"] + ["a"] * n + ["t"]}
        else:
            expansion = {"a": ["A"] * (p - 1) + ["T"] + ["A"] * n + ["t"]}
        witness = []
        for x in w0.letters:
            c = pres.alphabet.name_of(x) if x > 0 else pres.alphabet.name_of(x).upper()
            witness.extend(expansion.get(c, [c]))
        cert = dict(cert_base,
                    reason="three of the four letters span the whole group")
        return _verified_member(engine, gens, S,
                                [S.index(c) for c in witness], word,
                                methods + ["whole-group"], cert)
    if present <= {"a", "A"}:
        k = engine.base_power(word)
        cert = dict(cert_base, base_power=k)
        if k is None:
            cert["reason"] = "not in the base subgroup"
            return Verdict.non_member(cert, methods=methods)
        good = (k >= 0 and "a" in present) or (k <= 0 and "A" in present) or k == 0
        if not good:
            cert["reason"] = "base power of the wrong sign"
            return Verdict.non_member(cert, methods=methods)
        witness = ["a"] * k if k >= 0 else ["A"] * -k
        return _verified_member(engine, gens, S,
                                [S.index(c) for c in witness], word,
                                methods, cert)
    if present <= {"t", "T"}:
        j = word.exponent_sum("t")
        cert = dict(cert_base, stable_exponent=j)
        if not engine.is_trivial(word * _parse_word(pres, "t") ** -j):
            cert["reason"] = "not a stable-letter power"
            return Verdict.non_member(cert, methods=methods)
        good = (j >= 0 and "t" in present) or (j <= 0 and "T" in present)
        if not good:
            cert["reason"] = "stable power of the wrong sign"
            return Verdict.non_member(cert, methods=methods)
        witness = ["t"] * j if j >= 0 else ["T"] * -j
        return _verified_member(engine, gens, S,
                                [S.index(c) for c in witness], word,
                                methods, cert)
    j = word.exponent_sum("t")
    if "t" in present and "T" not in present and j < 0:
        return Verdict.non_member(
            dict(cert_base, reason="negative stable exponent", j=j),
            methods=methods)
    if "T" in present and "t" not in present and j > 0:
        return Verdict.non_member(
            dict(cert_base, reason="positive stable exponent", j=j),
            methods=methods)
    return _certified_search(gens, S, word, engine, bound=None, budget=budget,
                             methods=methods, certificate=cert_base)


_BURNS = burns_presentation()
_BURNS_FBC = FbcGroup(_BURNS, "t")


def _tiling_dp(u, factors):
    """Unordered cover of the triple sequence u by factor words; returns the
    key sequence or None."""
    L = len(u)
    if L == 0:
        return []
    reach = [None] * (L + 1)
    reach[0] = (0, None)
    for i in range(L):
        if reach[i] is None:
            continue
        for key, fw in factors.items():
            l = len(fw)
            if l and i + l <= L and u[i:i + l] == fw and reach[i + l] is None:
                reach[i + l] = (i, key)
    if reach[L] is None:
        return None
    out = []
    pos = L
    while pos > 0:
        prev, key = reach[pos]
        out.append(key)
        pos = prev
    out.reverse()
    return out


def _ordered_cover(u, factors, core, stable):
    """The ordered orbit cover of an FBC normal form, as witness letters.

    `factors[k]` is the kernel word of the base letter `core` conjugated k
    steps by the stable letter, for k from 0 to the top exponent.  A cover
    of the kernel word u by factors with k weakly decreasing from the top,
    factor k used c_k times, is the witness
    core^c_top stable core^c_(top-1) ... stable core^c_0.  Returns its
    letters, or None when no such cover exists."""
    top = len(factors) - 1
    dead = set()
    ks = []

    def go(pos, kcap):
        if pos == len(u):
            return True
        if (pos, kcap) in dead:
            return False
        for k in range(kcap, -1, -1):
            fw = factors[k]
            l = len(fw)
            if l and pos + l <= len(u) and u[pos:pos + l] == fw:
                ks.append(k)
                if go(pos + l, k):
                    return True
                ks.pop()
        dead.add((pos, kcap))
        return False

    if not go(0, top):
        return None
    witness = []
    for k in range(top, -1, -1):
        witness.extend([core] * ks.count(k))
        if k:
            witness.append(stable)
    return witness


def decide_burns_magnus(letters, word, budget=None):
    """Membership in the submonoid of the Burns group generated by a proper
    subset of the four signed letters."""
    S = _letter_subset(letters)
    pres = _BURNS
    word = _parse_word(pres, word)
    fbc = _BURNS_FBC
    w0 = word.free_reduce()
    if not w0 or fbc.is_trivial(word):
        return Verdict.member([], methods=["identity"])
    gens = [_parse_word(pres, s) for s in S]
    present = set(S)
    j, u = fbc.normal_form(word)
    methods = ["fbc-normal-form"]
    cert_base = {"j": j, "u": fbc.format(u)}

    def orbit(k):
        return fbc.shift_to_basis(((fbc.g, 0, 1),), k)

    def reject(reason):
        return Verdict.non_member(dict(cert_base, reason=reason),
                                  methods=methods)

    if present <= {"a", "A"}:
        if j != 0:
            return reject("nonzero stable exponent")
        if any(s != 0 or g != fbc.g for g, s, _ in u):
            return reject("kernel part is not a base power")
        e = sum(e for _, _, e in u)
        if e > 0 and "a" not in present:
            return reject("base power of the wrong sign")
        if e < 0 and "A" not in present:
            return reject("base power of the wrong sign")
        witness = ["a"] * e if e >= 0 else ["A"] * -e

    elif present <= {"t", "T"}:
        if u:
            return reject("nontrivial kernel part")
        if j > 0 and "t" not in present:
            return reject("stable power of the wrong sign")
        if j < 0 and "T" not in present:
            return reject("stable power of the wrong sign")
        witness = ["t"] * j if j >= 0 else ["T"] * -j

    elif present == {"t", "T"} | {"a"} or present == {"t", "T"} | {"A"}:
        inverse = "A" in present
        factors = {}
        for direction in (1, -1):
            k = 0 if direction == 1 else -1
            while True:
                fw = orbit(k)
                if inverse:
                    fw = sub_invert(fw)
                if len(fw) > len(u):
                    break
                factors[k] = fw
                k += direction
        methods.append("orbit-tiling")
        tile = _tiling_dp(u, factors)
        if tile is None:
            return reject("kernel part is not a product of orbit conjugates")
        witness = ["t"] * j if j >= 0 else ["T"] * -j
        core = "A" if inverse else "a"
        for k in tile:
            if k >= 0:
                witness.extend(["t"] * k + [core] + ["T"] * k)
            else:
                witness.extend(["T"] * -k + [core] + ["t"] * -k)

    else:
        down = "t" in present
        if down and j < 0:
            return reject("negative stable exponent")
        if not down and j > 0:
            return reject("positive stable exponent")
        if {"a", "A"} <= present:
            # three letters with both base signs: quick sign filter, then
            # search
            return _certified_search(gens, S, word, fbc, bound=None,
                                     budget=budget,
                                     methods=methods + ["mixed-signs"],
                                     certificate=cert_base)
        # one base letter and one stable letter
        inverse = "A" in present
        sign = -1 if down else 1
        factors = [orbit(sign * k) for k in range(abs(j) + 1)]
        if inverse:
            factors = [sub_invert(fw) for fw in factors]
        methods.append("orbit-dp")
        witness = _ordered_cover(u, factors, "A" if inverse else "a",
                                 "t" if down else "T")
        if witness is None:
            return reject("ordered orbit tiling exhausted")

    return _verified_member(fbc, gens, S, [S.index(c) for c in witness], word,
                            methods, dict(cert_base))


def orbit_membership(theta, theta_inv, seeds, word, budget=None):
    """Membership of a free-group word in the monoid generated by the
    automorphism orbit of the seeds.

    Complete when orbit word lengths grow monotonically past the target and
    the collected words concatenate without cancellation; otherwise falls
    back to a budget-bounded search.
    """
    target = word.free_reduce()
    if not target:
        return Verdict.member([], methods=["identity"])
    L = len(target)
    seeds = [s.free_reduce() for s in seeds]
    factors = {}
    probes = []
    monotone = True
    cap = L + 8
    for si, seed in enumerate(seeds):
        for direction, hom in ((1, theta), (-1, theta_inv)):
            cur = seed if direction == 1 else hom(seed)
            k = 0 if direction == 1 else -1
            steps = 0
            while steps < cap:
                steps += 1
                if len(cur) == 0:
                    monotone = False
                    break
                if len(cur) > L:
                    probe = cur
                    for _ in range(3):
                        probes.append(probe.letters)
                        last = len(probe)
                        probe = hom(probe)
                        if len(probe) <= last:
                            monotone = False
                            break
                    break
                factors[(si, k)] = cur.letters
                nxt = hom(cur)
                if len(nxt) < len(cur):
                    monotone = False
                cur = nxt
                k += direction
            else:
                monotone = False
    certified = (monotone and factors
                 and no_cancellation(list(factors.values()) + probes))
    methods = ["orbit"]
    cert = {"factors": {f"{si}:{k}": Word(word.alphabet, fw).format()
                        for (si, k), fw in sorted(factors.items())},
            "certified": bool(certified)}
    gens = [Word(word.alphabet, fw) for fw in factors.values()]
    labels = [w.format() for w in gens]
    tile = _tiling_dp(target.letters, factors)
    if tile is not None:
        keys = list(factors)
        # free group: the tiling spells the target letter for letter
        return _verified_member(None, gens, labels,
                                [keys.index(key) for key in tile], target,
                                methods + ["tiling"], cert)
    if certified:
        cert["reason"] = "no tiling by orbit words"
        return Verdict.non_member(cert, methods=methods + ["tiling"])
    return _certified_search(gens, labels, target, None, bound=None,
                             budget=budget, methods=methods,
                             certificate=cert)


def decide_positivity_fbc(presentation, word, budget=None):
    """Membership in the monoid of positive words of a two-generator
    one-relator group whose relator has zero exponent sum in one generator
    and unique extreme subscripts."""
    if len(presentation.alphabet) != 2 or not presentation.is_one_relator:
        raise DeciderError("needs a two-generator one-relator presentation")
    names = presentation.alphabet.names
    stable = base = fbc = None
    for cand, other in (tuple(reversed(names)), names):
        try:
            fbc = FbcGroup(presentation, cand, other)
        except MagnusError:
            continue
        stable, base = cand, other
        break
    if stable is None:
        raise DeciderError(
            "no stable letter with unique extreme subscripts for the other "
            "generator")
    word = _parse_word(presentation, word)
    gens = [_parse_word(presentation, base), _parse_word(presentation, stable)]
    labels = [base, stable]
    w0 = word.free_reduce()
    if not w0 or fbc.is_trivial(word):
        return Verdict.member([], methods=["identity"])
    j, u = fbc.normal_form(word)
    methods = ["fbc-normal-form"]
    cert = {"j": j, "u": fbc.format(u), "stable": stable}
    if j < 0:
        cert["reason"] = "negative stable exponent"
        return Verdict.non_member(cert, methods=methods)

    factors = [fbc.shift_to_basis(((fbc.g, 0, 1),), -k) for k in range(j + 1)]
    # every factor nonempty, and no last letter cancels a first letter
    if all(factors) and not {fw[-1] for fw in factors} & {
            (g, s, -e) for g, s, e in (fw[0] for fw in factors)}:
        methods.append("orbit-dp")
        witness = _ordered_cover(u, factors, base, stable)
        if witness is None:
            cert["reason"] = "ordered orbit tiling exhausted"
            return Verdict.non_member(cert, methods=methods)
        return _verified_member(fbc, gens, labels,
                                [labels.index(c) for c in witness], word,
                                methods, cert)

    verdict = _certified_search(gens, labels, word, fbc, budget=budget,
                                methods=methods, certificate=cert)
    if verdict.is_unknown:
        verdict.instance = _residual_instance(presentation, [stable], gens,
                                              word)
    return verdict


def choose_signs(presentation, gens):
    """A generator with a nonzero exponent sum somewhere in the set, and a
    sign for each word making those sums nonnegative."""
    gens = _parse_words(presentation, gens)
    for t in presentation.alphabet.names:
        sigmas = [w.exponent_sum(t) for w in gens]
        if any(s != 0 for s in sigmas):
            return t, [1 if s >= 0 else -1 for s in sigmas]
    return presentation.alphabet.names[0], [1] * len(gens)


def powers_decider(presentation, powers, word, budget=None):
    """Membership in the submonoid generated by literal generator powers."""
    ps = _parse_words(presentation, powers)
    word = _parse_word(presentation, word)
    literal = []
    for p in ps:
        r = p.free_reduce()
        if not r or len(set(r.letters)) != 1:
            raise DeciderError(f"{p.format()!r} is not a generator power")
        x = r.letters[0]
        literal.append((abs(x), len(r) * (1 if x > 0 else -1)))
    labels = [p.format() for p in ps]
    engine = select_engine(presentation)
    w0 = word.free_reduce()
    if not w0 or (engine is not None and engine.is_trivial(word)):
        return Verdict.member([], methods=["identity"])
    if not ps:
        if engine is not None:
            return Verdict.non_member(
                {"reason": "empty generating set"}, methods=["powers"])
        return Verdict.unknown(methods=["powers"])

    by_gen = {}
    for idx, k in literal:
        by_gen.setdefault(idx, []).append(k)
    uniform = any(all(k > 0 for k in ks) or all(k < 0 for k in ks)
                  for ks in by_gen.values())
    if uniform:
        verdict = decide_surface_submonoid(presentation, ps, word, budget,
                                           labels=labels)
        verdict.methods.insert(0, "powers")
        return verdict

    # every generator occurs with powers of both signs: the monoid is the
    # subgroup generated by the gcd powers
    d = {idx: gcd(*(abs(k) for k in ks)) if len(ks) > 1 else abs(ks[0])
         for idx, ks in by_gen.items()}
    subgroup = {presentation.alphabet.names[idx - 1]: d[idx] for idx in d}
    cert = {"subgroup": subgroup}

    def bezout_witness(idx, e):
        steps = sorted({k for i, k in literal if i == idx})
        bound = abs(e) + max(abs(k) for k in steps) ** 2 + 1
        seen = {0: None}
        layer = [0]
        while layer and e not in seen:
            grown = []
            for v in layer:
                for k in steps:
                    nv = v + k
                    if abs(nv) <= bound and nv not in seen:
                        seen[nv] = (v, k)
                        grown.append(nv)
            layer = grown
        if e not in seen:
            return None
        out = []
        cur = e
        while seen[cur] is not None:
            prev, k = seen[cur]
            out.append(next(i for i, (gi, gk) in enumerate(literal)
                            if gi == idx and gk == k))
            cur = prev
        out.reverse()
        return out

    if not presentation.relators:
        sub_words = [
            Word(presentation.alphabet,
                 (presentation.alphabet.letter(name),) * k)
            for name, k in subgroup.items()]
        graph = StallingsGraph(presentation.alphabet, sub_words)
        wit = graph.witness(w0)
        if wit is None:
            cert["reason"] = "outside the power subgroup"
            return Verdict.non_member(cert, methods=["powers", "subgroup"])
        sub_idx = list(subgroup)
        witness_idx = []
        for s in wit:
            name = sub_idx[abs(s) - 1]
            idx = presentation.alphabet.index(name) + 1
            e = subgroup[name] * (1 if s > 0 else -1)
            combo = bezout_witness(idx, e)
            assert combo is not None, "gcd power must be reachable"
            witness_idx.extend(combo)
        return _verified_member(engine, ps, labels, witness_idx, word,
                                ["powers", "subgroup"], cert)

    if len(set(w0.letters)) == 1:
        x = w0.letters[0]
        idx, e = abs(x), len(w0) * (1 if x > 0 else -1)
        if idx in d and e % d[idx] == 0:
            combo = bezout_witness(idx, e)
            if combo is not None:
                return _verified_member(engine, ps, labels, combo, word,
                                        ["powers", "bezout"], cert)
    cert["reason"] = "subgroup membership instance not decided here"
    return Verdict.unknown(methods=["powers", "subgroup-instance"],
                           certificate=cert)


class GadgetOutput:
    """A presentation extended by a stable letter and one conjugate per
    generator word, with the generating set that encodes the original
    membership question as a positivity question."""

    def __init__(self, presentation, generators, stable, conjugates, note):
        self.presentation = presentation
        self.generators = generators
        self.stable = stable
        self.conjugates = conjugates
        self.note = note

    def serialize(self):
        return {
            "presentation": self.presentation.format(),
            "generators": list(self.generators),
            "stable": self.stable,
            "conjugates": dict(self.conjugates),
            "note": self.note,
        }


def emit_positivity_gadget(presentation, gens):
    """Extend a presentation so that membership in the submonoid generated
    by the given words becomes a positivity question over the new
    generating set."""
    gens = _parse_words(presentation, gens)
    names = presentation.alphabet.names
    used = set(names)
    stable = next((c for c in "tszuv" if c not in used), None)
    if stable is None:
        i = 0
        while f"t{i}" in used:
            i += 1
        stable = f"t{i}"
    used.add(stable)
    conj_names = []
    i = 1
    while len(conj_names) < len(gens):
        cand = f"g{i}"
        if cand not in used:
            conj_names.append(cand)
            used.add(cand)
        i += 1
    new_alpha = Alphabet(list(names) + [stable] + conj_names)
    relators = [Word(new_alpha, r.letters) for r in presentation.relators]
    t_letter = new_alpha.letter(stable)
    conjugates = {}
    for w, cname in zip(gens, conj_names):
        c_letter = new_alpha.letter(cname)
        relators.append(Word(
            new_alpha, (t_letter,) + w.letters + (-t_letter, -c_letter)))
        conjugates[cname] = w.format()
    new_pres = Presentation(new_alpha, relators)
    note = ("each added relator names the stable-letter conjugate of one "
            "generating word; a word lies in the original submonoid exactly "
            "when it is a positive word over the extended generating set")
    return GadgetOutput(new_pres, list(new_alpha.names), stable, conjugates,
                        note)


def eliminate_defined_generator(presentation, name):
    """Tietze move removing a generator that a relator defines by a single
    occurrence; returns the smaller presentation and the rewriting map."""
    alphabet = presentation.alphabet
    target = alphabet.letter(name)
    chosen = None
    for idx, r in enumerate(presentation.relators):
        occ = [i for i, x in enumerate(r.letters) if abs(x) == target]
        if len(occ) == 1:
            chosen = (idx, occ[0])
            break
    if chosen is None:
        raise DeciderError(f"no relator defines {name!r} by a single occurrence")
    idx, pos = chosen
    r = presentation.relators[idx]
    expr = solve_relator(r.letters, pos, r.letters[pos] > 0, invert_letters)
    new_alpha = Alphabet([nm for nm in alphabet.names if nm != name])
    images = []
    for nm in alphabet.names:
        if nm == name:
            images.append(Word(new_alpha, tuple(
                (1 if x > 0 else -1) * new_alpha.letter(alphabet.name_of(abs(x)))
                for x in expr)))
        else:
            images.append(Word(new_alpha, (new_alpha.letter(nm),)))
    hom = GroupHom(alphabet, new_alpha, images)
    new_relators = [hom(r2) for k, r2 in enumerate(presentation.relators)
                    if k != idx]
    new_relators = [r2 for r2 in new_relators if r2]
    return Presentation(new_alpha, new_relators), hom
