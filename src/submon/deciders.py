"""Membership deciders for submonoids of one-relator groups.

Every decision returns a Verdict.  Member verdicts carry a witness that is
re-verified against a word-problem engine before being returned; non-member
verdicts carry a certificate (a sign obstruction, an exhausted certified
search bound, a normal-form letter outside the allowed set, an image
outside the image submonoid, or a functional on the abelianization that is
>= 0 on every generator and < 0 on the query); everything else is an
honest unknown, naming the search budget that ran out, with a
machine-readable instance attached when one can be built.

On surface groups and BS(m, n) every route tries the image route before it
searches.  Each free collapse f of the group (`free_collapses`) maps a
product of generators to the product of their images, so when the Benois
acceptor rejects f(w) for Mon<f(gens)>, w is a non-member (method "image",
with the collapse and f(w) in the certificate); when the acceptor's
factorization of f(w), multiplied out over the generators, equals w in the
group, w is a member (method "image-lift").  Otherwise the next collapse
decides.  On every group the abelian route comes after the image route and
before the search: a functional that kills every relator, is >= 0 on every
generator and < 0 on w proves w a non-member (method "abelian"), and
`separating_functional` finds one whenever one exists.

A `SubmonoidDecider` runs these routes for one generating set and keeps
what depends on the set alone (engine, acceptors, factor bounds) across
queries.  `decide_surface_submonoid` asks a fresh one; the prefix monoid of
each surface group has one for good (`prefix_decider`), so prefix queries
run the same routes, with "prefix" leading the methods.

The Magnus deciders take a nonempty proper subset of the signed generators,
in any spelling `Word.parse` takes (`_magnus_set`), and work on
signed-integer letters, as `Word` does; their witnesses come back in the
letters the caller gave.  Surface Magnus sets take the general decider, on
N_g after three exact routes (identity, "whole-group", "cyclic").  Burns
and positivity share one FBC Magnus route (`_fbc_magnus`): the positive
monoid of a two-generator FBC group is the Magnus submonoid generated by
its base and stable letters.  The route covers the kernel word u of the
normal form stable^j u by stable-letter conjugates of the base letter with
one cover (`_orbit_cover`): ordered when the set holds one sign of the
stable letter, in any order when it holds both.
"""

from functools import cached_property, lru_cache
from math import gcd

from submon.words import (
    Alphabet, Word, Presentation, GroupHom, WordError, invert_letters,
    product, solve_relator,
)
from submon.magnus import (
    MagnusError, magnus_rewrite, britton_engine, FbcGroup, sub_name,
    substitute_generator,
)
from submon.automata import StallingsGraph, SaturatedAcceptor
from submon.distortion import (
    SearchBudget, bounded_search, positive_functional, functional_value,
    free_image_graded, separating_functional,
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
    bounded search (member or unknown).  Each route then runs the same
    tail: on surface groups and BS(m, n) the image route, then on every
    group the abelian route (`_abelian`), and searches only when neither
    settles the query.  An unknown that no factor bound covered
    carries the DG instance of the residual problem (`residual_instance`),
    built only then, with "instance" leading its methods.
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

    def _abelian(self, word, methods, certificate=None):
        """The abelian route: a non-member verdict from a functional that
        kills every relator, is >= 0 on every generator and < 0 on the
        query, rechecked here in integer arithmetic by an explicit raise
        that `python -O` keeps; None when no such functional exists or the
        elimination gives up.  Its
        `functional` and `value` replace those of the functional route in
        the certificate."""
        psi = separating_functional(self.presentation, self.gens, word)
        if psi is None:
            return None
        values = [functional_value(psi, g) for g in self.gens]
        value = functional_value(psi, word)
        if (any(functional_value(psi, r) for r in self.presentation.relators)
                or min(values) < 0 or value >= 0):
            raise AssertionError("separating functional failed to verify")
        cert = dict(certificate or {}, functional=psi,
                    values=dict(zip(self.labels, values)), value=value,
                    reason="functional >= 0 on every generator and "
                           "negative on the word")
        return Verdict.non_member(cert, methods=methods + ["abelian"])

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

        methods, cert, bound = [], None, None
        if self.psi is not None:
            bound = functional_value(self.psi, word)
            methods.append("functional")
            cert = {"functional": self.psi, "value": bound}
            if bound < 0:
                cert["reason"] = "negative functional value"
                return Verdict.non_member(cert, methods=methods)
            if bound == 0:
                if engine is not None:
                    cert["reason"] = "only the empty product has value 0"
                    return Verdict.non_member(cert, methods=methods)
                return Verdict.unknown(methods=methods, certificate=cert)
        elif self.graded is not None:
            graded = self.graded
            methods.append("free-image")
            bound = graded.budget.bound(len(w0))
            cert = {
                "kind": graded.kind,
                "slope": graded.budget.slope,
                "offset": graded.budget.offset,
                "stretch": graded.data.get("stretch"),
            }

        verdict = (self._image(word, methods, cert, bound)
                   or self._abelian(word, methods, cert)
                   or _certified_search(gens, labels, word, engine,
                                        bound=bound, budget=budget,
                                        methods=methods, certificate=cert))
        if cert is None and verdict.is_unknown:
            verdict.instance = self.residual_instance(word)
            if verdict.instance is not None:
                verdict.methods.insert(0, "instance")
        return verdict

    def residual_instance(self, word):
        """The DG instance of the query over the first generator of a
        one-relator presentation that admits one, or None."""
        if not self.presentation.is_one_relator:
            return None
        return _residual_instance(self.presentation,
                                  self.presentation.alphabet.names, self.gens,
                                  word)


def decide_surface_submonoid(presentation, gens, word, budget=None,
                             labels=None, engine=None):
    """Membership of a word in the submonoid generated by given words: one
    query to a fresh `SubmonoidDecider`."""
    return SubmonoidDecider(presentation, gens, labels, engine).decide(
        word, budget)


def _magnus_set(presentation, items):
    """A Magnus generating set: distinct signed generators, each given in
    any spelling `Word.parse` takes or as a word, together a nonempty proper
    subset of the signed generators.  Returns the words, their signed
    letters and their labels."""
    try:
        gens = _parse_words(presentation, items)
    except WordError as e:
        raise DeciderError(str(e)) from None
    lits = []
    for w in gens:
        r = w.free_reduce()
        if len(r) != 1:
            raise DeciderError(f"{w.format()!r} is not a signed generator")
        if r.letters[0] in lits:
            raise DeciderError(f"{w.format()!r} occurs twice")
        lits.append(r.letters[0])
    if not lits or len(lits) == 2 * len(presentation.alphabet):
        raise DeciderError("the generating set must be a proper nonempty "
                           "subset of the signed generators")
    return gens, lits, [w.format() for w in gens]


def decide_surface_magnus(g, orientable, letters, word, budget=None):
    """Membership in the submonoid of a surface group generated by a
    nonempty proper subset of its signed generators, with the witness in
    the given letters.

    S_g sets take the general decider.  On N_g three exact routes come
    first: the identity, "whole-group" (every generator with one sign spans
    the group) and "cyclic" (the letters of one generator, decided from the
    exponent sums); every other N_g set takes the general decider too, with
    the DG instance of an unknown built after a change of generators
    (`_NonorientableMagnus`)."""
    pres = surface_presentation(g) if orientable else nonorientable_presentation(g)
    gens, lits, labels = _magnus_set(pres, letters)
    word = _parse_word(pres, word)
    if orientable:
        return decide_surface_submonoid(pres, gens, word, budget,
                                        labels=labels)
    engine = select_engine(pres)
    if not word.free_reduce() or engine.is_trivial(word):
        return Verdict.member([], methods=["identity"])
    signed = set(lits)
    for sign in (1, -1):
        if all(sign * i in signed for i in range(1, g + 1)):
            picks = _whole_group_witness(pres, lits, word, sign > 0)
            cert = {"reason": "all generators present with one sign",
                    "sign": "+" if sign > 0 else "-"}
            return _verified_member(engine, gens, labels, picks, word,
                                    ["whole-group"], cert)
    if len({abs(x) for x in lits}) == 1:
        return _cyclic_magnus(pres, engine, gens, lits, labels, word)
    return _NonorientableMagnus(pres, gens, labels).decide(word, budget)


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


class _NonorientableMagnus(SubmonoidDecider):
    """The general decider on an N_g Magnus set, with its own residual
    instance.  N_g has no stable letter of zero exponent sum.  Take a
    generator `pick` that the set holds with one sign only, and a generator
    `other` that the set lacks with that sign (one exists, or the set would
    be whole-group).  After the change of generators other -> pick' x, pick
    has exponent sum 0 in the relator, and every generator of the set has a
    pick exponent of pick's sign or 0, so the instance is taken there.  An
    inversion-closed set has no pick and no instance."""

    def residual_instance(self, word):
        signed = {w.free_reduce().letters[0] for w in self.gens}
        k = len(self.presentation.alphabet)
        pick = next((i for i in range(1, k + 1)
                     if (i in signed) != (-i in signed)), None)
        if pick is None:
            return None
        sign = 1 if pick in signed else -1
        other = next(j for j in range(1, k + 1)
                     if j != pick and sign * j not in signed)
        names = self.presentation.alphabet.names
        fresh = next(nm for nm in ("x", "y", "z") if nm not in names)
        new_pres, forward = substitute_generator(
            self.presentation, names[other - 1], fresh,
            f"{names[pick - 1]}' {fresh}")
        return _residual_instance(new_pres, [names[pick - 1]],
                                  [forward(w) for w in self.gens],
                                  forward(word))


def _cyclic_magnus(pres, engine, gens, lits, labels, word):
    """Membership in Mon<x>, Mon<x^-1> or Mon<x, x^-1> = <x> on N_g,
    g >= 2, decided exactly.  x has infinite order in
    H_1 (x) Q = Q^g / <(1, ..., 1)>, so w = x^e forces every other exponent
    sum of w to one value c and e = v_x - c; the engine then compares w
    with that one power, whose sign the set must hold."""
    x = abs(lits[0])
    names = pres.alphabet.names
    image = {nm: word.exponent_sum(nm) for nm in names}
    others = {image[nm] for nm in names if nm != names[x - 1]}
    e = image[names[x - 1]] - min(others) if len(others) == 1 else None
    if e is not None:
        power = _power(x, e)
        if engine.equal(Word(pres.alphabet, power), word):
            picks = _picks(lits, power)
            if picks is None:
                return Verdict.non_member(
                    {"exponent": e, "reason": "power of the wrong sign"},
                    methods=["cyclic"])
            return _verified_member(engine, gens, labels, picks, word,
                                    ["cyclic"], {"exponent": e})
    return Verdict.non_member(
        {"image": image, "exponent": e,
         "reason": "no power of the generator equals the word"},
        methods=["cyclic"])


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


def _power(x, k):
    """The letters of x^k."""
    return [x] * k if k >= 0 else [-x] * -k


def _picks(lits, letters):
    """The positions of the letters in the generating set `lits`, or None
    when one of them is missing from it."""
    position = {x: i for i, x in enumerate(lits)}
    picks = [position.get(x) for x in letters]
    return None if None in picks else picks


def decide_bs_magnus(m, n, letters, word, budget=None):
    """Membership in the submonoid of BS(m, n) generated by a proper subset
    of the four signed letters, with the witness in the given letters.

    The letters and the word are first carried to 0 < |m| < |n|, n > 0, by
    the automorphisms BS(m, n) -> BS(n, m), which flips t, and
    BS(m, n) -> BS(-m, -n), which flips a; the certificate names the flips
    under "normalized", and normal forms in it are spelled after them."""
    if m == 0 or n == 0 or m == n:
        raise DeciderError(
            f"parameters ({m}, {n}) are outside the decided range")
    swaps = []
    if abs(m) > abs(n):
        m, n = n, m
        swaps.append("tT")
    if (m < 0 and n < 0) or (m > 0 > n):
        m, n = -m, -n
        swaps.append("aA")
    # the normalized group has the same letters a, t, so one presentation
    # parses the query and decides it
    pres = bs_presentation(m, n)
    _, lits, labels = _magnus_set(pres, letters)
    word = _parse_word(pres, word)
    flip = {pres.alphabet.letter(pair[0]) for pair in swaps}

    def normalize(letters):
        return [-x if abs(x) in flip else x for x in letters]

    cert_base = {"normalized": {"m": m, "n": n, "swaps": swaps}}
    return _bs_decide_normalized(
        pres, m, n, labels, normalize(lits),
        Word(pres.alphabet, normalize(word.letters)), budget, cert_base)


def _bs_decide_normalized(pres, m, n, labels, lits, word, budget, cert_base):
    engine = BsEngine(m, n, pres.alphabet)
    w0 = word.free_reduce()
    if not w0 or engine.is_trivial(word):
        return Verdict.member([], methods=["identity"])
    gens = [Word(pres.alphabet, (x,)) for x in lits]
    a, t = pres.alphabet.letter("a"), pres.alphabet.letter("t")
    present = set(lits)

    if 0 < m < n:
        allowed = {g.format() for g in gens}
        for variant in ("positive", "negative"):
            system = bs_system(m, n, variant)
            try:
                ok = closure_membership(system, allowed, word.format())
            except ClosureError:
                continue
            nf = system.normalize(word.format())
            nf_word = pres.word(nf)
            if not engine.equal(nf_word, word):
                raise AssertionError("normal form failed to verify")
            methods = ["rewriting", variant]
            if ok:
                return _verified_member(engine, gens, labels,
                                        _picks(lits, nf_word.letters), word,
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
    if {t, -t} <= present and (a in present or -a in present):
        b = a if a in present else -a
        expansion = {-b: [b] * (p - 1) + [-t] + [b] * n + [t]}
        witness = [y for x in w0.letters for y in expansion.get(x, [x])]
        cert = dict(cert_base,
                    reason="three of the four letters span the whole group")
        return _verified_member(engine, gens, labels, _picks(lits, witness),
                                word, methods + ["whole-group"], cert)
    if present <= {a, -a}:
        k = engine.base_power(word)
        cert = dict(cert_base, base_power=k)
        if k is None:
            cert["reason"] = "not in the base subgroup"
            return Verdict.non_member(cert, methods=methods)
        picks = _picks(lits, _power(a, k))
        if picks is None:
            cert["reason"] = "base power of the wrong sign"
            return Verdict.non_member(cert, methods=methods)
        return _verified_member(engine, gens, labels, picks, word, methods,
                                cert)
    j = word.exponent_sum("t")
    if present <= {t, -t}:
        cert = dict(cert_base, stable_exponent=j)
        if not engine.is_trivial(word * Word(pres.alphabet, _power(t, -j))):
            cert["reason"] = "not a stable-letter power"
            return Verdict.non_member(cert, methods=methods)
        picks = _picks(lits, _power(t, j))
        if picks is None:
            cert["reason"] = "stable power of the wrong sign"
            return Verdict.non_member(cert, methods=methods)
        return _verified_member(engine, gens, labels, picks, word, methods,
                                cert)
    if t in present and -t not in present and j < 0:
        return Verdict.non_member(
            dict(cert_base, reason="negative stable exponent", j=j),
            methods=methods)
    if -t in present and t not in present and j > 0:
        return Verdict.non_member(
            dict(cert_base, reason="positive stable exponent", j=j),
            methods=methods)
    return _certified_search(gens, labels, word, engine, bound=None,
                             budget=budget, methods=methods,
                             certificate=cert_base)


_BURNS = burns_presentation()
_BURNS_FBC = FbcGroup(_BURNS, "t")


def _orbit_cover(u, factors, ordered):
    """The orbit exponents k, in order along the kernel word u, whose factor
    words `factors[k]` spell u letter for letter, or None when none do.

    A depth-first search over (position, cap) that tries the larger k first
    and remembers the pairs it has exhausted.  With `ordered` k decreases
    weakly along u, the cap being the last k taken; otherwise the cap stays
    at the top and k comes in any order.  The path is a list, not the call
    stack, so u may be longer than the recursion limit."""
    order = sorted(factors.items(), reverse=True)
    dead = set()
    path = []       # (position, cap, index in order) of each factor taken
    pos, cap, i = 0, max(factors, default=0), 0
    while pos < len(u):
        step = None
        if (pos, cap) not in dead:
            step = next((n for n, (k, fw) in enumerate(order[i:], i)
                         if k <= cap and u[pos:pos + len(fw)] == fw), None)
        if step is None:
            dead.add((pos, cap))
            if not path:
                return None
            pos, cap, i = path.pop()
            i += 1
            continue
        path.append((pos, cap, step))
        k, fw = order[step]
        pos, cap, i = pos + len(fw), k if ordered else cap, 0
    return [order[n][0] for _, _, n in path]


def _fbc_magnus(fbc, labels, lits, word, budget, cert_base):
    """The FBC Magnus route: membership in the submonoid of a two-generator
    FBC group generated by `lits`, signed letters of its base generator
    `fbc.g` and stable letter `fbc.t` (a proper subset of the four), read
    off the normal form stable^j u of the word.  Witnesses come back in
    `labels`; `cert_base` leads every certificate after j and u."""
    w0 = word.free_reduce()
    if not w0 or fbc.is_trivial(word):
        return Verdict.member([], methods=["identity"])
    gens = [Word(fbc.presentation.alphabet, (x,)) for x in lits]
    a, t = fbc.g + 1, fbc.t + 1
    present = set(lits)
    inverse = -a in present
    j, u = fbc.normal_form(word)
    methods = ["fbc-normal-form"]
    cert_base = {"j": j, "u": fbc.format(u), **cert_base}
    core = -a if inverse else a

    def orbit(sign):
        """The kernel words of core conjugated by stable^(sign k) for
        k = 0, 1, ..., each the one before shifted once."""
        fw = ((fbc.g, 0, -1 if inverse else 1),)
        while True:
            yield fw
            fw = fbc.shift_to_basis(fw, sign)

    def reject(reason):
        return Verdict.non_member(dict(cert_base, reason=reason),
                                  methods=methods)

    if present <= {a, -a}:
        if j != 0:
            return reject("nonzero stable exponent")
        if any(s != 0 or g != fbc.g for g, s, _ in u):
            return reject("kernel part is not a base power")
        picks = _picks(lits, _power(a, sum(e for _, _, e in u)))
        if picks is None:
            return reject("base power of the wrong sign")

    elif present <= {t, -t}:
        if u:
            return reject("nontrivial kernel part")
        picks = _picks(lits, _power(t, j))
        if picks is None:
            return reject("stable power of the wrong sign")

    elif {t, -t} <= present:
        factors = {}
        for sign in (1, -1):
            for k, fw in enumerate(orbit(sign)):
                if len(fw) > len(u):
                    break
                factors[sign * k] = fw
        methods.append("orbit-tiling")
        # only Burns sets hold both stable signs; its orbit words carry the
        # core's sign at both ends and alternate signs inside, so u has at
        # most one cover
        ks = _orbit_cover(u, factors, ordered=False)
        if ks is None:
            return reject("kernel part is not a product of orbit conjugates")
        witness = _power(t, j)
        for k in ks:
            witness += _power(t, k) + [core] + _power(t, -k)
        picks = _picks(lits, witness)

    else:
        down = t in present
        if down and j < 0:
            return reject("negative stable exponent")
        if not down and j > 0:
            return reject("positive stable exponent")
        if {a, -a} <= present:
            # three letters with both base signs: quick sign filter, then
            # search
            return _certified_search(gens, labels, word, fbc, bound=None,
                                     budget=budget,
                                     methods=methods + ["mixed-signs"],
                                     certificate=cert_base)
        # one base letter and one stable letter
        top = abs(j)
        factors = dict(zip(range(top + 1), orbit(-1 if down else 1)))
        # the cover is exact only when every factor is nonempty and no last
        # letter cancels a first letter; otherwise search
        fws = factors.values()
        if not all(fws) or {fw[-1] for fw in fws} & {
                (g, s, -e) for g, s, e in (fw[0] for fw in fws)}:
            return _certified_search(gens, labels, word, fbc, budget=budget,
                                     methods=methods, certificate=cert_base)
        methods.append("orbit-dp")
        ks = _orbit_cover(u, factors, ordered=True)
        if ks is None:
            return reject("ordered orbit tiling exhausted")
        # factor k used c_k times: core^c_top stable ... stable core^c_0
        witness = []
        for k in range(top, -1, -1):
            witness.extend([core] * ks.count(k))
            if k:
                witness.append(t if down else -t)
        picks = _picks(lits, witness)

    return _verified_member(fbc, gens, labels, picks, word, methods,
                            dict(cert_base))


def decide_burns_magnus(letters, word, budget=None):
    """Membership in the submonoid of the Burns group generated by a proper
    subset of the four signed letters, through the FBC Magnus route, with
    the witness in the given letters."""
    _, lits, labels = _magnus_set(_BURNS, letters)
    return _fbc_magnus(_BURNS_FBC, labels, lits, _parse_word(_BURNS, word),
                       budget, {})


def decide_positivity_fbc(presentation, word, budget=None):
    """Membership in the monoid of positive words of a two-generator
    one-relator group whose relator has zero exponent sum in one generator
    and unique extreme subscripts: the FBC Magnus route for the set
    {base, stable}, with the witness in the generator names.  An unknown
    carries the DG instance over the stable letter."""
    if len(presentation.alphabet) != 2 or not presentation.is_one_relator:
        raise DeciderError("needs a two-generator one-relator presentation")
    for stable in reversed(presentation.alphabet.names):
        try:
            fbc = FbcGroup(presentation, stable)
        except MagnusError:
            continue
        break
    else:
        raise DeciderError(
            "no stable letter with unique extreme subscripts for the other "
            "generator")
    word = _parse_word(presentation, word)
    labels = [fbc.gen, stable]
    lits = [presentation.alphabet.letter(c) for c in labels]
    verdict = _fbc_magnus(fbc, labels, lits, word, budget, {"stable": stable})
    if verdict.is_unknown:
        verdict.instance = _residual_instance(presentation, [stable], labels,
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
            if combo is None:
                raise AssertionError("gcd power must be reachable")
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
