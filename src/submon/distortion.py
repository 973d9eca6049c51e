"""Graded submonoid certificates and bounded product search.

A distortion budget is an affine bound lambda(n) = slope*n + offset on how
many factors any product expression of an element of reduced length n can
have.  Certificates producing such budgets:

* `midpoint_certificate`: every suffix-half of a generator survives, up to
  bounded erosion, multiplication by any other generator; factor count is
  then at most the reduced length.

* `positive_functional`: an integer functional on the generators killing
  the relators and taking value >= 1 on every monoid generator; factor
  count is at most the functional value.  The integer box is scanned only
  after an exact elimination over the rationals finds that such a
  functional exists at all; the system is homogeneous, so when none does
  the scan would return None too.

* `code_certificate`: after greedily removing redundant generators, the
  rest form a code with no boundary cancellation; factor count over the
  code is at most the reduced length.

`separating_functional` proves non-membership rather than bounding factor
counts: an integer functional killing the relators, >= 0 on every
generator and < 0 on the query, found by the same exact elimination
(`_eliminate`) that tells `positive_functional` whether to scan at all.

`bounded_search` enumerates products breadth-first with free-word
deduplication, finds witnesses through a backward meet set, and can
certify non-membership up to a depth when the state and group-check
budgets allow.  Its states are freely reduced letter tuples, each built
from its parent by a junction-only product (`words.join_reduced`) rather
than as a checked `Word`.
"""

import itertools
import math
from fractions import Fraction
from operator import mul

from submon.words import (
    Alphabet, Word, GroupHom, _trusted, invert_letters, join_reduced)
from submon.automata import SaturatedAcceptor, is_code, no_cancellation


class DistortionBudget:
    """Affine factor-count bound lambda(n) = slope*n + offset."""

    def __init__(self, slope, offset):
        self.slope = slope
        self.offset = offset

    def bound(self, n):
        return self.slope * n + self.offset

    def __eq__(self, other):
        return (isinstance(other, DistortionBudget)
                and (self.slope, self.offset) == (other.slope, other.offset))

    def __repr__(self):
        return f"DistortionBudget({self.slope}*n + {self.offset})"


def compose_budget(budget, stretch):
    """Budget after precomposing with a map multiplying lengths by at most
    `stretch`."""
    return DistortionBudget(budget.slope * stretch, budget.offset)


class GradedCertificate:
    def __init__(self, kind, budget, data):
        self.kind = kind
        self.budget = budget
        self.data = data

    def __repr__(self):
        return f"GradedCertificate({self.kind}, {self.budget})"


def half_suffix(word):
    """Suffix from the one-indexed position ceil((len+1)/2)."""
    letters = word.letters
    start = (len(letters) + 2) // 2 - 1
    return Word(word.alphabet, letters[start:])


class MidpointReport:
    def __init__(self, alphabet, gens, suffixes, rows, failures):
        self.alphabet = alphabet
        self.gens = gens
        self.suffixes = suffixes
        self.rows = rows          # (i, j, reduced, p_len, l_len)
        self.failures = failures  # (i, j, reduced, reason)
        self.passes = not failures

    @property
    def budget(self):
        return DistortionBudget(1, 0) if self.passes else None

    def __repr__(self):
        verdict = "PASS" if self.passes else f"FAIL({len(self.failures)})"
        return f"MidpointReport({len(self.gens)} gens, {verdict})"


def midpoint_certificate(alphabet, gens):
    """Check that suffix-halves erode by less than their length.

    For every ordered pair the reduced product s_i * g_j must split as a
    nonempty prefix of s_i followed by a suffix of g_j no shorter than s_j.
    When that holds, any product of N generators has reduced length >= N.
    """
    words = [w.free_reduce() for w in gens]
    suffixes = [half_suffix(w) for w in words]
    rows = []
    failures = []
    for i, s in enumerate(suffixes):
        for j, g in enumerate(words):
            if not g:
                failures.append((i, j, g, "empty generator"))
                continue
            u = s * g
            split = None
            for p_len in range(1, len(s) + 1):
                if u.letters[:p_len] != s.letters[:p_len]:
                    break
                tail = u.letters[p_len:]
                if len(tail) < len(suffixes[j]) or len(tail) > len(g):
                    continue
                if tail == g.letters[len(g) - len(tail):]:
                    split = (p_len, len(tail))
                    break
            if split is None:
                failures.append((i, j, u, "no prefix-suffix split"))
            else:
                rows.append((i, j, u, split[0], split[1]))
    return MidpointReport(alphabet, words, suffixes, rows, failures)


# Fourier-Motzkin can square the row count at each elimination; past this
# many pairs in one step `_eliminate` gives up, and each caller leaves the
# question to a route that is always correct: the box scan, or the search.
_MAX_PAIRS = 4096


class _Overflow(Exception):
    """An elimination step would combine more than `_MAX_PAIRS` pairs."""


def _primitive(row):
    g = math.gcd(*row)
    return tuple(c // g for c in row) if g > 1 else tuple(row)


def _pick(lo, hi):
    """A value above `lo` and below `hi`, each a (bound, strict) pair or
    None for no bound: the integer nearest 0 between them when there is
    one, else their midpoint."""
    low = high = None
    if lo is not None:
        low = math.floor(lo[0]) + 1 if lo[1] else math.ceil(lo[0])
    if hi is not None:
        high = math.ceil(hi[0]) - 1 if hi[1] else math.floor(hi[0])
    if low is not None and high is not None and low > high:
        return (lo[0] + hi[0]) / 2
    x = 0 if low is None else max(0, low)
    return x if high is None else min(x, high)


def _eliminate(eqs, rows):
    """A rational psi with e.psi = 0 for every vector e in `eqs`, and
    r.psi > 0 or r.psi >= 0 for every pair (r, strict) in `rows`, as a
    primitive integer tuple; None when there is none, decided exactly.

    Gaussian elimination substitutes the equalities away, then
    Fourier-Motzkin eliminates the variables from the inequalities, a
    combination being strict when either of its rows is.  A substitution
    or combination only scales a row by a positive factor on the solution
    set, so rows are kept as primitive integer vectors, mapped to their
    strictness, which drops duplicates; a zero row reads 0 >= 0, dropped,
    or 0 > 0, infeasible.  Back-substitution then picks each variable
    inside the bounds its elimination step left (`_pick`), in reverse, and
    the pivots from their equations.  Raises `_Overflow` when a step would
    combine more than `_MAX_PAIRS` pairs of rows.
    """
    n = len(rows[0][0])
    system = {}

    def add(row, strict):
        row = _primitive(row)
        if (strict or any(row)) and not system.get(row):
            system[row] = strict

    for r, strict in rows:
        add(r, strict)
    pivots = []
    eqs = [e for e in eqs if any(e)]
    while eqs:
        e = eqs.pop()
        j = next(i for i, c in enumerate(e) if c)
        pivots.append((j, e))
        a, s = abs(e[j]), (1 if e[j] > 0 else -1)

        def sub(row):
            c = s * row[j]
            return [a * x - c * y for x, y in zip(row, e)] if c else row
        eqs = [r for r in map(_primitive, map(sub, eqs)) if any(r)]
        old, system = system, {}
        for r, strict in old.items():
            add(sub(r), strict)

    steps = []
    zero = (0,) * n
    while system and zero not in system:
        # the column whose elimination adds the fewest rows
        best = None
        for j in range(n):
            p = q = 0
            for r in system:
                if r[j] > 0:
                    p += 1
                elif r[j] < 0:
                    q += 1
            if (p or q) and (best is None or p * q - p - q < best[0]):
                best = p * q - p - q, j
        j = best[1]
        pos = [r for r in system if r[j] > 0]
        neg = [r for r in system if r[j] < 0]
        if len(pos) * len(neg) > _MAX_PAIRS:
            raise _Overflow
        old, system = system, {r: s for r, s in system.items() if not r[j]}
        steps.append((j, pos + neg, old))
        for p in pos:
            for q in neg:
                add([p[j] * y - q[j] * x for x, y in zip(p, q)],
                    old[p] or old[q])
    if system:
        return None

    psi = [0] * n
    for j, bounding, strictness in reversed(steps):
        lo = hi = None
        for r in bounding:
            bound = (Fraction(-sum(map(mul, r, psi)), r[j]), strictness[r])
            # the tighter of two equal bounds is the strict one
            if r[j] > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(
                    hi, bound, key=lambda b: (b[0], not b[1]))
        psi[j] = _pick(lo, hi)
    for j, e in reversed(pivots):
        psi[j] = Fraction(-sum(map(mul, e, psi)), e[j])
    scale = math.lcm(*(Fraction(x).denominator for x in psi))
    return _primitive([int(x * scale) for x in psi])


def _has_rational_functional(rel_vecs, gen_vecs):
    """Whether some rational psi has rel.psi = 0 for every relator vector
    and gen.psi > 0 for every generator vector, decided exactly by
    `_eliminate`; True, leaving the question open, when it gives up."""
    if not gen_vecs:
        return True
    try:
        return _eliminate(rel_vecs, [(g, True) for g in gen_vecs]) is not None
    except _Overflow:
        return True


def _exponent_vector(word):
    v = [0] * len(word.alphabet)
    for x in word.letters:
        v[abs(x) - 1] += 1 if x > 0 else -1
    return v


def separating_functional(presentation, gens, word):
    """An integer functional on the generators of the presentation that
    kills every relator, is >= 0 on every word of `gens` and < 0 on `word`,
    as a dict from generator name to value; None when there is none.

    Such a functional is a homomorphism of the group to the integers that
    is >= 0 on the whole monoid, so it proves `word` a non-member.  By
    Farkas' lemma one exists exactly when the exponent vector of `word`
    lies outside the cone of the generators' plus the span of the
    relators', so over the abelianization the test is exact; None also
    when the elimination gives up.
    """
    rows = [(_exponent_vector(g), False) for g in gens]
    rows.append(([-c for c in _exponent_vector(word)], True))
    try:
        psi = _eliminate(list(map(_exponent_vector, presentation.relators)),
                         rows)
    except _Overflow:
        return None
    return None if psi is None else dict(zip(presentation.alphabet.names, psi))


def positive_functional(presentation, gens, radius=8):
    """Integer functional on generators, zero on every relator's exponent
    vector and >= 1 on every given word; None if the box search fails.

    Scans outward by infinity norm, so a found solution is minimal in that
    sense and deterministic.  The system is homogeneous, so it has an
    integer solution exactly when it has a rational one; when an exact
    elimination finds none, the scan could find nothing either and is
    skipped, and the answer is None all the same.

    Only the letters some constraint weighs are scanned.  At the first
    radius r with a solution every solution in the cube lies on its shell,
    and any other involved letter takes -r, the first value a scan of the
    whole box would try for it, so the answer is that scan's.
    """
    alphabet = presentation.alphabet
    k = len(alphabet)
    involved = sorted({
        abs(x) - 1
        for w in list(gens) + list(presentation.relators)
        for x in w.letters
    })
    if not involved:
        return {name: 0 for name in alphabet.names} if all(not w for w in gens) else None
    while (2 * radius + 1) ** len(involved) > 500_000 and radius > 1:
        radius -= 1

    def vec(word):
        return [word.exponent_sum(g) for g in involved]

    # a relator with zero exponent sums (every surface relator) constrains
    # nothing
    rel_vecs = [v for v in map(vec, presentation.relators) if any(v)]
    gen_vecs = [vec(w) for w in gens]
    if not _has_rational_functional(rel_vecs, gen_vecs):
        return None
    weighed = [i for i in range(len(involved))
               if any(v[i] for v in rel_vecs + gen_vecs)]
    rel_vecs = [[v[i] for i in weighed] for v in rel_vecs]
    gen_vecs = [[v[i] for i in weighed] for v in gen_vecs]
    for r in range(radius + 1):
        for point in itertools.product(range(-r, r + 1), repeat=len(weighed)):
            if any(sum(map(mul, point, rv)) for rv in rel_vecs):
                continue
            if all(sum(map(mul, point, gv)) >= 1 for gv in gen_vecs):
                psi = {name: 0 for name in alphabet.names}
                for g in involved:
                    psi[alphabet.names[g]] = -r
                for i, c in zip(weighed, point):
                    psi[alphabet.names[involved[i]]] = c
                return psi
    return None


def functional_value(psi, word):
    return sum(
        (1 if x > 0 else -1) * psi[word.alphabet.name_of(x)] for x in word.letters
    )


def code_certificate(alphabet, gens):
    """Code certificate for a submonoid of a free group.

    Greedily drops generators lying in the monoid of the others, then
    requires the rest to be a cancellation-free code.  Factor counts over
    the kept generators are bounded by reduced length.
    """
    words = [w.free_reduce() for w in gens]
    if any(not w for w in words):
        return None
    kept = list(range(len(words)))
    changed = True
    while changed:
        changed = False
        for i in list(kept):
            others = [words[j] for j in kept if j != i]
            if not others:
                continue
            if SaturatedAcceptor(alphabet, others).member(words[i]):
                kept.remove(i)
                changed = True
    code = [words[i] for i in kept]
    seqs = [w.letters for w in code]
    if no_cancellation(seqs) and is_code(seqs):
        return GradedCertificate(
            "code", DistortionBudget(1, 0), {"kept": kept, "code": code})
    return None


def free_image_graded(presentation, f, gens):
    """Graded certificate for a submonoid, pulled back through a collapse
    onto a free group.

    `f` maps the group of `presentation` onto a free group.  A factor-count
    bound for the image monoid pulls back with slope multiplied by the
    longest generator image; generators killed by `f` rule the route out.
    """
    images = [f(w) for w in gens]
    if any(not img for img in images):
        return None
    cert = code_certificate(f.target, images)
    if cert is None:
        report = midpoint_certificate(f.target, images)
        if not report.passes:
            return None
        cert = GradedCertificate(
            "midpoint", report.budget,
            {"suffixes": [s.format() for s in report.suffixes]})
    stretch = f.max_image_length
    data = dict(cert.data)
    data["stretch"] = stretch
    return GradedCertificate(cert.kind, compose_budget(cert.budget, stretch), data)


TWIST_SOURCE = Alphabet(["a", "b", "c", "d"])
TWIST_TARGET = Alphabet(["a", "b"])


def dehn_twist_hom(m):
    """Collapse map of the genus-2 group onto the free group on a, b that
    twists the second handle m times around the commutator before
    collapsing it."""
    z = Word.parse(TWIST_TARGET, "abAB")
    zm = z ** m
    a = Word.parse(TWIST_TARGET, "a")
    b = Word.parse(TWIST_TARGET, "b")
    return GroupHom(TWIST_SOURCE, TWIST_TARGET, [a, b, zm * b * ~zm, zm * a * ~zm])


class UndistortedConstants:
    def __init__(self, L, L_prime, budget):
        self.L = L
        self.L_prime = L_prime
        self.budget = budget

    def __repr__(self):
        return f"UndistortedConstants(L={self.L}, L'={self.L_prime}, {self.budget})"


def undistorted_constants(alphabet, gens, max_enumeration=500_000):
    """Factor-count budget for a submonoid of a free group.

    L is the longest generator; L' the largest minimal factor count among
    monoid elements of reduced length at most L+1, found by enumerating the
    ball and querying the saturated acceptor; the budget is
    L'*n + (2*L'*L + 1).
    """
    words = [w.free_reduce() for w in gens]
    words = [w for w in words if w]
    L = max((len(w) for w in words), default=0)
    k = len(alphabet)
    ball = 1 + sum(2 * k * (2 * k - 1) ** (m - 1) for m in range(1, L + 2))
    if ball > max_enumeration:
        raise ValueError(f"ball of {ball} words exceeds enumeration cap")
    acc = SaturatedAcceptor(alphabet, words) if words else None
    L_prime = 0
    stack = [()]
    while stack:
        letters = stack.pop()
        if letters and acc is not None:
            c = acc.factor_count(Word(alphabet, letters))
            if c is not None:
                L_prime = max(L_prime, c)
        if len(letters) < L + 1:
            for x in range(-k, k + 1):
                if x == 0 or (letters and x == -letters[-1]):
                    continue
                stack.append(letters + (x,))
    return UndistortedConstants(L, L_prime, DistortionBudget(L_prime, 2 * L_prime * L + 1))


class SearchBudget:
    def __init__(self, max_depth, max_states=200_000, group_checks=2000):
        self.max_depth = max_depth
        self.max_states = max_states
        self.group_checks = group_checks


class SearchResult:
    def __init__(self, found, witness, complete, certified, states, depth,
                 method, limit=None):
        self.found = found
        self.witness = witness
        self.complete = complete    # every product up to the depth enumerated
        self.certified = certified  # non-membership proved up to the depth
        self.states = states
        self.depth = depth
        self.method = method
        # the budget that ran out: "max_states", "max_depth", "group_checks"
        # or None
        self.limit = limit

    def __repr__(self):
        return (f"SearchResult(found={self.found}, depth={self.depth}, "
                f"complete={self.complete}, certified={self.certified}, "
                f"limit={self.limit})")


def bounded_search(gens, target, budget, engine=None):
    """Breadth-first product search for target in Mon<gens>.

    States are the freely reduced letter tuples of products, deduplicated;
    each is its parent times one generator, cancelled at the junction only,
    so a step costs the junction and a tuple copy rather than a full
    reduction.  A backward meet set of target times each inverted generator
    gives early witnesses.
    With an engine, states are additionally compared to the target through
    it when the check budget allows, and only then does exhausting the
    depth certify non-membership; without one the search covered only the
    free group, which the presented group may be a proper quotient of.
    A miss names in `limit` the budget that ran out: the state table, the
    depth with products still unexplored, or the group checks that an
    engine needed to certify.
    """
    alphabet = target.alphabet
    words = [w.free_reduce() for w in gens]
    active = [(i, w) for i, w in enumerate(words) if w]
    target = target.free_reduce()
    meet = {target.letters: []}
    for i, g in active:
        meet.setdefault((target * ~g).letters, [i])

    steps = [(i, g.letters) for i, g in active]
    states = {(): (None, None)}

    def path(letters):
        out = []
        while True:
            parent, gi = states[letters]
            if parent is None:
                return list(reversed(out))
            out.append(gi)
            letters = parent

    if () in meet:
        return SearchResult(True, meet[()], False, False, 1, 0, "search")
    frontier = [()]
    depth = 0
    while depth < budget.max_depth and frontier:
        depth += 1
        nxt = []
        for p in frontier:
            for i, g in steps:
                q = join_reduced(p, g)
                if q in states:
                    continue
                states[q] = (p, i)
                if q in meet:
                    wit = path(q) + meet[q]
                    return SearchResult(True, wit, False, False,
                                        len(states), depth, "search")
                nxt.append(q)
                if len(states) >= budget.max_states:
                    return SearchResult(False, None, False, False,
                                        len(states), depth, "search",
                                        "max_states")
        frontier = nxt
    limit = "max_depth" if frontier else None
    if engine is not None and len(states) <= budget.group_checks:
        back = invert_letters(target.letters)
        for u in states:
            if engine.is_trivial(_trusted(alphabet, join_reduced(u, back))):
                wit = path(u)
                return SearchResult(True, wit, True, False,
                                    len(states), depth, "search+group-eq")
        return SearchResult(False, None, True, True,
                            len(states), depth, "search+group-eq", limit)
    if engine is not None:
        limit = "group_checks"
    return SearchResult(False, None, True, False,
                        len(states), depth, "search", limit)
