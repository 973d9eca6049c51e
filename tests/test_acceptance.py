"""Acceptance gate: ten criteria, one pass/fail line each.

Each test prints a single summary line (visible under pytest -s or -rP);
the test verdict itself is the pass/fail signal.  Tolerances and runtime
ceilings are pinned inside the tests.
"""

import itertools
import random
import time

from submon.words import Alphabet, Word, Presentation
from submon.automata import SaturatedAcceptor
from submon.rewrite import DehnEngine, bs_system, critical_pairs_confluent
from submon.magnus import (
    magnus_rewrite, max_min_report, IntervalPresentation,
    BrittonEngine, FbcGroup,
)
from submon.distortion import (
    DistortionBudget, midpoint_certificate, undistorted_constants,
)
from submon.presentations import (
    burns_presentation, collapse_hom, prefix_generators,
)
from submon.deciders import (
    decide_bs_magnus, decide_burns_magnus, decide_prefix_surface,
    prefix_decider, emit_positivity_gadget, eliminate_defined_generator,
)

AB = Alphabet(["a", "b"])
ABT = Alphabet(["a", "b", "t"])
S2 = Presentation.parse("gens: a b c d\nrel: abABcdCD\n")
CHAIN = Presentation.parse("gens: a b c t\nrel: abABctCT\n")
BURNS = burns_presentation()


def _mul(u, g):
    """Reduced product of reduced tuples; only the seam can cancel."""
    k = 0
    lu, lg = len(u), len(g)
    while k < lu and k < lg and u[lu - 1 - k] == -g[k]:
        k += 1
    return u[:lu - k] + g[k:]


def _all_reduced(alphabet_size, nmax):
    letters = [x for i in range(1, alphabet_size + 1) for x in (i, -i)]
    words = [()]
    frontier = [()]
    for _ in range(nmax):
        new = []
        for u in frontier:
            for x in letters:
                if u and u[-1] == -x:
                    continue
                new.append(u + (x,))
        words.extend(new)
        frontier = new
    return words


# ---------------------------------------------------------------- criterion 1

def test_c01_magnus_rewriting_golden():
    w = Word.parse(ABT, "BTAAttbTa")
    img = magnus_rewrite(w, "t")
    assert img.format() == "b[0]' a[-1]' a[-1]' b[1] a[0]"
    # mu_a (minimal subscript) and m_a (maximal subscript) for the letter a
    assert img.min_subscript("a") == -1
    assert img.max_subscript("a") == 0
    assert img.count_at("a", -1) == 2
    best = min(
        _timed(lambda: magnus_rewrite(w, "t")) for _ in range(9))
    assert best < 1e-3, f"rewrite took {best * 1e3:.3f} ms"
    print(f"criterion 1: PASS (image b[0]' a[-1]'^2 b[1] a[0], mu_a=-1, "
          f"m_a=0, {best * 1e6:.0f} us)")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# ---------------------------------------------------------------- criterion 2

INTERVAL_RELATORS = [
    "a[0] b[0] a[0]' b[0]' c[0] c[1]'",
    "a[1] b[1] a[1]' b[1]' c[1] c[2]'",
    "a[2] b[2] a[2]' b[2]' c[2] c[3]'",
    "t a[0] t' a[1]'",
    "t a[1] t' a[2]'",
    "t b[0] t' b[1]'",
    "t b[1] t' b[2]'",
    "t c[0] t' c[1]'",
    "t c[1] t' c[2]'",
    "t c[2] t' c[3]'",
]


def test_c02_interval_presentation_golden():
    ip = IntervalPresentation(CHAIN, "t", 0, 2)
    full = ip.full_presentation
    assert full.alphabet.names == (
        "a[0]", "a[1]", "a[2]", "b[0]", "b[1]", "b[2]",
        "c[0]", "c[1]", "c[2]", "c[3]", "t")
    assert len(full.alphabet) == 11
    assert [r.format(compact=False) for r in full.relators] == INTERVAL_RELATORS
    assert len(full.relators) == 10

    rep_t = max_min_report(BURNS, "t")
    assert rep_t.passes
    assert rep_t.image.format() == "a[1] a[2]' a[1] a[0]'"
    rep_a = max_min_report(BURNS, "a")
    assert not rep_a.passes
    assert rep_a.image.format() == "t[0] t[1] t[0]' t[1]'"
    print("criterion 2: PASS (11 generators, 10 relations; max/min PASS "
          "wrt t, FAIL wrt a)")


# ---------------------------------------------------------------- criterion 3

ALPHAS = ["aBB", "bAA", "abABBaabaBA", "abABAbbbaBA"]

MIDPOINT_TABLE = {
    (0, 0): "BBaBB",
    (0, 1): "BAA",
    (0, 2): "BBabABBaabaBA",
    (0, 3): "BBabABAbbbaBA",
    (1, 0): "ABB",
    (1, 1): "AAbAA",
    (1, 2): "AbABBaabaBA",
    (1, 3): "AbABAbbbaBA",
    (2, 0): "aabaBBB",
    (2, 1): "aabaBAbAA",
    (2, 2): "aaBaabaBA",
    (2, 3): "abbbaBA",
    (3, 0): "bbbaBBB",
    (3, 1): "bbbaBAbAA",
    (3, 2): "baabaBA",
    (3, 3): "bbAbbbaBA",
}


def test_c03_midpoint_figure_reproduction():
    t0 = time.perf_counter()
    gens = [Word.parse(AB, t) for t in ALPHAS]
    report = midpoint_certificate(AB, gens)
    assert report.passes
    assert [s.format() for s in report.suffixes] == ["BB", "AA",
                                                     "aabaBA", "bbbaBA"]
    assert len(report.rows) == 16
    got = {(i, j): u.format() for i, j, u, _, _ in report.rows}
    assert got == MIDPOINT_TABLE

    prefixes = [Word.parse(AB, t) for t in ["a", "ab", "abA", "abAB", "abABA"]]
    bad = midpoint_certificate(AB, prefixes)
    assert not bad.passes

    # the factor count of ab is unbounded over that prefix set
    ab = Word.parse(AB, "ab")
    for k in range(1, 6):
        prod = Word.parse(AB, "abABA") ** k * ab * Word.parse(AB, "a") ** k
        assert prod.format() == "ab"
    dt = time.perf_counter() - t0
    assert dt < 1.0, f"criterion 3 took {dt:.2f} s"
    print(f"criterion 3: PASS (16 products bit-exact, prefix set FAIL, "
          f"red identity k=1..5, {dt * 1e3:.0f} ms)")


# ---------------------------------------------------------------- criterion 4

def test_c04_bs23_suite():
    t0 = time.perf_counter()
    pos = bs_system(2, 3, "positive")
    neg = bs_system(2, 3, "negative")
    assert critical_pairs_confluent(pos).confluent is True
    assert critical_pairs_confluent(neg).confluent is True

    for m, n in [(1, 2), (2, 3), (3, 5)]:
        system = bs_system(m, n, "positive")
        assert system.normalize("t" + "a" * m + "T") == "a" * n

    nf = pos.normalize
    letters = "aAtT"
    checked = 0
    for size in (1, 2, 3):
        for S in itertools.combinations(letters, size):
            S = list(S)
            reach = {""}
            frontier = [""]
            for _ in range(6):
                new = []
                for s in frontier:
                    for g in S:
                        v = nf(s + g)
                        if v not in reach:
                            reach.add(v)
                            new.append(v)
                frontier = new
            # every brute-force product must come back member
            for v in sorted(reach):
                verdict = decide_bs_magnus(2, 3, S, v)
                assert verdict.is_member, (S, v)
                assert nf("".join(verdict.witness)) == v, (S, v)
            rng = random.Random(400 + checked)
            for _ in range(200):
                w = "".join(rng.choice(letters)
                            for _ in range(rng.randint(1, 8)))
                verdict = decide_bs_magnus(2, 3, S, w)
                assert not verdict.is_unknown, (S, w)
                key = nf(w)
                if key in reach:
                    # positive search found it: any non-member verdict would
                    # be a counterexample
                    assert verdict.is_member, (S, w)
                if verdict.is_member:
                    assert nf("".join(verdict.witness)) == key, (S, w)
            checked += 1
    assert checked == 14
    dt = time.perf_counter() - t0
    assert dt < 120, f"criterion 4 took {dt:.1f} s"
    print(f"criterion 4: PASS (both variants confluent, 3 normal forms, "
          f"14 subsets x (brute + 200 words), {dt:.1f} s)")


# ---------------------------------------------------------------- criterion 5

def test_c05_word_problem_cross_validation():
    t0 = time.perf_counter()
    dehn = DehnEngine(S2)
    britton = BrittonEngine(S2, "a")
    alphabet = S2.alphabet
    signed = [x for i in range(1, 5) for x in (i, -i)]
    relator = S2.relator.letters
    rng = random.Random(11)
    disagreements = 0
    trivial_seen = 0
    total = 10_000
    for i in range(total):
        if i % 10 < 7:
            n = rng.randint(1, 20)
            w = Word(alphabet, [rng.choice(signed) for _ in range(n)])
        else:
            # conjugated relator rotation, length <= 6 + 8 + 6 = 20
            r = rng.randrange(8)
            rot = relator[r:] + relator[:r]
            if rng.random() < 0.5:
                rot = tuple(-x for x in reversed(rot))
            u = Word(alphabet, [rng.choice(signed)
                                for _ in range(rng.randint(0, 6))])
            w = u * Word(alphabet, rot) * ~u
        d = dehn.is_trivial(w)
        b = britton.is_trivial(w)
        if d != b:
            disagreements += 1
        if d:
            trivial_seen += 1
    assert disagreements == 0
    assert trivial_seen >= 2000  # the constructed block really exercises both
    dt = time.perf_counter() - t0
    assert dt < 300, f"criterion 5 took {dt:.1f} s"
    print(f"criterion 5: PASS ({total} words, {trivial_seen} trivial, "
          f"0 disagreements, {dt:.1f} s)")


# ---------------------------------------------------------------- criterion 6

def _c6_maps():
    out = []
    for swap in (False, True):
        for ia in (1, -1):
            for ib in (1, -1):
                def f(x, swap=swap, ia=ia, ib=ib):
                    s = 1 if x > 0 else -1
                    base = abs(x)
                    if swap:
                        base = 3 - base
                    return s * base * (ia if base == 1 else ib)
                out.append(f)
    return out


def _c6_family():
    """Orbit representatives under generator relabeling and inversion.

    Exhaustive up to the eight letter symmetries of the free group on a, b:
    every W of size 1 or 2 drawn from the 52 reduced words of length <= 3,
    and every W of size 3 whose total generator length is at most 7.
    """
    pool = [w for w in _all_reduced(2, 3) if w]
    maps = _c6_maps()

    def canon(ws):
        return min(tuple(sorted(tuple(f(x) for x in w) for w in ws))
                   for f in maps)

    reps = {}
    for w in pool:
        reps.setdefault(canon([w]), [w])
    for p in itertools.combinations(pool, 2):
        reps.setdefault(canon(p), list(p))
    for p in itertools.combinations(pool, 3):
        if sum(len(w) for w in p) <= 7:
            reps.setdefault(canon(p), list(p))
    return list(reps.values())


def _c6_bfs(gens, L, nmax, D, op_cap, project_cap):
    """Level BFS of reduced products, depth D fixed.

    States of length above nmax + L * (D - d) are dropped: they cannot shed
    down to nmax letters in the remaining steps, so no factorization of at
    most D factors of a short target passes through them.  Counts recorded
    are exact minimal factor counts up to the returned completed depth.
    """
    table = {(): 0}
    frontier = [()]
    d = 0
    ops = 0
    short = L + 1
    found_lp = 1
    while frontier and d < D:
        if len(frontier) * (D - d) * len(gens) > project_cap:
            return table, d, found_lp, False
        d += 1
        cap_len = nmax + L * (D - d)
        new = []
        for u in frontier:
            for g in gens:
                v = _mul(u, g)
                if v not in table and len(v) <= cap_len:
                    table[v] = d
                    if len(v) <= short and d > found_lp:
                        found_lp = d
                    new.append(v)
        ops += len(frontier) * len(gens)
        if ops > op_cap:
            return table, d, found_lp, False
        frontier = new
    return table, d, found_lp, True


def _c6_oracle(gens, nmax=6, op_cap=250_000, project_cap=150_000):
    """(table, conclusive, depth_complete, L_prime_estimate).

    Without seam cancellation every product is a literal concatenation, so
    factorization prefixes of a short target never exceed it and depth nmax
    is enough.  Otherwise the depth needed is 6 * L': subdividing the
    geodesic from 1 to a target of length n <= 6 shows a minimal
    factorization has at most L' * n factors, because consecutive
    subdivision points differ by a monoid element of length <= L + 1 and
    such elements need at most L' factors.  The BFS restarts whenever the
    running L' estimate (largest exact count among elements of length
    <= L + 1) grows, so the final run uses a fixed, sufficient depth.
    """
    gens = [tuple(g) for g in gens]
    L = max(len(g) for g in gens)
    if not any(u[-1] == -v[0] for u in gens for v in gens):
        table = {(): 0}
        frontier = [()]
        d = 0
        while frontier and d <= nmax:
            d += 1
            new = []
            for u in frontier:
                for g in gens:
                    v = u + g
                    if len(v) <= nmax and v not in table:
                        table[v] = d
                        new.append(v)
            frontier = new
        lp = max((c for w, c in table.items() if 0 < len(w) <= L + 1),
                 default=1)
        return table, True, nmax, lp
    lp = 1
    while True:
        table, depth, found_lp, finished = _c6_bfs(
            gens, L, nmax, 6 * lp, op_cap, project_cap)
        if finished and found_lp > lp and lp <= 25:
            lp = found_lp
            continue
        return table, finished and found_lp <= lp, depth, max(lp, found_lp)


def test_c06_benois_oracle_equivalence():
    t0 = time.perf_counter()
    family = _c6_family()
    assert len(family) >= 500
    words6 = _all_reduced(2, 6)
    assert len(words6) == 1457
    mismatches = []
    conclusive_count = 0
    for ws in family:
        gens = [Word(AB, w) for w in ws]
        table, conclusive, depth_complete, lp = _c6_oracle(ws)
        acc = SaturatedAcceptor(AB, gens)
        if conclusive:
            conclusive_count += 1
            uc = undistorted_constants(AB, gens)
            if uc.L_prime != lp:
                mismatches.append((ws, "L'", uc.L_prime, lp))
            L = max(len(w) for w in ws)
            if uc.budget != DistortionBudget(lp, 2 * lp * L + 1):
                mismatches.append((ws, "budget", uc.budget, lp))
        for w in words6:
            c_acc = acc.factor_count(Word(AB, w))
            c_orc = table.get(w)
            if conclusive:
                if c_acc != c_orc:
                    mismatches.append((ws, w, c_acc, c_orc))
                elif c_acc is not None and c_acc > lp * len(w) + 2 * lp * max(
                        len(g) for g in ws) + 1:
                    mismatches.append((ws, w, "beyond delta", c_acc))
            else:
                if c_orc is not None and c_orc <= depth_complete:
                    if c_acc != c_orc:
                        mismatches.append((ws, w, c_acc, c_orc))
                elif c_acc is not None:
                    if c_acc <= depth_complete:
                        mismatches.append((ws, w, c_acc, "missed"))
                    else:
                        wit = acc.witness(Word(AB, w))
                        prod = ()
                        for i in wit:
                            prod = _mul(prod, ws[i])
                        if prod != w or len(wit) != c_acc:
                            mismatches.append((ws, w, "bad witness", wit))
    assert mismatches == [], mismatches[:5]
    assert conclusive_count >= 350
    dt = time.perf_counter() - t0
    print(f"criterion 6: PASS ({len(family)} cases, {conclusive_count} "
          f"conclusive, {len(family) - conclusive_count} bounded-only, "
          f"{len(words6)} words each, 0 mismatches, {dt:.1f} s)")


# ---------------------------------------------------------------- criterion 7

def test_c07_prefix_membership():
    t0 = time.perf_counter()
    lines = []
    for g, orientable, name in [(2, True, "S2"), (3, True, "S3"),
                                (2, False, "N2"), (3, False, "N3")]:
        dec = prefix_decider(g, orientable)
        pres, gens = prefix_generators(g, orientable)
        hom = collapse_hom(pres)
        # lambda is affine with slope bounded by the composed stretch
        if dec.psi is not None:
            route, slope, offset = "functional", max(
                abs(v) for v in dec.psi.values()), 0
        else:
            budget = dec.graded.budget
            route, slope, offset = "free-image", budget.slope, budget.offset
            assert budget.bound(10) == slope * 10 + offset
        assert slope <= hom.max_image_length
        by_label = dict(zip(dec.labels, dec.gens))
        rng = random.Random(70 + g + orientable)
        for _ in range(1000):
            k = rng.randint(1, 5)
            picks = [rng.randrange(len(gens)) for _ in range(k)]
            word = Word(pres.alphabet, ())
            for i in picks:
                word = word * gens[i]
            verdict = decide_prefix_surface(g, orientable, word)
            assert verdict.is_member, (name, picks)
            assert verdict.bound <= slope * len(word) + offset
            prod = Word(pres.alphabet, ())
            for label in verdict.witness:
                prod = prod * by_label[label]
            assert dec.engine.equal(prod, word), (name, picks)
        lines.append(f"{name}: route={route} slope={slope} "
                     f"offset={offset} (C={hom.max_image_length})")
    v = decide_prefix_surface(2, False, "C")
    assert v.is_non_member
    dt = time.perf_counter() - t0
    assert dt < 300, f"criterion 7 took {dt:.1f} s"
    for line in lines:
        print("  budget", line)
    print(f"criterion 7: PASS (4 x 1000 witnessed members, N2 c' "
          f"non-member, {dt:.1f} s)")


# ---------------------------------------------------------------- criterion 8

def test_c08_burns_decider():
    t0 = time.perf_counter()
    fbc = FbcGroup(BURNS, "t")
    engine = BrittonEngine(BURNS, "t")
    gens = ["t", "a", "T"]
    by_label = {s: Word.parse(BURNS.alphabet, s) for s in "atT"}

    v1 = decide_burns_magnus(gens, "taT")
    assert v1.is_member
    assert v1.certificate["u"] == "a[1]"
    prod = Word(BURNS.alphabet, ())
    for label in v1.witness:
        prod = prod * by_label[label]
    assert engine.equal(prod, Word.parse(BURNS.alphabet, "taT"))
    # beta = a_1 is the automorphism image of a_0: t a_0 t^-1 has trivial
    # stable part and kernel word a[1]
    j, u = fbc.normal_form(Word.parse(BURNS.alphabet, "taT"))
    assert j == 0 and fbc.format(u) == "a[1]"

    v2 = decide_burns_magnus(gens, "ttaTT")
    assert v2.is_member
    assert v2.witness == ["t", "t", "a", "T", "T"]
    assert decide_burns_magnus(gens, "A").is_non_member

    # brute-force positive search keyed on free-by-cyclic normal forms
    key = lambda w: (lambda nf: (nf[0], nf[1]))(fbc.normal_form(w))
    reach = {}
    frontier = [Word(BURNS.alphabet, ())]
    reach[key(frontier[0])] = 0
    for d in range(1, 9):
        new = []
        for w in frontier:
            for label in gens:
                v = w * by_label[label]
                k = key(v)
                if k not in reach:
                    reach[k] = d
                    new.append(v)
        frontier = new
    rng = random.Random(8)
    for _ in range(1000):
        n = rng.randint(1, 8)
        w = Word(BURNS.alphabet, [rng.choice([1, -1, 2, -2])
                                  for _ in range(n)])
        verdict = decide_burns_magnus(gens, w)
        k = key(w)
        if k in reach:
            assert verdict.is_member, w.format()
        if verdict.is_non_member:
            assert k not in reach, w.format()
        if verdict.is_member:
            prod = Word(BURNS.alphabet, ())
            for label in verdict.witness:
                prod = prod * by_label[label]
            assert engine.equal(prod, w), w.format()
    dt = time.perf_counter() - t0
    assert dt < 60, f"criterion 8 took {dt:.1f} s"
    print(f"criterion 8: PASS (taT member with beta=a[1]=theta(a[0]), "
          f"ttaTT member, A non-member, 1000 words consistent, {dt:.1f} s)")


# ---------------------------------------------------------------- criterion 9

def _ball_constants(exponents, radius_pad=1):
    """Independent oracle over the infinite cyclic group: generators are
    positive powers of x, so factor counts are exact by monotone BFS."""
    L = max(exponents)
    limit = L + radius_pad
    counts = {0: 0}
    frontier = [0]
    while frontier:
        new = []
        for k in frontier:
            for e in exponents:
                v = k + e
                if v <= limit and v not in counts:
                    counts[v] = counts[k] + 1
                    new.append(v)
        frontier = new
    lp = max(c for k, c in counts.items() if k > 0)
    return L, lp


def test_c09_undistorted_constants():
    x = Alphabet(["x"])
    for text, want in [("xx", (2, 1, 1, 5)), ("x", (1, 2, 2, 5))]:
        gen = Word.parse(x, text)
        L, lp = _ball_constants([len(gen)])
        uc = undistorted_constants(x, [gen])
        assert (uc.L, uc.L_prime) == (L, lp) == want[:2]
        assert uc.budget == DistortionBudget(want[2], want[3])
        assert uc.budget.bound(10) == want[2] * 10 + want[3]
    print("criterion 9: PASS (W={x^2}: (2,1,n+5); W={x}: (1,2,2n+5))")


# --------------------------------------------------------------- criterion 10

def test_c10_positivity_gadget():
    free = Presentation(Alphabet(["a"]), [])
    out = emit_positivity_gadget(free, [Word.parse(free.alphabet, "a")])
    text = out.presentation.format()
    back = Presentation.parse(text)
    assert back.alphabet.names == ("a", "t", "g1")
    assert [r.format(compact=False) for r in back.relators] == \
        ["t a t' g1'"]
    assert out.stable == "t"
    assert out.conjugates == {"g1": "a"}

    reduced, hom = eliminate_defined_generator(back, "g1")
    assert reduced.alphabet.names == ("a", "t")
    assert not reduced.relators
    assert hom.apply(Word.parse(back.alphabet, "g1")).format() == "taT"
    print("criterion 10: PASS (gadget parses back; eliminating g1=tat' "
          "leaves the free group on a, t)")
