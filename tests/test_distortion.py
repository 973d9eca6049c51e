import itertools
import math
import random

from hypothesis import given, settings, strategies as st

from submon.words import Alphabet, Word, Presentation
from submon.presentations import (
    select_engine, surface_presentation, nonorientable_presentation,
    burns_presentation, bs_presentation,
)
from submon.rewrite import DehnEngine
from submon import distortion
from submon.deciders import decide_surface_submonoid
from submon.distortion import (
    DistortionBudget, compose_budget, half_suffix, midpoint_certificate,
    positive_functional, functional_value, code_certificate, free_image_graded,
    dehn_twist_hom, separating_functional, _has_rational_functional,
    undistorted_constants, SearchBudget, SearchResult, bounded_search,
)

AB = Alphabet(["a", "b"])
XY = Alphabet(["x", "y"])


def W(alphabet, text):
    return Word.parse(alphabet, text)


def test_budget_compose():
    lam = DistortionBudget(1, 0)
    assert lam.bound(7) == 7
    stretched = compose_budget(lam, 3)
    assert stretched == DistortionBudget(3, 0)
    assert stretched.bound(5) == 15
    assert compose_budget(DistortionBudget(2, 5), 4).bound(1) == 13


def test_half_suffix():
    assert half_suffix(W(AB, "aBB")).format() == "BB"
    assert half_suffix(W(AB, "ab")).format() == "b"
    assert half_suffix(W(AB, "a")).format() == "a"
    assert half_suffix(W(AB, "abABa")).format() == "ABa"
    assert len(half_suffix(W(AB, "abABBaabaBA"))) == 6


def test_dehn_twist_hom():
    h0 = dehn_twist_hom(0)
    assert [w.format() for w in h0.images] == ["a", "b", "b", "a"]
    h1 = dehn_twist_hom(1)
    assert h1.images[2].format() == "abAbaBA"
    assert h1.images[3].format() == "abABabaBA"
    assert h1.max_image_length == 9
    # images of the genus-2 relator collapse
    rel = W(h1.source, "abABcdCD")
    assert not h1.apply(rel)


TWIST_GENS = ["aBB", "bAA", "Cdd", "Dcc"]

ALPHA = ["aBB", "bAA", "abABBaabaBA", "abABAbbbaBA"]

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


def twist_alphas():
    h = dehn_twist_hom(1)
    return [h.apply(W(h.source, t)) for t in TWIST_GENS]


def test_twist_image_generators():
    assert [w.format() for w in twist_alphas()] == ALPHA


def test_midpoint_table_frozen():
    alphas = twist_alphas()
    report = midpoint_certificate(AB, alphas)
    assert report.passes
    assert [s.format() for s in report.suffixes] == ["BB", "AA", "aabaBA", "bbbaBA"]
    assert len(report.rows) == 16
    got = {(i, j): u.format() for i, j, u, _, _ in report.rows}
    assert got == MIDPOINT_TABLE
    assert report.budget == DistortionBudget(1, 0)
    # spot-check two splits: minimal surviving prefix and kept suffix
    by_pair = {(i, j): (p, l) for i, j, _, p, l in report.rows}
    assert by_pair[(0, 1)] == (1, 2)   # B . AA
    assert by_pair[(2, 0)] == (5, 2)   # aabaB . BB


def test_midpoint_failure_detected():
    prefixes = [W(AB, t) for t in ["a", "ab", "abA", "abAB"]]
    report = midpoint_certificate(AB, prefixes)
    assert not report.passes
    assert report.budget is None
    assert [(i, j) for i, j, _, _ in report.failures] == [(2, 0)]
    # and for cause: factor count is genuinely unbounded at length 2
    w = W(AB, "ab")
    for k in range(1, 6):
        prod = W(AB, "abABA") ** k * w * W(AB, "a") ** k
        assert prod.format() == "ab"


def test_positive_functional_klein_prefixes():
    cd = Alphabet(["c", "d"])
    pres = Presentation(cd, [W(cd, "ccdd")])
    gens = [W(cd, t) for t in ["c", "cc", "ccd"]]
    psi = positive_functional(pres, gens)
    assert psi == {"c": 1, "d": -1}
    assert [functional_value(psi, g) for g in gens] == [1, 2, 1]
    assert functional_value(psi, W(cd, "C")) == -1
    assert functional_value(psi, W(cd, "Cdd")) == -3


def test_positive_functional_respects_relators():
    cd = Alphabet(["c", "d"])
    pres = Presentation(cd, [W(cd, "ccdd")])
    psi = positive_functional(pres, [W(cd, "c"), W(cd, "d")])
    assert psi is None  # psi(c) = -psi(d) blocks both being positive


def test_positive_functional_free_case():
    pres = Presentation(XY, [])
    psi = positive_functional(pres, [W(XY, "x"), W(XY, "xy")])
    assert psi == {"x": 1, "y": 0}


def test_positive_functional_surface_prefixes_none():
    abcd = Alphabet(["a", "b", "c", "d"])
    rel = W(abcd, "abABcdCD")
    pres = Presentation(abcd, [rel])
    prefixes = [Word(abcd, rel.letters[:k]) for k in range(1, 8)]
    # the commutator prefix abAB has value 0 under every functional
    assert positive_functional(pres, prefixes, radius=2) is None


def box_scan_functional(presentation, gens, radius=8):
    """Reference: the plain box scan that `positive_functional` runs after
    its exact feasibility check."""
    alphabet = presentation.alphabet
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

    rel_vecs = [vec(r) for r in presentation.relators]
    gen_vecs = [vec(w) for w in gens]
    for r in range(radius + 1):
        for point in itertools.product(range(-r, r + 1), repeat=len(involved)):
            if point and max(abs(c) for c in point) != r:
                continue
            if any(sum(c * v for c, v in zip(point, rv)) != 0 for rv in rel_vecs):
                continue
            if all(sum(c * v for c, v in zip(point, gv)) >= 1 for gv in gen_vecs):
                psi = {name: 0 for name in alphabet.names}
                for g, c in zip(involved, point):
                    psi[alphabet.names[g]] = c
                return psi
    return None


@st.composite
def functional_cases(draw):
    k = draw(st.integers(1, 6))
    alphabet = Alphabet("abcdef"[:k])
    letter = st.sampled_from([s * i for i in range(1, k + 1) for s in (1, -1)])

    def words(min_size, max_size):
        return st.lists(letter, min_size=min_size, max_size=max_size).map(
            lambda letters: Word(alphabet, letters))

    @st.composite
    def balanced(draw):
        # every letter met again inverted, as in a surface relator: the
        # exponent vector is zero
        half = draw(st.lists(letter, min_size=1, max_size=4))
        back = draw(st.permutations([-x for x in half]))
        return Word(alphabet, half + back)
    relators = draw(st.lists(words(1, 8) | balanced(), max_size=2))
    gens = draw(st.lists(words(0, 5), max_size=4))
    radius = draw(st.integers(1, 4))
    return Presentation(alphabet, relators), gens, radius


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(functional_cases())
def test_positive_functional_matches_box_scan(case):
    pres, gens, radius = case
    assert (positive_functional(pres, gens, radius)
            == box_scan_functional(pres, gens, radius))


def test_positive_functional_infeasible_genus_two():
    abcd = Alphabet(["a", "b", "c", "d"])
    pres = Presentation(abcd, [W(abcd, "abABcdCD")])
    for texts in (["c", "C"], ["D", "c", "a", "A"]):
        assert positive_functional(pres, [W(abcd, t) for t in texts]) is None


def test_positive_functional_solution_outside_small_boxes():
    pres = Presentation(XY, [])
    gens = [W(XY, "xYY"), W(XY, "Xy")]
    assert positive_functional(pres, gens, radius=1) is None
    assert positive_functional(pres, gens, radius=2) is None
    assert positive_functional(pres, gens, radius=3) == {"x": -3, "y": -2}


def test_positive_functional_nine_generators_over_eight_letters():
    letters = "abcdefgh"
    alphabet = Alphabet(list(letters))
    pres = Presentation(alphabet, [])
    # adjacent pairs around a cycle force a positive letter sum, which the
    # inverse of the full product then contradicts
    gens = [W(alphabet, letters[i] + letters[(i + 1) % 8]) for i in range(8)]
    gens.append(W(alphabet, "ABCDEFGH"))
    assert positive_functional(pres, gens) is None
    assert box_scan_functional(pres, gens, radius=1) is None


def exponent_vectors(words):
    return [[w.exponent_sum(i) for i in range(len(w.alphabet))]
            for w in words]


def test_rational_functional_keeps_its_answers():
    """The feasibility answers behind the positive functional cases above,
    now read off the one elimination that also separates queries."""
    cd = Alphabet(["c", "d"])
    abcd = Alphabet(["a", "b", "c", "d"])
    rel = W(abcd, "abABcdCD")
    eight = Alphabet(list("abcdefgh"))
    cases = [
        ([W(cd, "ccdd")], [W(cd, t) for t in ["c", "cc", "ccd"]], True),
        ([W(cd, "ccdd")], [W(cd, "c"), W(cd, "d")], False),
        ([], [W(XY, "x"), W(XY, "xy")], True),
        ([rel], [Word(abcd, rel.letters[:k]) for k in range(1, 8)], False),
        ([rel], [W(abcd, t) for t in ["c", "C"]], False),
        ([rel], [W(abcd, t) for t in ["D", "c", "a", "A"]], False),
        ([], [W(XY, "xYY"), W(XY, "Xy")], True),
        ([], [W(eight, "abcdefgh"[i] + "abcdefgh"[(i + 1) % 8])
              for i in range(8)] + [W(eight, "ABCDEFGH")], False),
    ]
    for relators, gens, want in cases:
        assert _has_rational_functional(
            exponent_vectors(relators), exponent_vectors(gens)) is want, gens


def rechecks(pres, gens, word, psi):
    """psi kills every relator, is >= 0 on every generator and < 0 on the
    word, in integer arithmetic on the exponent sums."""
    def value(w):
        return sum(psi[nm] * w.exponent_sum(nm) for nm in pres.alphabet.names)
    return (all(value(r) == 0 for r in pres.relators)
            and all(value(g) >= 0 for g in gens) and value(word) < 0)


def test_separation_with_a_lineality_space():
    # a and A force psi(a) = 0; t is free, as the Burns relator has zero
    # exponent sums
    B = burns_presentation()
    gens = [W(B.alphabet, "a"), W(B.alphabet, "A")]
    psi = separating_functional(B, gens, W(B.alphabet, "t"))
    assert psi == {"a": 0, "t": -1}
    assert rechecks(B, gens, W(B.alphabet, "t"), psi)
    for text in ("aaa", "A", "tT", "taT"):
        assert separating_functional(B, gens, W(B.alphabet, text)) is None


def test_separation_respects_relators():
    # in <c, d | ccdd>, psi(d) = -psi(c): with c >= 0 and d >= 0 both are 0
    cd = Alphabet(["c", "d"])
    pres = Presentation(cd, [W(cd, "ccdd")])
    gens = [W(cd, "c"), W(cd, "d")]
    for text in ("C", "D", "Cd"):
        assert separating_functional(pres, gens, W(cd, text)) is None
    psi = separating_functional(pres, [W(cd, "c")], W(cd, "d"))
    assert psi == {"c": 1, "d": -1}


def test_separation_gives_up_past_max_pairs(monkeypatch):
    """Past `_MAX_PAIRS` the elimination separates nothing, and the
    decider searches as it would without it."""
    B = burns_presentation()
    gens = ["a", "A", "t"]
    budget = SearchBudget(4, 2000)
    assert decide_surface_submonoid(B, gens, "T", budget).methods == [
        "abelian"]
    monkeypatch.setattr(distortion, "_MAX_PAIRS", 0)
    assert separating_functional(
        B, [W(B.alphabet, t) for t in gens], W(B.alphabet, "T")) is None
    verdict = decide_surface_submonoid(B, gens, "T", budget)
    assert verdict.is_unknown
    assert verdict.methods[-2:] == ["search+group-eq", "semi-decision"]
    assert verdict.certificate == {"limit": "max_depth"}
    # the feasibility check leaves the answer open, and the box scan
    # decides
    assert _has_rational_functional([], [[1, 0], [-1, 0]])
    assert positive_functional(
        Presentation(XY, []), [W(XY, "x"), W(XY, "X")]) is None


def box_scan_separation(pres, gens, word, radius):
    """Reference: an integer separating functional in the box of the given
    radius, or None."""
    names = pres.alphabet.names
    for point in itertools.product(range(-radius, radius + 1),
                                   repeat=len(names)):
        psi = dict(zip(names, point))
        if rechecks(pres, gens, word, psi):
            return psi
    return None


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(functional_cases(), st.data())
def test_separation_is_exact(case, data):
    """Every functional found rechecks, and whenever a small box holds a
    separating functional the elimination finds one."""
    pres, gens, _ = case
    k = len(pres.alphabet)
    word = Word(pres.alphabet, data.draw(st.lists(
        st.sampled_from([s * i for i in range(1, k + 1) for s in (1, -1)]),
        min_size=1, max_size=6)))
    psi = separating_functional(pres, gens, word)
    if psi is not None:
        assert rechecks(pres, gens, word, psi), psi
        assert math.gcd(*psi.values()) == 1
    elif k <= 4:
        assert box_scan_separation(pres, gens, word, 2) is None


def test_code_certificate():
    gens = [W(XY, t) for t in ["x", "yx", "y", "yXYx"]]
    cert = code_certificate(XY, gens)
    assert cert is not None
    assert cert.kind == "code"
    assert cert.data["kept"] == [0, 2, 3]
    assert [w.format() for w in cert.data["code"]] == ["x", "y", "yXYx"]
    assert cert.budget == DistortionBudget(1, 0)


def test_code_certificate_rejects_cancellation():
    assert code_certificate(XY, [W(XY, "x"), W(XY, "X")]) is None
    assert code_certificate(XY, [W(XY, "xy"), W(XY, "Y")]) is None


def test_undistorted_constants():
    c = undistorted_constants(XY, [W(XY, "xx")])
    assert (c.L, c.L_prime) == (2, 1)
    assert c.budget == DistortionBudget(1, 5)
    assert c.budget.bound(6) == 11

    c = undistorted_constants(XY, [W(XY, "x")])
    assert (c.L, c.L_prime) == (1, 2)
    assert c.budget == DistortionBudget(2, 5)

    c = undistorted_constants(XY, [])
    assert (c.L, c.L_prime) == (0, 0)
    assert c.budget.bound(100) == 1


def test_bounded_search_member():
    gens = [W(AB, "ab"), W(AB, "bA")]
    target = gens[0] * gens[1] * gens[0]
    assert target.format() == "abbb"
    res = bounded_search(gens, target, SearchBudget(max_depth=5))
    assert res.found
    assert res.witness == [0, 1, 0]
    prod = Word(AB, ())
    for i in res.witness:
        prod = prod * gens[i]
    assert prod == target


def test_bounded_search_depth_budget():
    gens = [W(AB, "ab")]
    target = W(AB, "ab") ** 6
    free = select_engine(Presentation(AB, []))
    shallow = bounded_search(gens, target, SearchBudget(max_depth=2),
                             engine=free)
    assert not shallow.found
    assert shallow.complete and shallow.certified  # not a product of <= 2
    deep = bounded_search(gens, target, SearchBudget(max_depth=6),
                          engine=free)
    assert deep.found and deep.witness == [0] * 6


def test_bounded_search_certified_nonmember():
    gens = [W(AB, "ab"), W(AB, "bA")]
    res = bounded_search(gens, W(AB, "ba"), SearchBudget(max_depth=6),
                         engine=select_engine(Presentation(AB, [])))
    assert not res.found
    assert res.complete and res.certified


def test_bounded_search_without_engine_certifies_nothing():
    # in <a, b | a^2 b^3>, b^-3 = a^2 lies in Mon<a>, but no free product
    # of a spells BBB, so the free-group search exhausts its depth
    res = bounded_search([W(AB, "a")], W(AB, "BBB"), SearchBudget(max_depth=4))
    assert not res.found
    assert res.complete and not res.certified


def test_bounded_search_names_the_exhausted_budget():
    gens = [W(AB, "ab"), W(AB, "bA")]
    free = select_engine(Presentation(AB, []))
    # the state table fills before depth 6 is reached
    res = bounded_search(gens, W(AB, "ba"), SearchBudget(6, max_states=10),
                         engine=free)
    assert not res.found and not res.complete
    assert res.limit == "max_states"
    # every product up to depth 6 was checked, with products still beyond
    res = bounded_search(gens, W(AB, "ba"), SearchBudget(6), engine=free)
    assert res.certified and res.limit == "max_depth"
    res = bounded_search([W(AB, "a")], W(AB, "BBB"), SearchBudget(4))
    assert not res.certified and res.limit == "max_depth"
    # the engine would need more group checks than allowed to certify
    res = bounded_search(gens, W(AB, "ba"), SearchBudget(6, group_checks=10),
                         engine=free)
    assert res.complete and not res.certified
    assert res.limit == "group_checks"
    # a witness exhausts nothing
    res = bounded_search(gens, W(AB, "abbA"), SearchBudget(6), engine=free)
    assert res.found and res.limit is None


def test_unknown_verdicts_name_the_exhausted_budget():
    from submon.deciders import decide_surface_submonoid

    pres = Presentation.parse("gens: a b\nrel: aabbb")
    v = decide_surface_submonoid(pres, ["a"], "BBB", SearchBudget(4))
    assert v.is_unknown and v.certificate["limit"] == "max_depth"
    v = decide_surface_submonoid(pres, ["a", "b"], "AB",
                                 SearchBudget(8, max_states=50))
    assert v.is_unknown and v.certificate["limit"] == "max_states"


def test_bounded_search_group_equality():
    abcd = Alphabet(["a", "b", "c", "d"])
    pres = Presentation(abcd, [W(abcd, "abABcdCD")])
    engine = DehnEngine(pres)
    gens = [W(abcd, "a"), W(abcd, "b")]
    # equals a in the group but no free product of a, b spells it
    target = (pres.relator * W(abcd, "a")).free_reduce()
    res = bounded_search(gens, target, SearchBudget(max_depth=2), engine=engine)
    assert res.found
    assert res.witness == [0]
    assert res.method == "search+group-eq"


def test_bounded_search_empty_target():
    res = bounded_search([W(AB, "ab")], Word(AB, ()), SearchBudget(max_depth=3))
    assert res.found and res.witness == []


def test_bounded_search_random_roundtrip():
    rng = random.Random(31)
    gens = [W(AB, t) for t in ["ab", "bA", "aa"]]
    for _ in range(40):
        n = rng.randint(1, 5)
        picks = [rng.randrange(len(gens)) for _ in range(n)]
        target = Word(AB, ())
        for i in picks:
            target = target * gens[i]
        res = bounded_search(gens, target, SearchBudget(max_depth=5))
        assert res.found
        prod = Word(AB, ())
        for i in res.witness:
            prod = prod * gens[i]
        assert prod == target


def test_free_image_graded_pullback():
    from submon.presentations import prefix_generators, s2_retraction

    pres, gens = prefix_generators(2, True)
    f = s2_retraction()
    cert = free_image_graded(pres, f, gens)
    assert cert is not None
    assert cert.kind == "code"
    assert cert.data["stretch"] == 3
    assert cert.budget == DistortionBudget(3, 0)
    assert cert.budget.bound(4) == 12


def test_free_image_graded_midpoint():
    """bA and Ba collapse to mutually inverse words, so no code certificate
    exists; the midpoint certificate bounds the factor count instead, and
    the surface decider reads its bound from it."""
    from submon.presentations import surface_presentation, free_collapses

    S2 = surface_presentation(2)
    gens = ["b a'", "b' a"]
    f = dict(free_collapses(S2))["collapse"]
    cert = free_image_graded(S2, f, [S2.word(g) for g in gens])
    assert cert.kind == "midpoint"
    assert cert.budget == DistortionBudget(3, 0)
    assert cert.data == {"suffixes": ["y", "xx"], "stretch": 3}
    free_image = {"kind": "midpoint", "slope": 3, "offset": 0, "stretch": 3}
    assert decide_surface_submonoid(S2, gens, "b a' b' a").to_dict() == {
        "verdict": "member", "method": ["free-image", "image-lift"],
        "witness": ["bA", "Ba"], "certificate": free_image, "bound": 12}
    assert decide_surface_submonoid(S2, gens, "a b'").to_dict() == {
        "verdict": "non-member", "method": ["free-image", "image"],
        "witness": None,
        "certificate": dict(free_image, hom="collapse", image="Yx",
                            reason="image outside the image submonoid"),
        "bound": None}


def test_free_image_graded_killed_generator():
    from submon.words import GroupHom
    from submon.presentations import surface_presentation

    pres = surface_presentation(2)
    collapse = GroupHom.from_dict(
        pres.alphabet, Alphabet(["x"]), {"a": "x", "d": "x'"})
    assert not collapse(pres.relator)
    gens = [pres.word("b"), pres.word("a")]
    assert free_image_graded(pres, collapse, gens) is None


def reference_bounded_search(gens, target, budget, engine=None):
    """Reference: the search with a checked `Word` per state, each step a
    full reduction of the concatenation (`Word.__mul__`)."""
    alphabet = target.alphabet
    words = [w.free_reduce() for w in gens]
    active = [(i, w) for i, w in enumerate(words) if w]
    target = target.free_reduce()
    meet = {target.letters: []}
    for i, g in active:
        meet.setdefault((target * ~g).letters, [i])

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
    complete = True
    while depth < budget.max_depth and frontier:
        depth += 1
        nxt = []
        for p in frontier:
            pw = Word(alphabet, p)
            for i, g in active:
                q = (pw * g).letters
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
        for u in states:
            if engine.is_trivial(Word(alphabet, u) * ~target):
                wit = path(u)
                return SearchResult(True, wit, complete, False,
                                    len(states), depth, "search+group-eq")
        return SearchResult(False, None, complete, True,
                            len(states), depth, "search+group-eq", limit)
    if engine is not None:
        limit = "group_checks"
    return SearchResult(False, None, complete, False,
                        len(states), depth, "search", limit)


class CountingEngine:
    """Records every word an engine is asked about, in order."""

    def __init__(self, engine):
        self.engine = engine
        self.asked = []

    def is_trivial(self, word):
        self.asked.append(word.letters)
        return self.engine.is_trivial(word)


def random_reduced(rng, alphabet, lo, hi):
    k = len(alphabet)
    letters = [rng.choice([1, -1]) * rng.randint(1, k)
               for _ in range(rng.randint(lo, hi))]
    return Word(alphabet, letters).free_reduce()


SEARCH_GROUPS = [
    ("S2", surface_presentation(2)),
    ("N3", nonorientable_presentation(3)),
    ("BURNS", burns_presentation()),
    ("BS 2 3", bs_presentation(2, 3)),
]


def test_bounded_search_matches_reference():
    fields = ("found", "witness", "complete", "certified", "states", "depth",
              "method", "limit")
    seen = set()
    for name, pres in SEARCH_GROUPS:
        rng = random.Random(name)
        alphabet = pres.alphabet
        for _ in range(30):
            gens = [random_reduced(rng, alphabet, 1, 3)
                    for _ in range(rng.randint(2, 4))]
            if rng.random() < 0.5:
                target = Word(alphabet, ())
                for _ in range(rng.randint(1, 4)):
                    target = target * rng.choice(gens)
                if rng.random() < 0.5:
                    # equal in the group, but no longer a free product
                    target = target * pres.relators[0]
            else:
                target = random_reduced(rng, alphabet, 1, 6)
            budget = SearchBudget(rng.randint(1, 4),
                                  max_states=rng.choice([50, 400, 5000]),
                                  group_checks=rng.choice([30, 300, 2000]))
            engine = select_engine(pres) if rng.random() < 0.8 else None
            runs = []
            for search in (bounded_search, reference_bounded_search):
                counted = engine and CountingEngine(engine)
                res = search(gens, target, budget, engine=counted)
                runs.append(([getattr(res, f) for f in fields],
                             counted and counted.asked))
            assert runs[0] == runs[1], (name, gens, target)
            res = runs[0][0]
            seen.add("witness" if res[0] else
                     "certified" if res[3] else f"limit {res[7]}")
    assert seen == {"witness", "certified", "limit max_states",
                    "limit max_depth", "limit group_checks"}
