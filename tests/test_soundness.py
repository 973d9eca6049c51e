"""Soundness properties.

A query built as a product of generators, with a conjugated relator
rotation spliced in, is in the submonoid, so no decider route may call it a
non-member, and every member witness must multiply back to the query in the
group.  A non-member proved through a free collapse must carry the image
that a fresh acceptor rejects; on BS(m, n) the stable-letter exponent map
onto the integers must settle exactly the queries whose exponent lies
outside the monoid of the generators' exponents, and `decide_bs_magnus`
must agree with a product search over `BsEngine` wherever that search
finds a product or certifies a miss.  The orientable Magnus
decider must agree with the general surface decider on the same
generating set, and the non-orientable one, on {x, x^-1} and on sets of
mixed signs, must agree with a product search wherever that search finds a
product or certifies a miss; its unknowns that no factor bound covers
carry a DG instance.  Products of relator prefixes on S2 and S3 are
members, and their witnesses must multiply back through Britton, an engine
the prefix decider does not use.  The prefix decider is the general decider on
the prefix set: the same verdict, with "prefix" leading the methods.
No spliced product is separated from its generators by a functional on the
abelianization, and every separating functional, found directly or named
by an abelian non-member, rechecks on the exponent sums.
"""

from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from submon.words import Presentation, Word
from submon.presentations import (
    BsEngine, bs_presentation, builtin, select_engine, free_collapses,
    prefix_generators,
)
from submon.automata import SaturatedAcceptor
from submon.magnus import BrittonEngine
from submon.deciders import (
    decide_bs_magnus, decide_surface_submonoid, decide_surface_magnus,
    decide_prefix_surface,
)
from submon.distortion import (
    SearchBudget, bounded_search, separating_functional,
)

GROUPS = {
    name: builtin(name)
    for name in ("S2", "S3", "N2", "N3", "BURNS", "BS 2 3")
}
GROUPS["aabbb"] = Presentation.parse("gens: a b\nrel: aabbb")
ENGINES = {name: select_engine(pres) for name, pres in GROUPS.items()}
BUDGET = SearchBudget(4, 2000, 200)


def signed_letter(k):
    return st.sampled_from([s * i for i in range(1, k + 1) for s in (1, -1)])


@st.composite
def spliced_products(draw, groups=GROUPS):
    name = draw(st.sampled_from(sorted(groups)))
    pres = groups[name]
    k = len(pres.alphabet)
    letter = st.sampled_from([s * i for i in range(1, k + 1) for s in (1, -1)])
    gens = draw(st.lists(st.lists(letter, min_size=1, max_size=3),
                         min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(gens) - 1),
                          min_size=1, max_size=4))
    product = [x for i in picks for x in gens[i]]
    rel = pres.relator.letters
    turn = draw(st.integers(0, len(rel) - 1))
    rotation = rel[turn:] + rel[:turn]
    if draw(st.booleans()):
        rotation = tuple(-x for x in reversed(rotation))
    conj = tuple(draw(st.lists(letter, max_size=2)))
    spliced = conj + rotation + tuple(-x for x in reversed(conj))
    at = draw(st.integers(0, len(product)))
    query = product[:at] + list(spliced) + product[at:]
    alphabet = pres.alphabet
    return (name, [Word(alphabet, g) for g in gens], Word(alphabet, query))


@settings(derandomize=True, database=None, deadline=None, max_examples=280)
@given(spliced_products())
def test_products_are_never_non_members(case):
    name, gens, query = case
    pres = GROUPS[name]
    verdict = decide_surface_submonoid(pres, gens, query, BUDGET)
    assert not verdict.is_non_member, (name, gens, query, verdict.certificate)
    engine = ENGINES[name]
    if verdict.is_member and engine is not None:
        table = {w.format(): w for w in gens}
        prod = Word(pres.alphabet, ())
        for label in verdict.witness:
            prod = prod * table[label]
        assert engine.equal(prod, query), (name, verdict.witness)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(spliced_products())
def test_products_are_never_separated(case):
    name, gens, query = case
    assert separating_functional(GROUPS[name], gens, query) is None, (
        name, gens, query)


@st.composite
def separation_queries(draw):
    """A generating set over any group of GROUPS, often holding a letter
    with both signs, and a short query."""
    name = draw(st.sampled_from(sorted(GROUPS)))
    pres = GROUPS[name]
    letter = signed_letter(len(pres.alphabet))
    gens = draw(st.lists(st.lists(letter, min_size=1, max_size=3),
                         min_size=1, max_size=3))
    if draw(st.booleans()):
        gens.append([-x for x in reversed(gens[0])])
    query = draw(st.lists(letter, min_size=1, max_size=6))
    alphabet = pres.alphabet
    return name, [Word(alphabet, g) for g in gens], Word(alphabet, query)


@settings(derandomize=True, database=None, deadline=None, max_examples=250)
@given(separation_queries())
def test_abelian_certificates_recheck(case):
    """A separating functional, and the one an abelian non-member names,
    kills every relator, is >= 0 on the generators and < 0 on the query,
    with the values the certificate states: rechecked here on the exponent
    sums."""
    name, gens, query = case
    pres = GROUPS[name]

    def recheck(psi):
        def value(w):
            return sum(psi[nm] * w.exponent_sum(nm)
                       for nm in pres.alphabet.names)
        assert all(value(r) == 0 for r in pres.relators), (name, psi)
        assert min(map(value, gens)) >= 0 > value(query), (name, psi)
        return value
    psi = separating_functional(pres, gens, query)
    if psi is not None:
        recheck(psi)
    verdict = decide_surface_submonoid(pres, gens, query, BUDGET)
    if "abelian" in verdict.methods:
        assert verdict.is_non_member and verdict.methods[-1] == "abelian"
        cert = verdict.certificate
        value = recheck(cert["functional"])
        assert cert["values"] == {g.format(): value(g) for g in gens}
        assert cert["value"] == value(query)


def test_aabbb_defect_stays_mended():
    """b^-3 = a^2 in <a, b | a^2 b^3>, so BBB lies in Mon<a>; every
    functional killing the relator has psi(BBB) = 2 psi(a) >= 0."""
    pres = GROUPS["aabbb"]
    a, query = pres.word("a"), pres.word("BBB")
    assert separating_functional(pres, [a], query) is None
    assert not decide_surface_submonoid(pres, ["a"], "BBB").is_non_member
    assert not decide_surface_submonoid(pres, ["a"], "BBB",
                                        BUDGET).is_non_member


MORE_BS = {f"BS {m} {n}": bs_presentation(m, n)
           for m, n in ((1, 2), (-2, 3), (3, -5))}


@pytest.mark.parametrize("name", sorted(MORE_BS))
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(data=st.data())
def test_bs_products_are_never_non_members(name, data):
    pres = MORE_BS[name]
    _, gens, query = data.draw(spliced_products({name: pres}))
    verdict = decide_surface_submonoid(pres, gens, query, BUDGET)
    assert not verdict.is_non_member, (name, gens, query, verdict.certificate)
    if verdict.is_member:
        table = {w.format(): w for w in gens}
        prod = Word(pres.alphabet, ())
        for label in verdict.witness:
            prod = prod * table[label]
        assert select_engine(pres).equal(prod, query), (name, verdict.witness)


SURFACES = ("S2", "S3", "N2", "N3")


@st.composite
def surface_queries(draw):
    """A generating set and a query over a surface group; the query is
    often an inverted product, which is rarely a member."""
    name = draw(st.sampled_from(SURFACES))
    pres = GROUPS[name]
    letter = signed_letter(len(pres.alphabet))
    alphabet = pres.alphabet
    gens = [Word(alphabet, g) for g in draw(st.lists(
        st.lists(letter, min_size=1, max_size=3), min_size=1, max_size=3))]
    if draw(st.booleans()):
        query = Word(alphabet, ())
        for i in draw(st.lists(st.integers(0, len(gens) - 1), min_size=1,
                               max_size=3)):
            query = query * gens[i]
        query = ~query * Word(alphabet, tuple(draw(st.lists(letter,
                                                            max_size=2))))
    else:
        query = Word(alphabet, tuple(draw(st.lists(letter, min_size=1,
                                                   max_size=6))))
    return name, gens, query


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(surface_queries())
def test_image_non_members_carry_a_rejected_image(case):
    name, gens, query = case
    pres = GROUPS[name]
    verdict = decide_surface_submonoid(pres, gens, query, BUDGET)
    if not (verdict.is_non_member and "image" in verdict.methods):
        return
    cert = verdict.certificate
    f = dict(free_collapses(pres))[cert["hom"]]
    assert cert["image"] == f(query).format()
    acceptor = SaturatedAcceptor(f.target, [f(g) for g in gens])
    assert not acceptor.member(f(query)), (name, gens, query)


BS_GROUPS = {mn: bs_presentation(*mn)
             for mn in ((2, 3), (1, 2), (-2, 3), (3, -5))}


def in_integer_monoid(v, steps):
    """Whether v is a sum of the given integers, repetition allowed."""
    steps = [e for e in steps if e]
    if v == 0:
        return True
    if any(e > 0 for e in steps) and any(e < 0 for e in steps):
        return v % gcd(*steps) == 0
    if not steps or (v > 0) != (steps[0] > 0):
        return False
    v, steps = abs(v), [abs(e) for e in steps]
    reach = [True] + [False] * v
    for i in range(1, v + 1):
        reach[i] = any(e <= i and reach[i - e] for e in steps)
    return reach[v]


@st.composite
def bs_queries(draw):
    """A generating set of BS(m, n) and a query, often an inverted
    product with a few letters appended."""
    mn = draw(st.sampled_from(sorted(BS_GROUPS)))
    alphabet = BS_GROUPS[mn].alphabet
    letter = signed_letter(2)
    gens = [Word(alphabet, g) for g in draw(st.lists(
        st.lists(letter, min_size=1, max_size=3), min_size=1, max_size=3))]
    query = Word(alphabet, ())
    for i in draw(st.lists(st.integers(0, len(gens) - 1), max_size=3)):
        query = query * gens[i]
    query = ~query * Word(alphabet, tuple(draw(st.lists(letter, max_size=3))))
    return mn, gens, query


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(bs_queries())
def test_bs_stable_exponent_settles_exactly_its_obstructions(case):
    mn, gens, query = case
    pres = BS_GROUPS[mn]
    verdict = decide_surface_submonoid(pres, gens, query, BUDGET)
    steps = [g.exponent_sum("t") for g in gens]
    outside = not in_integer_monoid(query.exponent_sum("t"), steps)
    if outside:
        assert verdict.is_non_member, (mn, gens, query, verdict.methods)
    if verdict.is_non_member and "image" in verdict.methods:
        assert outside, (mn, gens, query)
        cert = verdict.certificate
        assert cert["hom"] == "stable-exponent"
        f = dict(free_collapses(pres))["stable-exponent"]
        assert cert["image"] == f(query).format()
        acceptor = SaturatedAcceptor(f.target, [f(g) for g in gens])
        assert not acceptor.member(f(query))


BS_MAGNUS_PARAMS = ((2, 3), (1, 2), (3, 2), (2, -3), (-2, 3), (1, -2),
                    (3, -5))
SEARCH = SearchBudget(6, 20000, 20000)


@st.composite
def bs_letter_queries(draw):
    """Parameters, a proper subset of the letters a, A, t, T, and a query:
    a product of up to five of them, inverted or not, with up to two more
    letters appended."""
    mn = draw(st.sampled_from(BS_MAGNUS_PARAMS))
    letters = draw(st.lists(st.sampled_from("aAtT"), min_size=1, max_size=3,
                            unique=True))
    query = "".join(draw(st.lists(st.sampled_from(letters), max_size=5)))
    if draw(st.booleans()):
        query = query[::-1].swapcase()
    query += "".join(draw(st.lists(st.sampled_from("aAtT"), max_size=2)))
    return mn, letters, query or "aA"


@settings(derandomize=True, database=None, deadline=None, max_examples=1050)
@given(bs_letter_queries())
def test_bs_magnus_agrees_with_bounded_search(case):
    """A product the search finds is never a non-member, and a query the
    search certifies absent up to six factors never gets a shorter
    member witness."""
    mn, letters, query = case
    verdict = decide_bs_magnus(*mn, letters, query, SEARCH)
    pres = bs_presentation(*mn)
    res = bounded_search([pres.word(c) for c in letters], pres.word(query),
                         SEARCH, engine=BsEngine(*mn, pres.alphabet))
    if res.found:
        assert not verdict.is_non_member, (mn, letters, query, res.witness)
    if res.certified:
        assert not (verdict.is_member and len(verdict.witness) <= 6), (
            mn, letters, query, verdict.witness)


def test_bs_image_certificate():
    pres = BS_GROUPS[2, 3]
    verdict = decide_surface_submonoid(pres, ["t a", "a"], "t' a", BUDGET)
    assert verdict.is_non_member
    assert verdict.methods == ["image"]
    assert verdict.certificate == {
        "hom": "stable-exponent", "image": "X",
        "reason": "image outside the image submonoid"}


@st.composite
def magnus_queries(draw):
    """Signed letters of S2 or S3, some generator missing a sign, and a
    query word."""
    g = draw(st.sampled_from((2, 3)))
    pres = GROUPS[f"S{g}"]
    k = len(pres.alphabet)
    # at most k + 1 of the 2k signed letters, so some sign is missing
    letters = draw(st.lists(signed_letter(k), min_size=1, max_size=k + 1,
                            unique=True))
    query = draw(st.lists(signed_letter(k), min_size=1, max_size=6))
    return g, letters, Word(pres.alphabet, tuple(query))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(magnus_queries())
def test_orientable_magnus_agrees_with_surface_decider(case):
    g, letters, query = case
    pres = GROUPS[f"S{g}"]
    gens = [Word(pres.alphabet, (x,)) for x in letters]
    magnus = decide_surface_magnus(g, True, gens, query, BUDGET)
    general = decide_surface_submonoid(pres, gens, query, BUDGET)
    assert magnus.outcome == general.outcome, (g, letters, query)
    assert magnus.witness == general.witness
    assert magnus.certificate == general.certificate


PREFIX_SETS = {g: prefix_generators(g, True) for g in (2, 3)}
PREFIX_BRITTON = {2: BrittonEngine(PREFIX_SETS[2][0], "a"),
                  3: BrittonEngine(PREFIX_SETS[3][0], "a1")}


@st.composite
def prefix_products(draw):
    """A product of orientable relator prefixes, with a conjugated relator
    rotation spliced in half of the time."""
    g = draw(st.sampled_from((2, 3)))
    pres, gens = PREFIX_SETS[g]
    picks = draw(st.lists(st.integers(0, len(gens) - 1), min_size=1,
                          max_size=5))
    query = [x for i in picks for x in gens[i].letters]
    if draw(st.booleans()):
        rel = pres.relator.letters
        turn = draw(st.integers(0, len(rel) - 1))
        rotation = rel[turn:] + rel[:turn]
        if draw(st.booleans()):
            rotation = tuple(-x for x in reversed(rotation))
        conj = tuple(draw(st.lists(signed_letter(len(pres.alphabet)),
                                   max_size=2)))
        spliced = conj + rotation + tuple(-x for x in reversed(conj))
        at = draw(st.integers(0, len(query)))
        query = query[:at] + list(spliced) + query[at:]
    return g, Word(pres.alphabet, tuple(query))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(prefix_products())
def test_prefix_products_are_never_non_members(case):
    g, query = case
    pres, gens = PREFIX_SETS[g]
    verdict = decide_prefix_surface(g, True, query, BUDGET)
    assert not verdict.is_non_member, (g, query, verdict.certificate)
    if verdict.is_member:
        table = {w.format(): w for w in gens}
        prod = Word(pres.alphabet, ())
        for label in verdict.witness:
            prod = prod * table[label]
        assert PREFIX_BRITTON[g].equal(prod, query), (g, verdict.witness)


ALL_PREFIX_SETS = {(g, o): prefix_generators(g, o)
                   for g in (2, 3) for o in (True, False)}


@st.composite
def prefix_queries(draw):
    """A query over the prefix set of S2, S3, N2 or N3: a product of
    prefixes, with a conjugated relator rotation spliced in, or inverted."""
    g, orientable = draw(st.sampled_from(sorted(ALL_PREFIX_SETS)))
    pres, gens = ALL_PREFIX_SETS[g, orientable]
    picks = draw(st.lists(st.integers(0, len(gens) - 1), min_size=1,
                          max_size=4))
    query = [x for i in picks for x in gens[i].letters]
    shape = draw(st.sampled_from(("product", "spliced", "inverted")))
    if shape == "spliced":
        rel = pres.relator.letters
        turn = draw(st.integers(0, len(rel) - 1))
        conj = tuple(draw(st.lists(signed_letter(len(pres.alphabet)),
                                   max_size=2)))
        at = draw(st.integers(0, len(query)))
        query[at:at] = (conj + rel[turn:] + rel[:turn]
                        + tuple(-x for x in reversed(conj)))
    elif shape == "inverted":
        query = [-x for x in reversed(query)]
    return g, orientable, Word(pres.alphabet, tuple(query))


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(prefix_queries())
def test_prefix_decider_is_the_general_decider(case):
    g, orientable, query = case
    prefix = decide_prefix_surface(g, orientable, query, BUDGET)
    general = decide_surface_submonoid(*ALL_PREFIX_SETS[g, orientable],
                                       query, BUDGET)
    assert prefix.methods[0] == "prefix"
    assert prefix.methods[1:] == general.methods, (g, orientable, query)
    assert prefix.outcome == general.outcome
    assert prefix.witness == general.witness
    assert prefix.certificate == general.certificate
    assert prefix.bound == general.bound


NONORIENTABLE = {g: builtin(f"N{g}") for g in (2, 3, 4)}
CYCLIC_SEARCH = SearchBudget(8, 2000, 2000)


@st.composite
def cyclic_queries(draw):
    """A generator x of N2, N3 or N4, and a query for Mon<x, x^-1>: a power
    of x with a conjugated relator rotation spliced in, or a short word."""
    g = draw(st.sampled_from(sorted(NONORIENTABLE)))
    pres = NONORIENTABLE[g]
    x = draw(st.integers(1, g))
    letter = signed_letter(g)
    spliced = draw(st.booleans())
    if spliced:
        e = draw(st.integers(-4, 4))
        query = [x if e > 0 else -x] * abs(e)
        rel = pres.relator.letters
        turn = draw(st.integers(0, len(rel) - 1))
        conj = tuple(draw(st.lists(letter, max_size=2)))
        at = draw(st.integers(0, len(query)))
        query[at:at] = (conj + rel[turn:] + rel[:turn]
                        + tuple(-y for y in reversed(conj)))
    else:
        query = draw(st.lists(letter, min_size=1, max_size=6))
    return g, x, Word(pres.alphabet, tuple(query)), spliced


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(cyclic_queries())
def test_inversion_closed_rank_one_agrees_with_bounded_search(case):
    """A spliced power of x and a product the search finds are never
    non-members, and a query the search certifies absent up to eight
    factors never gets a shorter member witness."""
    g, x, query, spliced = case
    pres = NONORIENTABLE[g]
    gens = [Word(pres.alphabet, (x,)), Word(pres.alphabet, (-x,))]
    verdict = decide_surface_magnus(g, False, gens, query, BUDGET)
    assert not (spliced and verdict.is_non_member), (g, x, query)
    res = bounded_search(gens, query, CYCLIC_SEARCH,
                         engine=select_engine(pres))
    if res.found:
        assert not verdict.is_non_member, (g, x, query, res.witness)
    if res.certified:
        assert not (verdict.is_member and len(verdict.witness) <= 8), (
            g, x, query, verdict.witness)


@st.composite
def nonorientable_magnus_queries(draw):
    """Signed generators of N2, N3 or N4 with mixed signs, the first of them
    perhaps with both, and a query: a product of them with a conjugated
    relator rotation spliced in, or a short word."""
    g = draw(st.sampled_from(sorted(NONORIENTABLE)))
    pres = NONORIENTABLE[g]
    chosen = draw(st.lists(st.integers(1, g), min_size=1, max_size=g,
                           unique=True))
    letters = [x * draw(st.sampled_from((1, -1))) for x in chosen]
    if draw(st.booleans()):
        letters.append(-letters[0])
    letter = signed_letter(g)
    spliced = draw(st.booleans())
    if spliced:
        query = draw(st.lists(st.sampled_from(letters), max_size=4))
        rel = pres.relator.letters
        turn = draw(st.integers(0, len(rel) - 1))
        conj = tuple(draw(st.lists(letter, max_size=2)))
        at = draw(st.integers(0, len(query)))
        query[at:at] = (conj + rel[turn:] + rel[:turn]
                        + tuple(-y for y in reversed(conj)))
    else:
        query = draw(st.lists(letter, min_size=1, max_size=6))
    return g, letters, Word(pres.alphabet, tuple(query)), spliced


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(nonorientable_magnus_queries())
def test_nonorientable_magnus_agrees_with_bounded_search(case):
    """A spliced product and a product the search finds are never
    non-members, a query the search certifies absent up to eight factors
    never gets a shorter member witness, and an unknown that no factor
    bound covers carries a DG instance over a zero-sum stable letter."""
    g, letters, query, spliced = case
    pres = NONORIENTABLE[g]
    gens = [Word(pres.alphabet, (x,)) for x in letters]
    verdict = decide_surface_magnus(g, False, gens, query, BUDGET)
    assert not (spliced and verdict.is_non_member), (g, letters, query)
    res = bounded_search(gens, query, CYCLIC_SEARCH,
                         engine=select_engine(pres))
    if res.found:
        assert not verdict.is_non_member, (g, letters, query, res.witness)
    if res.certified:
        assert not (verdict.is_member and len(verdict.witness) <= 8), (
            g, letters, query, verdict.witness)
    if verdict.is_unknown and not {"functional", "free-image"} & set(
            verdict.methods):
        ip = verdict.instance.hnn.ip
        assert ip.original.relator.exponent_sum(ip.stable) == 0
