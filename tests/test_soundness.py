"""Soundness properties.

A query built as a product of generators, with a conjugated relator
rotation spliced in, is in the submonoid, so no decider route may call it a
non-member, and every member witness must multiply back to the query in the
group.  A non-member proved through a free collapse must carry the image
that a fresh acceptor rejects; on BS(m, n) the stable-letter exponent map
onto the integers must settle exactly the queries whose exponent lies
outside the monoid of the generators' exponents.  The orientable Magnus
decider must agree with the general surface decider on the same
generating set.  Products of relator prefixes on S2 and S3 are members,
and their witnesses must multiply back through Britton, an engine the
prefix decider does not use.  The prefix decider is the general decider on
the prefix set: the same verdict, with "prefix" leading the methods.
"""

from math import gcd

from hypothesis import given, settings, strategies as st

from submon.words import Presentation, Word
from submon.presentations import (
    bs_presentation, builtin, select_engine, free_collapses,
    prefix_generators,
)
from submon.automata import SaturatedAcceptor
from submon.magnus import BrittonEngine
from submon.deciders import (
    decide_surface_submonoid, decide_surface_magnus, decide_prefix_surface,
)
from submon.distortion import SearchBudget

GROUPS = {
    name: builtin(name)
    for name in ("S2", "S3", "N2", "N3", "BURNS", "BS 2 3")
}
GROUPS["aabbb"] = Presentation.parse("gens: a b\nrel: aabbb")
ENGINES = {name: select_engine(pres) for name, pres in GROUPS.items()}
BUDGET = SearchBudget(4, 2000, 200)


@st.composite
def spliced_products(draw):
    name = draw(st.sampled_from(sorted(GROUPS)))
    pres = GROUPS[name]
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


SURFACES = ("S2", "S3", "N2", "N3")


def signed_letter(k):
    return st.sampled_from([s * i for i in range(1, k + 1) for s in (1, -1)])


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
