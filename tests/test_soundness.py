"""Soundness property: a query built as a product of generators, with a
conjugated relator rotation spliced in, is in the submonoid, so no decider
route may call it a non-member, and every member witness must multiply
back to the query in the group."""

from hypothesis import given, settings, strategies as st

from submon.words import Presentation, Word
from submon.presentations import builtin, select_engine
from submon.deciders import decide_surface_submonoid
from submon.distortion import SearchBudget

GROUPS = {
    name: builtin(name) for name in ("S2", "N2", "BURNS", "BS 2 3")
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


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
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
