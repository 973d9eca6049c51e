import os
import random
import subprocess
import sys
import textwrap

import pytest

import submon

from submon.words import Alphabet, Word, Presentation
from submon.presentations import (
    surface_presentation, nonorientable_presentation, bs_presentation,
    burns_presentation, BsEngine, select_engine, prefix_generators,
    free_collapses,
)
from submon.automata import SaturatedAcceptor
from submon.magnus import FbcGroup, britton_engine
from submon.deciders import (
    DeciderError, reduce_to_dg_instance, decide_surface_submonoid,
    decide_surface_magnus, decide_prefix_surface, decide_bs_magnus,
    decide_burns_magnus, decide_positivity_fbc,
    choose_signs, powers_decider, emit_positivity_gadget,
    eliminate_defined_generator,
)
from submon.distortion import SearchBudget


def check_witness(presentation, gens, witness, word, engine=None):
    """Multiply the witness out and compare with the word in the group."""
    engine = engine or select_engine(presentation)
    table = {w.format(): w for w in gens}
    prod = Word(presentation.alphabet, ())
    for label in witness:
        prod = prod * table[label]
    assert engine.equal(prod, presentation.word(word) if isinstance(word, str) else word)


def test_bs_rewriting_membership():
    v = decide_bs_magnus(2, 3, ["a"], "t a a t'")
    assert v.is_member and v.witness == ["a", "a", "a"]
    v = decide_bs_magnus(2, 3, ["a", "t", "T"], "a' t a")
    assert v.is_non_member
    assert v.certificate["normal_form"] == "aatA"
    assert v.certificate["outside_letters"] == ["A"]
    v = decide_bs_magnus(2, 3, ["t", "T"], "a")
    assert v.is_non_member
    v = decide_bs_magnus(2, 3, ["a", "t"], "t a")
    assert v.is_member and v.witness == ["t", "a"]
    v = decide_bs_magnus(2, 3, ["A", "t"], "a' t")
    assert v.is_member and v.witness == ["A", "t"]


def test_bs_parameter_normalization():
    # swapped parameters go through the t <-> T transform
    v = decide_bs_magnus(3, 2, ["a"], "t' a a t")
    assert v.is_member and v.witness == ["a", "a", "a"]
    assert v.certificate["normalized"] == {"m": 2, "n": 3, "swaps": ["tT"]}
    # both negative goes through a <-> A
    v = decide_bs_magnus(-2, -3, ["A"], "t a' a' t'")
    assert v.is_member and v.witness == ["A", "A", "A"]
    assert v.certificate["normalized"]["swaps"] == ["aA"]


def test_bs_mixed_signs():
    # BS(-2, 3): three letters with both stable signs span the whole group
    v = decide_bs_magnus(-2, 3, ["a", "t", "T"], "a'")
    assert v.is_member
    check_witness(bs_presentation(-2, 3),
                  [Word.parse(Alphabet(["a", "t"]), s) for s in ("a", "t", "T")],
                  v.witness, "a'", BsEngine(-2, 3))
    # base powers
    v = decide_bs_magnus(-2, 3, ["a"], "t a' a' t'")
    assert v.is_member and v.witness == ["a", "a", "a"]
    v = decide_bs_magnus(-2, 3, ["A"], "t a' a' t'")
    assert v.is_non_member
    v = decide_bs_magnus(-2, 3, ["a", "A"], "t a t'")
    assert v.is_non_member
    assert v.certificate["reason"] == "not in the base subgroup"
    # stable powers
    v = decide_bs_magnus(-2, 3, ["t"], "t t")
    assert v.is_member and v.witness == ["t", "t"]
    v = decide_bs_magnus(-2, 3, ["t"], "t'")
    assert v.is_non_member
    # sign filter before the search fallback
    v = decide_bs_magnus(-2, 3, ["a", "t"], "a t'")
    assert v.is_non_member


def test_bs_rejects_bad_parameters():
    for m, n in [(0, 3), (2, 0), (2, 2), (-1, -1)]:
        with pytest.raises(DeciderError):
            decide_bs_magnus(m, n, ["a"], "a")
    with pytest.raises(DeciderError):
        decide_bs_magnus(2, 3, [], "a")
    with pytest.raises(DeciderError):
        decide_bs_magnus(2, 3, ["a", "A", "t", "T"], "a")
    with pytest.raises(DeciderError):
        decide_bs_magnus(2, 3, ["b"], "a")


def test_bs_random_consistency():
    # brute-force positive products as an oracle on a couple of subsets
    rng = random.Random(5)
    pres = bs_presentation(2, 3)
    engine = BsEngine(2, 3)
    alphabet = pres.alphabet
    for S in (["a", "t"], ["A", "T"], ["a", "T"], ["t", "T"]):
        gens = [Word.parse(alphabet, s) for s in S]
        reachable = set()
        frontier = [Word(alphabet, ())]
        for _ in range(5):
            nxt = []
            for w in frontier:
                for g in gens:
                    u = w * g
                    key = engine.normal_key(u) if hasattr(engine, "normal_key") else None
                    nxt.append(u)
            frontier = nxt
            reachable.update(w.letters for w in frontier)
        for _ in range(40):
            n = rng.randint(1, 5)
            word = Word(alphabet, [rng.choice([1, -1, 2, -2]) for _ in range(n)])
            v = decide_bs_magnus(2, 3, S, word)
            if v.is_non_member:
                assert not any(engine.equal(Word(alphabet, r), word)
                               for r in reachable)
            if v.is_member:
                check_witness(pres, gens, v.witness, word, engine)


def test_burns_membership():
    v = decide_burns_magnus(["a", "t", "T"], "t a t'")
    assert v.is_member and v.witness == ["t", "a", "T"]
    v = decide_burns_magnus(["a", "t", "T"], "t t a t' t'")
    assert v.is_member and v.witness == ["t", "t", "a", "T", "T"]
    v = decide_burns_magnus(["a", "t", "T"], "a'")
    assert v.is_non_member
    v = decide_burns_magnus(["a", "t"], "a t")
    assert v.is_member and v.witness == ["a", "t"]
    v = decide_burns_magnus(["a", "t"], "t a t'")
    assert v.is_non_member
    v = decide_burns_magnus(["t"], "t t")
    assert v.is_member and v.witness == ["t", "t"]
    v = decide_burns_magnus(["t"], "t'")
    assert v.is_non_member
    v = decide_burns_magnus(["a", "A"], "a a")
    assert v.is_member and v.witness == ["a", "a"]
    v = decide_burns_magnus(["a", "A"], "t")
    assert v.is_non_member
    v = decide_burns_magnus(["A", "t", "T"], "t a' t'")
    assert v.is_member and v.witness == ["t", "A", "T"]


def test_burns_random_consistency():
    rng = random.Random(9)
    pres = burns_presentation()
    fbc = FbcGroup(pres, "t")
    alphabet = pres.alphabet
    for S in (["a", "t"], ["a", "T"], ["a", "t", "T"], ["t", "T"]):
        gens = [Word.parse(alphabet, s) for s in S]
        products = set()
        frontier = [Word(alphabet, ())]
        for _ in range(4):
            frontier = [w * g for w in frontier for g in gens]
            products.update(frontier)
        for word in list(products)[:25]:
            v = decide_burns_magnus(S, word)
            assert v.is_member, (S, word.format())
            check_witness(pres, gens, v.witness, word, fbc)
        for _ in range(30):
            n = rng.randint(1, 6)
            word = Word(alphabet, [rng.choice([1, -1, 2, -2]) for _ in range(n)])
            v = decide_burns_magnus(S, word)
            if v.is_member:
                check_witness(pres, gens, v.witness, word, fbc)


def test_prefix_surface():
    v = decide_prefix_surface(2, False, "c'")
    assert v.is_non_member
    assert v.certificate["reason"] == "negative functional value"
    assert v.methods[:2] == ["prefix", "functional"]
    v = decide_prefix_surface(2, True, "a b")
    assert v.is_member and v.witness == ["ab"]
    assert v.methods[:2] == ["prefix", "free-image"]
    assert v.certificate["slope"] == 3
    v = decide_prefix_surface(2, True, "a a b")
    assert v.is_member and v.witness == ["a", "ab"]
    v = decide_prefix_surface(2, False, "c c c d")
    assert v.is_member and v.witness == ["c", "ccd"]


def test_prefix_surface_random_products():
    # the default budget and the tighter one the library callers pass; the
    # image route and the search must settle every product under both
    rng = random.Random(3)
    tight = SearchBudget(8, 20000)
    for g, orientable in [(2, True), (2, False), (3, True), (3, False)]:
        pres, gens = prefix_generators(g, orientable)
        engine = select_engine(pres)
        for _ in range(20):
            k = rng.randint(1, 5)
            picks = [rng.randrange(len(gens)) for _ in range(k)]
            word = Word(pres.alphabet, ())
            for i in picks:
                word = word * gens[i]
            for budget in (None, tight):
                v = decide_prefix_surface(g, orientable, word, budget)
                assert v.is_member, (g, orientable, word.format(), budget)
                check_witness(pres, gens, v.witness, word, engine)


def _splice_relator(rng, pres, word):
    rel = pres.relator.letters
    turn = rng.randrange(len(rel))
    conj = Word(pres.alphabet, (rng.choice([1, -1]) * rng.randint(
        1, len(pres.alphabet)),))
    piece = conj * Word(pres.alphabet, rel[turn:] + rel[:turn]) * ~conj
    at = rng.randrange(len(word) + 1)
    return (Word(pres.alphabet, word.letters[:at]) * piece
            * Word(pres.alphabet, word.letters[at:]))


def _check_image_certificate(pres, gens, word, verdict):
    """The certificate names a collapse f and f(word), and a fresh acceptor
    for the image monoid rejects f(word)."""
    f = dict(free_collapses(pres))[verdict.certificate["hom"]]
    assert verdict.certificate["image"] == f(word).format()
    acceptor = SaturatedAcceptor(f.target, [f(g) for g in gens])
    assert not acceptor.member(f(word))


def test_prefix_non_members_settled_by_images():
    # the exponent sum of the first letter is >= 0 on every prefix, so an
    # inverted product ending in a prefix where it is > 0 is a non-member;
    # the decider proves it through the free collapses
    rng = random.Random(66)
    for g in (2, 3):
        pres, gens = prefix_generators(g, True)
        first = pres.alphabet.names[0]
        positive = [w for w in gens if w.exponent_sum(first) > 0]
        for _ in range(20):
            word = Word(pres.alphabet, ())
            for _ in range(rng.randint(0, 2)):
                word = word * rng.choice(gens)
            word = ~(word * rng.choice(positive))
            if rng.random() < 0.5:
                word = _splice_relator(rng, pres, word)
            assert word.exponent_sum(first) < 0
            v = decide_prefix_surface(g, True, word)
            assert v.is_non_member and v.methods == [
                "prefix", "free-image", "image"], (
                g, word.format(), v)
            _check_image_certificate(pres, gens, word, v)


def test_magnus_non_member_settled_by_twist():
    # a, c, C omit b and d; the collapse onto <x, y> sends b into the image
    # monoid (c and b share the image x' y x), and the twisted collapse
    # keeps b outside it
    S2 = surface_presentation(2)
    v = decide_surface_magnus(2, True, ["a", "c", "C"], "b")
    assert v.is_non_member and v.methods == ["image"]
    assert v.certificate == {"hom": "dehn-twist", "image": "b",
                             "reason": "image outside the image submonoid"}
    gens = [S2.word(t) for t in ("a", "c", "C")]
    _check_image_certificate(S2, gens, S2.word("b"), v)
    collapse = dict(free_collapses(S2))["collapse"]
    assert SaturatedAcceptor(collapse.target, [collapse(w) for w in gens]
                             ).member(collapse(S2.word("b")))


def test_spliced_member_settled_by_image_lift():
    S2 = surface_presentation(2)
    gens = [S2.word("a"), S2.word("a b")]
    # a . ab with a relator rotation between the factors
    word = S2.word("a c d c' d' a b a' b' a b")
    v = decide_surface_submonoid(S2, gens, word)
    assert v.is_member and v.witness == ["a", "ab"]
    assert v.methods == ["functional", "image-lift"]
    check_witness(S2, gens, v.witness, word)


def test_surface_submonoid_routes():
    S2 = surface_presentation(2)
    v = decide_surface_submonoid(S2, ["a", "a b"], "a a b")
    assert v.is_member and v.witness == ["a", "ab"]
    assert "functional" in v.methods
    v = decide_surface_submonoid(S2, ["a", "a b"], "b")
    assert v.is_non_member
    assert v.certificate["value"] == 0
    v = decide_surface_submonoid(S2, ["a", "a b"], "a'")
    assert v.is_non_member
    assert v.certificate["value"] == -1
    v = decide_surface_submonoid(S2, [], "a")
    assert v.is_non_member
    v = decide_surface_submonoid(S2, ["a"], "")
    assert v.is_member and v.witness == []
    # relator spelled as a product is the identity
    v = decide_surface_submonoid(S2, ["a"], "a b a' b' c d c' d'")
    assert v.is_member and v.witness == []


def test_engineless_search_miss_is_unknown():
    """b^-3 = a^2 in <a, b | a^2 b^3>, so BBB lies in Mon<a>; no engine
    applies, and a search that only covered the free group proves
    nothing."""
    pres = Presentation.parse("gens: a b\nrel: aabbb")
    assert select_engine(pres) is None
    v = decide_surface_submonoid(pres, ["a"], "BBB")
    assert v.is_unknown
    assert "exhausted" not in v.certificate


def test_dg_instance_shape():
    S2 = surface_presentation(2)
    inst = reduce_to_dg_instance(S2, "a", ["b", "b c"], query="b c b")
    d = inst.serialize()
    assert d["stable"] == "a"
    assert d["window"] == [0, 1]
    assert d["generators"] == [
        {"j": 0, "u": "b[0]", "label": "b"},
        {"j": 0, "u": "b[0] c[0]", "label": "bc"},
    ]
    assert d["groups"] == {"W0": ["b", "bc"]}
    assert d["query"] == {"j": 0, "u": "b[0] c[0] b[0]"}
    assert d["inverted"] is False
    assert set(d["phi"]) == set(d["pGens"])
    # generators with stable exponent land in W'j buckets
    inst = reduce_to_dg_instance(S2, "a", ["b", "a c"])
    d = inst.serialize()
    assert d["groups"] == {"W0": ["b"], "W'1": ["ac"]}
    # negative exponents flip the instance; labels keep the input spelling
    inst = reduce_to_dg_instance(S2, "a", ["b'", "a' c"])
    assert inst.inverted
    d = inst.serialize()
    assert d["groups"] == {"W0": ["B"], "W'1": ["Ac"]}
    assert d["generators"][1]["u"] == "c[-1]'"


def test_dg_instances_share_the_engine_window():
    S2 = surface_presentation(2)
    one = reduce_to_dg_instance(S2, "a", ["b", "b c"], query="b c b")
    two = reduce_to_dg_instance(S2, "a", ["b c", "b"])
    assert one.serialize()["window"] == two.serialize()["window"] == [0, 1]
    assert one.hnn is two.hnn
    assert one.hnn is britton_engine(S2, "a").window(0, 1)


GOLDEN_BURNS_INSTANCE = {
    "basis": ["a[-1]", "a[0]"],
    "eliminated": "a",
    "generators": [
        {"j": 0, "label": "a", "u": "a[0]"},
        {"j": 1, "label": "ta", "u": "a[0]"},
    ],
    "groups": {"W'1": ["ta"], "W0": ["a"]},
    "interval": ("gens: a[-1] a[0] a[1] a[2] t\n"
                 "rel: a[0] a[1]' a[0] a[-1]'\n"
                 "rel: a[1] a[2]' a[1] a[0]'\n"
                 "rel: t a[-1] t' a[0]'\n"
                 "rel: t a[0] t' a[1]'\n"
                 "rel: t a[1] t' a[2]'\n"),
    "inverted": False,
    "pGens": ["a[-1]", "a[0]", "a[1]"],
    "phi": {
        "a[-1]": "a[0]",
        "a[0]": "a[0] a[-1]' a[0]",
        "a[1]": "a[0] a[-1]' a[0] a[-1]' a[0]",
    },
    "presentation": "gens: a t\nrel: t a t a' t' a t' a'\n",
    "qGens": ["a[0]", "a[1]", "a[2]"],
    "query": {"j": 1, "u": "a[-1] a[0]"},
    "stable": "t",
    "substitutions": {
        "a[1]": "a[0] a[-1]' a[0]",
        "a[2]": "a[0] a[-1]' a[0] a[-1]' a[0]",
    },
    "window": [-1, 0],
}

GOLDEN_CHAIN_INSTANCE = {
    "basis": ["a[0]", "a[1]", "b[0]", "b[1]", "c[0]"],
    "eliminated": "c",
    "generators": [
        {"j": 0, "label": "ab", "u": "a[0] b[0]"},
        {"j": 1, "label": "tc", "u": "c[0]"},
    ],
    "groups": {"W'1": ["tc"], "W0": ["ab"]},
    "interval": ("gens: a[0] a[1] b[0] b[1] c[0] c[1] c[2] t\n"
                 "rel: a[0] b[0] a[0]' b[0]' c[0] c[1]'\n"
                 "rel: a[1] b[1] a[1]' b[1]' c[1] c[2]'\n"
                 "rel: t a[0] t' a[1]'\n"
                 "rel: t b[0] t' b[1]'\n"
                 "rel: t c[0] t' c[1]'\n"
                 "rel: t c[1] t' c[2]'\n"),
    "inverted": False,
    "pGens": ["a[0]", "b[0]", "c[0]", "c[1]"],
    "phi": {
        "a[0]": "a[1]",
        "b[0]": "b[1]",
        "c[0]": "a[0] b[0] a[0]' b[0]' c[0]",
        "c[1]": "a[1] b[1] a[1]' b[1]' a[0] b[0] a[0]' b[0]' c[0]",
    },
    "presentation": "gens: a b c t\nrel: a b a' b' c t c' t'\n",
    "qGens": ["a[1]", "b[1]", "c[1]", "c[2]"],
    "query": {"j": 1, "u": "c[0] a[0] b[0]"},
    "stable": "t",
    "substitutions": {
        "c[1]": "a[0] b[0] a[0]' b[0]' c[0]",
        "c[2]": "a[1] b[1] a[1]' b[1]' a[0] b[0] a[0]' b[0]' c[0]",
    },
    "window": [0, 1],
}


def test_dg_instance_golden_serialization():
    burns = burns_presentation()
    chain = Presentation.parse("gens: a b c t\nrel: abABctCT\n")
    inst = reduce_to_dg_instance(burns, "t", ["a", "t a"], query="a t a")
    assert inst.serialize() == GOLDEN_BURNS_INSTANCE
    inst = reduce_to_dg_instance(chain, "t", ["a b", "t c"], query="t c a b")
    assert inst.serialize() == GOLDEN_CHAIN_INSTANCE


def test_instance_only_on_unknown_verdicts():
    B = burns_presentation()
    gens = ["a", "A", "t"]
    budget = SearchBudget(4, 2000)
    found = decide_surface_submonoid(B, gens, "at", budget)
    assert found.is_member and found.witness == ["a", "t"]
    assert found.methods == ["search"]
    assert found.instance is None
    # every generator has nonnegative t-exponent, so T is out of reach,
    # and the functional counting t proves it
    separated = decide_surface_submonoid(B, gens, "T", budget)
    assert separated.is_non_member and separated.methods == ["abelian"]
    assert separated.instance is None
    # Tat has t-exponent 0 and a-exponent 1, which a, A cancel in every
    # functional >= 0 on the set: no abelian obstruction, so the search runs
    missed = decide_surface_submonoid(B, gens, "Tat", budget)
    assert missed.is_unknown
    assert missed.certificate == {"limit": "max_depth"}
    assert missed.methods[0] == "instance"
    assert missed.methods[-1] == "semi-decision"
    direct = reduce_to_dg_instance(B, "t", gens, query="Tat")
    assert missed.instance.serialize() == direct.serialize()


def test_positivity_and_burns_share_the_ordered_cover():
    B = burns_presentation()
    rng = random.Random(5)
    covered = 0
    for _ in range(600):
        w = "".join(rng.choice("aAtT") for _ in range(rng.randint(1, 8)))
        pos = decide_positivity_fbc(B, w)
        burns = decide_burns_magnus(["a", "t"], w)
        assert ((pos.outcome, pos.witness, pos.methods)
                == (burns.outcome, burns.witness, burns.methods)), w
        covered += "orbit-dp" in pos.methods
    assert covered > 100


def test_dg_instance_rejections():
    S2 = surface_presentation(2)
    with pytest.raises(DeciderError):
        reduce_to_dg_instance(S2, "a", ["a c", "a' b"])  # mixed signs
    B = bs_presentation(2, 3)
    with pytest.raises(DeciderError):
        reduce_to_dg_instance(B, "t", ["a"])  # extremes not unique


def test_surface_magnus_orientable():
    v = decide_surface_magnus(2, True, ["a", "b"], "a b a")
    assert v.is_member and v.witness == ["a", "b", "a"]
    v = decide_surface_magnus(2, True, ["a", "b"], "b'")
    assert v.is_non_member
    with pytest.raises(DeciderError):
        decide_surface_magnus(2, True,
                              ["a", "a'", "b", "b'", "c", "c'", "d", "d'"],
                              "a")
    with pytest.raises(DeciderError):
        decide_surface_magnus(2, True, ["a b"], "a b")


def test_surface_magnus_nonorientable():
    N2 = nonorientable_presentation(2)
    gens = [Word.parse(N2.alphabet, s) for s in ("c", "d")]
    # all generators present positively span the whole group
    v = decide_surface_magnus(2, False, ["c", "d"], "c'")
    assert v.is_member
    check_witness(N2, gens, v.witness, "c'")
    # all negative works through the mirrored relator
    neg = [Word.parse(N2.alphabet, s) for s in ("c'", "d'")]
    v = decide_surface_magnus(2, False, ["c'", "d'"], "c")
    assert v.is_member and v.witness == ["C", "D", "D"]
    check_witness(N2, neg, v.witness, "c")
    # other proper sets go through the general decider
    v = decide_surface_magnus(2, False, ["c", "d'"], "d' c")
    assert v.is_member and v.witness == ["D", "c"]
    v = decide_surface_magnus(3, False, ["a1", "a2"], "a2 a1'")
    assert v.is_non_member
    v = decide_surface_magnus(3, False, ["a1'", "a3"], "a1' a1' a3")
    assert v.is_member and v.witness == ["a1'", "a1'", "a3"]
    N3 = nonorientable_presentation(3)
    g3 = [Word.parse(N3.alphabet, s) for s in ("a1'", "a3")]
    check_witness(N3, g3, v.witness, "a1' a1' a3")
    # so do all-negative single-sign sets
    v = decide_surface_magnus(3, False, ["a1'", "a3'"], "a3' a1'")
    assert v.is_member and v.witness == ["a3'", "a1'"]
    g4 = [Word.parse(N3.alphabet, s) for s in ("a1'", "a3'")]
    check_witness(N3, g4, v.witness, "a3' a1'")


def test_surface_magnus_inversion_closed_rank_one():
    # Mon<x, x'> is <x>: the exponent sums pick the one candidate power
    v = decide_surface_magnus(2, False, ["d", "d'"], "c c d d d d")
    assert v.is_member and v.witness == ["d", "d"]
    assert v.methods == ["cyclic"] and v.certificate == {"exponent": 2}
    v = decide_surface_magnus(3, False, ["a1", "a1'"], "a2 a2 a3 a3")
    assert v.is_member and v.witness == ["a1'", "a1'"]
    v = decide_surface_magnus(3, False, ["a2", "a2'"], "a1 a1")
    assert v.is_non_member and v.methods == ["cyclic"]
    assert v.certificate == {
        "image": {"a1": 2, "a2": 0, "a3": 0}, "exponent": None,
        "reason": "no power of the generator equals the word"}
    # the abelian image fits a1', but the group says otherwise
    v = decide_surface_magnus(3, False, ["a1", "a1'"], "a2 a3")
    assert v.is_non_member and v.certificate["exponent"] == -1


def test_surface_magnus_nonorientable_takes_the_general_routes():
    # the collapse onto Z sends a1 to x and a2 to 1, and x is outside
    # Mon<1, x'>
    v = decide_surface_magnus(3, False, ["a2", "a2'", "a1'"], "a1")
    assert v.is_non_member and v.methods[-1] == "image"
    assert v.certificate["hom"] == "collapse"
    assert v.certificate["image"] == "x"
    # an inversion-closed rank-2 set is searched like any other
    N3 = nonorientable_presentation(3)
    gens = [Word.parse(N3.alphabet, s) for s in ("a1", "a1'", "a2", "a2'")]
    v = decide_surface_magnus(3, False, gens, "a2 a1 a2'")
    assert v.is_member
    check_witness(N3, gens, v.witness, "a2 a1 a2'")
    v = decide_surface_magnus(3, False, gens, "a3 a3 a1")
    assert "out of scope" not in str(v.certificate)


def test_surface_magnus_rank_one_single_sign():
    # Mon<x> and Mon<x'> hold the powers of x of one sign
    v = decide_surface_magnus(3, False, ["a1'"], "a2 a2 a3 a3")
    assert v.is_member and v.witness == ["a1'", "a1'"]
    assert v.methods == ["cyclic"]
    v = decide_surface_magnus(3, False, ["a1"], "a2 a2 a3 a3")
    assert v.is_non_member and v.methods == ["cyclic"]
    assert v.certificate == {"exponent": -2,
                             "reason": "power of the wrong sign"}
    budget = SearchBudget(6, 5000)
    for word in ("a3 a3 a3 a3 a3 a3 a3", "a3' a2 a2 a2"):
        v = decide_surface_magnus(3, False, ["a1'"], word, budget)
        assert v.is_non_member and v.methods == ["cyclic"], word


@pytest.mark.parametrize("decide, full", [
    (lambda s: decide_surface_magnus(2, True, s, "a"),
     ["a", "a'", "b", "b'", "c", "c'", "d", "d'"]),
    (lambda s: decide_surface_magnus(2, False, s, "c"), ["c", "c'", "d", "D"]),
    (lambda s: decide_bs_magnus(2, 3, s, "a"), ["a", "A", "t", "t'"]),
    (lambda s: decide_burns_magnus(s, "a"), ["a", "a'", "t", "T"]),
])
def test_magnus_generating_set_contract(decide, full):
    """Every Magnus decider takes a nonempty proper subset of the signed
    generators, in any spelling, and rejects anything else."""
    assert not decide(full[:1]).is_unknown
    for bad in ([], full, [full[0], full[0]], [full[0], full[0] + " "],
                full[:1] + [full[0] + " " + full[1] + " " + full[0]],
                ["q"]):
        with pytest.raises(DeciderError):
            decide(bad)


def test_positivity_fbc():
    B = burns_presentation()
    table = [
        ("a t", "member", ["a", "t"]),
        ("t a t'", "non-member", None),
        ("t", "member", ["t"]),
        ("a' t", "non-member", None),
        ("t' a", "non-member", None),
        ("a a t a t t", "member", ["a", "a", "t", "a", "t", "t"]),
    ]
    fbc = FbcGroup(B, "t")
    for text, outcome, witness in table:
        v = decide_positivity_fbc(B, text)
        assert v.outcome == outcome, text
        if witness is not None:
            assert v.witness == witness
            check_witness(B, [B.word("a"), B.word("t")], v.witness, text, fbc)
    with pytest.raises(DeciderError):
        decide_positivity_fbc(bs_presentation(2, 3), "a")
    with pytest.raises(DeciderError):
        decide_positivity_fbc(surface_presentation(2), "a")


GOLDEN_POSITIVITY_INSTANCE = {
    "presentation": "gens: a t\nrel: t a t' a' t' a' t\n",
    "stable": "t",
    "eliminated": "a",
    "window": [-1, 0],
    "interval": ("gens: a[-2] a[-1] a[0] a[1] t\n"
                 "rel: a[0] a[-1]' a[-2]'\n"
                 "rel: a[1] a[0]' a[-1]'\n"
                 "rel: t a[-2] t' a[-1]'\n"
                 "rel: t a[-1] t' a[0]'\n"
                 "rel: t a[0] t' a[1]'\n"),
    "basis": ["a[-2]", "a[-1]"],
    "substitutions": {"a[0]": "a[-2] a[-1]", "a[1]": "a[-1] a[-2] a[-1]"},
    "pGens": ["a[-2]", "a[-1]", "a[0]"],
    "qGens": ["a[-1]", "a[0]", "a[1]"],
    "phi": {"a[-2]": "a[-1]", "a[-1]": "a[-2] a[-1]",
            "a[0]": "a[-1] a[-2] a[-1]"},
    "generators": [{"j": 0, "u": "a[0]", "label": "a"},
                   {"j": 1, "u": "", "label": "t"}],
    "query": {"j": 2, "u": "a[-2]' a[-2]' a[0]"},
    "inverted": False,
    "groups": {"W0": ["a"], "W'1": ["t"]},
}


def test_positivity_fbc_golden():
    """Positivity on two FBC groups other than Burns.  On <a, t | taTATAt>
    the orbit factors cancel at a seam, so the ordered cover is not exact
    and the certified search decides; <a, t | ATaatATT> has stable letter
    a, and the witness comes back in the generator names."""
    def run(relator, word):
        pres = Presentation.parse(f"gens: a t\nrel: {relator}\n")
        return decide_positivity_fbc(pres, word).to_dict()

    assert run("taTATAt", "ttAtAata") == {
        "verdict": "member",
        "method": ["fbc-normal-form", "search+group-eq"],
        "witness": ["t", "t", "t", "a", "t"],
        "certificate": {"j": 4, "u": "a[-1]", "stable": "t"},
        "bound": 8}
    assert run("taTATAt", "tTAAtta") == {
        "verdict": "unknown",
        "method": ["fbc-normal-form", "search+group-eq", "semi-decision"],
        "witness": None,
        "certificate": {"j": 2, "u": "a[-1] a[0]' a[-1]", "stable": "t",
                        "limit": "max_depth"},
        "bound": 8,
        "instance": GOLDEN_POSITIVITY_INSTANCE}
    assert run("taTATAt", "aata") == {
        "verdict": "member", "method": ["fbc-normal-form", "orbit-dp"],
        "witness": ["a", "a", "t", "a"],
        "certificate": {"j": 1, "u": "a[-1] a[-1] a[0]", "stable": "t"},
        "bound": None}
    assert run("ATaatATT", "aata") == {
        "verdict": "member", "method": ["fbc-normal-form", "search"],
        "witness": ["a", "a", "t", "a"],
        "certificate": {"j": 3, "u": "t[-1]", "stable": "a"},
        "bound": 8}
    assert run("ATaatATT", "ttAtAata") == {
        "verdict": "non-member", "method": ["fbc-normal-form", "orbit-dp"],
        "witness": None,
        "certificate": {"j": 0, "u": "t[0] t[0] t[-1] t[-1]",
                        "stable": "a",
                        "reason": "ordered orbit tiling exhausted"},
        "bound": None}


def test_positivity_cover_memoizes_dead_ends():
    """On <a, t | TAttaT> the orbit factors of a alternate a[0], a[-1], so
    a[0] is factor 2 and factor 0.  For aatAt (j = 2, u = a[0] a[0] a[-1]')
    the cover takes factor 2 first; from position 1 both caps 2 and 0 fail
    at position 2.  Back at position 0 it takes factor 0, and factor 0
    again reaches position 2 at cap 0, a pair already known to fail."""
    pres = Presentation.parse("gens: a t\nrel: TAttaT\n")
    assert decide_positivity_fbc(pres, "aatAt").to_dict() == {
        "verdict": "non-member", "method": ["fbc-normal-form", "orbit-dp"],
        "witness": None,
        "certificate": {"j": 2, "u": "a[0] a[0] a[-1]'", "stable": "t",
                        "reason": "ordered orbit tiling exhausted"},
        "bound": None}


def test_orbit_cover_outlasts_the_recursion_limit():
    """The cover keeps its path on a list: a kernel word of 1500 factors
    is covered, not a RecursionError."""
    v = decide_burns_magnus(["a", "t"], "a" * 1500)
    assert v.methods == ["fbc-normal-form", "orbit-dp"]
    assert v.witness == ["a"] * 1500


def test_positivity_fbc_random():
    rng = random.Random(17)
    B = burns_presentation()
    fbc = FbcGroup(B, "t")
    gens = [B.word("a"), B.word("t")]
    for _ in range(30):
        k = rng.randint(1, 7)
        picks = [rng.randrange(2) for _ in range(k)]
        word = Word(B.alphabet, ())
        for i in picks:
            word = word * gens[i]
        v = decide_positivity_fbc(B, word)
        assert v.is_member, word.format()
        check_witness(B, gens, v.witness, word, fbc)
    for _ in range(30):
        n = rng.randint(1, 6)
        word = Word(B.alphabet, [rng.choice([1, -1, 2, -2]) for _ in range(n)])
        v = decide_positivity_fbc(B, word)
        if v.is_member:
            check_witness(B, gens, v.witness, word, fbc)


def test_choose_signs():
    S2 = surface_presentation(2)
    assert choose_signs(S2, ["a b", "c'"]) == ("a", [1, 1])
    assert choose_signs(S2, ["b'", "b b"]) == ("b", [-1, 1])
    assert choose_signs(S2, ["a b a' b'"]) == ("a", [1])


def test_powers_decider():
    F2 = Presentation(Alphabet(["x", "y"]), [])
    v = powers_decider(F2, ["x x", "x' x'", "y y y", "y' y' y'"],
                       "x x y y y x x")
    assert v.is_member and v.witness == ["xx", "yyy", "xx"]
    v = powers_decider(F2, ["x x", "x' x'"], "x")
    assert v.is_non_member
    assert v.certificate["subgroup"] == {"x": 2}
    v = powers_decider(F2, ["x x x", "x' x'"], "x")
    assert v.is_member and v.witness == ["XX", "xxx"]
    S2 = surface_presentation(2)
    v = powers_decider(S2, ["a a", "a' a'"], "a a a a")
    assert v.is_member and v.witness == ["aa", "aa"]
    v = powers_decider(S2, ["a a", "a' a'"], "a a a")
    assert v.is_unknown
    assert v.certificate["subgroup"] == {"a": 2}
    v = powers_decider(S2, ["a a", "b"], "a a b")
    assert v.is_member and v.witness == ["aa", "b"]
    with pytest.raises(DeciderError):
        powers_decider(F2, ["x y"], "x")


def test_positivity_gadget():
    free_a = Presentation(Alphabet(["a"]), [])
    out = emit_positivity_gadget(free_a, ["a"])
    d = out.serialize()
    assert d["stable"] == "t"
    assert d["generators"] == ["a", "t", "g1"]
    assert d["conjugates"] == {"g1": "a"}
    reparsed = Presentation.parse(d["presentation"])
    assert reparsed.alphabet.names == ("a", "t", "g1")
    assert [r.format() for r in reparsed.relators] == ["t a t' g1'"]
    # eliminating the defined conjugate leaves a rank-2 free group
    smaller, hom = eliminate_defined_generator(reparsed, "g1")
    assert smaller.alphabet.names == ("a", "t")
    assert smaller.relators == ()
    assert hom(reparsed.word("g1")).format() == "taT"


def test_positivity_gadget_multiple_words():
    S2 = surface_presentation(2)
    out = emit_positivity_gadget(S2, ["a b", "c"])
    d = out.serialize()
    assert d["generators"] == ["a", "b", "c", "d", "t", "g1", "g2"]
    assert d["conjugates"] == {"g1": "ab", "g2": "c"}
    reparsed = Presentation.parse(d["presentation"])
    assert len(reparsed.relators) == 3
    # original relator survives the lift
    assert reparsed.relators[0].format() == "a b a' b' c d c' d'"


def test_eliminate_defined_generator_requires_single_occurrence():
    P = Presentation.parse("gens: a b\nrel: a b a b\n")
    with pytest.raises(DeciderError):
        eliminate_defined_generator(P, "a")


LYING_ENGINE = textwrap.dedent("""
    from submon.words import Presentation
    from submon.deciders import decide_surface_submonoid

    class Liar:
        def is_trivial(self, word):
            return False

        def equal(self, u, v):
            return False

    pres = Presentation.parse("gens: a b c d\\nrel: abABcdCD\\n")
    decide_surface_submonoid(pres, ["a", "b"], "ab", engine=Liar())
""")


def test_verification_survives_optimize_flag():
    """A member verdict whose witness the engine rejects must raise even
    when asserts are compiled out."""
    src = os.path.dirname(os.path.dirname(submon.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", LYING_ENGINE],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert "AssertionError: witness failed verification" in proc.stderr


LYING_FUNCTIONAL = textwrap.dedent("""
    import submon.deciders as deciders
    from submon.presentations import burns_presentation

    # zero on the query, so it separates nothing
    deciders.separating_functional = lambda *args: {"a": 0, "t": 0}
    deciders.decide_surface_submonoid(burns_presentation(), ["a", "A", "t"],
                                      "T")
""")


def test_abelian_recheck_survives_optimize_flag():
    """An abelian non-member whose functional fails the integer recheck
    must raise even when asserts are compiled out."""
    src = os.path.dirname(os.path.dirname(submon.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", LYING_FUNCTIONAL],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert ("AssertionError: separating functional failed to verify"
            in proc.stderr)
