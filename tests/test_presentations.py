import random

import pytest

from submon.words import Alphabet, Word, WordError, Presentation
from submon.presentations import (
    surface_presentation, nonorientable_presentation, bs_presentation,
    burns_presentation, builtin, prefix_generators, s2_retraction,
    collapse_hom, free_collapses, select_engine, parse_bs_relator, BsEngine,
)
from submon.words import GroupHom
from submon.distortion import dehn_twist_hom


def random_reduced(rng, alphabet, max_len):
    k = len(alphabet)
    letters = []
    for _ in range(rng.randrange(1, max_len + 1)):
        while True:
            x = rng.choice([s * g for g in range(1, k + 1) for s in (1, -1)])
            if not letters or letters[-1] != -x:
                break
        letters.append(x)
    return Word(alphabet, tuple(letters))


def test_builtin_lookup():
    assert builtin("S2").format() == "gens: a b c d\nrel: a b a' b' c d c' d'\n"
    assert builtin("n2").format() == "gens: c d\nrel: c c d d\n"
    assert builtin("BS 2 3").relator.format() == "taaTAAA"
    assert builtin("BS(1, 2)").relator.format() == "taTAA"
    assert builtin("BURNS").relator.format() == "tatATaTA"
    with pytest.raises(WordError):
        builtin("K7")
    with pytest.raises(WordError):
        builtin("S1")


def test_surface_families():
    s3 = surface_presentation(3)
    assert s3.alphabet.names == ("a1", "b1", "a2", "b2", "a3", "b3")
    assert len(s3.relator) == 12
    n4 = nonorientable_presentation(4)
    assert n4.relator.format() == "a1 a1 a2 a2 a3 a3 a4 a4"


def test_prefix_generators():
    pres, gens = prefix_generators(2, True)
    texts = [w.format() for w in gens]
    assert texts == ["a", "ab", "abA", "abAB", "d", "dc", "dcD", "dcDC"]
    # the d-side spelling closes up: abAB and dcDC agree in the group
    engine = select_engine(pres)
    assert engine.equal(pres.word("abAB"), pres.word("dcDC"))
    _, gens3 = prefix_generators(3, True)
    assert len(gens3) == 11
    _, gensn = prefix_generators(2, False)
    assert [w.format() for w in gensn] == ["c", "cc", "ccd"]
    _, gensn3 = prefix_generators(3, False)
    assert len(gensn3) == 5


def test_retraction_kills_relator():
    rho = s2_retraction()
    pres = surface_presentation(2)
    assert not rho(pres.relator)
    _, gens = prefix_generators(2, True)
    images = [rho(w).format() for w in gens]
    assert images == ["x", "yx", "y", "yXYx", "x", "yx", "y", "yXYx"]
    assert rho.max_image_length == 3


def test_collapse_hom_families():
    for g in (3, 4):
        pres = surface_presentation(g)
        f = collapse_hom(pres)
        assert not f(pres.relator)
        assert f.max_image_length == 3
    for g in (3, 5):
        pres = nonorientable_presentation(g)
        f = collapse_hom(pres)
        assert not f(pres.relator)
        assert f.max_image_length == 1
    assert collapse_hom(bs_presentation(2, 3)) is None
    assert collapse_hom(burns_presentation()) is None


def test_check_presentation():
    for pres in (surface_presentation(2), surface_presentation(3),
                 nonorientable_presentation(2), nonorientable_presentation(3)):
        assert collapse_hom(pres).check_presentation(pres)
    S2 = surface_presentation(2)
    for m in (1, -1):
        assert dehn_twist_hom(m).check_presentation(S2)
    # a, c, d -> x and b -> y send abABcdCD to xyXY, not the identity
    broken = GroupHom.from_dict(S2.alphabet, Alphabet(["x", "y"]),
                                {"a": "x", "b": "y", "c": "x", "d": "x"})
    assert broken(S2.relator).format() == "xyXY"
    assert not broken.check_presentation(S2)
    # a map from another alphabet is not a map of this group
    assert not collapse_hom(surface_presentation(3)).check_presentation(S2)


def test_free_collapses():
    for g in (2, 3):
        pres = surface_presentation(g)
        collapses = free_collapses(pres)
        assert [name for name, _ in collapses] == ["collapse", "dehn-twist"]
        for _, f in collapses:
            assert f.check_presentation(pres)
        assert collapses[0][1].images == collapse_hom(pres).images
    assert [name for name, _ in free_collapses(nonorientable_presentation(3))] \
        == ["collapse"]
    # BS(m, n) maps onto Z by its stable-letter exponent; the name is not
    # "collapse", which feeds the graded free-image budget
    for m, n in ((2, 3), (1, 2), (-2, 3), (3, -5)):
        pres = bs_presentation(m, n)
        ((name, f),) = free_collapses(pres)
        assert name == "stable-exponent"
        assert f.check_presentation(pres)
        assert [w.format() for w in f.images] == ["", "x"]
        assert f(pres.word("t a t' a a t")).format() == "x"
    assert free_collapses(burns_presentation()) == ()
    # S3 pinches its middle handle and twists the last one
    twist = dict(free_collapses(surface_presentation(3)))["dehn-twist"]
    assert [w.format() for w in twist.images] == [
        "a", "b", "", "", "abAbaBA", "abABabaBA"]


def test_parse_bs_relator():
    assert parse_bs_relator(bs_presentation(2, 3)) == (2, 3)
    assert parse_bs_relator(bs_presentation(1, 2)) == (1, 2)
    assert parse_bs_relator(bs_presentation(-2, 3)) == (-2, 3)
    assert parse_bs_relator(bs_presentation(3, -5)) == (3, -5)
    assert parse_bs_relator(burns_presentation()) is None
    assert parse_bs_relator(nonorientable_presentation(2)) is None


def test_presentations_compare_by_content():
    first, second = builtin("S2"), builtin("S2")
    assert first is not second
    assert first == second and hash(first) == hash(second)
    changed = Presentation(first.alphabet, [first.word("abABdcDC")])
    assert changed != first
    renamed = Presentation(Alphabet(["a", "b", "c", "e"]),
                           [Word(Alphabet(["a", "b", "c", "e"]),
                                 first.relator.letters)])
    assert renamed != first
    assert Presentation(first.alphabet, []) != first
    # the per-presentation caches serve every equal copy
    assert select_engine(first) is select_engine(second)
    assert free_collapses(first) is free_collapses(second)
    assert select_engine(changed) is not select_engine(first)


def test_engine_selection():
    assert select_engine(builtin("S2")).name == "dehn"
    assert select_engine(builtin("S3")).name == "dehn"
    assert select_engine(builtin("N2")).name == "britton+substitution"
    assert select_engine(builtin("N3")).name == "britton+substitution"
    assert select_engine(builtin("BURNS")).name == "britton"
    assert select_engine(builtin("BS 2 3")).name == "bs-pinch"


def test_bs_engine_identities():
    bs = bs_presentation(2, 3)
    engine = select_engine(bs)
    assert engine.is_trivial(bs.relator)
    assert engine.equal(bs.word("taaT"), bs.word("aaa"))
    assert engine.equal(bs.word("ttaaaaTT"), bs.word("a") ** 9)
    assert not engine.is_trivial(bs.word("a"))
    assert not engine.is_trivial(bs.word("taT"))
    assert not engine.equal(bs.word("at"), bs.word("ta"))


def test_bs_engine_negative_exponents():
    engine = BsEngine(-2, 3)
    bs = bs_presentation(-2, 3)
    assert engine.is_trivial(bs.relator)
    assert engine.equal(bs.word("tAAT"), bs.word("aaa"))
    assert not engine.is_trivial(bs.word("tat"))


def test_bs_engine_random_consistency():
    rng = random.Random(11)
    bs = bs_presentation(2, 3)
    engine = select_engine(bs)
    conj = [bs.word(t) for t in ("a", "t", "at", "Ta")]
    for _ in range(50):
        w = Word(bs.alphabet, ())
        for _ in range(rng.randrange(1, 4)):
            c = conj[rng.randrange(len(conj))]
            r = bs.relator if rng.random() < 0.5 else ~bs.relator
            w = w * (c * r * ~c)
        assert engine.is_trivial(w)
    seen_nontrivial = 0
    for _ in range(200):
        w = random_reduced(rng, bs.alphabet, 8)
        if w and w.exponent_sum("t") != 0:
            # nonzero stable exponent survives in the abelianization
            assert not engine.is_trivial(w)
            seen_nontrivial += 1
    assert seen_nontrivial > 50


def test_substituted_engine_n2():
    n2 = nonorientable_presentation(2)
    engine = select_engine(n2)
    assert engine.is_trivial(n2.relator)
    assert engine.is_trivial((n2.word("dc") * n2.relator * ~n2.word("dc")) ** 2)
    assert not engine.is_trivial(n2.word("c"))
    assert not engine.is_trivial(n2.word("cD"))
    assert engine.equal(n2.word("cc"), n2.word("DD"))
    rng = random.Random(7)
    checked = 0
    for _ in range(150):
        w = random_reduced(rng, n2.alphabet, 8).free_reduce()
        if not w:
            continue
        ec, ed = w.exponent_sum("c"), w.exponent_sum("d")
        if ec != ed or ec % 2:
            # exponent pair off the diagonal lattice: nontrivial already
            # in the abelianization
            assert not engine.is_trivial(w)
            checked += 1
    assert checked > 80


def test_substituted_engine_n3():
    n3 = nonorientable_presentation(3)
    engine = select_engine(n3)
    assert engine.is_trivial(n3.relator)
    assert engine.is_trivial(n3.word("a2") * n3.relator * ~n3.word("a2"))
    assert not engine.is_trivial(n3.word("a1"))
    assert not engine.is_trivial(n3.word("a1 a2"))
