import random

import pytest
from hypothesis import example, given, settings, strategies as st

from submon.words import (
    Alphabet, Word, Presentation, GroupHom, WordError, _reduce_letters,
    invert_letters, join_reduced,
)

AB = Alphabet(["a", "b"])
ABCD = Alphabet(["a", "b", "c", "d"])


def test_alphabet_basics():
    assert len(AB) == 2
    assert AB.index("b") == 1
    assert AB.letter("a") == 1
    assert AB.letter("b", -1) == -2
    assert AB.name_of(-2) == "b"
    assert "a" in AB and "z" not in AB
    with pytest.raises(WordError):
        AB.index("z")
    with pytest.raises(WordError):
        Alphabet(["a", "a"])
    with pytest.raises(WordError):
        Alphabet(["3x"])
    with pytest.raises(WordError):
        Alphabet([])


def test_subscripted_names():
    A = Alphabet(["a[0]", "a[1]", "a[-1]", "t"])
    assert not A.compact
    w = Word.parse(A, "a[0] a[-1]' t")
    assert w.letters == (1, -3, 4)
    assert w.format() == "a[0] a[-1]' t"
    with pytest.raises(WordError):
        Alphabet(["a[0"])


def test_parse_compact():
    w = Word.parse(AB, "abA")
    assert w.letters == (1, 2, -1)
    assert str(w) == "abA"
    assert Word.parse(AB, "").letters == ()
    with pytest.raises(WordError):
        Word.parse(AB, "abz")


def test_parse_tokens():
    w = Word.parse(AB, "a b a'")
    assert w.letters == (1, 2, -1)
    assert w.format(compact=False) == "a b a'"
    with pytest.raises(WordError):
        Word.parse(AB, "a q")


def test_constructor_keeps_raw_letters():
    w = Word(AB, (1, -1, 2))
    assert not w.is_reduced
    assert w.letters == (1, -1, 2)
    assert w.free_reduce().letters == (2,)
    with pytest.raises(WordError):
        Word(AB, (3,))
    with pytest.raises(WordError):
        Word(AB, (0,))


def test_free_reduce():
    assert Word.parse(AB, "AAaBB").free_reduce().format() == "ABB"
    assert Word.parse(AB, "abBA").free_reduce().format() == ""
    assert Word.parse(AB, "aabBAA").free_reduce().format() == ""


def test_mul_and_inverse():
    u = Word.parse(AB, "ab")
    v = Word.parse(AB, "BA")
    assert (u * v).letters == ()
    assert (~u).format() == "BA"
    assert (u ** 3).format() == "ababab"
    assert (u ** -2).format() == "BABA"
    assert (u ** 0).letters == ()
    assert u.conjugate(Word.parse(AB, "b")).format() == "ba"


def test_mixed_alphabet_rejected():
    with pytest.raises(WordError):
        Word.parse(AB, "a") * Word.parse(ABCD, "a")


def test_cyclic_reduce():
    w = Word.parse(AB, "aabABAA")
    core, conj = w.cyclic_reduce()
    assert core.format() == "A"
    assert conj.format() == "aab"
    assert (conj * core * ~conj).format() == w.free_reduce().format()
    core2, conj2 = Word.parse(AB, "ab").cyclic_reduce()
    assert core2.format() == "ab" and conj2.letters == ()


def test_exponent_sum():
    w = Word.parse(AB, "aabAB")
    assert w.exponent_sum("a") == 1
    assert w.exponent_sum("b") == 0
    assert w.exponent_sum(0) == 1
    with pytest.raises(WordError):
        w.exponent_sum("z")


def test_telescoping_products():
    # red((abABA)^k (ab) a^k) == "ab" for every k
    ab = Word.parse(AB, "ab")
    g = Word.parse(AB, "abABA")
    a = Word.parse(AB, "a")
    for k in range(1, 6):
        assert ((g ** k) * ab * (a ** k)).format() == "ab"


def test_random_reduction_invariants():
    rng = random.Random(17)
    for _ in range(200):
        letters = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(0, 30))]
        w = Word(AB, letters)
        r = w.free_reduce()
        assert r.is_reduced
        assert (w * ~w).letters == ()
        core, conj = w.cyclic_reduce()
        assert (conj * core * ~conj) == r
        if core:
            assert core.letters[0] != -core.letters[-1]


reduced_tuples = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]),
                          max_size=10).map(_reduce_letters)


@st.composite
def junction_pairs(draw):
    """Two freely reduced tuples; the shapes make the junction cancel
    nothing, all of u, all of v, or a shared middle part."""
    shape = draw(st.sampled_from(["any", "all-of-u", "all-of-v", "middle"]))
    u, v = draw(reduced_tuples), draw(reduced_tuples)
    if shape == "all-of-u":
        v = _reduce_letters(invert_letters(u) + v)
    elif shape == "all-of-v":
        u = _reduce_letters(u + invert_letters(v))
    elif shape == "middle":
        s = draw(reduced_tuples)
        u, v = _reduce_letters(u + s), _reduce_letters(invert_letters(s) + v)
    return u, v


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(junction_pairs())
@example(((), ()))
@example(((), (1, 2)))
@example(((1, 2), ()))
@example(((1, 2), (-2, -1)))
@example(((1, 2), (-2, -1, 3)))
@example(((3, 1, 2), (-2, -1)))
@example(((3, 1, 2), (-2, 1)))
def test_join_reduced_matches_full_reduction(pair):
    u, v = pair
    assert join_reduced(u, v) == _reduce_letters(u + v)


def test_presentation_parse_format():
    text = """
# surface of genus 2
gens: a b c d
rel: a b a' b' c d c' d'
"""
    p = Presentation.parse(text)
    assert p.alphabet.names == ("a", "b", "c", "d")
    assert p.relator.format() == "abABcdCD"
    assert p.is_one_relator
    round_trip = Presentation.parse(p.format())
    assert round_trip.relators == p.relators
    with pytest.raises(WordError):
        Presentation.parse("rel: a\n")
    with pytest.raises(WordError):
        Presentation.parse("gens: a\nnope\n")


def test_presentation_compact_relator():
    p = Presentation.parse("gens: a b\nrel: abAB\n")
    assert p.relator.letters == (1, 2, -1, -2)


def test_hom_apply():
    h = GroupHom.from_dict(AB, ABCD, {"a": "cd", "b": "D"})
    assert h(Word.parse(AB, "ab")).format() == "cdD" .replace("dD", "")
    assert h(Word.parse(AB, "ab")).format() == "c"
    assert h(Word.parse(AB, "A")).format() == "DC"
    assert h.max_image_length == 2
    with pytest.raises(WordError):
        h(Word.parse(ABCD, "a"))


def test_hom_identity_compose():
    ident = GroupHom.identity(AB)
    assert ident(Word.parse(AB, "abA")).format() == "abA"
    h = GroupHom.from_dict(AB, AB, {"a": "ab", "b": "b"})
    hh = h.compose(h)
    assert hh(Word.parse(AB, "a")).format() == "abb"


def test_hom_image_reduction():
    h = GroupHom.from_dict(AB, AB, {"a": "abB", "b": "b"})
    assert h.images[0].format() == "a"
