import random

import pytest
from hypothesis import given, settings, strategies as st

from submon.words import Alphabet, Word, Presentation, WordError
from submon.rewrite import DehnEngine
from submon.magnus import (
    MagnusError, magnus_rewrite, max_min_report,
    IntervalPresentation, Basis, HnnData,
    BrittonEngine, britton_engine,
    FbcGroup, substitute_generator,
    sub_shift, sub_invert, sub_mul, format_subscripted,
)

ABT = Alphabet(["a", "b", "t"])
S2 = Presentation.parse("gens: a b c d\nrel: abABcdCD\n")
CHAIN = Presentation.parse("gens: a b c t\nrel: abABctCT\n")
BURNS = Presentation.parse("gens: a t\nrel: tatATaTA\n")
S3 = Presentation.parse("gens: a1 b1 a2 b2 a3 b3\n"
                        "rel: a1 b1 a1' b1' a2 b2 a2' b2' a3 b3 a3' b3'\n")


def test_triple_helpers():
    u = ((0, 0, 1), (0, 0, -1), (1, 2, 1))
    assert sub_mul(u) == ((1, 2, 1),)
    assert sub_shift(((0, 1, 1),), 3) == ((0, 4, 1),)
    assert sub_invert(((0, 0, 1), (1, 1, -1))) == ((1, 1, 1), (0, 0, -1))
    assert sub_mul(((0, 0, 1),), ((0, 0, -1),)) == ()
    assert format_subscripted(ABT, ((1, 0, -1), (0, -1, -1))) == "b[0]' a[-1]'"


def test_magnus_rewrite_frozen():
    w = Word.parse(ABT, "BTAAttbTa")
    img = magnus_rewrite(w, "t")
    assert img.format() == "b[0]' a[-1]' a[-1]' b[1] a[0]"
    assert img.min_subscript("a") == -1
    assert img.max_subscript("a") == 0
    assert img.count_at("a", -1) == 2
    assert img.min_subscript("b") == 0
    assert img.max_subscript("b") == 1


def test_magnus_rewrite_needs_zero_sum():
    with pytest.raises(MagnusError):
        magnus_rewrite(Word.parse(ABT, "ta"), "t")


def test_max_min_report_surface():
    rep = max_min_report(S2, "a")
    assert rep.sigma == 0
    assert rep.passes
    assert rep.qualifying == ["b"]
    assert rep.stats["b"] == {"min": 0, "max": 1, "at_min": 1, "at_max": 1}
    assert rep.stats["c"]["at_min"] == 2


def test_max_min_report_burns_pair():
    assert max_min_report(BURNS, "t").passes
    assert max_min_report(BURNS, "t").qualifying == ["a"]
    rep = max_min_report(BURNS, "a")
    assert not rep.passes
    assert rep.image.format() == "t[0] t[1] t[0]' t[1]'"


def test_one_report_per_presentation_and_stable():
    report = max_min_report(BURNS, "t")
    engine = britton_engine(BURNS, "t")
    assert engine.report is report
    assert FbcGroup(BURNS, "t").report is report
    assert engine.window(-2, 3).ip.report is report
    assert IntervalPresentation(BURNS, "t", 0, 1).report is report
    copy = Presentation.parse("gens: a t\nrel: tatATaTA\n")
    assert max_min_report(copy, "t") is report
    assert max_min_report(BURNS, "a") is not report


def test_window_letter_index():
    ip = IntervalPresentation(CHAIN, "t", 0, 2)
    assert [ip.index[gs] for gs in ip.letters] == list(
        range(1, len(ip.alphabet) + 1))
    assert ip.index[2, 3] == ip.alphabet.letter("c[3]")
    w = ip.word_from_triples(((2, 3, -1), (0, 1, 1)))
    assert w.format(compact=False) == "c[3]' a[1]"
    with pytest.raises(WordError, match=r"c\[4\] is outside window \[0, 2\]"):
        ip.word_from_triples(((0, 0, 1), (2, 4, 1)))
    with pytest.raises(WordError):
        ip.word_from_triples(((0, -1, 1),))


def test_interval_presentation_golden():
    ip = IntervalPresentation(CHAIN, "t", 0, 2)
    assert ip.alphabet.names == (
        "a[0]", "a[1]", "a[2]",
        "b[0]", "b[1]", "b[2]",
        "c[0]", "c[1]", "c[2]", "c[3]",
    )
    assert len(ip.full_presentation.alphabet) == 11
    assert ip.full_presentation.alphabet.names[-1] == "t"
    assert len(ip.full_presentation.relators) == 10
    assert len(ip.shifted_relators) == 3
    want = [
        "a[0] b[0] a[0]' b[0]' c[0] c[1]'",
        "a[1] b[1] a[1]' b[1]' c[1] c[2]'",
        "a[2] b[2] a[2]' b[2]' c[2] c[3]'",
    ]
    assert [w.format(compact=False) for w in ip.shifted_relators] == want
    conj = ip.full_presentation.relators[3:]
    assert len(conj) == 7
    assert conj[0].format(compact=False) == "t a[0] t' a[1]'"


def test_eliminate_to_basis():
    ip = IntervalPresentation(CHAIN, "t", 0, 2)
    basis = Basis(ip, "c")
    assert basis.alphabet.names == (
        "a[0]", "a[1]", "a[2]", "b[0]", "b[1]", "b[2]", "c[0]")
    f = lambda name: basis.expressions[name].format(compact=False)
    assert f("c[1]") == "a[0] b[0] a[0]' b[0]' c[0]"
    assert f("c[2]") == "a[1] b[1] a[1]' b[1]' a[0] b[0] a[0]' b[0]' c[0]"
    assert f("c[3]") == ("a[2] b[2] a[2]' b[2]' a[1] b[1] a[1]' b[1]' "
                         "a[0] b[0] a[0]' b[0]' c[0]")
    rel = basis.to_basis(ip.shifted_relators[1])
    assert rel.letters == ()


def test_hnn_data_edge_subgroups():
    ip = IntervalPresentation(CHAIN, "t", 0, 2)
    hnn = HnnData(ip, "c")
    assert hnn.P_graph.rank == 5
    assert hnn.Q_graph.rank == 5
    basis = hnn.basis
    a0 = basis.letter_word(0, 0)
    a1 = basis.letter_word(0, 1)
    a2 = basis.letter_word(0, 2)
    c0 = basis.letter_word(2, 0)
    assert hnn.phi(a0) == a1
    assert hnn.phi(c0) == basis.expressions["c[1]"]
    assert hnn.phi(basis.expressions["c[1]"]) == basis.expressions["c[2]"]
    assert hnn.phi(a2) is None
    assert hnn.phi_inv(a1) == a0
    assert hnn.phi_inv(a0) is None
    assert hnn.phi_inv(basis.expressions["c[1]"]) == c0


def test_phi_inv_undoes_phi():
    ip = IntervalPresentation(CHAIN, "t", 0, 2)
    hnn = HnnData(ip, "c")
    rng = random.Random(13)
    for _ in range(60):
        w = Word(hnn.basis.alphabet, ())
        for _ in range(rng.randrange(0, 7)):
            g = rng.choice(hnn.P_words)
            w = w * (g if rng.random() < 0.5 else ~g)
        image = hnn.phi(w)
        assert image is not None
        assert hnn.phi_inv(image) == w


def test_britton_surface_basics():
    eng = BrittonEngine(S2, "a")
    assert eng.gen == "b"
    r = S2.relator
    assert eng.is_trivial(r)
    assert eng.is_trivial(Word(S2.alphabet, ()))
    assert eng.is_trivial(S2.word("aA"))
    assert not eng.is_trivial(S2.word("a"))
    assert not eng.is_trivial(S2.word("b"))
    assert not eng.is_trivial(S2.word("abAB"))
    assert not eng.is_trivial(S2.word("bcBC"))
    w = S2.word("ab")
    assert eng.is_trivial(w * r * ~w)
    assert eng.is_trivial((w * r * ~w) * (r ** 2))
    assert eng.equal(S2.word("abAB"), S2.word("dcDC"))
    assert BrittonEngine(S2, "a").is_trivial(r)


WINDOWED = Presentation.parse("gens: a1 a2 x\nrel: a1 a1 a2 a2 a1' x a1' x\n")


def _windowed_words(seed):
    """Random words of WINDOWED, every other one a product of relator
    conjugates and so trivial (True) and the rest unknown (None)."""
    rng = random.Random(seed)
    alphabet = WINDOWED.alphabet
    letters = [1, -1, 2, -2, 3, -3]
    out = []
    for i in range(40):
        if i % 2:
            w = Word(alphabet, ())
            for _ in range(rng.randint(1, 3)):
                u = Word(alphabet, [rng.choice(letters)
                                    for _ in range(rng.randint(0, 4))])
                r = WINDOWED.relator
                w = w * u * (r if rng.random() < 0.5 else ~r) * ~u
            out.append((w, True))
        else:
            w = Word(alphabet, [rng.choice(letters)
                                for _ in range(rng.randint(1, 12))])
            out.append((w, None))
    return out


@pytest.mark.parametrize("instance_first", [True, False])
def test_britton_engine_window_without_subscript_zero(instance_first):
    """The DG instance of this query sits on window [-4, -2], which holds
    no x[0]; building it must neither break nor be broken by the engine's
    own pinching over the windows it shares."""
    from submon.deciders import reduce_to_dg_instance

    def instance():
        inst = reduce_to_dg_instance(WINDOWED, "a1",
                                     ["a1", "a2'", "a2", "x' a1"],
                                     query="a2 a1 a1")
        assert inst.serialize()["window"] == [-4, -2]
        assert inst.hnn is britton_engine(WINDOWED, "a1").window(-4, -2)

    def words():
        cached = britton_engine(WINDOWED, "a1")
        fresh = BrittonEngine(WINDOWED, "a1")
        for w, trivial in _windowed_words(17):
            got = cached.is_trivial(w)
            assert got == fresh.is_trivial(w), w
            if trivial:
                assert got, w

    britton_engine.cache_clear()
    if instance_first:
        instance()
        words()
    else:
        words()
        instance()
        words()


def test_britton_matches_dehn_on_random_words():
    eng = BrittonEngine(S2, "a")
    dehn = DehnEngine(S2)
    rng = random.Random(7)
    alpha = [1, -1, 2, -2, 3, -3, 4, -4]
    agree = 0
    for _ in range(300):
        w = Word(S2.alphabet, [rng.choice(alpha) for _ in range(rng.randrange(0, 13))])
        assert eng.is_trivial(w) == dehn.is_trivial(w)
        agree += 1
    assert agree == 300


def test_britton_on_substituted_klein_bottle():
    klein = Presentation.parse("gens: a1 a2\nrel: a1 a1 a2 a2\n")
    flat, forward = substitute_generator(klein, "a2", "x", "x a1'")
    assert flat.relator.format(compact=False) == "a1 a1 x a1' x a1'"
    rep = max_min_report(flat, "a1")
    assert rep.passes and rep.qualifying == ["x"]
    eng = BrittonEngine(flat, "a1")
    assert eng.is_trivial(forward(klein.relator))
    assert not eng.is_trivial(forward(klein.word("a2")))
    # a1 squared is central, a1 itself is not
    a1 = flat.word("a1")
    x = flat.word("x")
    zz = a1 * a1
    assert eng.is_trivial(zz * x * ~zz * ~x)
    assert not eng.is_trivial(a1 * x * ~a1 * ~x)


def test_fbc_burns_normal_forms():
    eng = FbcGroup(BURNS, "t")
    assert eng.gen == "a"
    assert (eng.low, eng.high) == (0, 2)
    assert eng.format(eng.expr_high) == "a[1] a[0]' a[1]"
    assert eng.format(eng.expr_low) == "a[1] a[2]' a[1]"
    j, u = eng.normal_form(BURNS.word("at"))
    assert (j, eng.format(u)) == (1, "a[0] a[1]' a[0]")
    j, u = eng.normal_form(BURNS.word("ta"))
    assert (j, eng.format(u)) == (1, "a[0]")
    j, u = eng.normal_form(BURNS.word("ttaTT"))
    assert (j, eng.format(u)) == (0, "a[1] a[0]' a[1]")
    assert eng.is_trivial(BURNS.relator)
    assert not eng.is_trivial(BURNS.word("a"))
    assert not eng.is_trivial(BURNS.word("t"))
    assert eng.is_trivial(BURNS.word("a") * BURNS.relator * BURNS.word("A"))


def test_fbc_shift_to_basis():
    eng = FbcGroup(BURNS, "t")
    a0 = ((0, 0, 1),)
    assert eng.format(eng.shift_to_basis(a0, 1)) == "a[1]"
    assert eng.format(eng.shift_to_basis(a0, 2)) == "a[1] a[0]' a[1]"
    assert eng.format(eng.shift_to_basis(a0, -1)) == "a[0] a[1]' a[0]"
    # orbit words grow symmetrically outwards
    assert len(eng.shift_to_basis(a0, 3)) == 5
    assert len(eng.shift_to_basis(a0, -2)) == 5
    # and linearly: each replacement cancels against its neighbours before
    # either is rewritten further, so far shifts stay cheap
    assert len(eng.shift_to_basis(a0, 60)) == 119
    assert len(eng.shift_to_basis(a0, -60)) == 121


def test_fbc_function_wrapper():
    j, u = FbcGroup(BURNS, "t").normal_form(BURNS.word("ttaTT"))
    assert j == 0 and len(u) == 3


def test_fbc_matches_britton():
    eng_f = FbcGroup(BURNS, "t")
    eng_b = BrittonEngine(BURNS, "t")
    rng = random.Random(99)
    for _ in range(200):
        w = Word(BURNS.alphabet, [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(0, 11))])
        assert eng_f.is_trivial(w) == eng_b.is_trivial(w)


def test_missing_generator_rejected():
    pres = Presentation.parse("gens: a b t\nrel: taTA\n")
    with pytest.raises(MagnusError):
        BrittonEngine(pres, "t")


def test_substitute_generator_hom():
    klein = Presentation.parse("gens: a1 a2\nrel: a1 a1 a2 a2\n")
    flat, forward = substitute_generator(klein, "a2", "x", "x a1'")
    assert flat.alphabet.names == ("a1", "x")
    assert forward(klein.word("a2 a1")).format(compact=False) == "x"
    assert forward(klein.relator) == flat.relator


def _conjugated_relators(rng, pres, length):
    """A product of relator rotations, each conjugated by at most two
    letters, of at least `length` letters: trivial in the group."""
    k = len(pres.alphabet)
    signed = [s * i for i in range(1, k + 1) for s in (1, -1)]
    rel = pres.relator.letters
    out = []
    while len(out) < length:
        turn = rng.randrange(len(rel))
        rot = rel[turn:] + rel[:turn]
        if rng.random() < 0.5:
            rot = tuple(-x for x in reversed(rot))
        conj = [rng.choice(signed) for _ in range(rng.randint(0, 2))]
        out += conj + list(rot) + [-x for x in reversed(conj)]
    return out


def _long_word(pres, seed, length, kind):
    """A word of about `length` letters: trivial, or with a commutator of
    two generators (or a generator power) spliced between two trivial
    products."""
    rng = random.Random(seed)
    if kind == "trivial":
        return Word(pres.alphabet, _conjugated_relators(rng, pres, length))
    k = len(pres.alphabet)
    x, y = rng.sample(range(1, k + 1), 2)
    if kind == "commutator":
        middle = [x, y, -x, -y]
    else:
        middle = [x] * rng.randint(1, 2)
    head = rng.randrange(length)
    return Word(pres.alphabet,
                _conjugated_relators(rng, pres, head) + middle
                + _conjugated_relators(rng, pres, length - head))


LONG_ENGINES = {
    "S2": (DehnEngine(S2), BrittonEngine(S2, "a")),
    "S3": (DehnEngine(S3), BrittonEngine(S3, "a1")),
    "BURNS": (BrittonEngine(BURNS, "t"), FbcGroup(BURNS, "t")),
}
GROUPS = {"S2": S2, "S3": S3, "BURNS": BURNS}


@pytest.mark.parametrize("name", sorted(LONG_ENGINES))
@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(st.integers(0, 2 ** 32), st.integers(600, 1300),
       st.sampled_from(["trivial", "commutator", "power"]))
def test_long_words_agree_across_engines(name, seed, length, kind):
    """Dehn and Britton on S2 and S3, Britton and FBC normal forms on
    BURNS, on words as long as the benchmark's."""
    first, second = LONG_ENGINES[name]
    w = _long_word(GROUPS[name], seed, length, kind)
    answer = first.is_trivial(w)
    assert answer == second.is_trivial(w), (name, seed, length, kind)
    if kind == "trivial":
        assert answer


def _rescanning_normal_form(fbc, word):
    """FbcGroup.normal_form as it was first written: shift the whole kernel
    word at every stable letter, then rebase by replacing the first letter
    out of range and reducing and rescanning the whole word, until none is
    left.  Quadratic, but plainly right; the one-pass version must agree."""
    j, u = 0, ()
    for x in word.letters:
        g, e = abs(x) - 1, (1 if x > 0 else -1)
        if g == fbc.t:
            j += e
            u = sub_shift(u, -e)
        else:
            u = sub_mul(u, ((g, 0, e),))
    while True:
        hit = next((i for i, (g, s, _) in enumerate(u)
                    if g == fbc.g and not fbc.low <= s < fbc.high), None)
        if hit is None:
            return j, u
        _, s, e = u[hit]
        repl = (sub_shift(fbc.expr_high, s - fbc.high) if s >= fbc.high
                else sub_shift(fbc.expr_low, s - fbc.low))
        u = sub_mul(u[:hit], repl if e > 0 else sub_invert(repl),
                    u[hit + 1:])


FBC_GROUPS = {
    text: FbcGroup(Presentation.parse(f"gens: a t\nrel: {text}\n"), "t")
    for text in ("tatATaTA", "ttaTaTA", "tataTTA")
}


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.sampled_from(sorted(FBC_GROUPS)),
       st.lists(st.sampled_from([1, -1, 2, -2]), max_size=24))
def test_fbc_normal_form_short_words(text, letters):
    fbc = FBC_GROUPS[text]
    w = Word(fbc.presentation.alphabet, letters)
    assert fbc.normal_form(w) == _rescanning_normal_form(fbc, w)


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(st.sampled_from(sorted(FBC_GROUPS)), st.integers(0, 2 ** 32),
       st.integers(600, 1300),
       st.sampled_from(["trivial", "commutator", "power"]))
def test_fbc_normal_form_long_words(text, seed, length, kind):
    fbc = FBC_GROUPS[text]
    w = _long_word(fbc.presentation, seed, length, kind)
    assert fbc.normal_form(w) == _rescanning_normal_form(fbc, w)
