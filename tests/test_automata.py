import os
import random
import subprocess
import sys
import textwrap

import pytest

import submon
from submon.words import Alphabet, Word
from submon.automata import (
    StallingsGraph, SaturatedAcceptor,
    is_code, no_cancellation,
)

AB = Alphabet(["a", "b"])


def W(text):
    return Word.parse(AB, text)


def check_subgroup_witness(graph, word, signs):
    prod = Word(graph.alphabet, ())
    for s in signs:
        g = graph.generators[abs(s) - 1]
        prod = prod * (g if s > 0 else ~g)
    assert prod == word.free_reduce()


def freely_reduced(signs):
    return all(x != -y for x, y in zip(signs, signs[1:]))


def test_whole_group_graph():
    g = StallingsGraph(AB, [W("a"), W("b")])
    assert g.rank == 2
    assert g.contains(W("abAB"))
    w = g.witness(W("abAB"))
    assert w == [1, 2, -1, -2]


def test_even_subgroup():
    # index 2 subgroup of words of even length, rank 3
    g = StallingsGraph(AB, [W("aa"), W("bb"), W("ab")])
    assert g.rank == 3
    for text, inside in [
        ("ba", True), ("a", False), ("aab", False),
        ("abab", True), ("bb", True), ("", True),
    ]:
        wit = g.witness(W(text))
        assert (wit is not None) == inside, text
        if inside:
            check_subgroup_witness(g, W(text), wit)


def test_conjugate_generator_fold():
    g = StallingsGraph(AB, [W("abA"), W("b")])
    assert not g.contains(W("ab"))
    assert g.witness(W("abA")) == [1]
    w = g.witness(W("abbA"))
    check_subgroup_witness(g, W("abbA"), w)
    # abba' needs the first generator twice around the folded loop
    assert w == [1, 1]


def test_trivial_subgroup():
    g = StallingsGraph(AB, [Word(AB, ())])
    assert g.rank == 0
    assert g.contains(Word(AB, ()))
    assert g.witness(Word(AB, ())) == []
    assert not g.contains(W("a"))


def test_witnesses_on_random_products():
    rng = random.Random(23)
    for trial in range(60):
        gens = []
        for _ in range(3):
            n = rng.randrange(1, 7)
            gens.append(Word(AB, [rng.choice([1, -1, 2, -2]) for _ in range(n)]).free_reduce())
        graph = StallingsGraph(AB, gens)
        for _ in range(5):
            prod = Word(AB, ())
            for _ in range(rng.randrange(0, 7)):
                g = rng.choice(gens)
                prod = prod * (g if rng.random() < 0.5 else ~g)
            wit = graph.witness(prod)
            assert wit is not None
            check_subgroup_witness(graph, prod, wit)
            assert freely_reduced(wit)
    # sets that are not free bases, and sets whose generators share
    # prefixes, so that folds run across petals
    for texts in (["a", "aa", "b", "ab"], ["ab", "aB", "abb", "b"],
                  ["aab", "aaB", "aBa"], ["abA", "abb", "ab"],
                  ["ba", "bA", "bb", "Ab"]):
        gens = [W(t) for t in texts]
        graph = StallingsGraph(AB, gens)
        letters = [i for i in range(-len(gens), len(gens) + 1) if i]
        for _ in range(40):
            signs = [rng.choice(letters) for _ in range(rng.randrange(0, 8))]
            prod = Word(AB, ())
            for s in signs:
                g = gens[abs(s) - 1]
                prod = prod * (g if s > 0 else ~g)
            wit = graph.witness(prod)
            assert wit is not None, (texts, signs)
            check_subgroup_witness(graph, prod, wit)
            assert freely_reduced(wit)


def check_monoid_witness(alphabet, gens, word, factors):
    prod = Word(alphabet, ())
    for i in factors:
        prod = prod * gens[i]
    assert prod == word.free_reduce()


def test_positive_monoid():
    acc = SaturatedAcceptor(AB, [W("a"), W("b")])
    assert acc.factor_count(W("ab")) == 2
    assert acc.witness(W("ab")) == [0, 1]
    assert not acc.member(W("A"))
    assert acc.factor_count(Word(AB, ())) == 0
    assert acc.witness(Word(AB, ())) == []


def test_no_cancellation_monoid():
    acc = SaturatedAcceptor(AB, [W("ab"), W("ba")])
    assert acc.factor_count(W("abba")) == 2
    assert acc.factor_count(W("ab")) == 1
    assert not acc.member(W("aa"))
    assert not acc.member(W("aba"))


def test_cancelling_monoid():
    gens = [W("abA"), W("aB")]
    acc = SaturatedAcceptor(AB, gens)
    # abA * aB frees down to a single letter
    assert acc.factor_count(W("a")) == 2
    check_monoid_witness(AB, gens, W("a"), acc.witness(W("a")))


def test_factor_count_prefers_long_generator():
    acc = SaturatedAcceptor(AB, [W("a"), W("aa")])
    assert acc.factor_count(W("aa")) == 1
    assert acc.factor_count(W("aaa")) == 2
    assert acc.factor_count(W("a")) == 1
    assert not acc.member(W("A"))


def test_module_level_helpers():
    acc = SaturatedAcceptor(AB, [W("ab"), W("A")])
    wit = acc.witness(W("b"))
    assert wit is not None
    check_monoid_witness(AB, [W("ab"), W("A")], W("b"), wit)
    assert acc.factor_count(W("b")) == len(wit)
    assert SaturatedAcceptor(AB, [W("a")]).witness(W("b")) is None


def brute_products(gens, depth):
    """reduced word -> minimal factor count, over products of <= depth factors"""
    found = {(): 0}
    frontier = {(): Word(gens[0].alphabet, ())}
    for d in range(1, depth + 1):
        nxt = {}
        for letters, w in frontier.items():
            for g in gens:
                prod = w * g
                if prod.letters not in found:
                    found[prod.letters] = d
                    nxt[prod.letters] = prod
        frontier = nxt
    return found


def test_saturation_matches_brute_force():
    rng = random.Random(41)
    depth = 4
    for trial in range(40):
        gens = []
        for _ in range(rng.randrange(2, 4)):
            n = rng.randrange(1, 4)
            w = Word(AB, [rng.choice([1, -1, 2, -2]) for _ in range(n)]).free_reduce()
            if w:
                gens.append(w)
        if not gens:
            continue
        acc = SaturatedAcceptor(AB, gens)
        table = brute_products(gens, depth)
        for letters, d in table.items():
            got = acc.factor_count(Word(AB, letters))
            assert got == d, (trial, letters, got, d)
            wit = acc.witness(Word(AB, letters))
            assert len(wit) == d
            check_monoid_witness(AB, gens, Word(AB, letters), wit)
        for _ in range(10):
            w = Word(AB, [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(0, 5))]).free_reduce()
            c = acc.factor_count(w)
            if c is not None and c <= depth:
                assert table[w.letters] == c
            else:
                assert w.letters not in table


def test_is_code():
    a, b = (1,), (2,)
    assert is_code([(1,), (1, 2)])
    assert not is_code([(1,), (1, 2), (2,)])
    assert is_code([(1, 2), (2, 1)])
    assert is_code([(1,)])
    assert not is_code([(1, 1), (1, 1, 1)])
    assert not is_code([(), (1,)])
    assert is_code([])


def test_no_cancellation():
    assert no_cancellation([(1, 2), (2, 1)])
    assert not no_cancellation([(1, 2, -1), (1, -2)])
    assert not no_cancellation([(1,), (-1,)])
    assert not no_cancellation([(1, -2), (2, 1)])
    assert no_cancellation([(1,), (1, 2)])


CORRUPTED_WITNESSES = {
    # the a-loop at the base now claims to read generator b
    "witness product mismatch": """
        graph = StallingsGraph(ab, [Word.parse(ab, "a"), Word.parse(ab, "b")])
        target, _ = graph._out[BASE, 1]
        graph._out[BASE, 1] = (target, (2,))
        graph.witness(Word.parse(ab, "a"))
    """,
    # the factors of the a-chain now name generator b
    "witness factorization mismatch": """
        acc = SaturatedAcceptor(ab, [Word.parse(ab, "a"), Word.parse(ab, "b")])
        acc.chains[0] = (1, acc.chains[0][1])
        acc.witness(Word.parse(ab, "a"))
    """,
}


@pytest.mark.parametrize("message", sorted(CORRUPTED_WITNESSES))
def test_corrupted_witness_raises_under_optimize_flag(message):
    """The witness re-multiplication checks are explicit raises, so a
    corrupted witness is caught even when asserts are compiled out."""
    code = textwrap.dedent("""
        from submon.words import Alphabet, Word
        from submon.automata import BASE, SaturatedAcceptor, StallingsGraph
        ab = Alphabet(["a", "b"])
    """) + textwrap.dedent(CORRUPTED_WITNESSES[message])
    src = os.path.dirname(os.path.dirname(submon.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert f"AssertionError: {message}" in proc.stderr
