import pytest

from submon.words import Alphabet, Word, Presentation
from submon.rewrite import (
    RewritingSystem, RewriteError, ClosureError,
    critical_pairs_confluent, bs_system, closure_membership,
    small_cancellation_check, DehnEngine, DehnError,
)
from fractions import Fraction

S2 = Presentation.parse("gens: a b c d\nrel: abABcdCD\n")
N2 = Presentation.parse("gens: x y\nrel: xxyy\n")
N3 = Presentation.parse("gens: x y z\nrel: xxyyzz\n")
N4 = Presentation.parse("gens: w x y z\nrel: wwxxyyzz\n")
BS23 = Presentation.parse("gens: a t\nrel: taaTAAA\n")


def test_parse_and_format():
    sys_ = RewritingSystem.parse("# free group\nrule: aA ->\nrule: ab -> ba\n")
    assert sys_.rules == [("aA", ""), ("ab", "ba")]
    again = RewritingSystem.parse(sys_.format())
    assert again.rules == sys_.rules
    with pytest.raises(RewriteError):
        RewritingSystem.parse("rule: -> a\n")
    with pytest.raises(RewriteError):
        RewritingSystem.parse("garbage\n")
    with pytest.raises(RewriteError):
        RewritingSystem.parse("rule: ab = ba\n")


def test_step_is_leftmost_first_rule():
    sys_ = RewritingSystem([("ab", "x")])
    assert sys_.step("aabab") == "axab"
    assert sys_.normalize("aabab") == "axx"
    sys2 = RewritingSystem([("aa", "x"), ("ab", "y")])
    assert sys2.step("aab") == "xb"


def test_normalize_budget():
    looping = RewritingSystem([("a", "aa")])
    with pytest.raises(RewriteError):
        looping.normalize("a", max_steps=10)


def test_free_group_system_confluent():
    sys_ = RewritingSystem([("aA", ""), ("Aa", ""), ("bB", ""), ("Bb", "")])
    assert sys_.normalize("abBA") == ""
    report = critical_pairs_confluent(sys_)
    assert report.confluent is True
    assert report.checked > 0


def test_non_confluent_detected():
    sys_ = RewritingSystem([("ab", "a"), ("ba", "b")])
    report = critical_pairs_confluent(sys_)
    assert report.confluent is False
    assert report.failures


def test_same_lhs_conflict_detected():
    sys_ = RewritingSystem([("a", "b"), ("a", "c")])
    report = critical_pairs_confluent(sys_)
    assert report.confluent is False


def test_inconclusive_budget():
    sys_ = RewritingSystem([("ab", "ba"), ("ba", "ab")])
    report = critical_pairs_confluent(sys_, max_steps=50)
    assert report.confluent is None
    assert "budget" in report.note


def test_bs_system_rules_12():
    sys_ = bs_system(1, 2)
    assert ("aat", "ta") in sys_.rules
    assert ("At", "atA") in sys_.rules
    assert ("aT", "Taa") in sys_.rules
    assert ("AT", "TAA") in sys_.rules
    with pytest.raises(RewriteError):
        bs_system(2, 2)
    with pytest.raises(RewriteError):
        bs_system(3, 2)


def test_bs_conjugation_normal_forms():
    for m, n in [(1, 2), (2, 3), (3, 5)]:
        sys_ = bs_system(m, n)
        assert sys_.normalize("t" + "a" * m + "T") == "a" * n


def test_bs_critical_pairs_both_variants():
    for m, n in [(1, 2), (2, 3), (3, 5)]:
        for variant in ("positive", "negative"):
            report = critical_pairs_confluent(bs_system(m, n, variant))
            assert report.confluent is True, (m, n, variant)


def test_closure_membership():
    sys_ = bs_system(2, 3)
    assert closure_membership(sys_, "at", "taa")
    assert closure_membership(sys_, "at", "aaat")
    assert not closure_membership(sys_, "at", "T")
    assert not closure_membership(sys_, "at", "atA")
    assert closure_membership(sys_, "at", "")
    with pytest.raises(ClosureError):
        closure_membership(sys_, "At", "A")
    neg = bs_system(2, 3, "negative")
    assert closure_membership(neg, "At", "AAAt")


def test_small_cancellation_ratios():
    table = [
        (S2, 8, 1, Fraction(1, 8), True),
        (N2, 4, 1, Fraction(1, 4), False),
        (N3, 6, 1, Fraction(1, 6), False),
        (N4, 8, 1, Fraction(1, 8), True),
    ]
    for pres, rlen, piece, ratio, ok in table:
        rep = small_cancellation_check(pres)
        assert rep.relator_length == rlen
        assert rep.max_piece == piece
        assert rep.ratio == ratio
        assert rep.passes == ok


def test_bs_not_small_cancellation():
    rep = small_cancellation_check(BS23)
    assert not rep.passes
    with pytest.raises(DehnError):
        DehnEngine(BS23)


def test_dehn_word_problem_s2():
    eng = DehnEngine(S2)
    r = S2.relator
    assert eng.is_trivial(r)
    assert eng.is_trivial(Word(S2.alphabet, ()))
    assert not eng.is_trivial(S2.word("ab"))
    w = S2.word("ab")
    assert eng.is_trivial(w * r * ~w)
    assert eng.is_trivial((w * r * ~w) * (r ** 2))
    assert eng.equal(S2.word("abAB"), S2.word("dcDC"))
    assert not eng.equal(S2.word("a"), S2.word("b"))
    assert DehnEngine(S2).is_trivial(r * r)


def test_dehn_reprocesses_pushed_back_letters():
    # after the stack holds abAB, the piece DabAB (five letters of the
    # rotation DabABcdC) is replaced by cDC, pushed back onto the input;
    # its first letter then completes the piece abABc with the stack below
    eng = DehnEngine(S2)
    hits = []

    class Recording(dict):
        def get(self, key, default=None):
            value = super().get(key, default)
            if value is not None:
                hits.append(Word(S2.alphabet, key).format())
            return value

    eng._shorter = Recording(eng._shorter)
    w = S2.word("abAB") * S2.word("DabABcdC") * S2.word("cdCD")
    assert w.format() == "abABDabABcddCD"
    assert eng.is_trivial(w)
    assert hits[:2] == ["DabAB", "abABc"]
    assert not eng.is_trivial(S2.word("abABDabABcdd"))
