"""Built-in presentations, prefix generating sets, collapse maps onto free
groups, and word-problem engine selection."""

import functools
import re

from submon.words import (
    Alphabet, Word, Presentation, GroupHom, WordError, WordProblem,
)
from submon.rewrite import DehnEngine, DehnError
from submon.magnus import (
    BrittonEngine, MagnusError, britton_engine, substitute_generator,
)
from submon.distortion import dehn_twist_hom


def surface_presentation(g):
    """Orientable genus-g group; genus 2 keeps the short letters a, b, c, d."""
    if g < 2:
        raise WordError(f"orientable genus must be >= 2, got {g}")
    if g == 2:
        alphabet = Alphabet(["a", "b", "c", "d"])
        return Presentation(alphabet, [Word.parse(alphabet, "abABcdCD")])
    names = []
    for i in range(1, g + 1):
        names.extend([f"a{i}", f"b{i}"])
    alphabet = Alphabet(names)
    letters = []
    for i in range(g):
        a = alphabet.letter(f"a{i + 1}")
        b = alphabet.letter(f"b{i + 1}")
        letters.extend([a, b, -a, -b])
    return Presentation(alphabet, [Word(alphabet, letters)])


def nonorientable_presentation(g):
    """Non-orientable genus-g group; genus 2 keeps the letters c, d."""
    if g < 2:
        raise WordError(f"non-orientable genus must be >= 2, got {g}")
    if g == 2:
        alphabet = Alphabet(["c", "d"])
        return Presentation(alphabet, [Word.parse(alphabet, "ccdd")])
    alphabet = Alphabet([f"a{i}" for i in range(1, g + 1)])
    letters = []
    for i in range(1, g + 1):
        x = alphabet.letter(f"a{i}")
        letters.extend([x, x])
    return Presentation(alphabet, [Word(alphabet, letters)])


def bs_presentation(m, n):
    """The group with one stable letter conjugating a^m to a^n."""
    if m == 0 or n == 0:
        raise WordError("exponents must be nonzero")
    alphabet = Alphabet(["a", "t"])
    a = Word.parse(alphabet, "a")
    t = Word.parse(alphabet, "t")
    relator = t * a ** m * ~t * a ** -n
    return Presentation(alphabet, [relator])


def burns_presentation():
    alphabet = Alphabet(["a", "t"])
    return Presentation(alphabet, [Word.parse(alphabet, "tatATaTA")])


_BS_RE = re.compile(r"^BS\s*[\s(:,]\s*(-?\d+)\s*[\s,:]\s*(-?\d+)\s*\)?$", re.I)


def builtin(name):
    """Look up a named presentation: S2, S3, ..., N2, ..., BURNS, BS 2 3."""
    text = name.strip()
    mo = _BS_RE.match(text)
    if mo:
        return bs_presentation(int(mo.group(1)), int(mo.group(2)))
    key = text.upper()
    if key == "BURNS":
        return burns_presentation()
    mo = re.match(r"^([SN])(\d+)$", key)
    if mo:
        g = int(mo.group(2))
        if mo.group(1) == "S":
            return surface_presentation(g)
        return nonorientable_presentation(g)
    raise WordError(f"unknown builtin presentation {name!r}")


def prefix_generators(g, orientable):
    """The standard prefix generating set of the genus-g surface relator.

    Genus-2 orientable uses the symmetric eight-word spelling (the last four
    generate the same monoid as the remaining literal prefixes).
    """
    if orientable and g == 2:
        pres = surface_presentation(2)
        texts = ["a", "ab", "abA", "abAB", "d", "dc", "dcD", "dcDC"]
        return pres, [Word.parse(pres.alphabet, t) for t in texts]
    pres = surface_presentation(g) if orientable else nonorientable_presentation(g)
    rel = pres.relator
    words = [Word(pres.alphabet, rel.letters[:k]) for k in range(1, len(rel))]
    return pres, words


_XY = Alphabet(["x", "y"])
_X1 = Alphabet(["x"])


def s2_retraction():
    """Collapse of the genus-2 group onto the free group on x, y."""
    pres = surface_presentation(2)
    x = Word.parse(_XY, "x")
    conj = Word.parse(_XY, "x' y x")
    return GroupHom(pres.alphabet, _XY, [x, conj, conj, x])


def n2_functional_hom():
    """Collapse of the non-orientable genus-2 group onto the integers."""
    pres = nonorientable_presentation(2)
    return GroupHom.from_dict(pres.alphabet, _X1, {"c": "x", "d": "x'"})


def _standard_genus(presentation, orientable):
    """g when the presentation is the standard orientable (or
    non-orientable) genus-g one, None otherwise."""
    k = len(presentation.alphabet)
    g = k // 2 if orientable else k
    if g < 2 or (orientable and k % 2):
        return None
    std = surface_presentation(g) if orientable else nonorientable_presentation(g)
    return g if presentation == std else None


def _from_genus_2(f, alphabet, g, orientable):
    """f, a map of the genus-2 group, after the pinch of the genus-g group
    onto it that keeps the first and the last handle (cross-cap) and kills
    the others."""
    if g == 2:
        return f
    if orientable:
        pinch = GroupHom.from_dict(
            alphabet, surface_presentation(2).alphabet,
            {"a1": "a", "b1": "b", f"a{g}": "c", f"b{g}": "d"})
    else:
        pinch = GroupHom.from_dict(
            alphabet, nonorientable_presentation(2).alphabet,
            {"a1": "c", f"a{g}": "d"})
    return f.compose(pinch)


def collapse_hom(presentation):
    """Free-group collapse for a recognized standard surface presentation,
    None otherwise."""
    for orientable, base in ((True, s2_retraction), (False, n2_functional_hom)):
        g = _standard_genus(presentation, orientable)
        if g is not None:
            return _from_genus_2(base(), presentation.alphabet, g, orientable)
    return None


@functools.lru_cache(maxsize=64)
def free_collapses(presentation):
    """Homomorphisms of the presented group onto free groups, as (name, map)
    pairs in the order the image route tries them: `collapse_hom`, then for
    S_g the collapse of S_2 that Dehn-twists the second handle once, after
    the pinch onto S_2.  A BS(m, n) presentation with no other collapse maps
    onto the integers by its stable-letter exponent ("stable-exponent":
    t to x, a to 1).  Only maps that kill every relator are kept.  Built
    once per presentation, equal presentations sharing the result."""
    alphabet = presentation.alphabet
    out = []
    f = collapse_hom(presentation)
    if f is not None:
        out.append(("collapse", f))
    g = _standard_genus(presentation, True)
    if g is not None:
        out.append(("dehn-twist",
                    _from_genus_2(dehn_twist_hom(1), alphabet, g, True)))
    if not out and parse_bs_relator(presentation) is not None:
        out.append(("stable-exponent",
                    GroupHom.from_dict(alphabet, _X1, {"t": "x"})))
    return tuple((name, f) for name, f in out
                 if f.check_presentation(presentation))


class EngineInfo(WordProblem):
    """A word-problem engine reached through a change of generators: each
    query is translated into the inner engine's presentation first."""

    def __init__(self, name, impl, translate):
        self.name = name
        self._impl = impl
        self._translate = translate

    def is_trivial(self, word):
        return self._impl.is_trivial(self._translate(word))


class BsEngine(WordProblem):
    """Pinch-stack word problem for the two-generator one-stable-letter
    presentation t a^m t^-1 = a^n; sound and complete for all nonzero m, n."""

    name = "bs-pinch"

    def __init__(self, m, n, alphabet=None):
        if m == 0 or n == 0:
            raise WordError("exponents must be nonzero")
        self.m = m
        self.n = n
        self.alphabet = alphabet if alphabet is not None else Alphabet(["a", "t"])
        self.a = self.alphabet.index("a")
        self.t = self.alphabet.index("t")

    def _pinch(self, word):
        # stack items: ("t", +-1) or ("a", nonzero count)
        stack = []

        def push_a(k):
            if stack and stack[-1][0] == "a":
                k += stack.pop()[1]
            if k:
                stack.append(("a", k))

        for x in word.free_reduce().letters:
            g = abs(x) - 1
            e = 1 if x > 0 else -1
            if g == self.a:
                push_a(e)
                continue
            k = 0
            if stack and stack[-1][0] == "a":
                k = stack[-1][1]
            below = stack[-2] if k and len(stack) >= 2 else (stack[-1] if not k and stack else None)
            if below is not None and below[0] == "t" and below[1] == -e:
                div, mul = (self.m, self.n) if below[1] > 0 else (self.n, self.m)
                if k % div == 0:
                    if k:
                        stack.pop()
                    stack.pop()
                    push_a(k // div * mul)
                    continue
            stack.append(("t", e))
        return stack

    def is_trivial(self, word):
        return not self._pinch(word)

    def base_power(self, word):
        """k when the element equals a^k; None when it is not in the base."""
        stack = self._pinch(word)
        if not stack:
            return 0
        if len(stack) == 1 and stack[0][0] == "a":
            return stack[0][1]
        return None


def parse_bs_relator(presentation):
    """(m, n) when the one relator spells t a^m t^-1 a^-n around a stable
    letter occurring once with each sign; None otherwise."""
    if not presentation.is_one_relator or len(presentation.alphabet) != 2:
        return None
    core, _ = presentation.relator.cyclic_reduce()
    letters = list(core.letters)
    for t_idx in range(2):
        t_letter = t_idx + 1
        pos_plus = [i for i, x in enumerate(letters) if x == t_letter]
        pos_minus = [i for i, x in enumerate(letters) if x == -t_letter]
        if len(pos_plus) != 1 or len(pos_minus) != 1:
            continue
        rot = letters[pos_plus[0]:] + letters[:pos_plus[0]]
        j = rot.index(-t_letter)
        mid, tail = rot[1:j], rot[j + 1:]
        a_letter = (2 - t_idx)
        if any(abs(x) != a_letter for x in mid + tail):
            continue
        if mid and len({x for x in mid}) != 1:
            continue
        if tail and len({x for x in tail}) != 1:
            continue
        if not mid or not tail:
            continue
        m = len(mid) * (1 if mid[0] > 0 else -1)
        n = -len(tail) * (1 if tail[0] > 0 else -1)
        if presentation.alphabet.names[t_idx] == "t":
            return m, n
    return None


def substituted_engine(presentation):
    """Britton engine reached through the linear change of generators that
    gives a recognized non-orientable presentation a zero-sum stable letter."""
    k = len(presentation.alphabet)
    try:
        std = nonorientable_presentation(k)
    except WordError:
        return None
    if presentation != std:
        return None
    names = presentation.alphabet.names
    stable, replaced = names[0], names[1]
    fresh = "x" if "x" not in names else "y"
    expression = f"{fresh} {stable}'"
    new_pres, forward = substitute_generator(presentation, replaced, fresh, expression)
    inner = BrittonEngine(new_pres, stable)
    return EngineInfo("britton+substitution", inner, forward.apply)


class _FreeEngine(WordProblem):
    name = "free"

    def is_trivial(self, word):
        return not word.free_reduce()


@functools.lru_cache(maxsize=64)
def select_engine(presentation):
    """Best available word-problem engine for a presentation, or None.

    Chosen and built once per presentation: equal presentations (same
    alphabet, same relators) share one engine, with its caches."""
    if not presentation.relators:
        return _FreeEngine()
    try:
        return DehnEngine(presentation)
    except (DehnError, WordError):
        pass
    for stable in presentation.alphabet.names:
        try:
            return britton_engine(presentation, stable)
        except (MagnusError, WordError):
            continue
    bs = parse_bs_relator(presentation)
    if bs is not None:
        return BsEngine(bs[0], bs[1], presentation.alphabet)
    return substituted_engine(presentation)
