"""Subscript rewriting for one-relator groups with a distinguished letter.

Fixing a stable generator t with zero exponent sum in a word, every other
letter x at t-prefix-sum s becomes a subscripted letter x_s.  On the
cyclically reduced relator this produces the data everything else here is
built from:

* `max_min_report` records, per generator, the extreme subscripts and how
  often they are hit; a generator whose extremes are each hit exactly once
  qualifies, and its top occurrences can be eliminated by Tietze moves.
  It is built once per presentation and stable letter, and every window,
  engine and `cli analyze` reads that one report.

* `IntervalPresentation` spells out the subgroup generated by the
  subscripted letters over a subscript window: one letter per (generator
  index, subscript) pair, looked up in its `index`, and the shifted
  relators; the conjugation relations linking neighbours are built only
  when `full_presentation` is read.

* `Basis` / `HnnData` turn the window group into a free group with an
  explicit basis and the two edge subgroups of the HNN splitting, with the
  shift isomorphism between them, all keyed by window letter.

* `BrittonEngine` solves the word problem by Britton pinching over that
  splitting; `FbcGroup` solves it through normal forms t^j u with u in
  the kernel of the t-exponent map, written over the kernel basis.

`britton_engine` keeps one Britton engine per presentation and stable
letter, and `BrittonEngine.window` is the one place a splitting is built:
the engine's own pinching and the DG instances of `submon.deciders` read
their windows from it.

Kernel words are handled as tuples of (generator index, subscript, sign)
triples so subscripts can roam without registering alphabets.
"""

from functools import cached_property, lru_cache

from submon.words import (
    Alphabet, Word, Presentation, GroupHom, WordError, WordProblem,
    extend_reduced, invert_letters, product, signed_table, solve_relator,
    _trusted,
)
from submon.automata import StallingsGraph


class MagnusError(ValueError):
    pass


def sub_invert(triples):
    return tuple((g, s, -e) for g, s, e in reversed(triples))


def sub_shift(triples, d):
    return tuple((g, s + d, e) for g, s, e in triples)


def sub_mul(*parts):
    out = []
    for part in parts:
        for t in part:
            if out and out[-1][0] == t[0] and out[-1][1] == t[1] and out[-1][2] == -t[2]:
                out.pop()
            else:
                out.append(t)
    return tuple(out)


def sub_name(alphabet, g, s):
    return f"{alphabet.names[g]}[{s}]"


def format_subscripted(alphabet, triples):
    return " ".join(
        sub_name(alphabet, g, s) + ("" if e > 0 else "'") for g, s, e in triples
    )


class MagnusImage:
    """Image of a word under subscript rewriting (the stable letter drops)."""

    def __init__(self, alphabet, stable, triples):
        self.alphabet = alphabet
        self.stable = stable
        self.triples = tuple(triples)

    def __len__(self):
        return len(self.triples)

    def __eq__(self, other):
        return (
            isinstance(other, MagnusImage)
            and self.alphabet == other.alphabet
            and self.stable == other.stable
            and self.triples == other.triples
        )

    def occurring(self):
        return sorted({g for g, _, _ in self.triples})

    def subscripts(self, gen):
        idx = self.alphabet.index(gen)
        return [s for g, s, _ in self.triples if g == idx]

    def min_subscript(self, gen):
        return min(self.subscripts(gen))

    def max_subscript(self, gen):
        return max(self.subscripts(gen))

    def count_at(self, gen, sub):
        return self.subscripts(gen).count(sub)

    def format(self):
        return format_subscripted(self.alphabet, self.triples)

    def __repr__(self):
        return f"<rho_{self.stable}: {self.format() or '1'}>"


def magnus_rewrite(word, stable):
    """Subscript rewriting of a word with zero stable-letter exponent sum."""
    alphabet = word.alphabet
    t = alphabet.index(stable)
    if word.exponent_sum(t) != 0:
        raise MagnusError(
            f"exponent sum of {stable!r} is {word.exponent_sum(t)}, need 0")
    triples = []
    s = 0
    for x in word.letters:
        if abs(x) - 1 == t:
            s += 1 if x > 0 else -1
        else:
            triples.append((abs(x) - 1, s, 1 if x > 0 else -1))
    return MagnusImage(alphabet, stable, triples)


class MaxMinReport:
    """Extreme-subscript statistics of the rewritten cyclically reduced
    relator; a generator qualifies when each extreme is hit exactly once."""

    def __init__(self, presentation, stable):
        self.presentation = presentation
        self.stable = stable
        alphabet = presentation.alphabet
        t = alphabet.index(stable)
        core, _ = presentation.relator.cyclic_reduce()
        self.relator_core = core
        self.sigma = core.exponent_sum(t)
        self.image = None
        self.stats = {}
        self.qualifying = []
        self.missing = tuple(
            n for i, n in enumerate(alphabet.names)
            if i != t and not any(abs(x) - 1 == i for x in core.letters)
        )
        if self.sigma != 0:
            self.passes = False
            return
        self.image = magnus_rewrite(core, stable)
        for g in self.image.occurring():
            name = alphabet.names[g]
            subs = self.image.subscripts(name)
            lo, hi = min(subs), max(subs)
            self.stats[name] = {
                "min": lo, "max": hi,
                "at_min": subs.count(lo), "at_max": subs.count(hi),
            }
            if subs.count(lo) == 1 and subs.count(hi) == 1:
                self.qualifying.append(name)
        self.passes = bool(self.qualifying)

    def __repr__(self):
        verdict = "PASS" if self.passes else "FAIL"
        return f"MaxMinReport(stable={self.stable}, {verdict}, qualifying={self.qualifying})"


@lru_cache(maxsize=64)
def max_min_report(presentation, stable):
    """The relator report of a presentation over a stable letter, built
    once: `cli analyze`, every window, `BrittonEngine` and `FbcGroup` read
    the same object."""
    return MaxMinReport(presentation, stable)


def _relator_image(presentation, stable):
    report = max_min_report(presentation, stable)
    if report.sigma != 0:
        raise MagnusError(
            f"stable letter {stable!r} has exponent sum {report.sigma} in the relator")
    if report.missing:
        raise MagnusError(
            f"generators {report.missing} do not occur in the relator")
    return report


def _qualifying_generator(presentation, stable):
    """The relator report and the generator to eliminate, the first
    qualifying one."""
    report = _relator_image(presentation, stable)
    if not report.qualifying:
        raise MagnusError("no generator with unique extreme occurrences")
    return report, report.qualifying[0]


class IntervalPresentation:
    """Subscripted letters over a window [n, m] of relator shifts.

    Window letter i + 1 is x[s] for (x, s) = `letters[i]`; `index` maps
    each (generator index, subscript) pair to its window letter, and the
    alphabet's names ("x[s]") are only for printing.  `report` is the
    shared `max_min_report`."""

    def __init__(self, presentation, stable, n, m):
        if m < n:
            raise MagnusError(f"empty window [{n}, {m}]")
        report = _relator_image(presentation, stable)
        self.original = presentation
        self.stable = stable
        self.n = n
        self.m = m
        self.report = report
        base = presentation.alphabet
        # generator index -> (lowest, highest) subscript in the window
        self.spans = {}
        letters = []
        for g in report.image.occurring():
            stats = report.stats[base.names[g]]
            lo, hi = stats["min"] + n, stats["max"] + m
            self.spans[g] = (lo, hi)
            letters.extend((g, s) for s in range(lo, hi + 1))
        self.letters = tuple(letters)
        self.index = {gs: i for i, gs in enumerate(letters, 1)}
        self.alphabet = Alphabet(sub_name(base, g, s) for g, s in letters)
        self.shifted_relators = tuple(
            self.word_from_triples(sub_shift(report.image.triples, i))
            for i in range(n, m + 1)
        )

    @cached_property
    def full_presentation(self):
        """The window group with the stable letter: the shifted relators,
        then t x[s] t^-1 x[s+1]^-1 for every letter below its span's top."""
        alphabet = Alphabet(self.alphabet.names + (self.stable,))
        t = len(alphabet)
        relators = [Word(alphabet, w.letters) for w in self.shifted_relators]
        for i, (g, s) in enumerate(self.letters, 1):
            if s < self.spans[g][1]:
                relators.append(Word(alphabet, (t, i, -t, -(i + 1))))
        return Presentation(alphabet, relators)

    def word_from_triples(self, triples):
        try:
            letters = tuple(e * self.index[g, s] for g, s, e in triples)
        except KeyError as e:
            name = sub_name(self.original.alphabet, *e.args[0])
            raise WordError(f"{name} is outside window [{self.n}, {self.m}]") from None
        return _trusted(self.alphabet, letters)


class Basis:
    """Free basis of the window group after eliminating the top letters of
    one qualifying generator from each shifted relator.

    `_images` maps every window letter to its basis word: itself when kept,
    its solved expression when eliminated (also in `expressions`, by name)."""

    def __init__(self, ip, gen):
        stats = ip.report.stats.get(gen)
        if stats is None or stats["at_max"] != 1:
            raise MagnusError(f"generator {gen!r} has no unique top occurrence")
        self.ip = ip
        self.gen = gen
        g = ip.original.alphabet.index(gen)
        top = stats["max"]
        eliminated = [ip.index[g, top + i] for i in range(ip.n, ip.m + 1)]
        keep = [x for x in ip.index.values() if x not in eliminated]
        self.alphabet = Alphabet(ip.alphabet.names[x - 1] for x in keep)
        self._images = {x: _trusted(self.alphabet, (i,))
                        for i, x in enumerate(keep, 1)}
        for x, rel in zip(eliminated, ip.shifted_relators):
            positions = [j for j, y in enumerate(rel.letters) if abs(y) == x]
            if len(positions) != 1:
                raise MagnusError(f"{ip.alphabet.names[x - 1]} occurs "
                                  f"{len(positions)} times in a shifted relator")
            j = positions[0]
            self._images[x] = self._lower(solve_relator(
                rel.letters, j, rel.letters[j] > 0, invert_letters))
        self.expressions = {ip.alphabet.names[x - 1]: self._images[x]
                            for x in eliminated}

    def _lower(self, letters):
        factors = []
        for x in letters:
            img = self._images.get(abs(x))
            if img is None:
                raise MagnusError(f"{self.ip.alphabet.name_of(x)} eliminated "
                                  "later than its use")
            factors.append(img.letters if x > 0 else invert_letters(img.letters))
        return product(self.alphabet, factors)

    def to_basis(self, word):
        """Rewrite a word over the window alphabet into the basis."""
        if word.alphabet != self.ip.alphabet:
            raise MagnusError("word not over the window alphabet")
        return self._lower(word.letters)

    def letter_word(self, g, s):
        return self._images[self.ip.index[g, s]]


class HnnData:
    """Edge subgroups of the splitting over a window: P is generated by the
    letters of the lower sub-window, Q by the upper, and phi shifts up.

    The i-th P generator x[s] and the i-th Q generator x[s+1] are
    neighbours, so phi sends `P_words[i]` to `Q_words[i]`; all of them are
    read from the basis through the window's letter index."""

    def __init__(self, ip, gen):
        if ip.m < ip.n + 1:
            raise MagnusError("window too narrow for a splitting")
        self.ip = ip
        self.basis = Basis(ip, gen)
        self.P_letters = [(g, s) for g, (lo, hi) in ip.spans.items()
                          for s in range(lo, hi)]
        self.Q_letters = [(g, s + 1) for g, s in self.P_letters]
        self.P_words = [self.basis.letter_word(g, s) for g, s in self.P_letters]
        self.Q_words = [self.basis.letter_word(g, s) for g, s in self.Q_letters]
        self.P_graph = StallingsGraph(self.basis.alphabet, self.P_words)
        self.Q_graph = StallingsGraph(self.basis.alphabet, self.Q_words)
        self._P_images = signed_table(self.Q_words)
        self._Q_images = signed_table(self.P_words)

    @cached_property
    def pieces(self):
        """The basis word of every non-stable letter at subscript 0, keyed
        by signed letter of the presentation.  Only windows that hold
        subscript 0 have them; Britton's always do."""
        out = {}
        for g in self.ip.spans:
            piece = self.basis.letter_word(g, 0).letters
            out[g + 1] = piece
            out[-g - 1] = invert_letters(piece)
        return out

    def _map_witness(self, witness, images):
        return product(self.basis.alphabet, map(images.__getitem__, witness))

    def phi(self, word):
        """Shift a P-element up by one; None when word is not in P."""
        wit = self.P_graph.witness(word)
        if wit is None:
            return None
        return self._map_witness(wit, self._P_images)

    def phi_inv(self, word):
        wit = self.Q_graph.witness(word)
        if wit is None:
            return None
        return self._map_witness(wit, self._Q_images)


def _abelian_filter(presentation, word):
    """False when no integer k makes the exponent vector k times the
    relator's; True means the abelian test is passed, nothing more."""
    r = presentation.relator
    k = None
    for i in range(len(presentation.alphabet)):
        wr, ww = r.exponent_sum(i), word.exponent_sum(i)
        if wr == 0:
            if ww != 0:
                return False
        elif k is None:
            if ww % wr != 0:
                return False
            k = ww // wr
        elif ww != k * wr:
            return False
    return True


class BrittonEngine(WordProblem):
    """Word problem by Britton pinching.

    Requires a stable letter with zero relator exponent sum, every other
    generator occurring in the relator, and a qualifying generator in the
    max_min_report.  Splittings are built per window, and the 64 most
    recently used are kept (`window`).

    `is_trivial` is one left-to-right pass over a stack of stable letters,
    each with the freely reduced basis segment that follows it, above the
    segment before the first one.  Every segment below the top sits between
    two stable letters that do not pinch, and only the top segment changes;
    a stable letter that pinches the top segment pops it and extends the
    segment below with the image, which is tested again once it closes.
    So the final stack has no pinch, and by Britton's lemma the word is
    trivial exactly when no stable letter is left and the base segment is
    empty in the free window group.
    """

    name = "britton"

    def __init__(self, presentation, stable):
        self.presentation = presentation
        self.stable = stable
        self.report, self.gen = _qualifying_generator(presentation, stable)
        stats = self.report.stats.values()
        self._span_lo = max(st["min"] for st in stats)
        self._span_hi = min(st["max"] for st in stats)
        self.window = lru_cache(maxsize=64)(self._split)

    def _split(self, n, m):
        """The splitting over window [n, m].  `window` keeps the 64 most
        recently used per engine: pinching and every DG instance over the
        same window share one."""
        ip = IntervalPresentation(self.presentation, self.stable, n, m)
        return HnnData(ip, self.gen)

    def is_trivial(self, word):
        w = word.free_reduce()
        if not w:
            return True
        if not _abelian_filter(self.presentation, w):
            return False
        t = self.presentation.alphabet.index(self.stable)
        sums = [0]
        s = 0
        has_other = False
        for x in w.letters:
            if abs(x) - 1 == t:
                s += 1 if x > 0 else -1
                sums.append(s)
            else:
                has_other = True
        if not has_other:
            return s == 0
        lo, hi = min(sums), max(sums)
        # n <= -span_lo and m >= -span_hi: every span holds subscript 0
        n = (lo - hi) - self._span_lo
        m = max((hi - lo) - self._span_hi, n + 1)
        hnn = self.window(n, m)
        pieces, basis = hnn.pieces, hnn.basis.alphabet
        segs = [[]]
        signs = []
        for x in w.letters:
            if abs(x) - 1 != t:
                extend_reduced(segs[-1], pieces[x])
                continue
            e = 1 if x > 0 else -1
            if signs and signs[-1] == -e:
                closed = _trusted(basis, tuple(segs[-1]))
                img = hnn.phi(closed) if e < 0 else hnn.phi_inv(closed)
                if img is not None:
                    segs.pop()
                    signs.pop()
                    extend_reduced(segs[-1], img.letters)
                    continue
            signs.append(e)
            segs.append([])
        return not signs and not segs[0]


@lru_cache(maxsize=64)
def britton_engine(presentation, stable):
    """The Britton engine of a presentation over a stable letter, built
    once: equal presentations share one engine, and with it every window
    it has built."""
    return BrittonEngine(presentation, stable)


class FbcGroup(WordProblem):
    """Normal forms t^j u with u over the kernel basis.

    Needs a generator with unique occurrences at both subscript extremes of
    the rewritten relator; its letters outside [min, max-1] are rewritten
    away through the shifted relators, top occurrences downwards and bottom
    occurrences upwards.
    """

    name = "fbc"

    def __init__(self, presentation, stable):
        self.presentation = presentation
        self.stable = stable
        self.report, self.gen = _qualifying_generator(presentation, stable)
        alphabet = presentation.alphabet
        self.g = alphabet.index(self.gen)
        self.t = alphabet.index(stable)
        stats = self.report.stats[self.gen]
        self.low, self.high = stats["min"], stats["max"]
        triples = self.report.image.triples

        def solve_at(target):
            # unique: the generator qualifies
            j = next(i for i, (g, s, _) in enumerate(triples)
                     if g == self.g and s == target)
            return sub_mul(solve_relator(triples, j, triples[j][2] > 0,
                                         sub_invert))

        self.expr_high = solve_at(self.high)
        self.expr_low = solve_at(self.low)

    def rebase(self, triples):
        """Rewrite kernel triples so the chosen generator only carries
        subscripts in [low, high-1]; canonical by freeness of the kernel.

        One pass onto a freely reduced output stack: a letter out of range
        is replaced by its solved expression, pushed back onto the input
        and cancelled against the input's top before either is rewritten
        further.  A top letter at subscript s becomes letters in
        [low + s - high, s - 1], a bottom one letters in
        [s + 1, s + high - low], so every replacement nears the range."""
        g0, low, high = self.g, self.low, self.high
        todo = list(reversed(triples))
        out = []
        while todo:
            g, s, e = t = todo.pop()
            if g == g0 and not low <= s < high:
                repl = (sub_shift(self.expr_high, s - high) if s >= high
                        else sub_shift(self.expr_low, s - low))
                for x in reversed(repl if e > 0 else sub_invert(repl)):
                    if todo and todo[-1] == (x[0], x[1], -x[2]):
                        todo.pop()
                    else:
                        todo.append(x)
            elif out and out[-1] == (g, s, -e):
                out.pop()
            else:
                out.append(t)
        return tuple(out)

    def normal_form(self, word):
        """(j, u): the element equals stable^j times the kernel word u.

        Each non-stable letter is tagged with the stable-letter prefix sum
        before it, cancelling against the top of the kernel word; the tags
        become subscripts by one shift of -j at the end."""
        if word.alphabet != self.presentation.alphabet:
            raise MagnusError("word not over the presentation alphabet")
        j = 0
        u = []
        for x in word.letters:
            g = abs(x) - 1
            e = 1 if x > 0 else -1
            if g == self.t:
                j += e
            elif u and u[-1] == (g, j, -e):
                u.pop()
            else:
                u.append((g, j, e))
        return j, self.rebase(sub_shift(u, -j))

    def is_trivial(self, word):
        j, u = self.normal_form(word)
        return j == 0 and not u

    def shift_to_basis(self, triples, d):
        """Kernel word conjugated by stable^d, rewritten to the basis."""
        return self.rebase(sub_shift(triples, d))

    def format(self, triples):
        return format_subscripted(self.presentation.alphabet, triples)


def substitute_generator(presentation, gen, new_name, expression):
    """Replace a generator by a new one through a change of basis.

    `expression` is a word over the renamed alphabet giving the old
    generator in terms of the new ones.  Returns the transformed
    presentation and the homomorphism carrying old words to new ones.
    """
    old = presentation.alphabet
    if gen not in old:
        raise WordError(f"unknown generator {gen!r}")
    new_names = [new_name if nm == gen else nm for nm in old.names]
    new_alphabet = Alphabet(new_names)
    if isinstance(expression, str):
        expression = Word.parse(new_alphabet, expression)
    if expression.alphabet != new_alphabet:
        raise WordError("expression must be over the renamed alphabet")
    images = []
    for nm in old.names:
        if nm == gen:
            images.append(expression)
        else:
            images.append(Word(new_alphabet, (new_alphabet.letter(nm),)))
    forward = GroupHom(old, new_alphabet, images)
    new_pres = Presentation(new_alphabet, [forward(r) for r in presentation.relators])
    return new_pres, forward
