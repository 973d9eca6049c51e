"""String rewriting over letter strings, plus Dehn's algorithm.

Rewriting systems here act on plain Python strings whose characters are
single-letter generator names (lowercase) and their inverses (uppercase).
That covers the two-generator one-relator groups they are used for and
keeps the inner loop on native string search.

`closure_membership` turns a complete system into a submonoid membership
test for letter subsets closed under the rules.

Dehn's algorithm lives at the end and requires the relator to satisfy the
strict metric small cancellation condition C'(1/6).  It is one pass of a
letter stack over the word: see `DehnEngine.is_trivial` for the invariant
that makes an empty stack exactly the trivial words.
"""

from fractions import Fraction

from submon.words import WordError, WordProblem, invert_letters


class RewriteError(ValueError):
    pass


class RewritingSystem:
    """Ordered list of string rules lhs -> rhs."""

    def __init__(self, rules):
        self.rules = []
        for lhs, rhs in rules:
            if not lhs:
                raise RewriteError("empty left side")
            self.rules.append((lhs, rhs))
        self._max_lhs = max(len(l) for l, _ in self.rules)

    @classmethod
    def parse(cls, text):
        """Rule file format: one 'rule: lhs -> rhs' per line, empty rhs for
        deletion; blank lines and # comments ignored."""
        rules = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not line.startswith("rule:"):
                raise RewriteError(f"line {lineno}: expected 'rule:', got {raw!r}")
            body = line[len("rule:"):].strip()
            if "->" not in body:
                raise RewriteError(f"line {lineno}: missing '->'")
            lhs, rhs = (part.strip() for part in body.split("->", 1))
            if not lhs:
                raise RewriteError(f"line {lineno}: empty left side")
            rules.append((lhs, rhs))
        return cls(rules)

    def format(self):
        return "\n".join(f"rule: {l} -> {r}" for l, r in self.rules) + "\n"

    def step(self, s):
        """One leftmost rewrite, or None if s is in normal form.

        Among rules matching at the leftmost rewritable position, the first
        rule in list order wins.
        """
        best = None
        for ri, (lhs, rhs) in enumerate(self.rules):
            i = s.find(lhs)
            if i >= 0 and (best is None or i < best[0]):
                best = (i, ri)
        if best is None:
            return None
        i, ri = best
        lhs, rhs = self.rules[ri]
        return s[:i] + rhs + s[i + len(lhs):]

    def normalize(self, s, max_steps=100_000):
        for _ in range(max_steps):
            nxt = self.step(s)
            if nxt is None:
                return s
            s = nxt
        raise RewriteError(f"no normal form within {max_steps} steps")

    def superpositions(self):
        """All critical superpositions: (word, reduct_a, reduct_b)."""
        out = []
        for l1, r1 in self.rules:
            for l2, r2 in self.rules:
                # proper overlap: suffix of l1 = prefix of l2
                for k in range(1, min(len(l1), len(l2))):
                    if l1[len(l1) - k:] == l2[:k]:
                        w = l1 + l2[k:]
                        a = r1 + l2[k:]
                        b = l1[:len(l1) - k] + r2
                        out.append((w, a, b))
                # containment: l2 inside l1 (distinct rules only)
                if (l1, r1) != (l2, r2) and len(l2) <= len(l1):
                    start = 0
                    while True:
                        i = l1.find(l2, start)
                        if i < 0:
                            break
                        out.append((l1, r1, l1[:i] + r2 + l1[i + len(l2):]))
                        start = i + 1
        return out


class ConfluenceReport:
    def __init__(self, confluent, checked, failures, note=""):
        self.confluent = confluent  # True / False / None when inconclusive
        self.checked = checked
        self.failures = failures
        self.note = note

    def __repr__(self):
        return f"ConfluenceReport(confluent={self.confluent}, checked={self.checked})"


def critical_pairs_confluent(system, max_steps=10_000):
    """Join every critical pair under the step budget.

    Returns a ConfluenceReport; confluent=None means a normalization hit
    the budget and the check is inconclusive, which is not a failure.
    """
    failures = []
    checked = 0
    for w, a, b in system.superpositions():
        checked += 1
        try:
            na = system.normalize(a, max_steps)
            nb = system.normalize(b, max_steps)
        except RewriteError:
            return ConfluenceReport(None, checked, failures,
                                    f"step budget {max_steps} exhausted on {w!r}")
        if na != nb:
            failures.append((w, na, nb))
    return ConfluenceReport(not failures, checked, failures)


def bs_system(m, n, variant="positive"):
    """Complete rewriting system for  < a, t | t a^m t' = a^n >,  1 <= m < n.

    The positive variant keeps words over {a, t, T} closed; the negative
    variant is its image under swapping a and A and keeps {A, t, T} closed.
    """
    if not (1 <= m < n):
        raise RewriteError(f"need 1 <= m < n, got ({m}, {n})")
    rules = [
        ("aA", ""), ("Aa", ""), ("tT", ""), ("Tt", ""),
        ("a" * n + "t", "t" + "a" * m),
        ("At", "a" * (n - 1) + "t" + "A" * m),
        ("a" * m + "T", "T" + "a" * n),
        ("AT", "a" * (m - 1) + "T" + "A" * n),
    ]
    if variant == "negative":
        swap = str.maketrans("aA", "Aa")
        rules = [(l.translate(swap), r.translate(swap)) for l, r in rules]
    elif variant != "positive":
        raise RewriteError(f"unknown variant {variant!r}")
    return RewritingSystem(rules)


class ClosureError(ValueError):
    pass


def closure_membership(system, letters, s, max_steps=100_000):
    """Membership of s in the submonoid generated by the given letters.

    Sound for a complete system every rule of which maps left sides over
    `letters` to right sides over `letters`: the set of words over those
    letters is then closed under rewriting, so an element lies in the
    submonoid exactly when its normal form uses only those letters.
    Raises ClosureError naming the first offending rule otherwise.
    """
    allowed = set(letters)
    for lhs, rhs in system.rules:
        if set(lhs) <= allowed and not set(rhs) <= allowed:
            raise ClosureError(f"rule {lhs!r} -> {rhs!r} leaves the letter set")
    return set(system.normalize(s, max_steps)) <= allowed


class SmallCancellationReport:
    def __init__(self, relator_length, max_piece, ratio, passes):
        self.relator_length = relator_length
        self.max_piece = max_piece
        self.ratio = ratio
        self.passes = passes

    def __repr__(self):
        return (f"SmallCancellationReport(len={self.relator_length}, "
                f"piece={self.max_piece}, ratio={self.ratio}, passes={self.passes})")


def _rotations(letters):
    n = len(letters)
    return [letters[i:] + letters[:i] for i in range(n)]


def _common_prefix(u, v):
    k = 0
    for a, b in zip(u, v):
        if a != b:
            break
        k += 1
    return k


def small_cancellation_check(presentation, bound=Fraction(1, 6)):
    """Strict metric condition C'(bound) for a one-relator presentation.

    A piece is a common prefix of two distinct cyclic rotations of the
    relator or its inverse; passes means every piece is strictly shorter
    than bound times the relator length.
    """
    r, _ = presentation.relator.cyclic_reduce()
    if not r:
        raise WordError("trivial relator")
    rots = set(_rotations(r.letters)) | set(_rotations((~r).letters))
    rots = sorted(rots)
    max_piece = 0
    for i, u in enumerate(rots):
        for v in rots[i + 1:]:
            max_piece = max(max_piece, _common_prefix(u, v))
    ratio = Fraction(max_piece, len(r))
    return SmallCancellationReport(len(r), max_piece, ratio, ratio < bound)


class DehnError(ValueError):
    pass


class DehnEngine(WordProblem):
    """Word problem for strict C'(1/6) one-relator presentations."""

    name = "dehn"

    def __init__(self, presentation):
        report = small_cancellation_check(presentation)
        if not report.passes:
            raise DehnError(
                f"relator fails strict C'(1/6): max piece {report.max_piece} "
                f"of length {report.relator_length}")
        self.presentation = presentation
        self.alphabet = presentation.alphabet
        r, _ = presentation.relator.cyclic_reduce()
        self.rlen = len(r)
        # a subword of more than half a relator starts with such a prefix of
        # a rotation of r or r^-1; each maps to the inverse of the rest
        self._span = self.rlen // 2 + 1
        self._shorter = {}
        for rot in _rotations(r.letters) + _rotations((~r).letters):
            self._shorter.setdefault(rot[:self._span],
                                     invert_letters(rot[self._span:]))

    def is_trivial(self, word):
        """One pass: the output stack only changes at its top, so each of
        its subwords of rlen // 2 + 1 letters is looked up once, when its
        last letter arrives; a hit is replaced by the shorter rest, pushed
        back onto the input.  The final stack is freely reduced with no
        piece of more than half a relator, so by Greendlinger's lemma the
        word is trivial exactly when the stack is empty."""
        todo = list(reversed(word.letters))
        out = []
        span, shorter = self._span, self._shorter
        while todo:
            x = todo.pop()
            if out and out[-1] == -x:
                out.pop()
                continue
            out.append(x)
            if len(out) >= span:
                repl = shorter.get(tuple(out[-span:]))
                if repl is not None:
                    del out[-span:]
                    todo.extend(reversed(repl))
        return not out
