"""Words in free groups: alphabets, reduction, presentations, homomorphisms.

A letter is a nonzero integer: +(i+1) is generator number i, -(i+1) is its
inverse.  Words carry their alphabet and are not reduced implicitly; group
operations (multiplication, inversion, homomorphism application) return
freely reduced results.  Only the public `Word(alphabet, letters)` checks
each letter against the alphabet; the results of those operations, and of
`product`, which multiplies many factors in one pass, are built unchecked.
`join_reduced` multiplies two reduced letter tuples without a Word at all,
for loops that keep states as tuples.
"""

import re

NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9]*(\[-?\d+\])?$")


class WordError(ValueError):
    pass


class Alphabet:
    """Ordered list of generator names."""

    def __init__(self, names):
        names = tuple(names)
        if not names:
            raise WordError("alphabet needs at least one generator")
        seen = set()
        for name in names:
            if not NAME_RE.match(name):
                raise WordError(f"bad generator name {name!r}")
            if name in seen:
                raise WordError(f"duplicate generator name {name!r}")
            seen.add(name)
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}
        # compact serialization (one char per letter, case = sign) only
        # works when every name is a single lowercase ascii letter
        self.compact = all(len(n) == 1 and n.islower() for n in names)

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __contains__(self, name):
        return name in self._index

    def __repr__(self):
        return f"Alphabet({', '.join(self.names)})"

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise WordError(f"unknown generator {name!r}") from None

    def letter(self, name, sign=1):
        """Signed integer letter for a generator name."""
        if sign not in (1, -1):
            raise WordError(f"sign must be +1 or -1, got {sign}")
        return sign * (self.index(name) + 1)

    def name_of(self, letter):
        idx = abs(letter) - 1
        if letter == 0 or idx >= len(self.names):
            raise WordError(f"letter {letter} not in {self!r}")
        return self.names[idx]


def invert_letters(letters):
    return tuple(-x for x in reversed(letters))


def _reduce_letters(letters):
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _trusted(alphabet, letters):
    """A Word from a kernel operation, whose letters need no range check."""
    w = object.__new__(Word)
    w.alphabet, w.letters = alphabet, letters
    return w


def extend_reduced(out, letters):
    """Append freely reduced letters to a freely reduced list, cancelling
    at the junction only."""
    k, n = 0, len(letters)
    while k < n and out and out[-1] == -letters[k]:
        out.pop()
        k += 1
    out.extend(letters[k:])


def join_reduced(u, v):
    """The product of two freely reduced letter tuples, cancelling at the
    junction only: the plain u + v unless u ends in the inverse of v's
    first letter."""
    if not u or not v or u[-1] != -v[0]:
        return u + v
    i, j, n = len(u) - 1, 1, len(v)
    while i and j < n and u[i - 1] == -v[j]:
        i, j = i - 1, j + 1
    return u[:i] + v[j:]


def product(alphabet, factors):
    """The product of freely reduced letter sequences, reduced in one pass."""
    out = []
    for f in factors:
        extend_reduced(out, f)
    return _trusted(alphabet, tuple(out))


def signed_table(words):
    """The letters of each word and its inverse, by signed 1-based index."""
    table = {}
    for i, w in enumerate(words, 1):
        table[i], table[-i] = w.letters, invert_letters(w.letters)
    return table


class Word:
    """A sequence of signed letters over a fixed alphabet."""

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet, letters=()):
        self.alphabet = alphabet
        letters = tuple(letters)
        n = len(alphabet)
        for x in letters:
            if not isinstance(x, int) or x == 0 or abs(x) > n:
                raise WordError(f"letter {x!r} out of range for {alphabet!r}")
        self.letters = letters

    @classmethod
    def parse(cls, alphabet, text):
        """Parse either compact form ("abA") or token form ("a b a'").

        Tokens are generator names with an optional trailing apostrophe for
        the inverse.  Compact form requires a single-letter lowercase
        alphabet; uppercase means inverse.
        """
        text = text.strip()
        if not text:
            return cls(alphabet, ())
        if any(ch.isspace() for ch in text) or "'" in text or not alphabet.compact:
            letters = []
            for pos, token in enumerate(text.split()):
                sign = 1
                if token.endswith("'"):
                    sign, token = -1, token[:-1]
                if token not in alphabet:
                    raise WordError(f"token {token!r} at position {pos} not in {alphabet!r}")
                letters.append(alphabet.letter(token, sign))
            return cls(alphabet, letters)
        letters = []
        for pos, ch in enumerate(text):
            name = ch.lower()
            if name not in alphabet:
                raise WordError(f"character {ch!r} at position {pos} not in {alphabet!r}")
            letters.append(alphabet.letter(name, -1 if ch.isupper() else 1))
        return cls(alphabet, letters)

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def __eq__(self, other):
        return (
            isinstance(other, Word)
            and self.alphabet == other.alphabet
            and self.letters == other.letters
        )

    def __hash__(self):
        return hash((self.alphabet, self.letters))

    def __repr__(self):
        return f"<{self.format() or '1'}>"

    def _check_same(self, other):
        if not isinstance(other, Word):
            raise WordError(f"expected a Word, got {other!r}")
        if other.alphabet != self.alphabet:
            raise WordError(
                f"alphabet mismatch: {self.alphabet!r} vs {other.alphabet!r}"
            )

    def __mul__(self, other):
        self._check_same(other)
        return _trusted(self.alphabet,
                        _reduce_letters(self.letters + other.letters))

    def __invert__(self):
        return _trusted(self.alphabet, invert_letters(self.letters))

    def __pow__(self, k):
        if k < 0:
            return (~self) ** (-k)
        return product(self.alphabet, [self.free_reduce().letters] * k)

    def conjugate(self, by):
        """by * self * by^-1."""
        return by * self * ~by

    @property
    def is_reduced(self):
        return _reduce_letters(self.letters) == self.letters

    def free_reduce(self):
        return _trusted(self.alphabet, _reduce_letters(self.letters))

    def cyclic_reduce(self):
        """Return (core, conjugator) with self == conjugator * core * conjugator^-1."""
        red = _reduce_letters(self.letters)
        i, j = 0, len(red)
        while j - i >= 2 and red[i] == -red[j - 1]:
            i, j = i + 1, j - 1
        a = self.alphabet
        return _trusted(a, red[i:j]), _trusted(a, red[:i])

    def exponent_sum(self, gen):
        """Net exponent of a generator (given by name or index)."""
        idx = gen if isinstance(gen, int) else self.alphabet.index(gen)
        if not 0 <= idx < len(self.alphabet):
            raise WordError(f"generator index {idx} out of range")
        target = idx + 1
        return sum(1 if x == target else -1 for x in self.letters if abs(x) == target)

    def format(self, compact=None):
        if compact is None:
            compact = self.alphabet.compact
        if compact and not self.alphabet.compact:
            raise WordError(f"{self.alphabet!r} has no compact form")
        if compact:
            return "".join(
                self.alphabet.name_of(x) if x > 0 else self.alphabet.name_of(x).upper()
                for x in self.letters
            )
        return " ".join(
            self.alphabet.name_of(x) + ("" if x > 0 else "'") for x in self.letters
        )

    def __str__(self):
        return self.format()


def solve_relator(letters, j, positive, invert):
    """Solve a relator for the letter at position j, occurring there once.

    The relator P x S = 1 gives x = (S P)^-1 and P x^-1 S = 1 gives x = S P:
    the rest of the relator read cyclically from after the letter, inverted
    when the letter is positive.  `invert` inverts a sequence of letters;
    the result is not freely reduced.
    """
    rest = letters[j + 1:] + letters[:j]
    return invert(rest) if positive else rest


class WordProblem:
    """A word-problem engine: subclasses name themselves and decide
    `is_trivial`; equality is triviality of the quotient."""

    name = None

    def is_trivial(self, word):
        raise NotImplementedError

    def equal(self, u, v):
        return self.is_trivial(u * ~v)


class Presentation:
    """A group presentation: alphabet plus a tuple of relator words.

    Presentations are values: two are equal, and hash alike, when their
    alphabets and relator tuples are, so per-presentation caches such as
    `select_engine` serve every equal copy."""

    def __init__(self, alphabet, relators):
        self.alphabet = alphabet
        relators = tuple(relators)
        for r in relators:
            if not isinstance(r, Word) or r.alphabet != alphabet:
                raise WordError(f"relator {r!r} not a word over {alphabet!r}")
        self.relators = relators

    def __eq__(self, other):
        return (isinstance(other, Presentation)
                and self.alphabet == other.alphabet
                and self.relators == other.relators)

    def __hash__(self):
        return hash((self.alphabet, self.relators))

    @classmethod
    def parse(cls, text):
        """Parse the presentation file format:

            gens: a b c d
            rel: a b a' b' c d c' d'

        Blank lines and lines starting with '#' are ignored.  Several rel:
        lines give several relators; compact words are accepted too.
        """
        alphabet = None
        rel_texts = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("gens:"):
                if alphabet is not None:
                    raise WordError(f"line {lineno}: duplicate gens: line")
                alphabet = Alphabet(line[len("gens:"):].split())
            elif line.startswith("rel:"):
                rest = line[len("rel:"):].strip()
                if rest:
                    rel_texts.append((lineno, rest))
            else:
                raise WordError(f"line {lineno}: expected 'gens:' or 'rel:', got {raw!r}")
        if alphabet is None:
            raise WordError("missing gens: line")
        relators = []
        for lineno, t in rel_texts:
            try:
                relators.append(Word.parse(alphabet, t))
            except WordError as e:
                raise WordError(f"line {lineno}: {e}") from None
        return cls(alphabet, relators)

    def format(self):
        lines = ["gens: " + " ".join(self.alphabet.names)]
        for r in self.relators:
            lines.append("rel: " + r.format(compact=False))
        return "\n".join(lines) + "\n"

    @property
    def is_one_relator(self):
        return len(self.relators) == 1

    @property
    def relator(self):
        if not self.is_one_relator:
            raise WordError(f"expected one relator, have {len(self.relators)}")
        return self.relators[0]

    def word(self, text):
        return Word.parse(self.alphabet, text)

    def __repr__(self):
        rels = ", ".join(str(r) for r in self.relators)
        return f"<{' '.join(self.alphabet.names)} | {rels}>"


class GroupHom:
    """A homomorphism of free groups given on generators.

    Relator preservation is the caller's business; `check_presentation`
    verifies it for free targets (image of each relator freely trivial).
    """

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        images = tuple(images)
        if len(images) != len(source):
            raise WordError(
                f"need {len(source)} images for {source!r}, got {len(images)}"
            )
        for w in images:
            if not isinstance(w, Word) or w.alphabet != target:
                raise WordError(f"image {w!r} not a word over {target!r}")
        self.images = tuple(w.free_reduce() for w in images)
        self._letters = signed_table(self.images)

    @classmethod
    def from_dict(cls, source, target, mapping):
        """mapping: generator name -> word text (missing names map to 1)."""
        images = []
        for name in source.names:
            text = mapping.get(name, "")
            images.append(Word.parse(target, text) if isinstance(text, str) else text)
        return cls(source, target, images)

    @classmethod
    def identity(cls, alphabet):
        return cls(
            alphabet, alphabet,
            [Word(alphabet, (i + 1,)) for i in range(len(alphabet))],
        )

    def apply(self, word):
        if word.alphabet != self.source:
            raise WordError(f"{word!r} not over source alphabet {self.source!r}")
        return product(self.target,
                       map(self._letters.__getitem__, word.letters))

    def __call__(self, word):
        return self.apply(word)

    def compose(self, inner):
        """self o inner (apply inner first)."""
        if inner.target != self.source:
            raise WordError("composition mismatch")
        return GroupHom(
            inner.source, self.target, [self.apply(w) for w in inner.images]
        )

    def check_presentation(self, presentation):
        """Whether this map, into a free group, kills every relator of the
        presentation, and so is a homomorphism of the group it presents."""
        return (presentation.alphabet == self.source
                and not any(self.apply(r) for r in presentation.relators))

    @property
    def max_image_length(self):
        """Largest reduced image length of a generator (the constant C)."""
        return max((len(w) for w in self.images), default=0)

    def __repr__(self):
        pairs = ", ".join(
            f"{n}->{w.format() or '1'}" for n, w in zip(self.source.names, self.images)
        )
        return f"GroupHom({pairs})"

