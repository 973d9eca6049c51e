"""The benchmark's own group arithmetic, used to build inputs and answer keys.

Nothing here calls submon: every key a query is checked against comes from
this file.  A letter is a nonzero integer, +(i+1) for generator i and
-(i+1) for its inverse, and a word is a tuple of letters.

Keys come in four kinds:

* trivial by construction: products of conjugated relator rotations;
* non-trivial: the image in a finite permutation quotient is not the
  identity, or the exponent vector is not a multiple of the relator's
  (abelianization);
* non-member: an integer functional that kills the relators is >= 0 on every
  generator and < 0 on the query, or (in a free group) the quotient image of
  the query leaves a subgroup that holds the image of every generator;
* member: a product of generators, spelled out by the generator.
"""

import itertools


def reduce(letters):
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse(letters):
    return tuple(-x for x in reversed(letters))


def mul(*parts):
    return reduce(itertools.chain(*parts))


def is_compact(names):
    return all(len(n) == 1 and n.islower() for n in names)


def fmt(names, letters):
    """Spell a word the way the command line and submon's labels do."""
    if is_compact(names):
        return "".join(names[abs(x) - 1] if x > 0 else names[abs(x) - 1].upper()
                       for x in letters)
    return " ".join(names[abs(x) - 1] + ("" if x > 0 else "'") for x in letters)


def parse(names, text):
    """Inverse of fmt, also accepting token form over compact alphabets."""
    text = text.strip()
    index = {n: i + 1 for i, n in enumerate(names)}
    if not text:
        return ()
    if " " in text or "'" in text or not is_compact(names):
        out = []
        for token in text.split():
            sign = 1
            if token.endswith("'"):
                sign, token = -1, token[:-1]
            out.append(sign * index[token])
        return tuple(out)
    return tuple(index[c] if c.islower() else -index[c.lower()] for c in text)


def random_word(rng, k, length, first=None):
    """A freely reduced word of the given length over k generators."""
    out = [] if first is None else [first]
    while len(out) < length:
        x = rng.choice([i for i in range(-k, k + 1) if i != 0])
        if out and out[-1] == -x:
            continue
        out.append(x)
    return tuple(out)


def rotations(rel):
    rots = [rel[i:] + rel[:i] for i in range(len(rel))]
    return rots + [inverse(r) for r in rots]


def trivial_word(rng, k, relator, length):
    """A product of conjugated relator rotations with short conjugators,
    freely reduced, of at least the given length."""
    rots = rotations(relator)
    word = []
    while len(word) < length:
        g = random_word(rng, k, rng.randrange(0, 3))
        for x in g + rng.choice(rots) + inverse(g):
            if word and word[-1] == -x:
                word.pop()
            else:
                word.append(x)
    return tuple(word)


def exponent_vector(letters, k):
    vec = [0] * k
    for x in letters:
        vec[abs(x) - 1] += 1 if x > 0 else -1
    return vec


def abelian_nontrivial(letters, k, relators):
    """True when the exponent vector is not an integer multiple of the
    relator's, so the word is non-trivial in the one-relator group."""
    (rel,) = relators
    v = exponent_vector(letters, k)
    r = exponent_vector(rel, k)
    ratio = None
    for vi, ri in zip(v, r):
        if ri == 0:
            if vi != 0:
                return True
        elif vi % ri != 0:
            return True
        elif ratio is None:
            ratio = vi // ri
        elif vi != ratio * ri:
            return True
    return False


# -- permutation quotients -------------------------------------------------

def perm_mul(p, q):
    """Apply p, then q."""
    return tuple(q[i] for i in p)


def perm_inv(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


class Quotient:
    """A homomorphism onto a permutation group, given on generators."""

    def __init__(self, images):
        self.images = tuple(images)
        self.inverses = tuple(perm_inv(p) for p in self.images)
        self.identity = tuple(range(len(self.images[0])))

    def image(self, letters):
        out = self.identity
        for x in letters:
            out = perm_mul(out, self.images[x - 1] if x > 0
                           else self.inverses[-x - 1])
        return out

    def is_identity(self, letters):
        return self.image(letters) == self.identity

    @classmethod
    def find(cls, rng, k, relators, degree=5, tries=200_000):
        """A quotient killing the relators whose image is non-abelian."""
        points = list(range(degree))
        for _ in range(tries):
            images = []
            for _ in range(k):
                rng.shuffle(points)
                images.append(tuple(points))
            q = cls(images)
            if not all(q.is_identity(r) for r in relators):
                continue
            if any(perm_mul(p, r) != perm_mul(r, p)
                   for p, r in itertools.combinations(q.images, 2)):
                return q
        raise RuntimeError("no non-abelian permutation quotient found")


def nontrivial_commutator(rng, k, quotient):
    """[x, y] for short words x, y whose image in the quotient is not the
    identity, so it is non-trivial in the group."""
    while True:
        x = random_word(rng, k, rng.randrange(1, 3))
        y = random_word(rng, k, rng.randrange(1, 3))
        c = mul(x, y, inverse(x), inverse(y))
        if c and not quotient.is_identity(c):
            return c


# -- functionals -----------------------------------------------------------

def functional_value(phi, letters):
    return sum(phi[abs(x) - 1] * (1 if x > 0 else -1) for x in letters)


def separating_functional(k, relators, gens, rng):
    """An integer functional that kills every relator's exponent vector, is
    >= 0 on every generator and > 0 on at least one; None if the small box
    holds none.  Among the candidates one is picked at random."""
    radius = 3 if k <= 2 else 2 if k <= 4 else 1
    rel_vecs = [exponent_vector(r, k) for r in relators]
    found = []
    for phi in itertools.product(range(-radius, radius + 1), repeat=k):
        if any(sum(a * b for a, b in zip(phi, rv)) for rv in rel_vecs):
            continue
        values = [functional_value(phi, g) for g in gens]
        if min(values, default=0) >= 0 and max(values, default=0) > 0:
            found.append(phi)
    return rng.choice(found) if found else None


# -- a second word-problem engine for Baumslag-Solitar groups ---------------

def bs_trivial(m, n, letters, a=1, t=2):
    """Britton pinching for <a, t | t a^m t^-1 = a^n>, written from the
    definition: t a^k t^-1 -> a^(k/m*n) when m | k, t^-1 a^k t ->
    a^(k/n*m) when n | k."""
    stack = []  # entries ["a", k] or ["t", +-1]
    for x in letters:
        if abs(x) == a:
            e = 1 if x > 0 else -1
            if stack and stack[-1][0] == "a":
                stack[-1][1] += e
                if stack[-1][1] == 0:
                    stack.pop()
            else:
                stack.append(["a", e])
            continue
        e = 1 if x > 0 else -1
        k = stack[-1][1] if stack and stack[-1][0] == "a" else 0
        below = len(stack) - (2 if k else 1)
        if below >= 0 and stack[below] == ["t", -e]:
            # stack[below] is the opening stable letter of t^s a^k t^-s
            div, times = (m, n) if stack[below][1] > 0 else (n, m)
            if k % div == 0:
                del stack[below:]
                power = k // div * times
                if power:
                    if stack and stack[-1][0] == "a":
                        stack[-1][1] += power
                        if stack[-1][1] == 0:
                            stack.pop()
                    else:
                        stack.append(["a", power])
                continue
        stack.append(["t", e])
    return not stack


# -- a second word-problem engine for C'(1/6) surface groups ----------------

def dehn_trivial(relator, letters):
    """Dehn's algorithm, written from the definition: while some subword is
    more than half of a cyclic rotation of the relator or its inverse,
    replace it by the inverse of the rest of that rotation.  Decides the
    word problem when the relator satisfies C'(1/6)."""
    n = len(relator)
    shorten = {}
    for rot in rotations(relator):
        for length in range(n // 2 + 1, n + 1):
            shorten.setdefault(rot[:length], inverse(rot[length:]))
    word = reduce(letters)
    while word:
        for length in range(n, n // 2, -1):
            hit = next((i for i in range(len(word) - length + 1)
                        if word[i:i + length] in shorten), None)
            if hit is not None:
                piece = word[hit:hit + length]
                word = mul(word[:hit], shorten[piece], word[hit + length:])
                break
        else:
            return False
    return True


# -- subscript statistics (the max/min report) ------------------------------

def max_min(names, relator, stable):
    """(sigma, qualifying names) for a relator and a stable generator, from
    the definition: cyclically reduce, give every other letter the running
    stable exponent as subscript, and keep the generators whose least and
    greatest subscripts each occur once."""
    core = list(reduce(relator))
    while len(core) >= 2 and core[0] == -core[-1]:
        core = core[1:-1]
    t = names.index(stable) + 1
    sigma = sum(1 if x == t else -1 for x in core if abs(x) == t)
    if sigma != 0:
        return sigma, []
    subs = {}
    s = 0
    for x in core:
        if abs(x) == t:
            s += 1 if x > 0 else -1
        else:
            subs.setdefault(abs(x), []).append(s)
    qualifying = [names[g - 1] for g in sorted(subs)
                  if subs[g].count(min(subs[g])) == 1
                  and subs[g].count(max(subs[g])) == 1]
    return sigma, qualifying
