"""Graph and automaton machinery over free groups.

Two engines live here:

* `StallingsGraph` decides membership in a finitely generated subgroup of a
  free group and produces witnesses (an expression of the queried word as a
  product of the given generators and their inverses).  Every edge is
  labelled by an element of the free group on the generators, so a witness
  is the product of the labels along the query's path.

* `SaturatedAcceptor` decides membership in a finitely generated submonoid
  of a free group via epsilon saturation of a weighted chain automaton, and
  returns the exact minimal number of factors plus a witness factorization.

Plus two combinatorial checks on literal letter sequences: `is_code`
(Sardinas-Patterson) and `no_cancellation`.
"""

import math

from submon.words import (
    WordError, invert_letters, product, signed_table, _reduce_letters,
)

BASE = 0


class StallingsGraph:
    """Folded based graph for a finitely generated subgroup of a free group.

    Besides its letter, every edge carries a label: a freely reduced tuple of
    signed 1-based generator indices.  Along any closed path at the base, the
    labels read in order multiply to the path's word once each index is
    replaced by its generator (Kapovich-Myasnikov).  The first edge of each
    generator's petal is labelled with that generator, every other edge is
    labelled trivially, and folding keeps the property: a merged state keeps
    a parent pointer and the label offset by which its edges are rewritten
    (union-find, after Touikan).
    """

    def __init__(self, alphabet, generators):
        self.alphabet = alphabet
        self.generators = tuple(w.free_reduce() for w in generators)
        for w in self.generators:
            if w.alphabet != alphabet:
                raise WordError(f"generator {w!r} not over {alphabet!r}")
        # out: live state -> {letter: (target, label)}; a target may since
        # have been merged away and is resolved through find
        out = {BASE: {}}
        merged = {}  # merged state -> (parent, offset)
        pending = []  # (source, letter, target, label), either end may be stale
        fresh = 1
        for i, w in enumerate(self.generators):
            if not w:
                continue
            states = [BASE, *range(fresh, fresh + len(w) - 1), BASE]
            fresh += len(w) - 1
            for j, x in enumerate(w.letters):
                label = (i + 1,) if j == 0 else ()
                pending.append((states[j], x, states[j + 1], label))
                pending.append((states[j + 1], -x, states[j], invert_letters(label)))
                out.setdefault(states[j + 1], {})

        def find(state):
            """(live state, offset): an edge leaving `state` with label L
            leaves the live state with label offset + L."""
            start, offset = state, ()
            while state in merged:
                state, up = merged[state]
                offset = _reduce_letters(up + offset)
            if start != state:
                merged[start] = (state, offset)
            return state, offset

        def resolve(q, label):
            q, offset = find(q)
            return q, _reduce_letters(label + invert_letters(offset))

        while pending:
            p, x, q, label = pending.pop()
            p, offset = find(p)
            q, label = resolve(q, offset + label)
            edges = out[p]
            if x not in edges:
                edges[x] = (q, label)
                continue
            q2, label2 = resolve(*edges[x])
            if q2 == q:
                continue  # parallel edge: either label reads the same element
            if q == BASE or (q2 != BASE and len(out[q]) > len(out[q2])):
                q, label, q2, label2 = q2, label2, q, label
            # fold q (gone) into q2 (kept), both reached from p by x
            edges[x] = (q2, label2)
            merged[q] = (q2, _reduce_letters(invert_letters(label2) + label))
            pending.extend((q, y, t, lab) for y, (t, lab) in out.pop(q).items())
        self._out = {(p, x): resolve(q, label)
                     for p, edges in out.items()
                     for x, (q, label) in edges.items()}
        self.states = set(out)
        self._signed = signed_table(self.generators)

    @property
    def rank(self):
        positive = sum(1 for _, x in self._out if x > 0)
        return positive - len(self.states) + 1

    def _read(self, word):
        """(end state, labels read) following the reduced word from the
        base; (None, None) if a step is missing."""
        state, labels = BASE, []
        for x in word.free_reduce().letters:
            step = self._out.get((state, x))
            if step is None:
                return None, None
            state, label = step
            labels.extend(label)
        return state, labels

    def trace(self, word):
        """Follow the reduced word from the base; None if a step is missing."""
        return self._read(word)[0]

    def contains(self, word):
        return self.trace(word) == BASE

    def witness(self, word):
        """Express word as a product of generators and inverses.

        Returns a list of nonzero signed integers, +(-)(i+1) meaning
        generators[i] (its inverse), or None when word is not in the
        subgroup.  The list is freely reduced; the empty list means the
        trivial word.
        """
        state, labels = self._read(word)
        if state != BASE:
            return None
        letters = list(_reduce_letters(labels))
        check = product(self.alphabet, map(self._signed.__getitem__, letters))
        if check != word.free_reduce():
            raise AssertionError("witness product mismatch")
        return letters


INF = math.inf


class SaturatedAcceptor:
    """Weighted epsilon-saturated acceptor for Mon<generators> in a free group.

    Built once per generating set; answers membership, exact minimal factor
    count, and an explicit factorization for reduced query words.
    """

    def __init__(self, alphabet, generators):
        self.alphabet = alphabet
        self.generators = tuple(w.free_reduce() for w in generators)
        for w in self.generators:
            if w.alphabet != alphabet:
                raise WordError(f"generator {w!r} not over {alphabet!r}")
        self.chains = [(i, w) for i, w in enumerate(self.generators) if w]
        self.edges = []
        n_states = 1
        for cid, (_, w) in enumerate(self.chains):
            states = [BASE]
            for _ in range(len(w) - 1):
                states.append(n_states)
                n_states += 1
            states.append(BASE)
            for j, x in enumerate(w.letters):
                cost = 1 if j == 0 else 0
                self.edges.append((states[j], x, states[j + 1], cost, cid))
        self.n_states = n_states
        self._by_letter = {}
        for eid, (p, x, q, cost, cid) in enumerate(self.edges):
            self._by_letter.setdefault(x, []).append(eid)
        self._saturate()

    def _saturate(self):
        n = self.n_states
        eps = [[INF] * n for _ in range(n)]
        back = [[None] * n for _ in range(n)]
        for p in range(n):
            eps[p][p] = 0
            back[p][p] = ("R",)
        pairs = [
            (e1, e2)
            for e1, (p1, x1, q1, c1, _) in enumerate(self.edges)
            for e2 in self._by_letter.get(-x1, ())
        ]
        changed = True
        while changed:
            changed = False
            for r in range(n):
                er = eps[r]
                for p in range(n):
                    d = eps[p][r]
                    if d == INF:
                        continue
                    row = eps[p]
                    for q in range(n):
                        v = d + er[q]
                        if v < row[q]:
                            row[q] = v
                            back[p][q] = ("T", r)
                            changed = True
            for e1, e2 in pairs:
                p, x, r, c1, _ = self.edges[e1]
                s, _, q, c2, _ = self.edges[e2]
                if eps[r][s] == INF:
                    continue
                v = c1 + eps[r][s] + c2
                if v < eps[p][q]:
                    eps[p][q] = v
                    back[p][q] = ("S", e1, r, s, e2)
                    changed = True
        self.eps = eps
        self._back = back
        self._eps_steps = {}

    def _expand_eps(self, p, q):
        """Edge-id path from p to q with freely trivial label, cost eps[p][q].

        A backpointer is only replaced when its pair's cost strictly drops,
        and it points at sub-pairs that already held their current, no
        greater, cost; so following backpointers never returns to a pair and
        the recursion terminates.  Results are memoized per pair.
        """
        key = (p, q)
        if key in self._eps_steps:
            return self._eps_steps[key]
        bp = self._back[p][q]
        if bp is None:
            raise AssertionError("expanding an unreachable epsilon pair")
        if bp[0] == "R":
            steps = []
        elif bp[0] == "T":
            r = bp[1]
            steps = self._expand_eps(p, r) + self._expand_eps(r, q)
        else:
            _, e1, r, s, e2 = bp
            steps = [e1] + self._expand_eps(r, s) + [e2]
        self._eps_steps[key] = steps
        return steps

    def _query(self, word):
        red = word.free_reduce()
        n = self.n_states
        dist = [self.eps[BASE][q] for q in range(n)]
        parents = []
        for x in red.letters:
            new = [INF] * n
            par = [None] * n
            for eid in self._by_letter.get(x, ()):
                p, _, r, c, _ = self.edges[eid]
                if dist[p] == INF:
                    continue
                base_cost = dist[p] + c
                row = self.eps[r]
                for q in range(n):
                    v = base_cost + row[q]
                    if v < new[q]:
                        new[q] = v
                        par[q] = (p, eid, r)
            parents.append(par)
            dist = new
        return red, dist, parents

    def factor_count(self, word):
        """Minimal number of generator factors, or None if not a member."""
        _, dist, _ = self._query(word)
        return None if dist[BASE] == INF else int(dist[BASE])

    def member(self, word):
        return self.factor_count(word) is not None

    def witness(self, word):
        """Factorization as a list of generator indices, or None.

        The product generators[i0] * generators[i1] * ... freely reduces to
        the query word; the list length is the minimal factor count.
        """
        red, dist, parents = self._query(word)
        if dist[BASE] == INF:
            return None
        # walk parents backwards collecting edge-id steps
        segments = []
        q = BASE
        for i in range(len(red.letters) - 1, -1, -1):
            p, eid, r = parents[i][q]
            segments.append((r, q, eid, p))
            q = p
        steps = list(self._expand_eps(BASE, q))
        for r, tail, eid, p in reversed(segments):
            steps.append(eid)
            steps.extend(self._expand_eps(r, tail))
        factors = []
        label = []
        for eid in steps:
            p, x, r, c, cid = self.edges[eid]
            label.append(x)
            if c == 1:
                factors.append(self.chains[cid][0])
        if _reduce_letters(label) != red.letters:
            raise AssertionError("witness path label mismatch")
        if product(self.alphabet,
                   (self.generators[i].letters for i in factors)) != red:
            raise AssertionError("witness factorization mismatch")
        return factors


def is_code(words):
    """Sardinas-Patterson on literal letter sequences.

    True when every concatenation of the given sequences has a unique
    factorization.  A set containing the empty sequence is never a code.
    """
    seqs = {tuple(w) for w in words}
    if () in seqs:
        return False

    def dangling(u, v):
        # remainder of v after prefix u, or None
        if len(u) <= len(v) and v[: len(u)] == u:
            return v[len(u):]
        return None

    current = set()
    for u in seqs:
        for v in seqs:
            if u != v:
                d = dangling(u, v)
                if d is not None:
                    current.add(d)
    seen = set(current)
    while current:
        nxt = set()
        for u in current:
            for v in seqs:
                for d in (dangling(u, v), dangling(v, u)):
                    if d == ():
                        return False
                    if d is not None and d not in seen:
                        seen.add(d)
                        nxt.add(d)
        current = nxt
    return True


def no_cancellation(words):
    """True when no ordered pair of sequences cancels at the seam."""
    seqs = [tuple(w) for w in words if len(tuple(w)) > 0]
    for u in seqs:
        for v in seqs:
            if u[-1] == -v[0]:
                return False
    return True
