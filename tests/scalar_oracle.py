"""The scalar group arithmetic that FiniteGroup held before its operations
became batched, kept as the oracle the batch operations are held to.

ScalarGroup reads only a group's generator columns: it spells every
shortlex word by prefix sharing from a fresh BFS, keeps one list column
per letter (and its inverse), and walks them one element at a time.  It
shares no word steps with FiniteGroup, so a batch operation that walked
the wrong word, or multiplied in the wrong order, disagrees with it.  The
closure and Z-set loops below are the one-element-at-a-time forms of the
engine's batched ones, in the candidate order the engine must keep.
eval_letters and pow_element walk a word or a power one product at a
time, on any group with mul and inv (a FiniteGroup's one-element views,
or a ScalarGroup's loops); no program code needs them.
elementwise_commutator_subgroup closes all |A|*|B| commutators, the
oracle for groups.commutator_subgroup, which closes only those of
generators.  element_order_invariants reads the invariant factors of an
abelian group off its element orders, the oracle for homology.
abelian_invariants, which reads them off a Smith form.
"""

import math
from collections import Counter
from functools import reduce

import numpy as np

from xpforge import groups
from xpforge.coset import shortlex_bfs, words_from_levels


def eval_letters(G, letters, images=None):
    """Evaluate a signed-letter word over `images` (default: G's
    generators) with G's one-element mul and inv."""
    if images is None:
        images = G.generators
    x = G.identity
    for a in letters:
        x = G.mul(x, images[a - 1]) if a > 0 else G.mul(x, G.inv(images[-a - 1]))
    return x


def pow_element(G, x, k: int):
    """x^k by k one-element products (|k| of x^-1 for k < 0)."""
    r = G.identity
    b = x if k >= 0 else G.inv(x)
    for _ in range(abs(k)):
        r = G.mul(r, b)
    return r


def elementwise_commutator_subgroup(A, B):
    """[A, B] as the closure of every commutator [a, b], a in A, b in B."""
    G = A.parent
    a, b = (x.ravel() for x in np.meshgrid(np.flatnonzero(A.mask), np.flatnonzero(B.mask)))
    return groups.subgroup_closure(G, groups._support(G, G._commutators(a, b)))


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def element_order_invariants(G) -> list[int]:
    """Invariant factors of a finite abelian group from its element
    orders.  For each prime p, the x with x^(p^k) = 1 number
    p^(f_1 + ... + f_k), f_k the count of p-primary cyclic factors of
    order at least p^k; the conjugate of f is the p-primary partition.
    The largest primary factors of every prime then multiply into the
    largest invariant factor, and so on down."""
    counts = Counter(G._element_orders(G.elements).tolist())
    primary = []
    for p in _prime_factors(G.order):
        f, prev, k = [], 1, 1
        while True:
            ck = sum(c for o, c in counts.items() if p**k % o == 0)
            if ck == prev:
                break
            fk = round(math.log(ck // prev, p))
            assert ck == prev * p**fk, "inconsistent element-order counts"
            f.append(fk)
            prev, k = ck, k + 1
        primary.append([p ** sum(1 for x in f if x > i) for i in range(f[0] if f else 0)])
    width = max(map(len, primary), default=0)
    return [math.prod(q[i] for q in primary if i < len(q)) for i in reversed(range(width))]


class ScalarGroup:
    """Scalar mul, inv, conj, comm, element_order and eval_letters on the
    elements of G, by walking tuple words through list columns."""

    def __init__(self, G):
        self.group = G
        self.identity = G.identity
        self.elements = G.elements
        self.generators = G.generators
        self.words = words_from_levels(G.order, shortlex_bfs(G.gen_cols))
        self.cols = {k + 1: col for k, col in enumerate(G.gen_cols.tolist())}
        self.inv_cols = {}
        for k, col in self.cols.items():
            back = [0] * G.order
            for x, y in enumerate(col):
                back[y] = x
            self.inv_cols[k] = back

    def mul(self, a, b):
        """a walks the word of b through the generator columns."""
        x = a
        for k in self.words[b]:
            x = self.cols[k][x]
        return x

    def inv(self, a):
        """The inverse columns along the reversed word of a, from the
        identity."""
        x = self.identity
        for k in reversed(self.words[a]):
            x = self.inv_cols[k][x]
        return x

    def conj(self, a, b):
        """a^b = b^-1 a b."""
        return self.mul(self.inv(b), self.mul(a, b))

    def comm(self, a, b):
        """[a, b] = a^-1 b^-1 a b."""
        return self.mul(self.inv(self.mul(b, a)), self.mul(a, b))

    def element_order(self, a):
        k = 1
        x = a
        while x != self.identity:
            x = self.mul(x, a)
            k += 1
        return k

    def exponent(self):
        return reduce(math.lcm, (self.element_order(x) for x in self.elements), 1)

    def is_abelian(self):
        X = self.generators
        return all(self.mul(g, h) == self.mul(h, g) for i, g in enumerate(X) for h in X[i + 1 :])

    def eval_letters(self, letters, images=None):
        """Evaluate a signed-letter word over `images` (default: the
        generators)."""
        return eval_letters(self, letters, images)

    # -- the engine's closures, one candidate at a time ------------------------

    def closed_under_conjugation(self, seeds, conjugators):
        """The greedy subgroup of the seeds, grown by conjugating one
        generator at a time by every conjugator in turn."""
        G = self.group
        gens, mask = groups._generate(G.right_action, G.order, seeds)
        i = 0
        while i < len(gens):
            h = list(gens)[i]
            for c in conjugators:
                groups._extend(G.right_action, gens, mask, self.conj(h, c))
            i += 1
        return groups.Subgroup(G, mask, gens)

    def normal_closure(self, seeds):
        return self.closed_under_conjugation(seeds, self.generators)

    def commutator_subgroup(self, A, B):
        """[A, B] as the normal closure in <A, B> of the commutators of
        generators, listed a over A.gens around b over B.gens."""
        seeds = [self.comm(a, b) for a in A.gens for b in B.gens]
        return self.closed_under_conjugation(seeds, dict.fromkeys(A.gens + B.gens))

    def is_normal(self, S):
        return all(S.mask[self.conj(h, g)] for h in S.gens for g in self.generators)


def scalar_z_set(bundle, sym):
    """[x1, [y * mirror(y)^-1, mirror(x2)]] for x1, y, x2 over `sym`, x2
    innermost, by scalar loops."""
    X = ScalarGroup(bundle.group)
    il, ir = bundle.embed_left, bundle.embed_right
    out = []
    for x1 in sym:
        for y in sym:
            ell = X.mul(il(y), X.inv(ir(y)))
            for x2 in sym:
                out.append(X.comm(il(x1), X.comm(ell, ir(x2))))
    return out
