"""Concrete finite groups and the operations the constructions need.

Elements are opaque hashable ids: integers (coset numbers of the regular
representation), tuples (direct products), or parent ids (quotient coset
representatives, subgroups viewed as groups).  A subclass provides _mul,
_inv and their index-array forms: right_action (the index of x*g for every
element x, as one numpy array), _products (a*b pair by pair for two index
arrays) and _inverses; everything else is generic: canonical words (shortlex BFS over the
positive generators), subgroup closures, normal closures, commutator
subgroups, central/derived series, quotients, and generator-image
homomorphisms verified at construction time.

A homomorphism is held as an index array: the image of every domain
element, filled once by a BFS over the right actions of the domain
generators.  Its verification is exhaustive and costs O(n*d) array work:
f(x*g) = f(x)*f(g) for every element x and every generator g, one array
comparison per generator.  Since every element is a product of
generators, that is a complete proof of the product law (Holt-Eick-
O'Brien, Handbook of Computational Group Theory, 2005, section 4.1).

Every subgroup is grown by one incremental routine that adds a generator
to a closed element set, multiplying the old elements by the new
generator only and the new elements by all generators.  Normal closures
and commutator subgroups add one helper that closes under conjugation by
conjugating generators, not elements: [A, B] is the normal closure in
<A, B> of the commutators of generators (Holt-Eick-O'Brien, Handbook of
Computational Group Theory, 2005, sections 3.3 and 4.1).

Every group checks itself at construction on index arrays: the identity
law, the inverse law for every element at once, and associativity on
sampled triples.  All operations are deterministic: element lists have a
stable order, BFS is used for canonical words, and the associativity
samples come from a fixed seed.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import reduce

import numpy as np

from .coset import CosetTable, EnumerationLimits, enumerate_cosets
from .homology import abelian_invariants
from .words import Presentation, Word

_ASSOC_SAMPLES = 64


class HomomorphismError(ValueError):
    """A generator-image map is not a homomorphism (or maps outside)."""


class FiniteGroup:
    """Base class: a finite group with a stable element list.

    `generators` may contain repeats or the identity; positional alignment
    with construction data is part of the contract (generator-image maps
    rely on it).
    """

    def __init__(self, elements, identity, generators, name=None, presentation=None):
        self.elements = list(elements)
        self.identity = identity
        self.generators = list(generators)
        self.name = name
        self.presentation = presentation
        self._index = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ValueError("duplicate elements")
        self._words: list[tuple[int, ...]] | None = None
        self._inv_cache: dict = {}

    # subclasses provide:
    def _mul(self, a, b):  # pragma: no cover - abstract
        raise NotImplementedError

    def _inv(self, a):  # pragma: no cover - abstract
        raise NotImplementedError

    def right_action(self, g) -> np.ndarray:  # pragma: no cover - abstract
        """Index of x*g for every element x, in element order."""
        raise NotImplementedError

    def _products(self, A, B) -> np.ndarray:  # pragma: no cover - abstract
        """Index of a*b for index arrays A and B, pair by pair."""
        raise NotImplementedError

    def _inverses(self, A) -> np.ndarray:  # pragma: no cover - abstract
        """Index of the inverse of a, for an index array A."""
        raise NotImplementedError

    # -- generic arithmetic ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, a, b):
        return self._mul(a, b)

    def inv(self, a):
        r = self._inv_cache.get(a)
        if r is None:
            r = self._inv(a)
            self._inv_cache[a] = r
        return r

    def conj(self, a, b):
        """a^b = b^-1 a b."""
        return self.mul(self.inv(b), self.mul(a, b))

    def comm(self, a, b):
        """[a, b] = a^-1 b^-1 a b."""
        return self.mul(self.inv(self.mul(b, a)), self.mul(a, b))

    def index(self, e) -> int:
        return self._index[e]

    def element_order(self, a) -> int:
        k = 1
        x = a
        while x != self.identity:
            x = self.mul(x, a)
            k += 1
        return k

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(
            self.mul(g, h) == self.mul(h, g)
            for i, g in enumerate(gens)
            for h in gens[i + 1 :]
        )

    # -- canonical words -------------------------------------------------------

    @property
    def words(self) -> list[tuple[int, ...]]:
        """Shortlex-BFS canonical words (positive 1-based letters), aligned
        with `elements`."""
        if self._words is None:
            self._words = self._compute_words()
        return self._words

    def _compute_words(self):
        order = [self.identity]
        words = {self.identity: ()}
        for u in order:
            wu = words[u]
            for i, g in enumerate(self.generators):
                v = self.mul(u, g)
                if v not in words:
                    words[v] = wu + (i + 1,)
                    order.append(v)
        if len(order) != len(self.elements):
            raise ValueError(
                f"generators only reach {len(order)} of {len(self.elements)} elements"
            )
        return [words[e] for e in self.elements]

    def word_of(self, e) -> tuple[int, ...]:
        return self.words[self._index[e]]

    def canonical_word(self, e) -> Word:
        return Word(self.word_of(e))

    def eval_letters(self, letters, images=None):
        """Evaluate a signed-letter word over `images` (default: own
        generators)."""
        if images is None:
            images = self.generators
        x = self.identity
        for a in letters:
            x = self.mul(x, images[a - 1]) if a > 0 else self.mul(x, self.inv(images[-a - 1]))
        return x

    # -- construction-time sanity ----------------------------------------------

    def _self_check(self):
        """The identity, inverse and (sampled) associative laws, on index
        arrays: one batch of products holds e*e, x*x^-1 for every x, and
        a*b and b*c for the sampled triples; a second holds (a*b)*c and
        a*(b*c)."""
        n = self.order
        e = self.index(self.identity)
        every = np.arange(n)
        rng = random.Random(0x5EED)
        a, b, c = np.array(
            [[rng.randrange(n) for _ in range(3)] for _ in range(_ASSOC_SAMPLES)]
        ).T
        first = self._products(
            np.concatenate(([e], every, a, b)), np.concatenate(([e], self._inverses(every), b, c))
        )
        if first[0] != e:
            raise ValueError("identity is not idempotent")
        if (first[1 : n + 1] != e).any():
            raise ValueError("inverse law fails")
        ab, bc = first[n + 1 :].reshape(2, -1)
        left, right = self._products(np.concatenate((ab, a)), np.concatenate((c, bc))).reshape(2, -1)
        if not np.array_equal(left, right):
            raise ValueError("associativity fails on a sampled triple")

    def __repr__(self):
        label = self.name or type(self).__name__
        return f"<{label}: order {self.order}>"


class PermGroup(FiniteGroup):
    """Regular representation read off a completed coset table over the
    trivial subgroup: elements are coset numbers, generator action is a
    column lookup."""

    def __init__(self, table: CosetTable, name=None):
        if table.subgroup_words:
            raise ValueError("regular representation needs a trivial-subgroup table")
        self.table = table
        n = table.n
        arrays = table.col_arrays()
        super().__init__(
            range(n),
            0,
            arrays[0::2, 0].tolist(),
            name=name,
            presentation=table.presentation,
        )
        self._words = list(table.words)
        # _mul and _inv walk only the columns of letters in canonical words
        # (each letter's column, then its inverse's): as lists sharing one
        # int object per coset, and as the rows of _acts()
        letters = sorted({k for w in self._words for k in w})
        self._used = [2 * (k - 1) + s for k in letters for s in (0, 1)]
        ints = list(range(n))
        self.cols = {c: list(map(ints.__getitem__, arrays[c].tolist())) for c in self._used}
        self._steps = self._word_steps(letters)
        self._self_check()

    def _mul(self, a, b):
        for k in self._words[b]:
            a = self.cols[2 * (k - 1)][a]
        return a

    def _inv(self, a):
        x = 0
        for k in reversed(self._words[a]):
            x = self.cols[2 * (k - 1) + 1][x]
        return x

    def right_action(self, g) -> np.ndarray:
        """The generator columns composed along the canonical word of g."""
        cols = self.table.col_arrays()
        v = np.arange(self.order, dtype=np.int32)
        for k in self._words[g]:
            v = cols[2 * (k - 1)][v]
        return v

    def _word_steps(self, letters) -> np.ndarray:
        """The index-array form of _words: at [t, x] the row of _acts() for
        the t-th letter of the word of x, and past the end of the word the
        identity row len(_used)."""
        words = self._words
        lens = np.fromiter(map(len, words), dtype=np.intp, count=len(words))
        flat = np.fromiter(itertools.chain.from_iterable(words), dtype=np.intp)
        row = np.zeros(max(letters, default=0) + 1, dtype=np.intp)
        row[letters] = np.arange(0, 2 * len(letters), 2)
        starts = np.repeat(np.cumsum(lens) - lens, lens)
        steps = np.full((int(lens.max()), len(words)), len(self._used), dtype=np.int32)
        steps[np.arange(flat.size) - starts, np.repeat(np.arange(len(words)), lens)] = row[flat]
        return steps

    def _acts(self) -> np.ndarray:
        """The _used columns, then two identity rows (so that a step's row
        ^ 1 is its inverse's, past the end of a word too)."""
        identity = np.arange(self.order, dtype=np.int32)
        return np.vstack((self.table.col_arrays()[self._used], identity, identity))

    def _products(self, A, B) -> np.ndarray:
        """_mul pair by pair: each a walks the word of its b."""
        acts = self._acts()
        v = np.asarray(A)
        for step in self._steps[:, B]:
            v = acts[step, v]
        return v

    def _inverses(self, A) -> np.ndarray:
        """_inv pair by pair: the inverse columns along each reversed word,
        from the identity."""
        acts = self._acts()
        v = np.zeros(len(A), dtype=np.int32)
        for step in self._steps[::-1, A]:
            v = acts[step ^ 1, v]
        return v


class TupleGroup(FiniteGroup):
    """Direct product with componentwise arithmetic; elements are tuples in
    itertools.product order, so the index of (x1, ..., xk) is mixed radix
    in the factor indices, the last factor varying fastest."""

    def __init__(self, factors, name=None):
        self.factors = list(factors)
        elements = itertools.product(*(f.elements for f in self.factors))
        identity = tuple(f.identity for f in self.factors)
        generators = []
        for i, f in enumerate(self.factors):
            for g in f.generators:
                emb = list(identity)
                emb[i] = g
                generators.append(tuple(emb))
        super().__init__(elements, identity, generators, name=name)
        self._self_check()

    def _mul(self, a, b):
        return tuple(f.mul(x, y) for f, x, y in zip(self.factors, a, b))

    def _inv(self, a):
        return tuple(f.inv(x) for f, x in zip(self.factors, a))

    def right_action(self, g) -> np.ndarray:
        v = np.zeros(1, dtype=np.int64)
        for f, x in zip(self.factors, g):
            v = np.add.outer(v * f.order, f.right_action(x)).ravel()
        return v

    def _digits(self, A) -> list[np.ndarray]:
        """The factor indices of every index in A (mixed radix)."""
        A = np.asarray(A, dtype=np.int64)
        digits = []
        for f in reversed(self.factors):
            A, d = np.divmod(A, f.order)
            digits.append(d)
        return digits[::-1]

    def _combine(self, digits) -> np.ndarray:
        v = np.int64(0)
        for f, d in zip(self.factors, digits):
            v = v * f.order + d
        return v

    def _products(self, A, B) -> np.ndarray:
        parts = zip(self.factors, self._digits(A), self._digits(B))
        return self._combine(f._products(a, b) for f, a, b in parts)

    def _inverses(self, A) -> np.ndarray:
        return self._combine(f._inverses(a) for f, a in zip(self.factors, self._digits(A)))

    def embed(self, i: int, x):
        e = list(self.identity)
        e[i] = x
        return tuple(e)

    def project(self, coords) -> "Homomorphism":
        """Projection onto the sub-product of the given factor positions."""
        target = TupleGroup([self.factors[i] for i in coords]) if len(coords) > 1 else None
        if target is None:
            (i,) = coords
            images = [a[i] for a in self.generators]
            return Homomorphism(self, self.factors[i], images)
        images = [tuple(a[i] for i in coords) for a in self.generators]
        return Homomorphism(self, target, images)


class _InsideParent(FiniteGroup):
    """A group whose elements are elements of `parent`: element i is parent
    element _at[i], and _own_of_parent maps a parent index to the own index
    of that element (or of its coset).  Subclasses set both in __init__."""

    def right_action(self, g) -> np.ndarray:
        return self._own_of_parent[self.parent.right_action(g)[self._at]]

    def _products(self, A, B) -> np.ndarray:
        return self._own_of_parent[self.parent._products(self._at[A], self._at[B])]

    def _inverses(self, A) -> np.ndarray:
        return self._own_of_parent[self.parent._inverses(self._at[A])]


class SubgroupAsGroup(_InsideParent):
    """A subgroup promoted to a standalone group (same element ids)."""

    def __init__(self, sub: "Subgroup", name=None):
        self.parent = sub.parent
        self.subgroup = sub
        gens = list(sub.gens)
        super().__init__(sub.sorted_elements(), sub.parent.identity, gens, name=name)
        self._at = np.array([self.parent.index(e) for e in self.elements], dtype=np.int64)
        self._own_of_parent = np.full(self.parent.order, -1, dtype=np.int64)
        self._own_of_parent[self._at] = np.arange(self.order)
        self._self_check()

    def _mul(self, a, b):
        return self.parent.mul(a, b)

    def _inv(self, a):
        return self.parent.inv(a)


class QuotientGroup(_InsideParent):
    """G/N with coset representatives as elements (first element of each
    coset in parent order).  `projection` is the canonical epimorphism."""

    def __init__(self, parent: FiniteGroup, normal: "Subgroup", name=None):
        if normal.parent is not parent:
            raise ValueError("subgroup belongs to a different group")
        if not normal.is_normal():
            raise ValueError("cannot quotient by a non-normal subgroup")
        self.parent = parent
        self.normal = normal
        rep: dict = {}
        reps = []
        nsorted = normal.sorted_elements()
        for e in parent.elements:
            if e in rep:
                continue
            reps.append(e)
            for n in nsorted:
                rep[parent.mul(e, n)] = e
        self.rep_map = rep
        super().__init__(
            reps,
            rep[parent.identity],
            [rep[g] for g in parent.generators],
            name=name,
        )
        self._at = np.array([parent.index(r) for r in reps], dtype=np.int64)
        own = self._index
        self._own_of_parent = np.array([own[rep[e]] for e in parent.elements], dtype=np.int64)
        self._self_check()
        self.projection = Homomorphism(parent, self, list(self.generators))

    def _mul(self, a, b):
        return self.rep_map[self.parent.mul(a, b)]

    def _inv(self, a):
        return self.rep_map[self.parent.inv(a)]



class Subgroup:
    """A subgroup given by its explicit element set plus a small generating
    set; hangs off a parent FiniteGroup."""

    def __init__(self, parent: FiniteGroup, elements, gens):
        self.parent = parent
        self.elements = frozenset(elements)
        self.gens = tuple(gens)
        self._sorted = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, e):
        return e in self.elements

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.elements == other.elements
        )

    def __le__(self, other):
        return self.elements <= other.elements

    def __hash__(self):
        return hash((id(self.parent), self.elements))

    def sorted_elements(self) -> list:
        if self._sorted is None:
            idx = self.parent._index
            self._sorted = sorted(self.elements, key=idx.__getitem__)
        return self._sorted

    def is_normal(self) -> bool:
        G = self.parent
        return all(
            G.conj(h, g) in self.elements
            for h in self.gens
            for g in G.generators
        )

    def is_abelian(self) -> bool:
        G = self.parent
        gens = self.gens
        return all(
            G.mul(a, b) == G.mul(b, a)
            for i, a in enumerate(gens)
            for b in gens[i + 1 :]
        )

    def as_group(self, name=None) -> SubgroupAsGroup:
        return SubgroupAsGroup(self, name=name)

    def __repr__(self):
        return f"<Subgroup of order {self.order} in {self.parent!r}>"


def _extend(G: FiniteGroup, gens: list, have: set, g) -> None:
    """Add `g` to `gens` and grow `have`, the subgroup they generate, in
    place; nothing changes when g already lies in it.

    `have` is closed under right multiplication by `gens` on entry, so the
    old elements need multiplying by g only and the new ones by every
    generator (finite group: positive products suffice).
    """
    if g in have:
        return
    gens.append(g)
    frontier = []
    for x in list(have):
        y = G.mul(x, g)
        if y not in have:
            have.add(y)
            frontier.append(y)
    while frontier:
        x = frontier.pop()
        for s in gens:
            y = G.mul(x, s)
            if y not in have:
                have.add(y)
                frontier.append(y)


def _generate(G: FiniteGroup, candidates) -> tuple[list, set]:
    """Greedy generating set drawn from `candidates` (order-stable) and
    the subgroup it generates."""
    gens: list = []
    have = {G.identity}
    for x in candidates:
        _extend(G, gens, have, x)
    return gens, have


def _close_under_conjugation(G: FiniteGroup, gens: list, have: set, conjugators) -> None:
    """Grow <gens> in place until the conjugators normalize it.

    H^c lies in H exactly when every generator of H does, so only the
    generators are conjugated, including those this loop appends.
    """
    i = 0
    while i < len(gens):
        h = gens[i]
        for c in conjugators:
            _extend(G, gens, have, G.conj(h, c))
        i += 1


def _thin_gens(G: FiniteGroup, candidates) -> list:
    """Greedy small generating set drawn from `candidates` (order-stable)."""
    return _generate(G, candidates)[0]


def subgroup_closure(G: FiniteGroup, seeds) -> Subgroup:
    """The subgroup generated by `seeds`."""
    gens, have = _generate(G, dict.fromkeys(seeds))
    return Subgroup(G, have, gens)


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, [G.identity], ())


def whole_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, G.elements, tuple(_thin_gens(G, G.generators)))


def normal_closure(G: FiniteGroup, seeds) -> Subgroup:
    """Smallest normal subgroup of G containing `seeds`."""
    gens, have = _generate(G, dict.fromkeys(seeds))
    _close_under_conjugation(G, gens, have, G.generators)
    return Subgroup(G, have, gens)


def intersection(A: Subgroup, B: Subgroup) -> Subgroup:
    if A.parent is not B.parent:
        raise ValueError("subgroups of different parents")
    els = A.elements & B.elements
    G = A.parent
    idx = G._index
    return Subgroup(G, els, _thin_gens(G, sorted(els, key=idx.__getitem__)))


def _as_subgroup(X) -> Subgroup:
    return whole_subgroup(X) if isinstance(X, FiniteGroup) else X


def commutator_subgroup(A, B, method: str = "generated") -> Subgroup:
    """[A, B]: the subgroup generated by all commutators [a, b].

    'generated' (the only path the engine uses) takes the normal closure
    in <A, B> of the commutators of generators, closing under conjugation
    by the generators of A and B.  'elementwise' closes all |A|*|B|
    commutators; it is the oracle the tests compare against.
    """
    A = _as_subgroup(A)
    B = _as_subgroup(B)
    if A.parent is not B.parent:
        raise ValueError("subgroups of different parents")
    G = A.parent
    if method == "elementwise":
        seen = set()
        for a in A.sorted_elements():
            for b in B.sorted_elements():
                seen.add(G.comm(a, b))
        return subgroup_closure(G, sorted(seen, key=G._index.__getitem__))
    if method != "generated":
        raise ValueError(f"unknown method {method!r}")
    gens, have = _generate(G, [G.comm(a, b) for a in A.gens for b in B.gens])
    _close_under_conjugation(G, gens, have, dict.fromkeys(A.gens + B.gens))
    return Subgroup(G, have, gens)


def center(G: FiniteGroup) -> Subgroup:
    gens = G.generators
    els = [
        x
        for x in G.elements
        if all(G.mul(x, g) == G.mul(g, x) for g in gens)
    ]
    return Subgroup(G, els, _thin_gens(G, els))


def derived_subgroup(G: FiniteGroup) -> Subgroup:
    return commutator_subgroup(whole_subgroup(G), whole_subgroup(G))


def lower_central_series(G: FiniteGroup) -> list[Subgroup]:
    """G = gamma_1 >= gamma_2 = [G, gamma_1] >= ... until it stabilizes."""
    series = [whole_subgroup(G)]
    while True:
        nxt = commutator_subgroup(whole_subgroup(G), series[-1])
        if nxt == series[-1]:
            return series
        series.append(nxt)


def derived_series(G: FiniteGroup) -> list[Subgroup]:
    series = [whole_subgroup(G)]
    while True:
        cur = series[-1]
        nxt = commutator_subgroup(cur, cur)
        if nxt == cur:
            return series
        series.append(nxt)


def nilpotency_class(G: FiniteGroup) -> int | None:
    series = lower_central_series(G)
    if series[-1].order != 1:
        return None
    return len(series) - 1


def is_soluble(G: FiniteGroup) -> bool:
    return derived_series(G)[-1].order == 1


def quotient(G: FiniteGroup, N: Subgroup, name=None) -> QuotientGroup:
    return QuotientGroup(G, N, name=name)


def quotient_invariants(N: Subgroup, M: Subgroup) -> list[int]:
    """Invariant factors of the abelian section N/M, for subgroups M <= N
    of one group with M normal in N: N becomes a group of its own, M is
    re-homed in it, and the quotient is read by abelian_invariants."""
    NG = N.as_group()
    return abelian_invariants(quotient(NG, Subgroup(NG, M.elements, M.gens)))


def power_subgroup(G: FiniteGroup, k: int) -> Subgroup:
    """The subgroup generated by all k-th powers."""
    pows = {pow_element(G, x, k) for x in G.elements}
    return subgroup_closure(G, sorted(pows, key=G._index.__getitem__))


def pow_element(G: FiniteGroup, x, k: int):
    r = G.identity
    b = x if k >= 0 else G.inv(x)
    for _ in range(abs(k)):
        r = G.mul(r, b)
    return r


def exponent(G: FiniteGroup) -> int:
    return reduce(math.lcm, (G.element_order(x) for x in G.elements), 1)


def p_group_data(G: FiniteGroup) -> tuple[int, int]:
    """(p, k) with |G| = p^k; raises if the order is not a prime power."""
    n = G.order
    if n == 1:
        raise ValueError("trivial group has no canonical prime")
    p = None
    for q in range(2, n + 1):
        if n % q == 0:
            p = q
            break
    k = 0
    m = n
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise ValueError(f"order {n} is not a prime power")
    return p, k


def minimal_generator_count(G: FiniteGroup) -> int:
    """d(G) via the Frattini quotient G / (G^p [G,G]) for a p-group."""
    p, _ = p_group_data(G)
    der = derived_subgroup(G)
    pows = power_subgroup(G, p)
    frat = subgroup_closure(G, list(der.gens) + list(pows.gens))
    q = G.order // frat.order
    d = 0
    while q > 1:
        q //= p
        d += 1
    return d


def is_powerful(G: FiniteGroup) -> bool:
    """G' <= G^p for odd p; G' <= G^4 for p = 2."""
    p, _ = p_group_data(G)
    der = derived_subgroup(G)
    target = power_subgroup(G, p if p != 2 else 4)
    return der.elements <= target.elements


class Homomorphism:
    """Generator-image homomorphism, verified at construction.

    If the domain carries a presentation, every relator is first checked to
    map to the identity, which names the failing relator.  The image of
    every domain element is then filled in by a BFS over the domain
    generators' right actions, and f(x*g) = f(x)*f(g) is checked for every
    element x and every domain generator g.  Every element is a product of
    generators, so this proves the product law outright.
    """

    def __init__(self, domain: FiniteGroup, codomain: FiniteGroup, images):
        if len(images) != len(domain.generators):
            raise HomomorphismError(
                f"{len(images)} images for {len(domain.generators)} generators"
            )
        for im in images:
            if im not in codomain._index:
                raise HomomorphismError("image outside the codomain")
        self.domain = domain
        self.codomain = codomain
        self.images = list(images)
        self._image = self._verify()

    def _verify(self) -> np.ndarray:
        """The codomain index of the image of every domain element, in
        domain element order; raises HomomorphismError if the generator
        images do not extend to a homomorphism."""
        dom, cod = self.domain, self.codomain
        pres = dom.presentation
        if pres is not None:
            for k, rel in enumerate(pres.relators):
                v = cod.eval_letters(rel.letters, self.images)
                if v != cod.identity:
                    raise HomomorphismError(
                        f"relator {k} ({pres.word_text(rel)}) does not map to the identity"
                    )
        acts = [dom.right_action(g) for g in dom.generators]
        cod_acts = [cod.right_action(h) for h in self.images]
        image = np.full(dom.order, -1, dtype=np.int64)
        level = np.array([dom.index(dom.identity)])
        image[level] = cod.index(cod.identity)
        while level.size:
            found = [level[:0]]  # defined even without generators
            for act, cod_act in zip(acts, cod_acts):
                y = act[level]
                new = image[y] < 0
                image[y[new]] = cod_act[image[level[new]]]
                found.append(y[new])
            level = np.concatenate(found)
        if (image < 0).any():
            raise ValueError(
                f"generators only reach {int((image >= 0).sum())} of {dom.order} elements"
            )
        for act, cod_act in zip(acts, cod_acts):
            if not np.array_equal(image[act], cod_act[image]):
                raise HomomorphismError("product law fails")
        return image

    def __call__(self, x):
        return self.codomain.elements[self._image[self.domain.index(x)]]

    def kernel(self) -> Subgroup:
        dom = self.domain
        e = self.codomain.index(self.codomain.identity)
        els = [dom.elements[i] for i in np.flatnonzero(self._image == e)]
        return Subgroup(dom, els, _thin_gens(dom, els))

    def image(self) -> Subgroup:
        """The values of the image array; the generator images (repeats
        and the identity dropped) generate it."""
        cod = self.codomain
        els = [cod.elements[i] for i in np.unique(self._image).tolist()]
        gens = [h for h in dict.fromkeys(self.images) if h != cod.identity]
        return Subgroup(cod, els, gens)

    def is_surjective(self) -> bool:
        return self.image().order == self.codomain.order

    def is_injective(self) -> bool:
        return self.kernel().order == 1

    def __repr__(self):
        return f"<hom {self.domain!r} -> {self.codomain!r}>"


def group_from_presentation(
    pres: Presentation,
    limits: EnumerationLimits | None = None,
    strategy: str = "auto",
    name=None,
) -> PermGroup:
    table = enumerate_cosets(pres, limits=limits, strategy=strategy)
    return PermGroup(table, name=name or pres.name)


def direct_product(*groups: FiniteGroup, name=None) -> TupleGroup:
    return TupleGroup(groups, name=name)
