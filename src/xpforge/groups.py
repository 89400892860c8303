"""Concrete finite groups and the operations the constructions need.

Every group is held one way, by generator actions plus words (Holt-Eick-
O'Brien, Handbook of Computational Group Theory, 2005, section 4.1): its
elements are the indices 0..n-1, the identity is 0, and `gen_cols` holds
one int32 row per generator with the index of x*g for every element x.
A subclass only builds the generators and those rows: PermGroup takes a
regular table's positive columns, the whole array the table holds, so a
group keeps no inverse columns; TupleGroup moves one mixed-radix digit
per factor generator, SubgroupAsGroup restricts its parent's right
actions, and QuotientGroup takes the orbits of the normal subgroup's
generators as its cosets.  Each puts the identity first: coset 0, the
all-zero digits, the least parent index.  A codec is kept only where
coordinates mean something: TupleGroup packs and unpacks factor
coordinates, SubgroupAsGroup maps its indices to the parent's and back
(`at`, `own`), and QuotientGroup keeps the least parent index of each
coset (`reps`).  No construction builds a TupleGroup: a map into a
product, like rho on X(G), is one homomorphism per coordinate, and a
fibre product is a mask over pair indices.

coset.shortlex_bfs, the level-at-a-time BFS that also standardizes coset
tables, gives every element its shortlex word in the generators, held as
an array of steps (`_steps`), the one word form a group keeps.  Each
group runs it once: a PermGroup takes the levels that standardize found
on its table, every other group searches its own columns, and neither
keeps the levels.  The arithmetic is defined once on the steps:
right_action composes generator columns along one word, and _products,
_inverses, _commutators, _conjugates and _element_orders walk index
arrays along many.  Every caller in the constructions hands them whole
candidate lists; the scalar mul, inv, comm, conj and element_order are
one-element views of them.  A word is spelled only on demand: word_of
reads one element's column of steps, and `words` spells them all from a
fresh BFS without keeping them.

A homomorphism is held as an index array: the image of every domain
element, the generator images composed along its word.  Its verification
is exhaustive and costs O(n*d) array work: f(x*g) = f(x)*f(g) for every
element x and every generator g, one array comparison per generator.
Since every element is a product of generators, that is a complete proof
of the product law; the domain's relators are traced only after it
fails, to name the one that breaks.  The constructions prove their
relator families on element images the same way, in one batch of
_products or _commutators.

A presentation is turned into a group by coset enumeration over the
trivial subgroup (group_from_presentation), or, for a group on two
copies of a base that folds onto it, over the first copy
(group_from_fold): the fold and the cosets of that copy give every
element once, so the regular table's generator columns are assembled
from base's and a table's |base| times smaller, then checked and
standardized like an enumerated one.  group_from_normal_subgroup does
the same for the quotient by [H, H] of a normal subgroup H, from the
cosets of H and the coordinates of H^ab.

Every subgroup is a boolean mask over its parent's indices plus a small
generating set.  Generators are chosen greedily and order-stably: a
candidate joins them only when it lies outside the mask, and the mask
then grows from the subgroup it already holds (_extend, the incremental
orbit algorithm): g moves the old points, the generators move only the
points each level adds, and the search ends when a level adds none.
_extend sees only a right-action function, so the antidiagonal
subgroup runs the same closure on the pair indices of H x H.
Normal closures and commutator subgroups add one helper that closes
under conjugation by conjugating generators, not elements: [A, B] is the
normal closure in <A, B> of the commutators of generators (Holt-Eick-
O'Brien, Handbook of Computational Group Theory, 2005, sections 3.3 and
4.1).

A group never changes after construction, so the facts the checks read
again and again are computed once and kept in the group's memo
(FiniteGroup._remember): the whole subgroup, G', Z(G) and the
multiplication table, each shared and read-only.

Every group checks itself at construction on index arrays: the identity
law, the inverse law for every element at once, and associativity on
sampled triples.  All operations are deterministic: elements are ordered
by index, BFS is used for canonical words, and the associativity samples
come from a fixed seed.
"""

from __future__ import annotations

import math
import random
from functools import reduce

import numpy as np

from .coset import (
    CHUNK_CELLS,
    CosetTable,
    EnumerationLimits,
    enumerate_cosets,
    hold_to_limits,
    shortlex_bfs,
    standardize,
    with_inverses,
    word_to_cols,
    words_from_levels,
)
from .homology import (
    abelian_schreier,
    invariant_factors,
    letter_counts,
    relation_rows,
    torsion_factors,
)
from .words import Presentation, Word

_ASSOC_SAMPLES = 64
# The associativity triples of _self_check, drawn in one call from a fixed
# seed as numerators over 2**30; a group of order n scales them to indices
# (exactly, for n below 2**33).
# numpy.random is not used: imported after xpforge, it costs about 10-13 ms
# and 5.3 MB of resident memory in a process that needs it nowhere else.
_ASSOC_DRAWS = np.array(
    random.Random(0x5EED).choices(range(1 << 30), k=3 * _ASSOC_SAMPLES), dtype=np.int64
).reshape(3, _ASSOC_SAMPLES)


class HomomorphismError(ValueError):
    """A generator-image map is not a homomorphism (or maps outside)."""


class FiniteGroup:
    """A finite group on the elements 0..n-1, identity 0, with the index of
    x*g for every element x and generator g.

    `gen_cols` holds those indices, one int32 row per generator, so that
    gen_cols[i] is the right action of generators[i]; n is its row
    length.  `generators` may contain repeats or the identity; positional
    alignment with construction data is part of the contract
    (generator-image maps rely on it).  `levels`, when given, must be
    the levels that coset.shortlex_bfs gives on gen_cols from 0 (a
    regular table's, from standardize); they build the word steps and are
    not kept.

    `_steps` is the one word form: column x holds the letters of x's
    shortlex word as rows of _acts().  The array operations (_products,
    _inverses, _commutators, _conjugates, _element_orders) walk index
    arrays along it; mul, inv, comm, conj and element_order are
    one-element views of them, and no tuple word is kept: word_of spells
    one element's word from its steps, and `words` spells every word on
    each read.  `_memo` keeps the facts computed once per group, by
    _remember.
    """

    identity = 0
    _acts_rows = None

    def __init__(self, generators, gen_cols, name=None, presentation=None, levels=None):
        n = gen_cols.shape[1]
        self._memo = {}
        self.elements = range(n)
        self.generators = list(generators)
        self.gen_cols = gen_cols
        self.name = name
        self.presentation = presentation
        if levels is None:
            levels = shortlex_bfs(gen_cols, 0)
        reached = 1 + sum(len(found) for found, _, _ in levels)
        if reached != n:
            raise ValueError(f"generators only reach {reached} of {n} elements")
        # _steps[t, x]: row 2*i of _acts() for the t-th letter (generator i)
        # of the word of x, and past the end of the word the pad 2*ngens
        pad = 2 * len(gen_cols)
        steps = np.full((len(levels), n), pad, dtype=np.min_scalar_type(pad + 1))
        for t, (found, src, gen) in enumerate(levels):
            steps[:t, found] = steps[:t, src]
            steps[t, found] = 2 * gen
        self._steps = steps
        self._self_check()

    # -- arithmetic -------------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def words(self) -> list[tuple[int, ...]]:
        """Shortlex canonical words (positive 1-based letters), one per
        element index, spelled by prefix sharing from a fresh BFS on each
        read and not kept.  No construction reads them; word_of spells
        one."""
        return words_from_levels(self.order, shortlex_bfs(self.gen_cols))

    def word_of(self, e) -> tuple[int, ...]:
        """The shortlex word of e (positive 1-based letters), spelled from
        its column of steps."""
        pad = 2 * len(self.gen_cols)
        return tuple(s // 2 + 1 for s in self._steps[:, e].tolist() if s < pad)

    def mul(self, a, b):
        return int(self._products([a], [b])[0])

    def inv(self, a):
        return int(self._inverses([a])[0])

    def conj(self, a, b):
        """a^b = b^-1 a b."""
        return int(self._conjugates([a], [b])[0])

    def comm(self, a, b):
        """[a, b] = a^-1 b^-1 a b."""
        return int(self._commutators([a], [b])[0])

    def element_order(self, a) -> int:
        return int(self._element_orders([a])[0])

    def right_action(self, g) -> np.ndarray:
        """Index of x*g for every element x: the generator columns
        composed along the word of g."""
        pad = 2 * len(self.gen_cols)
        v = np.arange(self.order, dtype=np.int32)
        for s in self._steps[:, g].tolist():
            if s < pad:
                v = self.gen_cols[s >> 1].take(v)
        return v

    def _acts(self) -> np.ndarray:
        """Row 2*i the column of generator i, row 2*i+1 its inverse, then
        two identity rows (so that a step's row ^ 1 is its inverse's, past
        the end of a word too).  Built on first use and kept, since
        gen_cols never changes."""
        if self._acts_rows is None:
            identity = np.arange(self.order, dtype=np.int32)
            self._acts_rows = np.vstack([with_inverses(self.gen_cols), identity, identity])
        return self._acts_rows

    def _products(self, A, B) -> np.ndarray:
        """Index of a*b for index arrays A and B, pair by pair: each a
        walks the word of its b."""
        acts = self._acts()
        v = np.asarray(A)
        for step in self._steps[:, B]:
            v = acts[step, v]
        return v

    def _inverses(self, A) -> np.ndarray:
        """Index of the inverse of a, for an index array A: the inverse
        columns along each reversed word, from the identity."""
        acts = self._acts()
        v = np.zeros(len(A), dtype=np.int32)
        for step in self._steps[::-1, A]:
            v = acts[step ^ 1, v]
        return v

    def _commutators(self, A, B) -> np.ndarray:
        """Index of [a, b] = (b*a)^-1 * (a*b) for index arrays A and B,
        pair by pair."""
        return self._products(self._inverses(self._products(B, A)), self._products(A, B))

    def _conjugates(self, A, B) -> np.ndarray:
        """Index of a^b = b^-1 * (a*b) for index arrays A and B, pair by
        pair."""
        return self._products(self._inverses(B), self._products(A, B))

    def _element_orders(self, A) -> np.ndarray:
        """The order of each a in an index array A: the powers of every a
        multiplied out side by side, each dropping out at the identity."""
        A = np.asarray(A, dtype=np.intp)
        orders = np.ones(len(A), dtype=np.int64)
        live = np.flatnonzero(A != self.identity)
        power = A[live]
        k = 1
        while live.size:
            k += 1
            power = self._products(power, A[live])
            done = power == self.identity
            orders[live[done]] = k
            live, power = live[~done], power[~done]
        return orders

    def _all_commute(self, X) -> bool:
        """Whether the elements of X commute pairwise: the table of their
        products is symmetric."""
        table = self._products(*_pairs(X, X)).reshape(len(X), len(X))
        return np.array_equal(table, table.T)

    def multiplication_table(self) -> np.ndarray:
        """The n x n array of x*y, row x and column y; read-only, computed
        once per group."""
        return self._remember(
            "table", lambda: np.stack([self.right_action(y) for y in self.elements], axis=1)
        )

    def is_abelian(self) -> bool:
        return self._all_commute(self.generators)

    def _remember(self, fact: str, compute):
        """The stored answer for `fact`, from compute() on the first
        request.  A group never changes after construction, so the stored
        answer is the one a fresh computation would give; its arrays (a
        subgroup's mask) are made read-only, so no caller can change it
        for the next."""
        if fact not in self._memo:
            answer = compute()
            for a in answer if isinstance(answer, tuple) else (answer,):
                (a.mask if isinstance(a, Subgroup) else a).flags.writeable = False
            self._memo[fact] = answer
        return self._memo[fact]

    # -- construction-time sanity ----------------------------------------------

    def _self_check(self):
        """The identity, inverse and (sampled) associative laws, on index
        arrays: one batch of products holds e*e, x*x^-1 for every x, and
        a*b and b*c for the sampled triples; a second holds (a*b)*c and
        a*(b*c)."""
        n = self.order
        every = np.arange(n)
        a, b, c = _ASSOC_DRAWS * n >> 30
        first = self._products(
            np.concatenate(([0], every, a, b)), np.concatenate(([0], self._inverses(every), b, c))
        )
        if first[0] != 0:
            raise ValueError("identity is not idempotent")
        if first[1 : n + 1].any():
            raise ValueError("inverse law fails")
        ab, bc = first[n + 1 :].reshape(2, -1)
        left, right = self._products(np.concatenate((ab, a)), np.concatenate((c, bc))).reshape(2, -1)
        if not np.array_equal(left, right):
            raise ValueError("associativity fails on a sampled triple")

    def __repr__(self):
        label = self.name or type(self).__name__
        return f"<{label}: order {self.order}>"


class PermGroup(FiniteGroup):
    """Regular representation read off a completed table of the regular
    action (enumerated over the trivial subgroup, or assembled by
    group_from_fold or group_from_normal_subgroup): elements are its
    points, and the generator columns and words are the table's."""

    def __init__(self, table: CosetTable, name=None):
        if table.subgroup_words:
            raise ValueError("regular representation needs a trivial-subgroup table")
        self.table = table
        super().__init__(
            table.gen_cols[:, 0].tolist(),
            table.gen_cols,
            name=name,
            presentation=table.presentation,
            levels=table.take_levels(),
        )


class TupleGroup(FiniteGroup):
    """Direct product.  The index of the element with factor coordinates
    (x1, ..., xk) is mixed radix in them, the last factor varying fastest
    (`pack` and `coords` convert), and a factor generator moves one
    digit."""

    def __init__(self, factors, name=None):
        self.factors = list(factors)
        self.shape = tuple(f.order for f in self.factors)
        digits = np.arange(math.prod(self.shape), dtype=np.int32).reshape(self.shape)
        generators, gen_cols = [], []
        for i, f in enumerate(self.factors):
            for g, col in zip(f.generators, f.gen_cols):
                generators.append(self.embed(i, g))
                gen_cols.append(np.take(digits, col, axis=i).ravel())
        gen_cols = np.array(gen_cols, dtype=np.int32).reshape(-1, digits.size)
        super().__init__(generators, gen_cols, name=name)

    def pack(self, coords) -> int:
        """The index of the element with the given factor coordinates."""
        return int(np.ravel_multi_index(tuple(coords), self.shape))

    def coords(self, x) -> tuple[int, ...]:
        """The factor coordinates of element x."""
        return tuple(map(int, np.unravel_index(x, self.shape)))

    def embed(self, i: int, x) -> int:
        coords = [0] * len(self.shape)
        coords[i] = x
        return self.pack(coords)


class SubgroupAsGroup(FiniteGroup):
    """A subgroup promoted to a standalone group.  Its elements are the
    subgroup's in parent order: `at` maps them to parent indices, and
    `own` maps parent indices back (-1 outside the subgroup)."""

    def __init__(self, sub: "Subgroup", name=None):
        self.parent = parent = sub.parent
        self.subgroup = sub
        self.at = at = np.flatnonzero(sub.mask)
        self.own = own = np.full(parent.order, -1, dtype=np.int32)
        own[at] = np.arange(len(at))
        gen_cols = np.array([own[parent.right_action(g)[at]] for g in sub.gens], dtype=np.int32)
        generators = own[list(sub.gens)].tolist()
        super().__init__(generators, gen_cols.reshape(-1, len(at)), name=name)


class QuotientGroup(FiniteGroup):
    """G/N, one element per coset, numbered in the order of `reps`, the
    least parent index in each coset.  `projection` is the canonical
    epimorphism."""

    def __init__(self, parent: FiniteGroup, normal: "Subgroup", name=None):
        if normal.parent is not parent:
            raise ValueError("subgroup belongs to a different group")
        if not normal.is_normal():
            raise ValueError("cannot quotient by a non-normal subgroup")
        self.parent = parent
        self.normal = normal
        # the cosets xN are the orbits of N's generators acting on the
        # right; every x takes the least label of x and x*h until none
        # changes, with pointer jumping (a label stays in its orbit)
        acts = [parent.right_action(h) for h in normal.gens]
        label = np.arange(parent.order, dtype=np.int32)
        while True:
            new = label
            for act in acts:
                new = np.minimum(new, new[act])
            new = new[new]
            if np.array_equal(new, label):
                break
            label = new
        self.reps, own = np.unique(label, return_inverse=True)
        gen_cols = own[parent.gen_cols[:, self.reps]].astype(np.int32)
        super().__init__(own[parent.generators].tolist(), gen_cols, name=name)
        self.projection = Homomorphism(parent, self, list(self.generators))


class Subgroup:
    """A subgroup of a parent FiniteGroup: a boolean mask over the
    parent's indices plus a small generating set."""

    def __init__(self, parent: FiniteGroup, mask, gens):
        self.parent = parent
        self.mask = np.asarray(mask, dtype=bool)
        self.gens = tuple(gens)

    @property
    def order(self) -> int:
        return int(np.count_nonzero(self.mask))

    def __contains__(self, e):
        return bool(self.mask[e])

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and np.array_equal(self.mask, other.mask)
        )

    def __le__(self, other):
        if self.parent is not other.parent:
            raise ValueError("subgroups of different parents")
        return not (self.mask & ~other.mask).any()

    def is_normal(self) -> bool:
        G = self.parent
        return bool(self.mask[G._conjugates(*_pairs(self.gens, G.generators))].all())

    def is_abelian(self) -> bool:
        return self.parent._all_commute(self.gens)

    def as_group(self, name=None) -> SubgroupAsGroup:
        return SubgroupAsGroup(self, name=name)

    def __repr__(self):
        return f"<Subgroup of order {self.order} in {self.parent!r}>"


def _extend(act, gens: dict, mask: np.ndarray, g) -> None:
    """Add `g` to `gens`, which maps each generator to its right action
    act(g), and grow `mask`, the subgroup they generate, in place; nothing
    changes when mask[g] is already set.

    Precondition: `mask` is exactly <gens> (which _generate guarantees,
    and every step keeps).  <gens, g> is then the closure of that mask
    under the right actions of gens and g (finite group: positive
    products suffice), grown level by level from the mask as it stands
    (the incremental orbit algorithm, Holt-Eick-O'Brien, section 4.1):
    the mask is closed under the old generators, so only g can leave it
    from an old point, and each later level moves only the points that
    the one before added.  The mask is the seen set, and only the set of
    a level is kept, so a level is sorted to drop repeats (the first
    needs none: g acts as a permutation).
    """
    if mask[g]:
        return
    moved = gens[int(g)] = act(g)
    acts = np.array(list(gens.values()))
    new = moved[mask]
    new = new[~mask[new]]
    while new.size:
        mask[new] = True
        new = acts[:, new].ravel()
        new = np.sort(new[~mask[new]])
        if new.size:
            new = new[np.concatenate(([True], new[1:] != new[:-1]))]


def _generate(act, points: int, candidates) -> tuple[dict, np.ndarray]:
    """Greedy generating set drawn from `candidates` (order-stable) and
    the mask over `points` points, identity 0, of the subgroup it
    generates: the next generator is the first candidate outside the mask."""
    gens: dict = {}
    mask = np.zeros(points, dtype=bool)
    mask[0] = True
    rest = np.asarray(candidates, dtype=np.intp)
    while True:
        rest = rest[~mask[rest]]
        if not rest.size:
            return gens, mask
        _extend(act, gens, mask, rest[0])


def _pairs(A, B) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays of every pair (a, b), a from A and b from B, in the
    order of a loop over A around a loop over B."""
    A = np.asarray(A, dtype=np.intp)
    B = np.asarray(B, dtype=np.intp)
    return np.repeat(A, len(B)), np.tile(B, len(A))


def _close_under_conjugation(G: FiniteGroup, gens: dict, mask: np.ndarray, conjugators) -> None:
    """Grow <gens> in place until the conjugators normalize it.

    H^c lies in H exactly when every generator of H does, so only the
    generators are conjugated, including those this loop appends.  They
    are conjugated a round at a time, in one batch: the generators not
    yet conjugated, each by every conjugator in turn, so the candidates
    reach _extend in the order of a loop over one generator at a time.
    """
    conjugators = list(conjugators)
    done = 0
    while done < len(gens):
        fresh = list(gens)[done:]
        done = len(gens)
        for x in G._conjugates(*_pairs(fresh, conjugators)).tolist():
            _extend(G.right_action, gens, mask, x)


def _masked(G: FiniteGroup, mask: np.ndarray) -> Subgroup:
    """The subgroup with the given mask, generated greedily by its
    elements in index order."""
    return Subgroup(G, mask, _generate(G.right_action, G.order, np.flatnonzero(mask))[0])


def _support(G: FiniteGroup, elements: np.ndarray) -> np.ndarray:
    """The distinct elements of an index array, ascending: np.unique
    through a mask, which loads no numpy.ma."""
    hit = np.zeros(G.order, dtype=bool)
    hit[elements] = True
    return np.flatnonzero(hit)


def subgroup_closure(G: FiniteGroup, seeds) -> Subgroup:
    """The subgroup generated by `seeds`."""
    gens, mask = _generate(G.right_action, G.order, seeds)
    return Subgroup(G, mask, gens)


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, np.arange(G.order) == G.identity, ())


def whole_subgroup(G: FiniteGroup) -> Subgroup:
    def compute():
        gens = _generate(G.right_action, G.order, G.generators)[0]
        return Subgroup(G, np.ones(G.order, dtype=bool), gens)

    return G._remember("whole", compute)


def normal_closure(G: FiniteGroup, seeds) -> Subgroup:
    """Smallest normal subgroup of G containing `seeds`."""
    gens, mask = _generate(G.right_action, G.order, seeds)
    _close_under_conjugation(G, gens, mask, G.generators)
    return Subgroup(G, mask, gens)


def intersection(A: Subgroup, B: Subgroup) -> Subgroup:
    if A.parent is not B.parent:
        raise ValueError("subgroups of different parents")
    return _masked(A.parent, A.mask & B.mask)


def _as_subgroup(X) -> Subgroup:
    return whole_subgroup(X) if isinstance(X, FiniteGroup) else X


def commutator_subgroup(A, B) -> Subgroup:
    """[A, B]: the subgroup generated by all commutators [a, b], as the
    normal closure in <A, B> of the commutators of generators, closing
    under conjugation by the generators of A and B."""
    A = _as_subgroup(A)
    B = _as_subgroup(B)
    if A.parent is not B.parent:
        raise ValueError("subgroups of different parents")
    G = A.parent
    gens, mask = _generate(G.right_action, G.order, G._commutators(*_pairs(A.gens, B.gens)))
    _close_under_conjugation(G, gens, mask, dict.fromkeys(A.gens + B.gens))
    return Subgroup(G, mask, gens)


def center(G: FiniteGroup) -> Subgroup:
    """The elements x with x*g = g*x for every generator g: the generator
    columns against g*x, all generators in one batch of products.
    Computed once per group."""

    def compute():
        n = G.order
        gens = np.array(G.generators, dtype=np.intp)
        left = G._products(np.repeat(gens, n), np.tile(np.arange(n), len(gens)))
        return _masked(G, (G.gen_cols == left.reshape(-1, n)).all(axis=0))

    return G._remember("center", compute)


def derived_subgroup(G: FiniteGroup) -> Subgroup:
    """G' = [G, G], computed once per group."""
    return G._remember("derived", lambda: commutator_subgroup(whole_subgroup(G), whole_subgroup(G)))


def lower_central_series(G: FiniteGroup) -> list[Subgroup]:
    """G = gamma_1 >= gamma_2 = [G, gamma_1] >= ... until it stabilizes;
    gamma_2 is the stored G'."""
    series = [whole_subgroup(G)]
    nxt = derived_subgroup(G)
    while nxt != series[-1]:
        series.append(nxt)
        nxt = commutator_subgroup(series[0], nxt)
    return series


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
    of one group, with no quotient group built.  N becomes a group on d
    generators n_i.  M's generators must lie in N, and they conjugated by
    the n_i, and the commutators [n_i, n_j], must lie in M (M normal in
    N, N/M abelian); a ValueError says which fails.  Then N/M = N^ab/M is
    Z^d modulo N's relation rows and the letter counts of M's generators."""
    NG = N.as_group()
    inside = M.mask[NG.at]
    m_gens = NG.own[list(M.gens)]
    if (m_gens < 0).any():
        raise ValueError("the subgroup is not inside the section")
    conj = NG._conjugates(*_pairs(m_gens, NG.generators))
    comm = NG._commutators(*_pairs(NG.generators, NG.generators))
    if not inside[conj].all():
        raise ValueError("the subgroup is not normal in the section")
    if not inside[comm].all():
        raise ValueError("the section is not abelian")
    rows = relation_rows(NG) + [tuple(r) for r in letter_counts(NG)[m_gens].tolist()]
    return torsion_factors(invariant_factors(rows))


def power_subgroup(G: FiniteGroup, k: int) -> Subgroup:
    """The subgroup generated by all k-th powers (the (-k)-th powers
    are the same set)."""
    every = np.arange(G.order)
    pows = np.zeros(G.order, dtype=np.int32)
    for _ in range(abs(k)):
        pows = G._products(pows, every)
    return subgroup_closure(G, _support(G, pows))


def exponent(G: FiniteGroup) -> int:
    return reduce(math.lcm, set(G._element_orders(G.elements).tolist()), 1)


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
    return der <= target


class Homomorphism:
    """Generator-image homomorphism, verified at construction.

    The image of every domain element is the generator images composed
    along its word, and f(x*g) = f(x)*f(g) is checked for every element
    x and every domain generator g.  Every element is a product of
    generators, so this proves the product law outright.  Only when it
    fails, and the domain carries a presentation, is each relator traced
    on the images' right actions, to name the first one that does not
    map to the identity.
    """

    def __init__(self, domain: FiniteGroup, codomain: FiniteGroup, images):
        if len(images) != len(domain.generators):
            raise HomomorphismError(
                f"{len(images)} images for {len(domain.generators)} generators"
            )
        for im in images:
            if not (isinstance(im, (int, np.integer)) and 0 <= im < codomain.order):
                raise HomomorphismError("image outside the codomain")
        self.domain = domain
        self.codomain = codomain
        self.images = [int(im) for im in images]
        self._image = self._verify()

    def _verify(self) -> np.ndarray:
        """The image of every domain element; raises HomomorphismError if
        the generator images do not extend to a homomorphism."""
        dom, cod = self.domain, self.codomain
        e = cod.identity
        cod_acts = [cod.right_action(h) for h in self.images]
        # the images along each domain word, from the identity; a step
        # past the end of a word (2*ngens) lands on the identity row
        acts = np.array(cod_acts + [np.arange(cod.order)], dtype=np.int32)
        image = np.full(dom.order, e, dtype=np.int32)
        for step in dom._steps:
            image = acts[step >> 1, image]
        law = zip(dom.gen_cols, cod_acts)
        if all(np.array_equal(image[act], cod_act[image]) for act, cod_act in law):
            return image
        pres = dom.presentation
        for k, rel in enumerate(pres.relators if pres is not None else ()):
            # each relator traced from the identity: x*h^-1 is the point
            # that h's action sends to x
            x = e
            for a in rel.letters:
                act = cod_acts[abs(a) - 1]
                x = act[x] if a > 0 else (act == x).argmax()
            if x != e:
                raise HomomorphismError(
                    f"relator {k} ({pres.word_text(rel)}) does not map to the identity"
                )
        raise HomomorphismError("product law fails")

    def __call__(self, x):
        return int(self._image[x])

    def kernel(self) -> Subgroup:
        return _masked(self.domain, self._image == 0)

    def image(self) -> Subgroup:
        """The values of the image array; the generator images (repeats
        and the identity dropped) generate it."""
        mask = np.zeros(self.codomain.order, dtype=bool)
        mask[self._image] = True
        gens = [h for h in dict.fromkeys(self.images) if h != 0]
        return Subgroup(self.codomain, mask, gens)

    def is_surjective(self) -> bool:
        return self.image().order == self.codomain.order

    def is_injective(self) -> bool:
        return self.kernel().order == 1

    def __repr__(self):
        return f"<hom {self.domain!r} -> {self.codomain!r}>"


def group_from_presentation(
    pres: Presentation,
    limits: EnumerationLimits | None = None,
    name=None,
) -> PermGroup:
    table = enumerate_cosets(pres, limits=limits)
    return PermGroup(table, name=name or pres.name)


def group_from_fold(
    pres: Presentation,
    base: FiniteGroup,
    limits: EnumerationLimits | None = None,
) -> PermGroup:
    """The group X that `pres` presents on two copies of base's
    generators, built from the cosets of the first copy.

    Generators i and n+i fold onto base generator i.  When every relator
    folds to the identity, the fold is a retraction of X onto base, and
    the first copy H, a quotient of base since `pres` has base's relators
    on it, is a complement of its kernel; so x -> (fold(x), Hx) is a
    bijection from X to base x (right cosets of H), and it respects right
    multiplication by a generator t: (h, c) goes to (h*fold(t), c*t).
    The generator columns on those |base|*k points are assembled from
    base's and the k-coset table's of H, then checked and standardized
    like any enumerated table (coset.standardize).  A relator that does
    not fold fails the relator check.  Once every relator closes, the
    table is a transitive action of X on |base|*k >= |H|*k = |X| points,
    which is regular; so the result is the regular representation that
    group_from_presentation gives, element for element.
    """
    n = base.presentation.ngens
    if pres.ngens != 2 * n or not set(base.presentation.relators) <= set(pres.relators):
        raise ValueError("presentation is not on two copies of the base, the first with its relators")
    limits = limits or EnumerationLimits()
    table = enumerate_cosets(pres, [Word.gen(i) for i in range(n)], limits)
    k, m = table.n, base.order
    defined = table.stats["total_defined"]
    hold_to_limits(k * m, 4 * n, defined, limits)
    # point c*m + h is (h, c); generator x moves h by base generator x % n, c by x
    folded = base.gen_cols[np.arange(2 * n) % n]
    gen_cols = (table.gen_cols[:, :, None] * m + folded[:, None, :]).reshape(2 * n, k * m)
    std, levels = standardize(gen_cols, [word_to_cols(w) for w in pres.relators])
    stats = {"cosets": k * m, "total_defined": defined}
    regular = CosetTable(std, levels, pres, [], stats)
    return PermGroup(regular, name=pres.name)


def group_from_normal_subgroup(
    pres: Presentation,
    subgroup_words,
    limits: EnumerationLimits | None = None,
) -> tuple[PermGroup, Subgroup]:
    """The group that `pres` presents modulo [H, H], for the subgroup H
    that `subgroup_words` generate, built from the cosets of H; and
    H/[H, H] inside it.

    Each element is h*t_c for one coset c of H and one h in H, t_c the
    coset's shortlex word, so the right cosets of [H, H] are the pairs
    (c, v), v the class of h in H^ab; a generator x sends (c, v) to (c*x,
    v + gamma(c, x)), gamma the edge's coordinate (homology.
    abelian_schreier).  When H is normal, so is [H, H], and that action
    is the regular representation of the quotient.  So the build raises
    RuntimeError unless every subgroup word fixes every coset.  The
    generator columns on those k*|H^ab| points are assembled and then
    checked and standardized like any enumerated table (coset.
    standardize); `limits` holds the enumeration and the assembled rows.
    """
    limits = limits or EnumerationLimits()
    table = enumerate_cosets(pres, subgroup_words, limits)
    cols, k = table.col_arrays(), table.n
    every = np.arange(k, dtype=np.int32)
    for w in subgroup_words:
        p = every
        for c in word_to_cols(w):
            p = cols[c, p]
        if not np.array_equal(p, every):
            raise RuntimeError(
                f"subgroup word {pres.word_text(w)} moves a coset: the subgroup is not normal"
            )
    ab = abelian_schreier(table)
    m, ngens = ab.order, pres.ngens
    defined = table.stats["total_defined"]
    hold_to_limits(k * m, 2 * ngens, defined, limits)
    d = np.diagonal(ab.hnf).tolist()
    box = np.indices(d, dtype=np.int64).reshape(len(d), m).T  # point c*m + v, v mixed radix
    radix = np.array([math.prod(d[j + 1 :]) for j in range(len(d))], dtype=np.int64)
    big = np.empty((ngens, k, m), dtype=np.int32)
    chunk = max(1, CHUNK_CELLS // (k * m * max(len(d), 1)))
    for s in range(0, ngens, chunk):
        v = ab.reduce(box + ab.coords[s : s + chunk, :, None]) @ radix
        big[s : s + chunk] = table.gen_cols[s : s + chunk, :, None] * m + v
    big = big.reshape(ngens, k * m)
    std, levels = standardize(big, [word_to_cols(w) for w in pres.relators])
    stats = {"cosets": k * m, "total_defined": defined}
    G = PermGroup(CosetTable(std, levels, pres, [], stats), name=pres.name)
    # the coset of every element: the coset table walked along its word
    acts = np.vstack([table.gen_cols, every])
    coset = np.zeros(G.order, dtype=np.int32)
    for step in G._steps:
        coset = acts[step >> 1, coset]
    gens = [G.table.trace(0, w.letters) for w in subgroup_words]
    return G, Subgroup(G, coset == 0, [h for h in dict.fromkeys(gens) if h != G.identity])

