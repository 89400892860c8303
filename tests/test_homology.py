"""Integer Smith form, abelian invariants, and second homology.

Matrix expectations were worked out by hand (gcd of entries, determinant
products); group expectations are classical multiplier values, with the
abelian ones cross-checked against the exterior-square closed form.  The
relation-module route is held to the bar-resolution oracle.
"""

import functools
import itertools
import random
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from xpforge import groups, harness, homology, tensor
from xpforge.catalog import builtin_catalog, catalog_entry
from xpforge.coset import EnumerationError, EnumerationLimits, enumerate_cosets
from xpforge.groups import (
    Subgroup,
    TupleGroup,
    derived_subgroup,
    group_from_presentation,
    intersection,
    quotient,
    quotient_invariants,
    subgroup_closure,
    trivial_subgroup,
    whole_subgroup,
)
from xpforge.homology import (
    abelian_invariants,
    abelian_schreier,
    exterior_square_invariants,
    invariant_factors,
    invariants_from_cyclic_orders,
    is_quotient_invariants,
    matrix_rank,
    schur_multiplier,
    schur_multiplier_bar,
    torsion_factors,
)
from xpforge.tensor import SizeGateError, build_tensor_square
from xpforge.words import Presentation, Word, commutator, parse_presentation

from scalar_oracle import element_order_invariants

PRESENTATIONS = {
    "C1": "gens a\nrels a",
    "C2": "gens a\nrels a^2",
    "C4": "gens a\nrels a^4",
    "C8": "gens a\nrels a^8",
    "C9": "gens a\nrels a^9",
    "C12": "gens a, b\nrels a^4, b^3, [a,b]",
    "K4": "gens a, b\nrels a^2, b^2, [a,b]",
    "C2xC4": "gens a, b\nrels a^2, b^4, [a,b]",
    "C3xC3": "gens a, b\nrels a^3, b^3, [a,b]",
    "E8": "gens a, b, c\nrels a^2, b^2, c^2, [a,b], [a,c], [b,c]",
    "S3": "gens a, b\nrels a^3, b^2, b^-1*a*b*a",
    "D8": "gens a, b\nrels a^4, b^2, b^-1*a*b*a",
    "Q8": "gens a, b\nrels a^4, a^2*b^-2, b^-1*a*b*a",
    "A4": "gens a, b\nrels a^3, b^2, (a*b)^3",
    "Heis27": "gens a, b, c\nrels a^3, b^3, c^3, [a,b]*c^-1, [a,c], [b,c]",
    "Mod27": "gens a, b\nrels a^9, b^3, b^-1*a*b*a^-4",
}


@functools.lru_cache(maxsize=None)
def group_of(text):
    return group_from_presentation(parse_presentation(text))


def grp(name):
    return group_of(PRESENTATIONS[name])


# -- Smith normal form -------------------------------------------------------


@pytest.mark.parametrize(
    "matrix,factors",
    [
        ([[2, 0], [0, 4]], [2, 4]),
        ([[2, 1], [0, 2]], [1, 4]),
        ([[2, 0], [0, 3]], [1, 6]),
        ([[1, 2], [3, 4]], [1, 2]),
        ([[4, 2], [2, 4]], [2, 6]),
        ([[2, 4], [4, 8]], [2]),
        ([[0, 0], [0, 0]], []),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 1, 1]),
        ([[6]], [6]),
        ([[3, 3, 3]], [3]),
        ([[5], [10], [15]], [5]),
        ([[2, 3]], [1]),
        ([[4, 0, 0], [0, 6, 0], [0, 0, 2]], [2, 2, 12]),
    ],
)
def test_invariant_factors_fixed(matrix, factors):
    assert invariant_factors(matrix) == factors


def test_sparse_dict_input_matches_dense():
    dense = [[2, 1, 0], [0, 2, 4], [2, 3, 4]]
    sparse = {
        (i, j): v for i, row in enumerate(dense) for j, v in enumerate(row) if v
    }
    assert invariant_factors(sparse) == invariant_factors(dense)


def _random_matrix(rng, m, n, lo=-5, hi=5, density=1.0):
    return [
        [rng.randint(lo, hi) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(m)
    ]


def _det(a):
    n = len(a)
    if n == 1:
        return a[0][0]
    total = 0
    for j, v in enumerate(a[0]):
        if v:
            minor = [row[:j] + row[j + 1 :] for row in a[1:]]
            total += (-1) ** j * v * _det(minor)
    return total


def test_transpose_and_permutation_invariance():
    rng = random.Random(7)
    for _ in range(25):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = _random_matrix(rng, m, n)
        f = invariant_factors(a)
        at = [list(col) for col in zip(*a)]
        assert invariant_factors(at) == f
        rows = list(range(m))
        cols = list(range(n))
        rng.shuffle(rows)
        rng.shuffle(cols)
        shuffled = [[a[i][j] for j in cols] for i in rows]
        assert invariant_factors(shuffled) == f


def test_row_operation_invariance():
    rng = random.Random(11)
    for _ in range(25):
        a = _random_matrix(rng, 4, 4)
        f = invariant_factors(a)
        i, k = rng.sample(range(4), 2)
        c = rng.randint(-3, 3)
        b = [row[:] for row in a]
        b[i] = [x + c * y for x, y in zip(b[i], b[k])]
        assert invariant_factors(b) == f


def test_divisibility_chain_and_determinant():
    rng = random.Random(13)
    for _ in range(30):
        a = _random_matrix(rng, 4, 4)
        f = invariant_factors(a)
        for x, y in zip(f, f[1:]):
            assert y % x == 0
        d = _det(a)
        if d:
            assert prod(f) == abs(d)
        else:
            assert len(f) < 4


def _determinantal_divisors(a):
    # Smith's definition: s_k = d_k / d_(k-1), d_k the gcd of the k x k
    # minors, up to the first k at which every minor vanishes
    factors, previous = [], 1
    for k in range(1, min(len(a), len(a[0])) + 1):
        d = 0
        for rows in itertools.combinations(a, k):
            for cols in itertools.combinations(range(len(a[0])), k):
                d = gcd(d, _det([[row[j] for j in cols] for row in rows]))
        if not d:
            break
        factors.append(d // previous)
        previous = d
    return factors


def test_invariant_factors_match_the_determinantal_divisors():
    rng = random.Random(17)
    for _ in range(20):
        m, n = rng.randint(2, 7), rng.randint(2, 7)
        a = _random_matrix(rng, m, n, lo=-4, hi=4, density=0.5)
        assert invariant_factors(a) == _determinantal_divisors(a)


def test_matrix_rank_and_torsion():
    assert matrix_rank([[2, 0], [0, 0]]) == 1
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert torsion_factors([1, 1, 2, 6]) == [2, 6]


# -- abelian invariants -------------------------------------------------------


@pytest.mark.parametrize(
    "name,invs",
    [
        ("C1", []),
        ("C8", [8]),
        ("C12", [12]),
        ("K4", [2, 2]),
        ("C2xC4", [2, 4]),
        ("C3xC3", [3, 3]),
        ("E8", [2, 2, 2]),
    ],
)
def test_abelian_invariants(name, invs):
    assert abelian_invariants(grp(name)) == invs


def test_abelian_invariants_rejects_nonabelian():
    with pytest.raises(ValueError, match="abelian"):
        abelian_invariants(grp("D8"))


def test_abelian_invariants_of_products():
    G = TupleGroup([grp("C2"), grp("C4"), grp("C12")])
    # primary parts: 2-part (1, 2, 2), 3-part (1) -> 2 | 4 | 12
    assert abelian_invariants(G) == [2, 4, 12]


def cyclic(name):
    text = PRESENTATIONS["C12"] if name == "C12" else catalog_entry(name).presentation_text
    return group_of(text)


CYCLIC = ("C2", "C3", "C4", "C8", "C9", "C12")


@pytest.mark.parametrize("entry", builtin_catalog(), ids=lambda e: e.name)
def test_abelian_invariants_of_the_abelianizations_match_the_element_orders(entry):
    G = group_of(entry.presentation_text)
    A = quotient(G, derived_subgroup(G))
    assert abelian_invariants(A) == element_order_invariants(A)


@pytest.mark.parametrize(
    "names",
    [
        *itertools.combinations_with_replacement(CYCLIC, 2),
        ("C2", "C4", "C12"),
        ("C2", "C2", "C8"),
        ("C3", "C9", "C12"),
        ("C4", "C9", "C12"),
    ],
    ids="x".join,
)
def test_abelian_invariants_of_cyclic_products_match_the_element_orders(names):
    G = TupleGroup([cyclic(n) for n in names])
    assert abelian_invariants(G) == element_order_invariants(G)


def multiplier_builds(entry):
    """X(G), T(G) and, unless gated, nu(G) of a catalog entry."""
    builds = [harness.xp_of(entry), harness.tensor_of(entry)]
    try:
        builds.append(harness.nu_of(entry))
    except SizeGateError:
        pass
    return builds


def multiplier_sections(entry):
    """The sections N/M whose invariants are the multiplier: W/R in X(G),
    ker kappa/Delta in T(G), and (ker alpha & tensor)/Delta in nu(G)."""
    xb, T, *nu = multiplier_builds(entry)
    sections = [(xb.W, xb.R), (T.to_base.kernel(), T.delta)]
    return sections + [(intersection(nb.alpha.kernel(), nb.tensor), nb.delta) for nb in nu]


@pytest.mark.parametrize("entry", builtin_catalog(), ids=lambda e: e.name)
def test_quotient_invariants_read_the_multiplier_sections(entry):
    # each section, also as a quotient group held to the element orders;
    # Q8's W/R is the trivial section, on no generators
    for N, M in multiplier_sections(entry):
        NG = N.as_group()
        Q = quotient(NG, Subgroup(NG, M.mask[NG.at], NG.own[list(M.gens)].tolist()))
        h2 = quotient_invariants(N, M)
        assert h2 == abelian_invariants(Q) == element_order_invariants(Q) == list(entry.expected_h2)


@pytest.mark.parametrize("entry", builtin_catalog(), ids=lambda e: e.name)
def test_multiplier_readings_build_no_quotient_group(entry, monkeypatch):
    builds = multiplier_builds(entry)
    calls = []
    init = groups.QuotientGroup.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(groups.QuotientGroup, "__init__", counted)
    assert [b.h2_invariants() for b in builds] == [list(entry.expected_h2)] * len(builds)
    assert calls == []


def test_quotient_invariants_refuse_a_section_that_is_not_one():
    D8 = grp("D8")
    whole = whole_subgroup(D8)
    assert quotient_invariants(whole, derived_subgroup(D8)) == [2, 2]
    with pytest.raises(ValueError, match="not normal"):
        quotient_invariants(whole, subgroup_closure(D8, [D8.generators[1]]))
    with pytest.raises(ValueError, match="not inside"):
        quotient_invariants(subgroup_closure(D8, [D8.generators[1]]), whole)
    with pytest.raises(ValueError, match="not abelian"):
        quotient_invariants(whole, trivial_subgroup(D8))


@pytest.mark.parametrize(
    "orders,invs",
    [
        ([4, 2], [2, 4]),
        ([2, 3], [6]),
        ([2, 2, 3, 9], [6, 18]),
        ([5], [5]),
        ([], []),
    ],
)
def test_invariants_from_cyclic_orders(orders, invs):
    out = invariants_from_cyclic_orders(orders)
    assert out == invs
    for x, y in zip(out, out[1:]):
        assert y % x == 0


@pytest.mark.parametrize(
    "invs,ext",
    [
        ([], []),
        ([8], []),
        ([2, 2], [2]),
        ([2, 4], [2]),
        ([3, 3], [3]),
        ([2, 4, 4], [2, 2, 4]),
        ([2, 4, 8], [2, 2, 4]),
        ([6, 6], [6]),
        ([2, 6], [2]),
    ],
)
def test_exterior_square_invariants(invs, ext):
    assert exterior_square_invariants(invs) == ext


def test_exterior_square_matches_pairwise_gcds():
    rng = random.Random(23)
    for _ in range(15):
        invs = sorted(rng.choice([2, 3, 4, 6, 8, 9, 12]) for _ in range(rng.randint(1, 4)))
        ext = exterior_square_invariants(invs)
        expected_order = prod(
            gcd(invs[i], invs[j]) for i in range(len(invs)) for j in range(i + 1, len(invs))
        )
        assert prod(ext) == expected_order if ext else expected_order == 1


@pytest.mark.parametrize(
    "quot,of,ok",
    [
        ([], [4], True),
        ([2], [2, 4], True),
        ([2, 2], [2, 4], True),
        ([4], [2, 2], False),
        ([2, 4], [4], False),
        ([3], [3, 3], True),
        ([9], [3, 3], False),
        ([2, 4], [2, 4], True),
    ],
)
def test_is_quotient_invariants(quot, of, ok):
    assert is_quotient_invariants(quot, of) is ok


# -- bar-resolution homology ---------------------------------------------------


@pytest.mark.parametrize(
    "name,h2",
    [
        ("C2", []),
        ("C4", []),
        ("C8", []),
        ("C9", []),
        ("C12", []),
        ("K4", [2]),
        ("C2xC4", [2]),
        ("C3xC3", [3]),
        ("E8", [2, 2, 2]),
        ("S3", []),
        ("D8", [2]),
        ("Q8", []),
        ("A4", [2]),
    ],
)
def test_schur_multiplier_bar(name, h2):
    assert schur_multiplier_bar(grp(name)) == h2


@pytest.mark.parametrize("name", ["K4", "C2xC4", "C3xC3", "C12", "E8"])
def test_bar_agrees_with_exterior_square_for_abelian(name):
    G = grp(name)
    assert schur_multiplier_bar(G) == exterior_square_invariants(abelian_invariants(G))


@pytest.mark.parametrize("name,h2", [("Heis27", [3, 3]), ("Mod27", [])])
def test_schur_multiplier_bar_order_27(name, h2, bar_oracle):
    # the catalog shares Heis27's and Mod27's texts, and so their bar values
    assert bar_oracle(PRESENTATIONS[name]) == h2


def test_h1_reads_abelianization():
    def h1(name):
        G = grp(name)
        return abelian_invariants(quotient(G, derived_subgroup(G)))

    assert h1("D8") == [2, 2]
    assert h1("Q8") == [2, 2]
    assert h1("S3") == [2]
    assert h1("A4") == [3]
    assert h1("C12") == [12]


def test_trivial_group_h2():
    assert schur_multiplier_bar(grp("C1")) == []
    assert schur_multiplier(grp("C1")) == []


# -- the relation module of the Cayley graph -----------------------------------


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_relation_module_route_matches_bar(name, bar_oracle):
    assert schur_multiplier(grp(name)) == bar_oracle(PRESENTATIONS[name])


@pytest.mark.parametrize("entry", builtin_catalog(), ids=lambda e: e.name)
def test_relation_module_route_on_the_catalog(entry, bar_oracle):
    h2 = schur_multiplier(group_of(entry.presentation_text))
    assert h2 == bar_oracle(entry.presentation_text) == list(entry.expected_h2)


@pytest.mark.parametrize(
    "text,h2",
    [
        ("gens a, b, c\nrels a^4, b^4, c^4, [a,b], [a,c], [b,c]", [4, 4, 4]),
        (
            "gens a, b, c, d, e\nrels a^2, b^2, c^2, d^2, e^2, [a,b], [a,c], [a,d], "
            "[a,e], [b,c], [b,d], [b,e], [c,d], [c,e], [d,e]",
            [2] * 10,
        ),
    ],
    ids=["C4^3", "C2^5"],
)
def test_relation_module_route_above_the_bar_range(text, h2):
    # orders 64 and 32: the exterior square of the abelian group
    G = group_of(text)
    assert schur_multiplier(G) == h2 == exterior_square_invariants(abelian_invariants(G))


@pytest.mark.parametrize(
    "text", ["gens a, b\nrels a^2, b", "gens a, b\nrels a^4, a*b^-1"], ids=["identity", "repeat"]
)
def test_relation_module_route_on_redundant_generators(text):
    # an identity generator and a repeated one: each adds a free summand
    # to the cokernel, which the rank check accounts for
    G = group_of(text)
    assert schur_multiplier(G) == schur_multiplier_bar(G) == []


def test_relation_module_route_on_products_and_quotients():
    C2xC4 = TupleGroup([grp("C2"), grp("C4")])
    assert schur_multiplier(C2xC4) == schur_multiplier_bar(C2xC4) == [2]
    D8 = grp("D8")
    K4 = quotient(D8, derived_subgroup(D8))
    assert schur_multiplier(K4) == schur_multiplier_bar(K4) == [2]


def test_relation_module_route_checks_its_rank(monkeypatch):
    # a lattice of the wrong rank means the loops or the action are wrong
    monkeypatch.setattr(homology, "invariant_factors", lambda rows: [])
    with pytest.raises(RuntimeError, match="rank"):
        schur_multiplier(grp("D8"))


def _short_word(ngens):
    letter = st.integers(1, ngens).flatmap(lambda g: st.sampled_from((g, -g)))
    return st.lists(letter, min_size=1, max_size=3).map(Word)


def _relator(ngens):
    """A commutator of two words of 1-3 letters, or a power of a
    generator: a random word of a few letters mostly collapses a catalog
    group to a cyclic quotient with trivial H2, these keep more of it."""
    short = _short_word(ngens)
    power = st.tuples(st.integers(1, ngens), st.integers(2, 9)).map(lambda gk: Word((gk[0],) * gk[1]))
    return st.one_of(st.tuples(short, short).map(lambda uv: commutator(*uv)), power)


@st.composite
def catalog_quotients(draw):
    """A catalog presentation plus one extra relator (see _relator): a
    quotient of a finite group, so finite."""
    pres = draw(st.sampled_from(builtin_catalog())).presentation()
    extra = draw(_relator(len(pres.generators)))
    return Presentation(pres.generators, pres.relators + [extra])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(catalog_quotients())
def test_relation_module_route_on_random_quotients(pres):
    G = group_from_presentation(pres)
    if G.order <= 16:
        assert schur_multiplier(G) == schur_multiplier_bar(G)


# ------------------------------------- abelianised Reidemeister-Schreier


def _rs_matrix(table):
    """The Reidemeister-Schreier relation matrix of H^ab, by loops: one
    row per relator and coset (its walk), one column per edge (i, c),
    c -x_i->, with the edges of the shortlex tree left out; and the number
    of columns."""
    k, m = table.n, table.ngens
    tree = set()
    for c in range(1, k):
        w = table.words[c]
        tree.add((w[-1] - 1) * k + table.trace(0, w[:-1]))
    rows = {}
    for r, rel in enumerate(table.presentation.relators):
        for start in range(k):
            p = start
            for a in rel.letters:
                q = table.trace(p, [a])
                e, sign = ((a - 1) * k + p, 1) if a > 0 else ((-a - 1) * k + q, -1)
                if e not in tree:
                    rows[r * k + start, e] = rows.get((r * k + start, e), 0) + sign
                p = q
    return rows, m * k - len(tree)


def _walk_sum(ab, table, letters, start=0):
    """The sum of the edge coordinates along a word from a coset."""
    v = np.zeros(ab.coords.shape[-1], dtype=np.int64)
    p = start
    for a in letters:
        q = table.trace(p, [a])
        v = v + ab.coords[a - 1, p] if a > 0 else v - ab.coords[-a - 1, q]
        p = q
    return v


@st.composite
def presentations_with_a_subgroup_word(draw):
    """A catalog quotient (finite), or 2-3 generators with 1-4 relators
    of 1-5 letters (many infinite); and a subgroup word of 1-3 letters."""
    ngens = draw(st.integers(2, 3))
    letter = st.integers(1, ngens).flatmap(lambda g: st.sampled_from((g, -g)))
    free = st.lists(st.lists(letter, min_size=1, max_size=5).map(Word), min_size=1, max_size=4).map(
        lambda rels: Presentation(list("abc"[:ngens]), [w for w in rels if w.letters])
    )
    pres = draw(st.one_of(catalog_quotients(), free))
    return pres, draw(_short_word(len(pres.generators)))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(presentations_with_a_subgroup_word())
def test_abelian_schreier_matches_the_relation_matrix(drawn):
    pres, word = drawn
    try:
        table = enumerate_cosets(pres, [word], EnumerationLimits(max_cosets=300))
    except EnumerationError:
        return
    rows, ncols = _rs_matrix(table)
    factors = invariant_factors(rows)
    if len(factors) < ncols:
        with pytest.raises(RuntimeError, match="infinite"):
            abelian_schreier(table)
        return
    ab = abelian_schreier(table)
    assert ab.invariants() == torsion_factors(factors)
    assert ab.order == prod(factors)
    d, above = np.diagonal(ab.hnf), np.triu(ab.hnf, 1)
    assert (d > 1).all() and not np.tril(ab.hnf, -1).any()
    assert ((above >= 0) & (above < d)).all()
    for rel in pres.relators:
        for c in range(table.n):
            assert not ab.reduce(_walk_sum(ab, table, rel.letters, c)).any()
    # H is cyclic, generated by the word, whose walk from coset 0 is its
    # coordinate: its multiples fill the box
    v = ab.reduce(_walk_sum(ab, table, word.letters))
    multiples = {tuple(ab.reduce(v * j)) for j in range(ab.order)}
    assert len(multiples) == ab.order


@pytest.mark.parametrize(
    "rows, hnf",
    [
        ([[2, 5], [0, 4]], [[2, 1], [0, 4]]),
        ([[2, -1], [0, 4]], [[2, 3], [0, 4]]),
        ([[0, 3], [2, 0], [4, 1]], [[2, 0], [0, 1]]),
        ([[6, 4], [4, 6]], [[2, 8], [0, 10]]),
    ],
)
def test_hnf_is_triangular_and_reduced(rows, hnf):
    # worked by hand: Euclid down each column, then every entry above a
    # pivot d brought into [0, d)
    assert homology._hnf(np.array(rows, dtype=np.int64)).tolist() == hnf
    assert prod(invariant_factors(rows)) == prod(hnf[i][i] for i in range(len(hnf)))


def _kept_nabla_table(name):
    G = grp(name)
    kept = tensor._kept_letters(G)
    pres = build_tensor_square(G).group.presentation
    return enumerate_cosets(pres, tensor._nabla_words(G, kept))


@pytest.mark.parametrize("name, free", [("Mod27", 1), ("Heis27", 0)])
def test_abelian_schreier_on_the_diagonal_subgroup(name, free):
    # the sweep stalls on T(Mod27) over Delta and gives one edge a free
    # coordinate; on T(Heis27) it never stalls.  Delta is C3^3 in both
    ab = abelian_schreier(_kept_nabla_table(name))
    assert ab.free == free
    assert ab.invariants() == [3, 3, 3]


@pytest.mark.parametrize("name", ["Mod27", "Heis27"])
def test_abelian_schreier_does_not_depend_on_the_chunk_size(name, monkeypatch):
    # in chunks of 64 entries the walk sums fold over many chunks, some of
    # them rank-deficient on their own, into the same basis
    table = _kept_nabla_table(name)
    whole = abelian_schreier(table)
    fold, chunks = homology._fold, []
    monkeypatch.setattr(homology, "CHUNK_CELLS", 64)
    monkeypatch.setattr(homology, "_fold", lambda basis, R: chunks.append(R) or fold(basis, R))
    chunked = abelian_schreier(table)
    assert np.array_equal(chunked.hnf, whole.hnf) and np.array_equal(chunked.coords, whole.coords)
    assert chunked.free == whole.free
    zero = np.zeros((chunks[0].shape[1],) * 2, dtype=np.int64)
    assert len(chunks) > 20
    assert any(not np.diagonal(fold(zero, R)).all() for R in chunks)


def test_abelian_schreier_of_trivial_and_infinite_abelianizations():
    # the trivial subgroup of C4 has H^ab = 1, so no coordinates; <a*b> in
    # the infinite dihedral group a^2 = b^2 = 1 has index 2 and is Z
    ab = abelian_schreier(enumerate_cosets(parse_presentation(PRESENTATIONS["C4"])))
    assert ab.order == 1 and ab.invariants() == [] and ab.coords.shape == (1, 4, 0)
    table = enumerate_cosets(parse_presentation("gens a, b\nrels a^2, b^2"), [Word((1, 2))])
    assert table.n == 2
    with pytest.raises(RuntimeError, match="infinite"):
        abelian_schreier(table)


def test_abelian_schreier_raises_past_its_coordinate_bound(monkeypatch):
    # C3 x C3's diagonal relations hold a 3, beyond a bound of 2
    table = _kept_nabla_table("C3xC3")
    assert abelian_schreier(table).invariants() == [3, 3, 3]
    monkeypatch.setattr(homology, "COORD_BOUND", 2)
    with pytest.raises(RuntimeError, match="exceeds the bound 2"):
        abelian_schreier(table)
