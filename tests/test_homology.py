"""Integer Smith form, abelian invariants, and second homology.

Matrix expectations were worked out by hand (gcd of entries, determinant
products); group expectations are classical multiplier values, with the
abelian ones cross-checked against the exterior-square closed form.  The
relation-module route is held to the bar-resolution oracle.
"""

import functools
import random
from math import gcd, prod

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from xpforge import homology
from xpforge.catalog import builtin_catalog
from xpforge.groups import TupleGroup, derived_subgroup, group_from_presentation, quotient
from xpforge.homology import (
    _dense_invariants,
    abelian_invariants,
    exterior_square_invariants,
    invariant_factors,
    invariants_from_cyclic_orders,
    is_quotient_invariants,
    matrix_rank,
    schur_multiplier,
    schur_multiplier_bar,
    torsion_factors,
)
from xpforge.words import Presentation, Word, commutator, parse_presentation

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


def test_sparse_pipeline_agrees_with_pure_dense():
    rng = random.Random(17)
    for _ in range(20):
        m, n = rng.randint(2, 7), rng.randint(2, 7)
        a = _random_matrix(rng, m, n, lo=-4, hi=4, density=0.5)
        assert invariant_factors(a) == _dense_invariants(a)


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
    from xpforge.groups import direct_product

    G = direct_product(grp("C2"), grp("C4"), grp("C12"))
    # primary parts: 2-part (1, 2, 2), 3-part (1) -> 2 | 4 | 12
    assert abelian_invariants(G) == [2, 4, 12]


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
