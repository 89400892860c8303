"""Group engine tests: regular representations, subgroup lattice ops,
series, quotients, products, and verified homomorphisms.

Expected values are classical small-group facts (orders, centers, derived
subgroups, element-order multisets) frozen directly.
"""

import functools
import itertools

import numpy as np
import pytest

from xpforge import groups, harness
from xpforge.catalog import builtin_catalog, catalog_entry
from xpforge.groups import (
    Homomorphism,
    HomomorphismError,
    PermGroup,
    QuotientGroup,
    Subgroup,
    TupleGroup,
    center,
    commutator_subgroup,
    derived_series,
    derived_subgroup,
    exponent,
    group_from_presentation,
    intersection,
    is_powerful,
    is_soluble,
    lower_central_series,
    minimal_generator_count,
    nilpotency_class,
    normal_closure,
    p_group_data,
    power_subgroup,
    quotient,
    subgroup_closure,
    trivial_subgroup,
    whole_subgroup,
)
from xpforge.homology import abelian_invariants
from xpforge.tensor import _conjugation_tables, build_nu
from xpforge.weakcomm import build_xp
from xpforge.words import parse_presentation

from scalar_oracle import ScalarGroup, elementwise_commutator_subgroup, eval_letters, pow_element

PRESENTATIONS = {
    "C2": "gens a\nrels a^2",
    "C4": "gens a\nrels a^4",
    "C8": "gens a\nrels a^8",
    "C9": "gens a\nrels a^9",
    "K4": "gens a, b\nrels a^2, b^2, [a,b]",
    "C12": "gens a, b\nrels a^4, b^3, [a,b]",
    "S3": "gens a, b\nrels a^3, b^2, b^-1*a*b*a",
    "D8": "gens a, b\nrels a^4, b^2, b^-1*a*b*a",
    "Q8": "gens a, b\nrels a^4, a^2*b^-2, b^-1*a*b*a",
    "A4": "gens a, b\nrels a^3, b^2, (a*b)^3",
    "S4": "gens a, b\nrels a^4, b^2, (a*b)^3",
    "Heis27": "gens a, b, c\nrels a^3, b^3, c^3, [a,b]*c^-1, [a,c], [b,c]",
    "Mod27": "gens a, b\nrels a^9, b^3, b^-1*a*b*a^-4",
}


@functools.lru_cache(maxsize=None)
def grp(name):
    return group_from_presentation(parse_presentation(PRESENTATIONS[name]), name=name)


@pytest.mark.parametrize(
    "name,order",
    [
        ("C2", 2),
        ("C4", 4),
        ("C8", 8),
        ("K4", 4),
        ("C12", 12),
        ("S3", 6),
        ("D8", 8),
        ("Q8", 8),
        ("A4", 12),
        ("Heis27", 27),
        ("Mod27", 27),
    ],
)
def test_orders(name, order):
    assert grp(name).order == order


def test_words_match_table_and_evaluate_back():
    G = grp("Q8")
    assert G.words == G.table.words
    for e in G.elements:
        assert eval_letters(G, G.word_of(e)) == e


def test_words_are_shortlex_increasing():
    G = grp("D8")
    ws = G.words
    assert all(ws[i] < ws[i + 1] or len(ws[i]) < len(ws[i + 1]) for i in range(len(ws) - 1))
    assert ws == sorted(ws, key=lambda w: (len(w), w))


def test_determinism_of_construction():
    a = group_from_presentation(parse_presentation(PRESENTATIONS["D8"]))
    b = group_from_presentation(parse_presentation(PRESENTATIONS["D8"]))
    assert a.words == b.words
    assert np.array_equal(a.gen_cols, b.gen_cols)
    assert np.array_equal(a._steps, b._steps)


@pytest.mark.parametrize(
    "name,orders",
    [
        ("D8", [1, 2, 2, 2, 2, 2, 4, 4]),
        ("Q8", [1, 2, 4, 4, 4, 4, 4, 4]),
        ("K4", [1, 2, 2, 2]),
    ],
)
def test_element_order_multisets(name, orders):
    G = grp(name)
    assert sorted(G.element_order(x) for x in G.elements) == orders


def test_inverse_and_conjugation():
    G = grp("S3")
    for x in G.elements:
        assert G.mul(x, G.inv(x)) == G.identity
        assert G.conj(x, G.identity) == x
    a, b = G.generators
    # b^-1 a b = a^-1 in this dihedral-style presentation
    assert G.conj(a, b) == G.inv(a)
    assert G.comm(a, b) == G.mul(G.inv(a), G.conj(a, b))


def test_pow_element():
    G = grp("C8")
    a = G.generators[0]
    assert pow_element(G, a, 0) == G.identity
    assert pow_element(G, a, 8) == G.identity
    assert pow_element(G, a, -1) == G.inv(a)
    assert pow_element(G, a, 3) == G.mul(G.mul(a, a), a)


@pytest.mark.parametrize(
    "name,zorder",
    [("D8", 2), ("Q8", 2), ("S3", 1), ("Heis27", 3), ("Mod27", 3), ("K4", 4)],
)
def test_centers(name, zorder):
    assert center(grp(name)).order == zorder


@pytest.mark.parametrize(
    "name,dorder",
    [("D8", 2), ("Q8", 2), ("S3", 3), ("A4", 4), ("Heis27", 3), ("Mod27", 3), ("C12", 1)],
)
def test_derived_subgroups(name, dorder):
    assert derived_subgroup(grp(name)).order == dorder


def test_derived_of_mod27_is_cube_of_a():
    G = grp("Mod27")
    a = G.generators[0]
    d = derived_subgroup(G)
    assert pow_element(G, a, 3) in d
    assert d.order == 3


def commutator_cases(name):
    """(A, B) pairs whose commutator subgroup the engine and the
    elementwise oracle must agree on: the derived subgroup of a base
    group, [L, right copy] and [L, D] in a doubled group, and the lower
    central terms of a nu group (with its derived subgroup when |nu|^2
    keeps the oracle fast)."""
    if name.startswith("X("):
        xb = build_xp(grp(name[2:-1]))
        return [(xb.L, xb.right_copy), (xb.L, xb.D)]
    if name.startswith("nu("):
        N = build_nu(grp(name[3:-1])).group
        w = whole_subgroup(N)
        cases = [(w, t) for t in lower_central_series(N)[1:]]
        if N.order <= 512:  # the oracle on nu(Q8)' takes 4096^2 commutators
            cases.insert(0, (w, w))
        return cases
    w = whole_subgroup(grp(name))
    return [(w, w)]


@pytest.mark.parametrize(
    "name",
    ["D8", "Q8", "S3", "A4", "Heis27", "Mod27", "X(D8)", "X(Q8)", "nu(C8)", "nu(Q8)"],
)
def test_commutator_subgroup_methods_agree(name):
    for A, B in commutator_cases(name):
        assert elementwise_commutator_subgroup(A, B) == commutator_subgroup(A, B)


# S4 is the case where conjugates of the seed must be conjugated again
@pytest.mark.parametrize("name", ["D8", "Q8", "Heis27", "S4"])
def test_normal_closure_matches_brute_force(name):
    G = grp(name)
    conj = ScalarGroup(G).conj
    for w in G.elements:
        conjugates = [conj(w, g) for g in G.elements]
        assert normal_closure(G, [w]) == subgroup_closure(G, conjugates)


def test_commutator_with_center_is_trivial():
    G = grp("D8")
    z = center(G)
    assert commutator_subgroup(whole_subgroup(G), z).order == 1


def test_commutator_of_cyclic_parts_of_d8():
    G = grp("D8")
    a, b = G.generators
    A = subgroup_closure(G, [a])
    B = subgroup_closure(G, [b])
    c = commutator_subgroup(A, B)
    assert c.order == 2
    assert pow_element(G, a, 2) in c


@pytest.mark.parametrize(
    "name,classnum",
    [("D8", 2), ("Q8", 2), ("Heis27", 2), ("Mod27", 2), ("K4", 1), ("S3", None), ("A4", None)],
)
def test_nilpotency_class(name, classnum):
    assert nilpotency_class(grp(name)) == classnum


def test_lower_central_series_orders():
    assert [s.order for s in lower_central_series(grp("D8"))] == [8, 2, 1]
    assert [s.order for s in lower_central_series(grp("S3"))] == [6, 3]


def test_derived_series_and_solubility():
    assert [s.order for s in derived_series(grp("A4"))] == [12, 4, 1]
    assert is_soluble(grp("A4"))
    assert is_soluble(grp("Q8"))


def test_subgroup_closure_in_d8():
    G = grp("D8")
    a, b = G.generators
    assert subgroup_closure(G, [a]).order == 4
    assert subgroup_closure(G, [pow_element(G, a, 2), b]).order == 4
    assert subgroup_closure(G, [a, b]).order == 8
    assert trivial_subgroup(G).order == 1
    assert whole_subgroup(G).order == 8


def test_normal_closure():
    G = grp("S3")
    a, b = G.generators
    assert subgroup_closure(G, [b]).order == 2
    assert normal_closure(G, [b]).order == 6
    assert normal_closure(G, [a]).order == 3
    D = grp("D8")
    assert normal_closure(D, [D.generators[1]]).order == 4


def test_intersection():
    G = grp("D8")
    a, b = G.generators
    A = subgroup_closure(G, [a])
    B = subgroup_closure(G, [pow_element(G, a, 2), b])
    meet = intersection(A, B)
    assert meet.order == 2
    assert pow_element(G, a, 2) in meet


def test_subgroup_normality():
    G = grp("D8")
    a, b = G.generators
    assert subgroup_closure(G, [a]).is_normal()
    assert not subgroup_closure(G, [b]).is_normal()
    assert center(G).is_normal()


def test_subgroup_as_group():
    G = grp("D8")
    a = G.generators[0]
    H = subgroup_closure(G, [a]).as_group(name="rot")
    assert H.order == 4
    assert H.is_abelian()
    assert H.element_order(a) == 4
    assert H.words == [(), (1,), (1, 1), (1, 1, 1)]


def test_quotient_of_d8_by_center():
    G = grp("D8")
    Q = quotient(G, center(G))
    assert Q.order == 4
    assert Q.is_abelian()
    assert exponent(Q) == 2
    assert Q.projection.kernel() == center(G)
    assert Q.projection.is_surjective()


def test_quotient_heis_by_center_is_three_by_three():
    G = grp("Heis27")
    Q = quotient(G, center(G))
    assert Q.order == 9
    assert Q.is_abelian()
    assert exponent(Q) == 3


def test_quotient_rejects_non_normal():
    G = grp("D8")
    with pytest.raises(ValueError, match="non-normal"):
        quotient(G, subgroup_closure(G, [G.generators[1]]))


def test_quotient_by_trivial_is_bijective():
    G = grp("Q8")
    Q = quotient(G, trivial_subgroup(G))
    assert Q.order == 8
    assert Q.projection.is_injective()


@pytest.mark.parametrize(
    "name,exp", [("K4", 2), ("D8", 4), ("Q8", 4), ("Heis27", 3), ("Mod27", 9), ("C12", 12)]
)
def test_exponent(name, exp):
    assert exponent(grp(name)) == exp


def test_power_subgroup():
    G = grp("C8")
    assert power_subgroup(G, 2).order == 4
    assert power_subgroup(G, 4).order == 2
    H = grp("Heis27")
    assert power_subgroup(H, 3).order == 1


def test_p_group_data():
    assert p_group_data(grp("D8")) == (2, 3)
    assert p_group_data(grp("Heis27")) == (3, 3)
    with pytest.raises(ValueError, match="prime power"):
        p_group_data(grp("C12"))


@pytest.mark.parametrize(
    "name,d",
    [("C8", 1), ("K4", 2), ("D8", 2), ("Q8", 2), ("Heis27", 2), ("Mod27", 2)],
)
def test_minimal_generator_count(name, d):
    assert minimal_generator_count(grp(name)) == d


@pytest.mark.parametrize(
    "name,flag",
    [
        ("C8", True),
        ("C9", True),
        ("K4", True),
        ("D8", False),
        ("Q8", False),
        ("Heis27", False),
        ("Mod27", True),
    ],
)
def test_is_powerful(name, flag):
    assert is_powerful(grp(name)) is flag


def test_direct_product_basics():
    G = TupleGroup([grp("C4"), grp("S3")])
    assert G.order == 24
    assert len(G.generators) == 3
    assert not G.is_abelian()
    assert center(G).order == 4
    x = G.embed(0, grp("C4").generators[0])
    y = G.embed(1, grp("S3").generators[0])
    assert G.coords(G.mul(x, y)) == (grp("C4").generators[0], grp("S3").generators[0])


def test_tuple_codec_round_trips_and_multiplies_by_coordinates():
    C4, S3 = grp("C4"), grp("S3")
    G = TupleGroup([C4, S3])
    assert G.shape == (4, 6)
    # the last factor varies fastest, as in itertools.product
    every = list(itertools.product(range(4), range(6)))
    assert [G.pack(c) for c in every] == list(G.elements)
    assert all(G.coords(G.pack(c)) == c for c in every)
    assert all(G.pack(G.coords(x)) == x for x in G.elements)
    assert all(G.embed(0, a) == G.pack((a, 0)) for a in C4.elements)
    assert all(G.embed(1, b) == G.pack((0, b)) for b in S3.elements)
    for x, y in itertools.product(G.elements, repeat=2):
        (a, b), (c, d) = G.coords(x), G.coords(y)
        assert G.coords(G.mul(x, y)) == (C4.mul(a, c), S3.mul(b, d))


def test_hom_d8_onto_c2():
    G, C2 = grp("D8"), grp("C2")
    f = Homomorphism(G, C2, [C2.identity, C2.generators[0]])
    assert f.is_surjective()
    ker = f.kernel()
    assert ker.order == 4
    assert G.generators[0] in ker


def test_hom_rejects_relator_violation():
    G, C4 = grp("D8"), grp("C4")
    g = C4.generators[0]
    with pytest.raises(HomomorphismError, match="relator"):
        Homomorphism(G, C4, [g, g])


def test_hom_rejects_wrong_arity_and_foreign_images():
    G, C2 = grp("D8"), grp("C2")
    with pytest.raises(HomomorphismError, match="images"):
        Homomorphism(G, C2, [C2.identity])
    with pytest.raises(HomomorphismError, match="outside"):
        Homomorphism(G, C2, ["nope", C2.identity])


@pytest.mark.parametrize("bad", [-1, 2])
def test_hom_rejects_images_that_are_not_codomain_indices(bad):
    # -1 would index the image arrays from the end and wrap silently; a
    # non-integer image ("nope") is the test above
    G, C2 = grp("D8"), grp("C2")
    assert C2.order == 2
    with pytest.raises(HomomorphismError, match="outside"):
        Homomorphism(G, C2, [C2.identity, bad])


def test_hom_product_law_check_without_presentation():
    # tuple groups carry no presentation, so the product law does the work
    A = TupleGroup([grp("C8"), grp("C4")])
    C8 = grp("C8")
    g = C8.generators[0]
    with pytest.raises(HomomorphismError, match="product law"):
        Homomorphism(A, C8, [g, g])
    ok = Homomorphism(A, C8, [g, pow_element(C8, g, 2)])
    assert ok.is_surjective()


def test_hom_sampled_check_catches_bad_map_on_large_domain():
    A = TupleGroup([grp("C8"), grp("C8"), grp("C2")])
    assert A.order == 128
    C8 = grp("C8")
    g = C8.generators[0]
    with pytest.raises(HomomorphismError, match="product law"):
        Homomorphism(A, C8, [g, g, g])


def test_hom_composition_via_application():
    G = grp("Mod27")
    Q = quotient(G, derived_subgroup(G))
    proj = Q.projection
    assert Q.order == 9
    for x in G.elements:
        for y in G.generators:
            assert proj(G.mul(x, y)) == Q.mul(proj(x), proj(y))


def test_subgroup_equality_and_ordering():
    G = grp("D8")
    a = G.generators[0]
    A1 = subgroup_closure(G, [a])
    A2 = subgroup_closure(G, [G.inv(a)])
    assert A1 == A2
    assert trivial_subgroup(G) <= A1 <= whole_subgroup(G)
    assert isinstance(A1, Subgroup)


def test_quotient_is_group_type():
    G = grp("D8")
    assert isinstance(quotient(G, center(G)), QuotientGroup)


# ------------------------------------------------------------ index arrays


@functools.lru_cache(maxsize=None)
def xp_bundle(name):
    return build_xp(grp(name))


@functools.lru_cache(maxsize=None)
def one_group_of_each_kind(kind):
    if kind == "perm":
        return grp("D8")
    if kind == "tuple":
        return TupleGroup([grp("C4"), grp("C2")])
    if kind == "subgroup":
        return xp_bundle("D8").alpha.kernel().as_group()  # L, order 32
    M = grp("Mod27")
    return quotient(M, derived_subgroup(M))


@pytest.mark.parametrize("kind", ["perm", "tuple", "subgroup", "quotient"])
def test_right_action_matches_mul(kind):
    G = one_group_of_each_kind(kind)
    S = ScalarGroup(G)
    assert G.order > 4
    for g in G.elements:
        want = [S.mul(x, g) for x in G.elements]
        assert G.right_action(g).tolist() == want


@pytest.mark.parametrize("kind", ["perm", "tuple", "subgroup", "quotient"])
def test_index_arithmetic_matches_mul_and_inv(kind):
    # the array forms against the scalar loops, on every pair; the
    # scalar mul and inv are one-element views of the array forms
    G = one_group_of_each_kind(kind)
    S = ScalarGroup(G)
    n = G.order
    A, B = (a.ravel() for a in np.indices((n, n)))
    want = [S.mul(a, b) for a, b in zip(A.tolist(), B.tolist())]
    assert G._products(A, B).tolist() == want
    every = np.arange(n)
    assert G._inverses(every).tolist() == [S.inv(x) for x in G.elements]
    assert [G.mul(a, b) for a, b in zip(A.tolist()[::7], B.tolist()[::7])] == want[::7]
    assert [G.inv(x) for x in G.elements] == [S.inv(x) for x in G.elements]


def _members(S):
    return {x for x in S.parent.elements if x in S}


def _closure_by_mul(G, seeds):
    """The subgroup generated by `seeds`, multiplied out on scalar mul
    until no product is new."""
    have = {G.identity, *seeds}
    while True:
        grown = have | {G.mul(a, b) for a in have for b in have}
        if grown == have:
            return have
        have = grown


def _greedy(G, candidates):
    """Each candidate in turn that the earlier picks do not generate."""
    picks = []
    for x in candidates:
        if x not in _closure_by_mul(G, picks):
            picks.append(x)
    return picks


@pytest.mark.parametrize("kind", ["perm", "tuple", "subgroup", "quotient"])
def test_subgroup_masks_match_scalar_definitions(kind):
    # each subgroup: (it, its elements by scalar mul, the candidates its
    # generators are greedily drawn from, None where they are not)
    G = one_group_of_each_kind(kind)
    oracle = ScalarGroup(G)
    every = list(G.elements)
    brute_center = {x for x in every if all(oracle.mul(x, y) == oracle.mul(y, x) for y in every)}
    subs = {"center": (center(G), brute_center, sorted(brute_center))}
    for k in (2, 3):
        pows = sorted({pow_element(oracle, x, k) for x in every})
        subs[f"power {k}"] = (power_subgroup(G, k), _closure_by_mul(oracle, pows), pows)
    seeds = [x for x in every if x % 5 == 3][:2]
    C = subgroup_closure(G, seeds)
    subs["closure"] = (C, _closure_by_mul(oracle, seeds), seeds)
    N = normal_closure(G, [G.generators[0]])
    meet = _closure_by_mul(oracle, seeds) & _members(N)
    subs["intersection"] = (intersection(C, N), meet, sorted(meet))
    # G -> Q x Q, x -> (xN, xN): kernel N, image the diagonal
    Q = quotient(G, N)
    P = TupleGroup([Q, Q])
    f = Homomorphism(G, P, [P.pack((Q.projection(g),) * 2) for g in G.generators])
    images = _word_images(f)
    ker = {x for x in every if images[x] == 0}
    subs["kernel"] = (f.kernel(), ker, sorted(ker))
    subs["image"] = (f.image(), set(images), None)
    assert f.image().order == Q.order < P.order
    for what, (S, want, candidates) in subs.items():
        assert _members(S) == want, what
        assert S.order == len(want), what
        assert subgroup_closure(S.parent, S.gens) == S, what
        if candidates is not None:
            assert list(S.gens) == _greedy(oracle, candidates), what


def test_subgroups_of_different_parents_do_not_compare():
    D8, Q8 = grp("D8"), grp("Q8")
    with pytest.raises(ValueError, match="different parents"):
        subgroup_closure(D8, [D8.generators[0]]) <= whole_subgroup(Q8)
    assert subgroup_closure(D8, [D8.generators[0]]) != whole_subgroup(Q8)


@pytest.mark.parametrize("kind", ["perm", "tuple", "subgroup", "quotient"])
def test_words_and_generator_columns_on_every_kind(kind):
    G = one_group_of_each_kind(kind)
    assert G.identity == 0
    assert G.elements == range(G.order)
    for x in G.elements:
        assert eval_letters(G, G.word_of(x)) == x
    for col, g in zip(G.gen_cols, G.generators):
        assert col.tolist() == G.right_action(g).tolist()


@pytest.mark.parametrize("name,normal", [("D8", center), ("Mod27", derived_subgroup)])
def test_quotient_elements_are_the_first_of_each_coset(name, normal):
    G = grp(name)
    N = normal(G)
    firsts = []
    covered = set()
    for x in G.elements:
        if x not in covered:
            firsts.append(x)
            covered.update(G.mul(x, m) for m in G.elements if m in N)
    assert quotient(G, N).reps.tolist() == firsts


def test_subgroup_codec_maps_indices_both_ways():
    L = xp_bundle("D8").alpha.kernel()
    H = L.as_group()
    G = L.parent
    assert np.array_equal(H.own[H.at], np.arange(H.order))
    assert H.at.tolist() == [x for x in G.elements if x in L]
    assert (H.own >= 0).sum() == H.order
    for x, y in itertools.product(range(0, H.order, 3), H.elements):
        assert H.at[H.mul(x, y)] == G.mul(int(H.at[x]), int(H.at[y]))


@pytest.mark.parametrize("law", ["inverse law", "associativity"])
def test_self_check_catches_a_broken_law(law, monkeypatch):
    products = PermGroup._products
    if law == "inverse law":

        def shifted(self, A):
            return (np.asarray(A) + 1) % self.order

        monkeypatch.setattr(PermGroup, "_inverses", shifted)
    else:
        # multiplying out of order on the left by element 1 (the first
        # generator, not central in D8) keeps the identity and every inverse
        def twisted(self, A, B):
            return np.where(np.asarray(A) == 1, products(self, B, A), products(self, A, B))

        monkeypatch.setattr(PermGroup, "_products", twisted)
    with pytest.raises(ValueError, match=law):
        group_from_presentation(parse_presentation(PRESENTATIONS["D8"]))


def _word_images(f):
    """The image of every domain element as the product of generator
    images along its canonical word, by scalar mul."""
    cod = ScalarGroup(f.codomain)
    words = ScalarGroup(f.domain).words
    return [functools.reduce(cod.mul, (f.images[k - 1] for k in w), cod.identity) for w in words]


@pytest.mark.parametrize("which", ["alpha", "beta", "rho", "tensor_iso"])
def test_images_follow_the_canonical_words(which):
    # beta and rho are checked coordinate by coordinate: (rho1, rho3) and
    # (rho1, alpha, rho3)
    if which == "tensor_iso":
        maps = [build_nu(grp("D8")).tensor_iso]
    else:
        xb = xp_bundle("Q8")
        maps = {"alpha": [xb.alpha], "beta": xb.rho[::2], "rho": xb.rho}[which]
    for f in maps:
        assert [f(x) for x in f.domain.elements] == _word_images(f)
        # the image, read off the image array, is what the generator images close to
        im = f.image()
        assert im == subgroup_closure(f.codomain, f.images)
        assert subgroup_closure(f.codomain, im.gens) == im


def _bad_and_good_maps(kind):
    """(domain, codomain, bad images, good images) on a domain of the given
    kind; none of these domains carries a presentation."""
    C8 = grp("C8")
    g = C8.generators[0]
    if kind == "tuple":
        A = TupleGroup([grp("C8"), grp("C8"), grp("C2")])
        B = TupleGroup([C8, C8])
        x, y = B.embed(0, g), B.embed(1, g)
        # the C2 generator must go to an element of order dividing 2
        return A, B, [x, y, B.mul(pow_element(B, x, 4), y)], [x, y, pow_element(B, B.mul(x, y), 4)]
    if kind == "subgroup":
        D8 = grp("D8")
        A = subgroup_closure(D8, [D8.generators[0]]).as_group()  # cyclic of order 4
        return A, C8, [g], [pow_element(C8, g, 2)]
    M = grp("Mod27")
    A = quotient(M, derived_subgroup(M))  # elementary abelian of order 9
    return A, C8, [g, C8.identity], [C8.identity, C8.identity]


@pytest.mark.parametrize("kind", ["tuple", "subgroup", "quotient"])
def test_product_law_is_proved_on_every_domain_kind(kind):
    A, B, bad, good = _bad_and_good_maps(kind)
    assert A.presentation is None
    if kind == "tuple":
        assert A.order == 128
    with pytest.raises(HomomorphismError, match="product law"):
        Homomorphism(A, B, bad)
    f = Homomorphism(A, B, good)
    assert [f(x) for x in A.elements] == _word_images(f)
    assert f.kernel().order * f.image().order == A.order


def test_hom_rejects_generators_that_miss_elements():
    # a subgroup object whose generators do not generate its element set
    G, C2 = grp("D8"), grp("C2")
    with pytest.raises(ValueError, match="only reach 4 of 8"):
        A = Subgroup(G, np.ones(G.order, dtype=bool), [G.generators[0]]).as_group()
        Homomorphism(A, C2, [C2.identity])


# ------------------------------------------------------------ incremental closures


def _closures(G):
    """Subgroup closures, normal closures and commutator subgroups of G,
    as (mask, gens) pairs; G's first generators and its last ones give
    the two sides of a commutator subgroup."""
    n, d = G.order, len(G.generators)
    spread = list(range(1, n, n // 7)) + [G.generators[-1], 0, G.generators[0]]
    left = subgroup_closure(G, G.generators[: d // 2])
    right = subgroup_closure(G, G.generators[d // 2 :])
    subs = [
        subgroup_closure(G, spread),
        subgroup_closure(G, spread[::-1]),
        normal_closure(G, [G.generators[0]]),
        normal_closure(G, spread[2:4]),
        commutator_subgroup(left, right),
        commutator_subgroup(G, G),
        commutator_subgroup(G, left),
    ]
    return [(s.mask, s.gens) for s in subs]


@pytest.mark.parametrize("name", ["X(Heis27)", "nu(Q8)"])
def test_closures_grow_as_from_scratch(name, monkeypatch, unique_bfs):
    # the mask grown from the subgroup it already holds, against the BFS
    # from the identity over every generator that _extend ran before
    G = xp_bundle("Heis27").group if name == "X(Heis27)" else build_nu(grp("Q8")).group

    def from_scratch(act, gens, mask, g):
        if mask[g]:
            return
        gens[int(g)] = act(g)
        for found, _, _ in unique_bfs(np.array(list(gens.values()))):
            mask[found] = True

    grown = _closures(G)
    monkeypatch.setattr(groups, "_extend", from_scratch)
    scratch = _closures(G)
    assert len({m.sum() for m, _ in grown}) > 2  # several distinct subgroups
    for (m1, g1), (m2, g2) in zip(grown, scratch):
        assert np.array_equal(m1, m2)
        assert g1 == g2


def _decoded_words(G):
    pad = 2 * len(G.gen_cols)
    return [tuple(s // 2 + 1 for s in col if s < pad) for col in G._steps.T.tolist()]


@pytest.mark.parametrize("name", ["C8", "D8", "Q8", "S4", "Heis27", "Mod27", "X(D8)", "nu(C2)"])
def test_permgroup_words_are_the_words_of_its_steps(name):
    # the steps come from standardize's levels, the words from a fresh
    # BFS by prefix sharing: both are the shortlex words
    if name.startswith("X("):
        G = xp_bundle(name[2:-1]).group
    elif name.startswith("nu("):
        G = build_nu(grp(name[3:-1])).group
    else:
        G = grp(name)
    assert isinstance(G, PermGroup)
    assert G.words == _decoded_words(G)
    assert G.table.words == G.words


# every catalog base, one doubled group and one pairing group: the batch
# operations against the scalar loops they replaced (tests/scalar_oracle.py)
ORACLE_SUBJECTS = [e.name for e in builtin_catalog()] + ["X(C3xC3)", "nu(C3)"]


def oracle_subject(name):
    if name.startswith("X("):
        return harness.xp_of(catalog_entry(name[2:-1])).group
    if name.startswith("nu("):
        return harness.nu_of(catalog_entry(name[3:-1])).group
    return harness.base_group(catalog_entry(name))


def trivial_group():
    return group_from_presentation(parse_presentation("gens a\nrels a"))


@pytest.mark.parametrize("name", ORACLE_SUBJECTS)
def test_element_orders_and_exponent_match_the_scalar_loops(name):
    G = oracle_subject(name)
    S = ScalarGroup(G)
    orders = [S.element_order(x) for x in G.elements]
    assert G._element_orders(G.elements).tolist() == orders
    assert exponent(G) == S.exponent()
    assert G.is_abelian() == S.is_abelian()
    x = G.order - 1
    assert G.element_order(x) == orders[x]


# on these two, conjugating by one conjugator at a time instead of one
# generator at a time draws other generators
@pytest.mark.parametrize("name", ORACLE_SUBJECTS + ["X(C2xC4)", "nu(D8)"])
def test_closures_draw_the_generators_of_the_scalar_loops(name):
    # the batched conjugation and commutator candidates reach the greedy
    # generating set in the order of the one-at-a-time loops
    G = oracle_subject(name)
    S = ScalarGroup(G)
    W, D = whole_subgroup(G), derived_subgroup(G)
    cyclic = subgroup_closure(G, [G.generators[0]])
    spread = [x for x in G.elements if x % 7 == 3][:3]
    pair = [x for x in G.elements if x % 5 == 2][:2]
    for A, B in [(W, W), (W, D), (cyclic, W), (D, cyclic), (trivial_subgroup(G), W)]:
        got, want = commutator_subgroup(A, B), S.commutator_subgroup(A, B)
        assert got.gens == want.gens and got == want
    for seeds in ([G.generators[-1]], spread, pair, []):
        got, want = normal_closure(G, seeds), S.normal_closure(seeds)
        assert got.gens == want.gens and got == want
    for sub in (W, D, cyclic, subgroup_closure(G, spread), trivial_subgroup(G)):
        assert sub.is_normal() == S.is_normal(sub)


def test_is_normal_on_a_normal_and_a_non_normal_subgroup():
    G = grp("D8")
    S = ScalarGroup(G)
    a, b = G.generators
    for sub, normal in ((subgroup_closure(G, [a]), True), (subgroup_closure(G, [b]), False)):
        assert sub.is_normal() is normal
        assert S.is_normal(sub) is normal


def test_no_conjugators_leave_the_generated_subgroup():
    G = grp("S4")
    S = ScalarGroup(G)
    seeds = [G.generators[0]]
    gens, mask = groups._generate(G.right_action, G.order, seeds)
    groups._close_under_conjugation(G, gens, mask, [])
    want = S.closed_under_conjugation(seeds, [])
    assert tuple(gens) == want.gens and np.array_equal(mask, want.mask)
    assert want == subgroup_closure(G, seeds) != normal_closure(G, seeds)


@pytest.mark.parametrize("G", [trivial_group(), TupleGroup([])], ids=["one-generator", "no-generator"])
def test_batch_operations_on_the_trivial_group(G):
    assert G.order == 1
    assert G._element_orders(G.elements).tolist() == [1]
    assert exponent(G) == 1 and G.is_abelian()
    assert (G.mul(0, 0), G.inv(0), G.comm(0, 0), G.conj(0, 0), G.element_order(0)) == (0, 0, 0, 0, 1)
    assert G.word_of(0) == () and G.words == [()]
    assert abelian_invariants(G) == []
    W, E = whole_subgroup(G), trivial_subgroup(G)
    assert commutator_subgroup(W, E).gens == commutator_subgroup(E, E).gens == ()
    assert normal_closure(G, []).gens == normal_closure(G, [0]).gens == ()
    assert E.is_normal() and W.is_normal()


# ------------------------------------------------------------ the per-group memo

MEMO_SUBJECTS = [e.name for e in builtin_catalog()] + ["X(Q8)", "nu(Q8)"]
# nu(Q8) has order 4096: its multiplication table would take 64 MB
TABLE_SUBJECTS = MEMO_SUBJECTS[:-1]


def _fresh_whole(G):
    gens = groups._generate(G.right_action, G.order, G.generators)[0]
    return Subgroup(G, np.ones(G.order, dtype=bool), gens)


@pytest.mark.parametrize("name", MEMO_SUBJECTS)
def test_memoized_subgroups_are_shared_read_only_and_fresh(name):
    # each against a computation that never reads the memo: the commutator
    # subgroup of freshly built whole subgroups, and the centre's test of
    # every element against the generator columns, one generator at a time
    G = oracle_subject(name)
    n = G.order
    left = np.array([G._products(np.full(n, g), np.arange(n)) for g in G.generators])
    fresh = {
        whole_subgroup: _fresh_whole(G),
        derived_subgroup: commutator_subgroup(_fresh_whole(G), _fresh_whole(G)),
        center: groups._masked(G, (G.gen_cols == left.reshape(-1, n)).all(axis=0)),
    }
    for fact, want in fresh.items():
        got = fact(G)
        assert got.gens == want.gens and got == want, fact.__name__
        assert fact(G) is got, fact.__name__
        with pytest.raises(ValueError):
            got.mask[0] = False
    series = lower_central_series(G)
    assert series[0] is whole_subgroup(G)
    assert len(series) == 1 or series[1] is derived_subgroup(G)


@pytest.mark.parametrize("name", TABLE_SUBJECTS)
def test_memoized_tables_are_shared_read_only_and_fresh(name):
    G = oracle_subject(name)
    every = np.arange(G.order)
    fresh = np.stack([G.right_action(y) for y in G.elements], axis=1)
    table = G.multiplication_table()
    assert np.array_equal(table, fresh) and G.multiplication_table() is table
    mul, conj = _conjugation_tables(G)
    x, y = (a.ravel() for a in np.meshgrid(every, every, indexing="ij"))
    assert mul is table and np.array_equal(conj.ravel(), G._conjugates(x, y))
    assert _conjugation_tables(G)[1] is conj
    for memoized in (table, conj):
        with pytest.raises(ValueError):
            memoized[0, 0] = 0
