"""Tests for the doubled construction: orders, kernels, invariants.

Expected orders follow from the order law |X| = |im(rho)| * |W| together
with |im(rho)| = |P|^3 / |P^ab|, |W| = |H2| * |R|, and R = 1 for
2-generated bases; the engine reproduced every one of them before they
were frozen here.  E8 (rank-three elementary abelian) is the deliberate
non-2-generated case with R of order 2.
"""

import functools

import numpy as np
import pytest

from xpforge import harness, weakcomm
from xpforge.catalog import builtin_catalog, catalog_entry
from xpforge.coset import CosetTable, EnumerationError, EnumerationLimits, enumerate_cosets
from xpforge.groups import (
    Homomorphism,
    TupleGroup,
    commutator_subgroup,
    derived_subgroup,
    group_from_fold,
    group_from_presentation,
    intersection,
    normal_closure,
    subgroup_closure,
)
from xpforge.homology import schur_multiplier_bar
from xpforge.tensor import (
    NU_SIZE_GATE,
    build_nu,
    build_tensor_square,
    nu_presentation,
    predicted_nu_order,
)
from xpforge.weakcomm import (
    build_xp,
    fold_difference_generators,
    induced_xp_map,
    mirror_names,
    mirror_word,
    swap_pairing_holds,
    symmetrized_generators,
    xp_presentation,
    z_set,
)
from xpforge.words import Word, parse_presentation

from scalar_oracle import ScalarGroup, scalar_z_set

PRESENTATIONS = {
    "C2": "gens a\nrels a^2",
    "C4": "gens a\nrels a^4",
    "C8": "gens a\nrels a^8",
    "K4": "gens a, b\nrels a^2, b^2, [a,b]",
    "D8": "gens a, b\nrels a^4, b^2, b^-1*a*b*a",
    "Q8": "gens a, b\nrels a^4, a^2*b^-2, b^-1*a*b*a",
    "C3xC3": "gens a, b\nrels a^3, b^3, [a,b]",
    "E8": "gens a, b, c\nrels a^2, b^2, c^2, [a,b], [a,c], [b,c]",
}


@functools.lru_cache(maxsize=None)
def base(name):
    return group_from_presentation(parse_presentation(PRESENTATIONS[name]), name=name)


@functools.lru_cache(maxsize=None)
def bundle(name):
    return build_xp(base(name))


EXPECTED = {
    # name: (|X|, |L|, |D|, |W|, |R|)
    "C2": (4, 2, 1, 1, 1),
    "C4": (16, 4, 1, 1, 1),
    "K4": (32, 8, 2, 2, 1),
    "D8": (256, 32, 4, 2, 1),
    "Q8": (128, 16, 2, 1, 1),
    "C3xC3": (243, 27, 3, 3, 1),
    "E8": (1024, 128, 16, 16, 2),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_orders(name):
    b = bundle(name)
    assert (
        b.group.order,
        b.L.order,
        b.D.order,
        b.W.order,
        b.R.order,
    ) == EXPECTED[name]


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_order_law(name):
    b = bundle(name)
    im_order = np.count_nonzero(b.im_rho)
    assert b.group.order == im_order * b.W.order
    ab = base(name).order // derived_subgroup(base(name)).order
    assert im_order == base(name).order ** 3 // ab


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_h2_against_bar_resolution(name):
    b = bundle(name)
    assert b.h2_invariants() == schur_multiplier_bar(base(name))


def test_presentation_shape():
    p = xp_presentation(base("C4"))
    assert p.generators == ["a", "ap"]
    # one base relator, its mirror, one pairing relator per nontrivial element
    assert len(p.relators) == 1 + 1 + 3
    assert p.relators[1] == Word((2, 2, 2, 2))


def test_mirror_word_and_names():
    w = Word((1, -2, 1))
    assert mirror_word(w, 3) == Word((4, -5, 4))
    assert mirror_names(["a", "b"]) == ["ap", "bp"]
    assert mirror_names(["a", "ap"]) == ["app", "appp"]


def test_mirrored_names_survive_roundtrip():
    p = xp_presentation(base("K4"))
    reparsed = parse_presentation(p.to_text())
    assert reparsed == p


def test_embeddings_and_fold():
    b = bundle("D8")
    G = base("D8")
    assert b.embed_left.is_injective()
    assert b.embed_right.is_injective()
    rho1, _, rho3 = b.rho
    for g in G.elements:
        assert b.alpha(b.embed_left(g)) == g
        assert b.alpha(b.embed_right(g)) == g
        assert (rho1(b.embed_left(g)), rho3(b.embed_left(g))) == (g, G.identity)
        assert (rho1(b.embed_right(g)), rho3(b.embed_right(g))) == (G.identity, g)
        assert tuple(f(b.embed_left(g)) for f in b.rho) == (g, g, G.identity)
        assert tuple(f(b.embed_right(g)) for f in b.rho) == (G.identity, g, g)


def test_alpha_beta_surjectivity():
    b = bundle("Q8")
    n = b.base.order
    rho1, _, rho3 = b.rho
    assert b.alpha.is_surjective()
    beta_image = np.zeros(n * n, dtype=bool)
    beta_image[rho1._image * n + rho3._image] = True
    assert beta_image.all()
    assert not b.im_rho.all()


@pytest.mark.parametrize("name", ["K4", "D8", "Q8", "E8"])
def test_structural_invariants(name):
    b = bundle(name)
    assert b.W == intersection(b.L, b.D)
    assert b.W.is_abelian()
    assert b.R <= b.W
    assert b.R.is_normal()
    assert b.L.is_normal() and b.D.is_normal() and b.W.is_normal()
    assert commutator_subgroup(b.L, b.D).order == 1


@pytest.mark.parametrize("name", ["C4", "K4", "D8", "Q8", "E8"])
def test_swap_pairing(name):
    assert swap_pairing_holds(bundle(name))


@pytest.mark.parametrize("name", ["K4", "D8", "E8"])
def test_fold_differences_generate_l(name):
    b = bundle(name)
    assert subgroup_closure(b.group, fold_difference_generators(b)) == b.L


@pytest.mark.parametrize("name,gens_order", [("K4", 4), ("D8", 8), ("E8", 8)])
def test_generator_scope_differences_fall_short(name, gens_order):
    b = bundle(name)
    part = subgroup_closure(b.group, fold_difference_generators(b, scope="gens"))
    assert part <= b.L
    assert part.order == gens_order
    assert part.order < b.L.order


def test_fold_difference_scope_validation():
    with pytest.raises(ValueError, match="scope"):
        fold_difference_generators(bundle("K4"), scope="some")


@pytest.mark.parametrize("name", ["K4", "D8", "Q8", "C3xC3"])
def test_z_set_trivial_for_two_generated(name):
    b = bundle(name)
    zs = z_set(b)
    assert all(z == b.group.identity for z in zs)
    assert b.R.order == 1


def test_z_set_closure_recovers_r_in_rank_three():
    b = bundle("E8")
    zs = z_set(b)
    assert any(z != b.group.identity for z in zs)
    assert normal_closure(b.group, zs) == b.R
    assert b.R.order == 2


@pytest.mark.parametrize("name", ["C2", "D8", "Q8", "C3xC3", "E8", "Heis27"])
def test_z_set_is_the_list_of_the_scalar_loops(name):
    # the batched brackets keep the loop order x1, y, x2 (x2 innermost),
    # for the default set and for one with a spare element
    b = harness.xp_of(catalog_entry(name)) if name == "Heis27" else bundle(name)
    base = b.base
    sym = symmetrized_generators(base)
    assert z_set(b) == scalar_z_set(b, sym)
    spare = next((g for g in base.elements if g != base.identity and g not in sym), None)
    if spare is not None:
        wider = symmetrized_generators(base, extra=[spare])
        assert z_set(b, wider) == scalar_z_set(b, wider)
    if len(sym) > 1 and ScalarGroup(base).inv(sym[0]) != sym[0]:
        with pytest.raises(ValueError, match="not symmetric"):
            z_set(b, sym[:1])


def test_generator_only_pairing_can_present_an_infinite_group():
    # dropping the non-generator pairing relators is not harmless: for K4
    # the enumeration no longer closes at any reasonable size
    p = xp_presentation(base("K4"), elements="gens")
    assert len(p.relators) == 3 + 3 + 2
    with pytest.raises(EnumerationError):
        group_from_presentation(p, limits=EnumerationLimits(max_cosets=20_000))


def test_generator_only_pairing_suffices_for_cyclic():
    G = group_from_presentation(xp_presentation(base("C4"), "gens"))
    assert G.order == 16
    assert G.order == bundle("C4").group.order


# bases beyond the catalog on which the short commutation family is held
# to the full one; each full X enumerates in a fraction of a second
SHORT_FAMILY_BASES = {
    "E8": PRESENTATIONS["E8"],  # words of <= 2 letters alone do not close here
    "C2xC2xC4": "gens a, b, c\nrels a^2, b^2, c^4, [a,b], [a,c], [b,c]",
    "A4": "gens a, b\nrels a^2, b^3, (a*b)^3",
    "D16": "gens a, b\nrels a^8, b^2, (a*b)^2",
    "Q16": "gens a, b\nrels a^8, a^4*b^-2, b^-1*a*b*a",
    "C4xC4": "gens a, b\nrels a^4, b^4, [a,b]",
    "C3xC9": "gens a, b\nrels a^3, b^9, [a,b]",
    "D10": "gens a, b\nrels a^5, b^2, (a*b)^2",
}


def _short_family_cases():
    small = [e for e in builtin_catalog() if e.expected_order <= 9]
    return [pytest.param(e.presentation(), id=e.name) for e in small] + [
        pytest.param(parse_presentation(text), id=name) for name, text in SHORT_FAMILY_BASES.items()
    ]


@pytest.mark.parametrize("pres", _short_family_cases())
def test_short_family_presents_the_same_group(pres):
    G = group_from_presentation(pres)
    # every short table here defines under 14 000 cosets; the cap makes a
    # family that does not close (E8 on words of <= 2 letters) fail fast
    short = enumerate_cosets(xp_presentation(G, "short"), limits=EnumerationLimits(max_cosets=50_000))
    full = enumerate_cosets(xp_presentation(G))
    assert np.array_equal(short.gen_cols, full.gen_cols)


def test_build_enumerates_the_short_family():
    assert bundle("D8").group.presentation == xp_presentation(base("D8"), "short")
    assert bundle("D8").group.presentation != xp_presentation(base("D8"))


@pytest.mark.parametrize("entry", builtin_catalog(), ids=lambda e: e.name)
def test_commutation_certificate_agrees_with_the_word_family(entry):
    # the certificate, one batch of commutators of the two embeddings'
    # images, holds together with the full word family; moving one
    # right-copy image to an element that does not commute with its left
    # partner fails it at exactly that element.  X of a cyclic base is
    # abelian, so there every image commutes and nothing can be moved.
    G = harness.base_group(entry)
    b = harness.xp_of(entry)
    X = b.group
    left, right = b.embed_left._image, b.embed_right._image
    assert not X._commutators(left, right).any()
    assert X.table.relators_hold(xp_presentation(G).relators)
    if X.is_abelian():
        assert len(G.generators) == 1
        return
    comm = ScalarGroup(X).comm
    g, y = next((g, y) for g in G.elements for y in X.elements if comm(left[g], y) != X.identity)
    moved = right.copy()
    moved[g] = y
    assert np.flatnonzero(X._commutators(left, moved)).tolist() == [g]


def test_build_rejects_moved_right_copy_images(monkeypatch):
    # the enumerated X(K4) with its two right-copy generator images
    # swapped: still an embedding of K4, but a no longer commutes with
    # its right-copy image, and the build's certificate names it
    real = weakcomm.group_from_fold

    def swapping(*args, **kwargs):
        X = real(*args, **kwargs)
        X.generators[2], X.generators[3] = X.generators[3], X.generators[2]
        return X

    monkeypatch.setattr(weakcomm, "group_from_fold", swapping)
    with pytest.raises(RuntimeError, match="full family at the element a$"):
        build_xp(base("K4"))


def test_build_reads_no_word_family(monkeypatch):
    def refuse(self, relator_words):
        raise AssertionError("a build traced a word family")

    monkeypatch.setattr(CosetTable, "relators_hold", refuse)
    for name in ("D8", "E8"):
        assert build_xp(base(name)).group.order == EXPECTED[name][0]


def _fold_cases():
    return [pytest.param(e.presentation(), id=e.name) for e in builtin_catalog()] + [
        pytest.param(parse_presentation(text), id=name) for name, text in SHORT_FAMILY_BASES.items()
    ]


@pytest.mark.parametrize("pres", _fold_cases())
def test_fold_gives_the_regular_representation(pres):
    # X, and nu where the default gate admits it, built from the cosets of
    # the left copy equal the enumeration over the trivial subgroup, element
    # for element
    G = group_from_presentation(pres)
    family = [xp_presentation(G, "short")]
    if predicted_nu_order(G, build_tensor_square(G)) <= NU_SIZE_GATE:
        family.append(nu_presentation(G))
    for two_copies in family:
        folded = group_from_fold(two_copies, G)
        regular = group_from_presentation(two_copies)
        assert np.array_equal(folded.gen_cols, regular.gen_cols)
        assert folded.words == regular.words


def test_fold_rejects_a_relator_that_does_not_fold():
    # a*ap folds to a^2 in C4: the assembled table fails the relator check
    C4 = base("C4")
    pres = parse_presentation("gens a, ap\nrels a^4, ap^4, [a, ap], a*ap")
    assert group_from_presentation(pres).order == 4
    with pytest.raises(RuntimeError, match="relator does not close"):
        group_from_fold(pres, C4)


def test_fold_needs_the_base_relators_on_the_left_copy():
    # without a^4 the left copy is infinite cyclic: its 4 cosets and C4
    # would give 16 points for an infinite group
    pres = parse_presentation("gens a, ap\nrels ap^4, [a, ap]")
    with pytest.raises(ValueError, match="two copies of the base"):
        group_from_fold(pres, base("C4"))


def test_fold_holds_the_assembled_table_to_the_limits():
    # nu(C2) has 8 elements but only 4 cosets of its left copy: the cap
    # must hold the 8 assembled rows as well
    pres = nu_presentation(base("C2"))
    assert group_from_fold(pres, base("C2"), EnumerationLimits(max_cosets=8)).order == 8
    with pytest.raises(EnumerationError, match="coset limit exceeded: 8 cosets"):
        group_from_fold(pres, base("C2"), EnumerationLimits(max_cosets=7))


def test_short_family_words():
    # Heis27: its ten canonical words of 1 and 2 letters, then abc
    G = group_from_presentation(catalog_entry("Heis27").presentation())
    p = xp_presentation(G, "short")
    assert len(p.relators) == 6 + 6 + 11
    # [w, mirror(w)] = w^-1 mirror(w)^-1 w mirror(w): w is its third quarter
    sources = [r.letters[len(r) // 2 : 3 * len(r) // 4] for r in p.relators[12:]]
    assert sources == [(1,), (2,), (3,), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 3), (1, 2, 3)]


def test_induced_map_surjective():
    C8, C4 = base("C8"), base("C4")
    from xpforge.groups import Homomorphism

    proj = Homomorphism(C8, C4, [C4.generators[0]])
    b8 = build_xp(C8)
    b4 = bundle("C4")
    ind = induced_xp_map(proj, b8, b4)
    assert ind.is_surjective()
    assert ind.kernel().order == b8.group.order // b4.group.order
    for g in C8.elements:
        assert ind(b8.embed_left(g)) == b4.embed_left(proj(g))
        assert ind(b8.embed_right(g)) == b4.embed_right(proj(g))


def test_induced_map_of_identity_is_bijective():
    G = base("K4")
    from xpforge.groups import Homomorphism

    ident = Homomorphism(G, G, list(G.generators))
    b = bundle("K4")
    ind = induced_xp_map(ident, b, b)
    assert ind.is_injective() and ind.is_surjective()


def test_induced_map_rejects_mismatched_bundles():
    from xpforge.groups import Homomorphism

    C8, C4 = base("C8"), base("C4")
    proj = Homomorphism(C8, C4, [C4.generators[0]])
    with pytest.raises(ValueError, match="endpoints"):
        induced_xp_map(proj, bundle("C4"), bundle("C4"))


def test_build_requires_presentation():
    G = TupleGroup([base("C2"), base("C2")])
    with pytest.raises(ValueError, match="presentation"):
        build_xp(G)
    with pytest.raises(ValueError, match="elements mode"):
        xp_presentation(base("C2"), elements="some")


def test_orders_report():
    o = bundle("K4").orders()
    assert o == {
        "base": 4,
        "group": 32,
        "L": 8,
        "D": 2,
        "W": 2,
        "R": 1,
        "im_rho": 16,
    }


# ------------------------------------------- maps into products, by coordinates

PRODUCT_MAP_BASES = {e.name: e.presentation() for e in builtin_catalog()} | {
    "C1": parse_presentation("gens a\nrels a"),
    "C2 on two generators": parse_presentation("gens a, b\nrels a, b^2"),
}


def _product_maps(G, X):
    """beta: X -> G x G and rho: X -> G x G x G as homomorphisms into
    direct products, the left copy to (g, 1) and (g, g, 1), the mirror
    copy to (1, g) and (1, g, g)."""
    square, cube = TupleGroup([G, G]), TupleGroup([G, G, G])
    e = G.identity
    left = [square.pack((g, e)) for g in G.generators]
    right = [square.pack((e, g)) for g in G.generators]
    beta = Homomorphism(X, square, left + right)
    left = [cube.pack((g, g, e)) for g in G.generators]
    right = [cube.pack((e, g, g)) for g in G.generators]
    return beta, Homomorphism(X, cube, left + right)


@pytest.mark.parametrize("name", PRODUCT_MAP_BASES)
def test_coordinate_maps_agree_with_maps_into_products(name, monkeypatch):
    # D, W and im rho of X, and the tensor subgroup of nu, read off the
    # coordinate maps into G equal the kernels and image of the maps into
    # the direct products, in mask and generating set; and neither build
    # constructs a product.  nu is built for every base of order <= 9
    # except C1, whose tensor square the build refuses.
    G = group_from_presentation(PRODUCT_MAP_BASES[name])
    built = []
    init = TupleGroup.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TupleGroup, "__init__", counting)
    xb = build_xp(G)
    nb = build_nu(G) if 1 < G.order <= 9 else None
    assert built == []
    monkeypatch.undo()

    beta, rho = _product_maps(G, xb.group)
    for new, old in ((xb.D, beta.kernel()), (xb.W, rho.kernel())):
        assert new == old and new.gens == old.gens
    image = rho.image()
    assert np.array_equal(xb.im_rho, image.mask)
    shape = image.parent.shape
    triples = [np.ravel_multi_index([f(x) for f in xb.rho], shape) for x in xb.group.generators]
    assert [t for t in dict.fromkeys(triples) if t] == list(image.gens)
    with pytest.raises(ValueError):
        xb.im_rho[0] = False
    if nb is not None:
        to_square = _product_maps(G, nb.group)[0]
        assert nb.tensor == to_square.kernel() and nb.tensor.gens == to_square.kernel().gens
