"""Tests for the crossed-pairing groups: direct tensor squares and nu.

Every frozen order below was reproduced by the engine before being
written down, and the abelian rows are forced independently by the
closed form: for invariant factors (d_1, ..., d_k) the pairing group is
the direct sum of cyclic factors gcd(d_i, d_j) over ordered pairs.  The
nu orders then follow from |nu| = |P|^2 * |T|.  D8 and Q8 (tensor orders
32 and 64) pin the nonabelian behaviour, and the order-27 bases exercise
the size gate that keeps nu builds bounded.
"""

import functools
import hashlib
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xpforge import coset, harness
from xpforge import tensor as tensor_module
from xpforge.catalog import builtin_catalog, catalog_entry
from xpforge.coset import CosetTable, EnumerationError, EnumerationLimits
from xpforge.groups import (
    Homomorphism,
    derived_subgroup,
    exponent,
    group_from_presentation,
    intersection,
    is_powerful,
    nilpotency_class,
    normal_closure,
)
from xpforge.homology import abelian_invariants, schur_multiplier, schur_multiplier_bar
from xpforge.tensor import (
    NU_SIZE_GATE,
    SizeGateError,
    _cyclic_key,
    _cyclic_reduce,
    _expansion_rows,
    _join,
    _rows_hold,
    build_nu,
    build_tensor_square,
    induced_nu_map,
    nu_presentation,
    nu_relators,
    predicted_nu_order,
    quotient_identification,
    tensor_relators,
    tensor_square_presentation,
    tensor_square_abelian_invariants,
)
from xpforge.weakcomm import build_xp, mirror_names
from xpforge.words import Word, free_reduce, parse_presentation

from scalar_oracle import ScalarGroup

PRESENTATIONS = {
    "C2": "gens a\nrels a^2",
    "C3": "gens a\nrels a^3",
    "C4": "gens a\nrels a^4",
    "C8": "gens a\nrels a^8",
    "C9": "gens a\nrels a^9",
    "K4": "gens a, b\nrels a^2, b^2, [a,b]",
    "C2xC4": "gens a, b\nrels a^2, b^4, [a,b]",
    "C3xC3": "gens a, b\nrels a^3, b^3, [a,b]",
    "D8": "gens a, b\nrels a^4, b^2, b^-1*a*b*a",
    "Q8": "gens a, b\nrels a^4, a^2*b^-2, b^-1*a*b*a",
    "E8": "gens a, b, c\nrels a^2, b^2, c^2, [a,b], [a,c], [b,c]",
    "Mod27": "gens a, b\nrels a^9, b^3, b^-1*a*b*a^-4",
}


@functools.lru_cache(maxsize=None)
def base(name):
    return group_from_presentation(parse_presentation(PRESENTATIONS[name]), name=name)


@functools.lru_cache(maxsize=None)
def tensor(name):
    return build_tensor_square(base(name))


@functools.lru_cache(maxsize=None)
def nu(name):
    return build_nu(base(name), tensor=tensor(name))


# name: (|T|, |Delta|, |exterior|, H2 invariants)
TENSOR_EXPECTED = {
    "C2": (2, 2, 1, []),
    "C3": (3, 3, 1, []),
    "C4": (4, 4, 1, []),
    "C8": (8, 8, 1, []),
    "C9": (9, 9, 1, []),
    "K4": (16, 8, 2, [2]),
    "C2xC4": (32, 16, 2, [2]),
    "C3xC3": (81, 27, 3, [3]),
    "D8": (32, 8, 4, [2]),
    "Q8": (64, 32, 2, []),
    "E8": (512, 64, 8, [2, 2, 2]),
    "Mod27": (81, 27, 3, []),
}

# name: (|nu|, H2 invariants read off inside nu)
NU_EXPECTED = {
    "C2": (8, []),
    "C3": (27, []),
    "C4": (64, []),
    "C8": (512, []),
    "C9": (729, []),
    "K4": (256, [2]),
    "C2xC4": (2048, [2]),
    "C3xC3": (6561, [3]),
    "D8": (2048, [2]),
    "Q8": (4096, []),
}

ABELIAN = ["C2", "C3", "C4", "C8", "C9", "K4", "C2xC4", "C3xC3", "E8"]


@pytest.mark.parametrize("name", sorted(TENSOR_EXPECTED))
def test_tensor_square_frozen(name):
    T = tensor(name)
    size, delta, ext, h2 = TENSOR_EXPECTED[name]
    assert T.group.order == size
    assert T.delta.order == delta
    assert T.exterior_order == ext
    assert T.h2_invariants() == h2


@pytest.mark.parametrize("name", ABELIAN)
def test_abelian_closed_form(name):
    G = base(name)
    T = tensor(name)
    want = tensor_square_abelian_invariants(abelian_invariants(G))
    assert abelian_invariants(T.group) == want


@pytest.mark.parametrize("name", ["C4", "K4", "D8", "Q8", "Mod27"])
def test_commutator_map_lands_on_derived_subgroup(name):
    G = base(name)
    T = tensor(name)
    assert T.to_base.image() == derived_subgroup(G)
    assert T.to_base.kernel().order == T.group.order // derived_subgroup(G).order


@pytest.mark.parametrize("name", ["K4", "C3xC3", "D8", "Q8", "E8"])
def test_multiplier_three_routes_agree(name):
    via_tensor = tensor(name).h2_invariants()
    via_bar = schur_multiplier_bar(base(name))
    via_doubling = build_xp(base(name)).h2_invariants()
    assert via_tensor == via_bar == via_doubling


def test_symbols_biadditive_for_abelian_base():
    G = base("C2xC4")
    T = tensor("C2xC4")
    for g1 in G.elements:
        for g2 in G.elements:
            for h in G.elements:
                left = T.symbol(G.mul(g1, g2), h)
                assert left == T.group.mul(T.symbol(g1, h), T.symbol(g2, h))
                right = T.symbol(h, G.mul(g1, g2))
                assert right == T.group.mul(T.symbol(h, g1), T.symbol(h, g2))


def test_symbols_are_numbered_generators_with_the_defining_relations():
    # a nonabelian base whose commutators have order 3, so that s(g, h)
    # and s(h, g) cannot stand in for each other
    G = ScalarGroup(base("Mod27"))
    T = tensor("Mod27")
    names = T.group.presentation.generators
    for k, (g, h) in enumerate(T.symbols):
        assert T.symbol(g, h) == T.group.generators[k]
        assert names[k] == f"s{g}_{h}"
    for k, (g, h) in enumerate(tensor_module._tensor_symbols(G.group)):
        assert T.symbol(g, h) == T.images[k + 1]
        assert T.to_base(T.symbol(g, h)) == G.comm(g, h)
    mul, conj = ScalarGroup(T.group).mul, G.conj
    for g1 in G.elements:
        for g in G.elements:
            for h in G.elements:
                left = T.symbol(G.mul(g1, g), h)
                assert left == mul(T.symbol(conj(g1, g), conj(h, g)), T.symbol(g, h))


@pytest.mark.parametrize("name, count", [("D8", 12), ("Mod27", 24), ("Heis27", 37)])
def test_kept_symbols_are_the_diagonal_conjugates_of_generator_pairs(name, count):
    # the generators of T are the symbols s(x^g, y^g) for base generators
    # x, y and every g, in symbol order
    G = harness.base_group(catalog_entry(name))
    T = harness.tensor_of(catalog_entry(name))
    gens = G.generators
    pairs = {(G.conj(x, g), G.conj(y, g)) for x in gens for y in gens for g in G.elements}
    assert T.symbols == sorted(pairs)
    assert len(T.symbols) == count


# bases outside the catalog: on D32 and Q32 an 8-letter cap on the kept
# relators does not close, and the exponent cap does; on C27 every symbol
# is a power of one kept symbol, s(a^i, a^j) = k^(i*j)
OUTSIDE = {
    "C27": ("gens a\nrels a^27", 27),
    "D16": ("gens a, b\nrels a^8, b^2, (a*b)^2", 64),
    "Q16": ("gens a, b\nrels a^8, a^4*b^-2, b^-1*a*b*a", 64),
    "SD16": ("gens a, b\nrels a^8, b^2, b^-1*a*b*a^-3", 64),
    "SD32": ("gens a, b\nrels a^16, b^2, b^-1*a*b*a^-7", 128),
    "C4:C4": ("gens a, b\nrels a^4, b^4, b^-1*a*b*a", 128),
    "D32": ("gens a, b\nrels a^16, b^2, (a*b)^2", 128),
    "Q32": ("gens a, b\nrels a^16, a^8*b^-2, b^-1*a*b*a", 128),
}


@pytest.mark.parametrize("name", list(OUTSIDE))
def test_kept_symbols_close_on_bases_outside_the_catalog(name):
    text, order = OUTSIDE[name]
    G = group_from_presentation(parse_presentation(text), name=name)
    T = build_tensor_square(G)
    assert T.group.order == order
    assert T.h2_invariants() == schur_multiplier(G)


# -- T from the cosets of the diagonal subgroup ----------------------------


@pytest.mark.parametrize("name", [e.name for e in builtin_catalog()] + ["D16", "SD32", "Q32"])
def test_tensor_square_matches_its_regular_enumeration(name):
    # the assembled table standardizes to the regular representation that
    # enumerating the kept presentation over the trivial subgroup gives,
    # and delta is the normal closure of the diagonal symbols
    if name in OUTSIDE:
        G = group_from_presentation(parse_presentation(OUTSIDE[name][0]), name=name)
        T = build_tensor_square(G)
    else:
        G = harness.base_group(catalog_entry(name))
        T = harness.tensor_of(catalog_entry(name))
    regular = group_from_presentation(T.group.presentation)
    assert np.array_equal(T.group.gen_cols, regular.gen_cols)
    assert T.group.words == regular.words
    assert T.delta == normal_closure(T.group, [T.symbol(g, g) for g in G.elements[1:]])


# name: (presentation, |T|, H2, cosets defined over Delta).  Over the
# trivial subgroup these took 27.5 s (65 536 cosets) and 3.6 s (19 683);
# their diagonal subgroups have 64 and 27 cosets
ELEMENTARY = {
    "C2^4": (
        "gens a, b, c, d\nrels a^2, b^2, c^2, d^2, [a,b], [a,c], [a,d], [b,c], [b,d], [c,d]",
        2**16,
        [2] * 6,
        265,
    ),
    "C3^3": ("gens a, b, c\nrels a^3, b^3, c^3, [a,b], [a,c], [b,c]", 3**9, [3] * 3, 103),
}


@pytest.mark.parametrize("name", list(ELEMENTARY))
def test_tensor_square_of_elementary_abelian_groups(name):
    text, order, h2, defined = ELEMENTARY[name]
    G = group_from_presentation(parse_presentation(text), name=name)
    T = build_tensor_square(G)
    assert T.group.order == order
    assert T.group.table.stats["total_defined"] == defined
    assert abelian_invariants(T.group) == tensor_square_abelian_invariants(abelian_invariants(G))
    assert T.h2_invariants() == schur_multiplier(G) == h2


def test_limits_hold_the_assembled_table(monkeypatch):
    # C3^3's diagonal subgroup has 27 cosets of 18 columns, which fit; the
    # 19 683 assembled rows do not
    G = group_from_presentation(parse_presentation(ELEMENTARY["C3^3"][0]))
    monkeypatch.setattr(coset, "MAX_CELLS", 300_000)
    with pytest.raises(EnumerationError, match="cell budget exceeded: 19683 cosets x 18 columns"):
        build_tensor_square(G)
    monkeypatch.undo()
    with pytest.raises(EnumerationError, match="19683 cosets do not fit the cap of 1000"):
        build_tensor_square(G, limits=EnumerationLimits(max_cosets=1000))


S4 = "gens a, b\nrels a^4, b^2, (a*b)^3"


def test_build_rejects_a_subgroup_that_is_not_normal(monkeypatch):
    # T(S4) is not abelian, and its kept symbol s1_2 alone generates a
    # subgroup that is not normal, whose cosets give no regular table
    G = group_from_presentation(parse_presentation(S4))
    assert not build_tensor_square(G).group.is_abelian()
    monkeypatch.setattr(tensor_module, "_nabla_words", lambda base, kept: [Word((2,))])
    with pytest.raises(RuntimeError, match="s1_2 moves a coset: the subgroup is not normal"):
        build_tensor_square(G)


def test_build_rejects_a_subgroup_that_misses_a_diagonal_symbol(monkeypatch):
    # s(a, a) alone generates a central subgroup of T(K4), so the table is
    # T, but s(b, b) lies outside it
    real = tensor_module._nabla_words
    monkeypatch.setattr(tensor_module, "_nabla_words", lambda base, kept: real(base, kept)[:1])
    with pytest.raises(RuntimeError, match="diagonal symbol lies outside"):
        build_tensor_square(base("K4"))


def test_symbol_identity_coordinate_is_trivial():
    G = base("D8")
    T = tensor("D8")
    e = G.identity
    for g in G.elements:
        assert T.symbol(e, g) == T.group.identity
        assert T.symbol(g, e) == T.group.identity


def test_trivial_base_rejected():
    C1 = group_from_presentation(parse_presentation("gens a\nrels a"))
    with pytest.raises(ValueError):
        build_tensor_square(C1)


# -- the expansion families on element images ------------------------------


def reference_relators(G, movers):
    """Both expansion families as words, by scalar loops over the base's
    mul and conj, with the expansion element over `movers`: the reference
    that the index-array rows are held to."""
    e = G.identity
    els = [g for g in G.elements if g != e]
    n = G.order

    def letter(g, h):
        return (g - 1) * (n - 1) + h if g != e and h != e else None

    rels = []
    seen = set()

    def emit(letters):
        w = Word(tuple(a for a in letters if a is not None))
        if w.letters and w.letters not in seen:
            seen.add(w.letters)
            rels.append(w)

    S = ScalarGroup(G)
    mul, conj = S.mul, S.conj
    for g1 in els:
        for g in movers:
            for h in els:
                a = letter(mul(g1, g), h)
                emit([-a if a else None, letter(conj(g1, g), conj(h, g)), letter(g, h)])
    for h1 in els:
        for h in movers:
            for g in els:
                a = letter(g, mul(h1, h))
                emit([-a if a else None, letter(g, h), letter(conj(g, h), conj(h1, h))])
    return rels


@pytest.mark.parametrize("entry", builtin_catalog(), ids=lambda e: e.name)
def test_tensor_relators_match_the_scalar_reference(entry):
    G = harness.base_group(entry)
    movers = [g for g in dict.fromkeys(G.generators) if g != G.identity]
    assert tensor_relators(G) == [w.letters for w in reference_relators(G, movers)]
    assert [w.letters for w in tensor_square_presentation(G).relators] == tensor_relators(G)


@pytest.mark.parametrize("entry", builtin_catalog(), ids=lambda e: e.name)
def test_expansion_certificate_agrees_with_the_word_family(entry):
    # the full rows spell the reference words, and the array certificate
    # and the word family agree on the real symbol images (both hold) and
    # on images with two distinct symbol images swapped (both fail); C2
    # has a single symbol, so nothing to swap
    G = harness.base_group(entry)
    T = harness.tensor_of(entry).group
    full = reference_relators(G, [g for g in G.elements if g != G.identity])
    rows = _expansion_rows(G, G.elements[1:])
    spelled = dict.fromkeys(Word([a for a in row if a]) for row in rows.tolist())
    assert [w for w in spelled if w] == full
    img = harness.tensor_of(entry).images
    assert _rows_hold(T, rows, img)
    S = ScalarGroup(T)
    assert all(S.eval_letters(w.letters, img[1:].tolist()) == T.identity for w in full)
    if len(img) == 2:
        return
    k = next(k for k in range(2, len(img)) if img[k] != img[1])
    swapped = img.copy()
    swapped[[1, k]] = img[[k, 1]]
    assert not _rows_hold(T, rows, swapped)
    gens = swapped[1:].tolist()
    assert not all(S.eval_letters(w.letters, gens) == T.identity for w in full)


def test_certificate_multiplies_in_row_order():
    # D8 as the group itself, where ab != ba: the row (-ab, a, b) holds
    # and (-ab, b, a) does not, so a certificate that multiplied img[c] *
    # img[b] would read both wrongly (every catalog T is abelian)
    G = base("D8")
    a, b = G.generators
    ab = G.mul(a, b)
    assert ab != G.mul(b, a)
    img = np.array([G.identity, a, b, ab])
    assert _rows_hold(G, np.array([[-3, 1, 2]]), img)
    assert not _rows_hold(G, np.array([[-3, 2, 1]]), img)


def test_build_rejects_swapped_symbol_images(monkeypatch):
    # the symbol images with two distinct entries swapped: the build's
    # certificate must refuse them
    real = tensor_module._symbol_images

    def swapping(*args, **kwargs):
        img = real(*args, **kwargs)
        k = next(k for k in range(2, len(img)) if img[k] != img[1])
        img[[1, k]] = img[[k, 1]]
        return img

    monkeypatch.setattr(tensor_module, "_symbol_images", swapping)
    with pytest.raises(RuntimeError, match="full expansion family"):
        build_tensor_square(base("D8"))


def test_build_rejects_kept_symbols_that_leave_a_symbol_undefined(monkeypatch):
    # s(a, a) alone does not write every symbol of D8: the sweep stops
    # short, and the build raises instead of enumerating
    monkeypatch.setattr(tensor_module, "_kept_letters", lambda base: [1])
    with pytest.raises(RuntimeError, match="kept symbols do not define s"):
        build_tensor_square(base("D8"))


# catalog entry: (sha256 of the kept relators' letters, in order; sha256
# of the definitions (a, r) in the order made), as build_tensor_square
# hands them to the enumeration and to _symbol_images
KEPT_PRESENTATION_DIGESTS = {
    "C2": (
        "dba010dc185ba44cc16ac8ed5e5bbbe721e8dc9d928b5377686d1b3a9d786530",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    "C3": (
        "65535f3942e6f4ada47c592da10e91a7dcf61aa909b3fe233a3b1877043fd530",
        "32c68e2582783729a0815688a3c8729fd16a80f294af64cbc4320806e4460d44",
    ),
    "C4": (
        "091f6402146af1587e22fbcf1611f629cd1bdd00ec1a677dca6a54f5dd0055c9",
        "8ea25f94722bbe7cb4a45843459058900bd22066f10df392d84fba60601a376f",
    ),
    "C8": (
        "b04786a5dbfcb2b99cfd3b6070adfbe56dd4aa56d8b495452c4a6383a7ce315e",
        "75f24ed062a6dae2ed18576230e7b9f3e31eb718e5e6fdc07cd42917b0a5a5f8",
    ),
    "C2xC2": (
        "0cc93f4c615897c3c3bef195c262ac84cf128a8fed48978bbcf857d2a857815d",
        "c15f5491fd45e47139f61281116b95d5795cd2b4700aa9428193ce0380e83dd3",
    ),
    "C2xC4": (
        "fd86995fa4f531c11c7ce68e4a5b8de7e9b4861b7df76b722c691e21415c937d",
        "6c2c7a05346519ba9628c5dd29e79f1dd2419064ffab1642d742aa244704105b",
    ),
    "D8": (
        "845cac15f23c3a1043a9a17cd4cc0c3736fd7488f886a90441c06e04a7ec19d1",
        "968555d0cffbe83896e88e0ad80d89625571ea664c6b813b2716174209dc576e",
    ),
    "Q8": (
        "716457e9ecaab7c9e95de882479d9fe3f376a81ce819a40c7230763480b35c68",
        "e4b094b91790786c399dfeacbfb84d004eef8aa0ffb8b145ea21e70ef6ef587c",
    ),
    "C9": (
        "1c6f3dcfab99a8c2ebdcc6d1cd7b5f21df522907dd1838348b48a1e83d572949",
        "92a870be12f2df9d3dcbe76285efe331448954f77bf441bdcf257039f2b975f1",
    ),
    "C3xC3": (
        "e4fa5aa0df32d4a0f536c1039bf89c1d9f6331db10c26a4710a6d1d0218f0918",
        "a3e50ba78a3762d046a951620430a43cd183dd85e01336ab7ca402c8fadb5e07",
    ),
    "Heis27": (
        "a08379707d15734b11404b0b43ad80bda610c795a1b6184336e1bef5a8b9c9f6",
        "eff5b0afd2431ed720029825c0cd050ec26c397f12cf147d797ab76061f93cab",
    ),
    "Mod27": (
        "ba9ea8a81e2fcf7f16cb0374d653d791235db1bafdbc18a63d08698dc418888f",
        "83365667ccd71363cce8b3be26ea9fc8fe1237304a42543461defb917bc957b8",
    ),
}


@pytest.mark.parametrize("entry", builtin_catalog(), ids=lambda e: e.name)
def test_kept_presentation_is_frozen(entry, monkeypatch):
    # the elimination may change how it rewrites, never what it hands on
    seen = {}
    real_group, real_images = tensor_module.group_from_normal_subgroup, tensor_module._symbol_images

    def spy_group(pres, *args, **kwargs):
        seen["relators"] = [w.letters for w in pres.relators]
        return real_group(pres, *args, **kwargs)

    def spy_images(T, kept, definitions, nsymbols):
        seen["definitions"] = [(a, tuple(r)) for a, r in definitions]
        return real_images(T, kept, definitions, nsymbols)

    monkeypatch.setattr(tensor_module, "group_from_normal_subgroup", spy_group)
    monkeypatch.setattr(tensor_module, "_symbol_images", spy_images)
    build_tensor_square(harness.base_group(entry))
    digests = tuple(
        hashlib.sha256(repr(seen[k]).encode()).hexdigest() for k in ("relators", "definitions")
    )
    assert digests == KEPT_PRESENTATION_DIGESTS[entry.name]


# -- the seam join of the elimination --------------------------------------


def runs_of(letters):
    """A freely reduced letter word as runs (x, e)."""
    runs = []
    for a in letters:
        if runs and runs[-1][0] == abs(a):
            runs[-1] = (abs(a), runs[-1][1] + (1 if a > 0 else -1))
        else:
            runs.append((abs(a), 1 if a > 0 else -1))
    return tuple(runs)


def letters_of(runs):
    return tuple(x if e > 0 else -x for x, e in runs for _ in range(abs(e)))


def inverse(letters):
    return tuple(-a for a in reversed(letters))


def letter_key(w):
    """The least rotation of a cyclically reduced letter word or of its
    inverse, letter by letter."""
    v = inverse(w)
    return min((min(w[i:] + w[:i], v[i:] + v[:i]) for i in range(len(w))), default=())


def cyclically_reduced(letters):
    w = free_reduce(letters)
    while len(w) > 1 and w[0] == -w[-1]:
        w = w[1:-1]
    return w


reduced_words = st.lists(st.sampled_from([1, 2, 3, -1, -2, -3]), max_size=8).map(free_reduce)


@st.composite
def seam_parts(draw):
    """Up to three freely reduced words, each often opening with the
    inverse of a tail of the product before it, so that seams cancel
    inside a run, at a run boundary or through a whole part."""
    parts = []
    for _ in range(draw(st.integers(0, 3))):
        w = draw(reduced_words)
        done = free_reduce(sum(parts, ()))
        if done and draw(st.booleans()):
            k = draw(st.integers(1, len(done)))
            w = free_reduce(inverse(done[-k:]) + w)
        parts.append(w)
    return parts


@settings(max_examples=300, deadline=None)
@given(seam_parts())
@example([(1, 1, -2), (2, -1, -1)])  # every letter cancels
@example([(1, 2, 2), (-2, -2, 1)])  # a run merges to exponent 0, then the next merges
@example([(1, 2), (-2,), (-1, 3)])  # a whole middle part cancels into the first
@example([(1, 3, 1), (1,)])  # cyclic reduction merges the last run into the first
def test_seam_join_is_the_free_reduction_of_the_letters(parts):
    flat = free_reduce(sum(parts, ()))
    joined = _join([runs_of(p) for p in parts])
    assert letters_of(joined) == flat
    assert tuple(joined) == runs_of(flat)
    # cyclic reduction: a rotation of the letter-level cyclic reduction,
    # whose first and last runs differ
    rw = _cyclic_reduce(joined)
    c = cyclically_reduced(flat)
    assert len(rw) <= 1 or rw[0][0] != rw[-1][0]
    assert any(letters_of(rw) == c[i:] + c[:i] for i in range(max(len(c), 1)))


@settings(max_examples=300, deadline=None)
@given(reduced_words, reduced_words, st.integers(0, 7), st.booleans())
@example((1, 2, 1), (1, 1, 2), 0, False)  # a rotation that cuts inside a run
def test_cyclic_key_on_runs_is_the_letter_key(u, w, turn, invert):
    # two cyclically reduced words share a key when one is a rotation of
    # the other or of its inverse, and only then, as on letters
    c, d = cyclically_reduced(u), cyclically_reduced(w)
    if not c:
        return
    i = turn % len(c)
    rot = c[i:] + c[:i]
    rot = inverse(rot) if invert else rot

    def key(letters):
        return _cyclic_key(_cyclic_reduce(list(runs_of(letters))))

    assert key(rot) == key(c)
    if d:
        assert (key(d) == key(c)) == (letter_key(d) == letter_key(c))


def test_build_reads_no_word_family(monkeypatch):
    def refuse(self, relator_words):
        raise AssertionError("a build traced a word family")

    monkeypatch.setattr(CosetTable, "relators_hold", refuse)
    for name in ("D8", "Mod27"):
        T = build_tensor_square(base(name))
        assert T.group.order == TENSOR_EXPECTED[name][0]


@pytest.mark.parametrize("name", sorted(NU_EXPECTED))
def test_nu_frozen(name):
    b = nu(name)
    size, h2 = NU_EXPECTED[name]
    assert b.group.order == size
    assert b.group.order == predicted_nu_order(base(name), tensor(name))
    assert b.tensor.order == tensor(name).group.order
    assert b.h2_invariants() == h2


@pytest.mark.parametrize("name", sorted(NU_EXPECTED))
def test_nu_presentation_certified_by_full_family(name):
    # the generator-scope presentation maps onto the fully-related group,
    # so the full |G|^3 family holding on its table proves they coincide
    assert nu(name).group.table.relators_hold(nu_relators(base(name), "full"))


@pytest.mark.parametrize("name", ["C4", "K4", "D8", "Q8", "C3xC3"])
def test_delta_central_and_in_derived(name):
    b = nu(name)
    assert b.delta_is_central()
    assert b.delta_in_derived()


def test_nu_of_c2_is_the_dihedral_group_of_order_8():
    N = nu("C2").group
    assert N.order == 8
    assert not N.is_abelian()
    assert sorted(N.element_order(x) for x in N.elements) == [1, 2, 2, 2, 2, 2, 4, 4]


def test_nu_of_c3_is_extraspecial_and_not_powerful():
    N = nu("C3").group
    assert N.order == 27
    assert nilpotency_class(N) == 2
    assert exponent(N) == 3
    assert not is_powerful(N)
    assert nu("C3").tensor.order == 3


def test_fold_restricted_to_tensor_reads_the_multiplier():
    # the fold kernel meets the tensor exactly in the full multiplier
    # preimage: its size is |H2| * |Delta|
    b = nu("C3xC3")
    ker = intersection(b.alpha.kernel(), b.tensor)
    assert ker.order == 3 * b.delta.order


def test_conjugation_compatibility_sampled():
    G = ScalarGroup(base("D8"))
    b = nu("D8")
    N = ScalarGroup(b.group)
    il, ir = b.embed_left, b.embed_right
    rng = random.Random(0xC0FFEE)
    els = list(G.elements)
    for _ in range(200):
        h1, h2, h3 = (rng.choice(els) for _ in range(3))
        c = N.comm(il(h1), ir(h2))
        target = N.comm(il(G.conj(h1, h3)), ir(G.conj(h2, h3)))
        assert N.conj(c, il(h3)) == target
        assert N.conj(c, ir(h3)) == target


def test_separating_map_kernel_is_the_tensor():
    b = nu("Q8")
    rho1, rho3 = b.projections
    assert intersection(rho1.kernel(), rho3.kernel()) == b.tensor
    n = b.base.order
    pairs = np.zeros(n * n, dtype=bool)
    pairs[rho1._image * n + rho3._image] = True
    assert pairs.all()
    assert b.group.order == b.base.order**2 * b.tensor.order


def test_size_gate_trips_for_order_27_bases():
    G = base("Mod27")
    T = tensor("Mod27")
    assert predicted_nu_order(G, T) == 27 * 27 * 81 == 59049
    with pytest.raises(SizeGateError) as exc:
        build_nu(G, tensor=T)
    assert exc.value.predicted == 59049
    assert exc.value.gate == NU_SIZE_GATE


def test_gate_override_builds_the_rank_three_case():
    # the one base in reach whose R is nontrivial: X/R and nu/Delta both
    # have order 512 and the identification map has kernel exactly R
    G = base("E8")
    b = build_nu(G, tensor=tensor("E8"), size_gate=40_000)
    assert b.group.order == 32768
    assert b.h2_invariants() == [2, 2, 2]
    xp = build_xp(G)
    assert xp.R.order == 2
    phi = quotient_identification(xp, b)
    assert phi.codomain.order == xp.group.order // xp.R.order == 512


def test_gate_override_builds_nu_of_an_order_27_base():
    # Mod27 is gated by default; an explicit gate above its predicted
    # order builds nu and runs every nu check on it
    b = build_nu(base("Mod27"), tensor=tensor("Mod27"), size_gate=60_000)
    assert b.group.order == 59049
    assert b.tensor.order == TENSOR_EXPECTED["Mod27"][0]
    assert b.h2_invariants() == []
    assert b.delta_is_central()
    assert b.delta_in_derived()


@pytest.mark.parametrize("name", ["C4", "Q8"])
def test_quotient_identification_trivial_r(name):
    xp = build_xp(base(name))
    phi = quotient_identification(xp, nu(name))
    assert xp.R.order == 1
    assert phi.is_surjective()
    assert phi.codomain.order == xp.group.order


def test_quotient_identification_rejects_mismatched_bases():
    with pytest.raises(ValueError):
        quotient_identification(build_xp(base("C4")), nu("C8"))


def test_induced_map_collapses_towers():
    f = Homomorphism(base("C8"), base("C4"), [base("C4").generators[0]])
    F = induced_nu_map(f, nu("C8"), nu("C4"))
    assert F.is_surjective()
    assert F.kernel().order == nu("C8").group.order // nu("C4").group.order == 8


def test_induced_map_identity_is_bijective():
    G = base("C4")
    f = Homomorphism(G, G, G.generators)
    F = induced_nu_map(f, nu("C4"), nu("C4"))
    assert F.is_injective() and F.is_surjective()


def test_induced_map_rejects_wrong_endpoints():
    f = Homomorphism(base("C8"), base("C4"), [base("C4").generators[0]])
    with pytest.raises(ValueError):
        induced_nu_map(f, nu("C4"), nu("C8"))


def test_nu_presentation_shape():
    pres = nu_presentation(base("Q8"))
    assert pres.generators == ["a", "b", "ap", "bp"]
    assert pres.name == "nu_Q8"
    with pytest.raises(ValueError):
        nu_relators(base("Q8"), "everything")


def test_mirrored_names_follow_the_doubling_convention():
    pres = nu_presentation(base("E8"))
    assert pres.generators == ["a", "b", "c"] + mirror_names(["a", "b", "c"])


def test_closed_form_helper():
    assert tensor_square_abelian_invariants([2]) == [2]
    assert tensor_square_abelian_invariants([2, 4]) == [2, 2, 2, 4]
    assert tensor_square_abelian_invariants([3, 3]) == [3, 3, 3, 3]
    assert tensor_square_abelian_invariants([2, 2, 2]) == [2] * 9
