"""Tests for fibre products, the antidiagonal subgroup, and the
coordinate description of im(rho).

Frozen values: the pullback of two C4 -> C2 reductions has order 8; the
antidiagonal subgroups of C2, C4, D8, Q8 have orders 2, 4, 16, 16 (each
|H|^2 divided by the abelianization order); im(rho) for C2 has order 4
and index 2, for D8 index 4 with every pairwise projection onto.
"""

import functools
import json
import random

import numpy as np
import pytest

from xpforge import harness
from xpforge.catalog import builtin_catalog
from xpforge.cli import main
from xpforge.groups import (
    Homomorphism,
    TupleGroup,
    derived_subgroup,
    group_from_presentation,
    normal_closure,
    quotient,
    subgroup_closure,
    trivial_subgroup,
    whole_subgroup,
)
from xpforge.products import (
    _SAMPLE_CHUNK,
    FibreSpec,
    SubdirectReport,
    _projection_rows,
    _scaled,
    _splitmix64,
    antipodal_spec,
    described_set_mismatches,
    fibre_product,
    im_rho_verify,
    s_subgroup,
)
from xpforge.weakcomm import build_xp
from xpforge.words import parse_presentation

PRESENTATIONS = {
    "C2": "gens a\nrels a^2",
    "C4": "gens a\nrels a^4",
    "C8": "gens a\nrels a^8",
    "K4": "gens a, b\nrels a^2, b^2, [a,b]",
    "C2xC4": "gens a, b\nrels a^2, b^4, [a,b]",
    "C3xC3": "gens a, b\nrels a^3, b^3, [a,b]",
    "D8": "gens a, b\nrels a^4, b^2, b^-1*a*b*a",
    "Q8": "gens a, b\nrels a^4, a^2*b^-2, b^-1*a*b*a",
}


@functools.lru_cache(maxsize=None)
def base(name):
    return group_from_presentation(parse_presentation(PRESENTATIONS[name]), name=name)


def pairs(mask, shape):
    """The (g1, g2) of every pair index in `mask`, over factors of orders
    `shape`."""
    return zip(*(c.tolist() for c in np.unravel_index(np.flatnonzero(mask), shape)))


def reduction_mod_square(G):
    """G -> G/<squares of generators>-closure; C4 -> C2 for cyclic C4."""
    sq = normal_closure(G, [G.mul(g, g) for g in G.generators])
    return quotient(G, sq).projection


def test_fibre_over_trivial_quotient_is_the_whole_product():
    G = base("C4")
    Q = quotient(G, whole_subgroup(G))
    assert Q.order == 1
    mask = fibre_product(FibreSpec(Q.projection, Q.projection))
    assert mask.shape == (16,) and mask.all()


def test_fibre_of_two_c4_reductions_has_order_8():
    p = reduction_mod_square(base("C4"))
    assert p.codomain.order == 2
    mask = fibre_product(FibreSpec(p, p))
    assert np.count_nonzero(mask) == 8
    rows = _projection_rows(mask, (4, 4))
    assert rows["p1"]["surjective"] and rows["p2"]["surjective"]


def test_fibre_of_identities_is_the_diagonal():
    G = base("C4")
    ident = Homomorphism(G, G, G.generators)
    mask = fibre_product(FibreSpec(ident, ident))
    assert np.count_nonzero(mask) == G.order
    assert set(pairs(mask, (4, 4))) == {(g, g) for g in G.elements}


def test_fibre_of_different_domains_pairs_coordinates():
    # C8 x C4 over C2: the pair index is a*4 + b, not a*8 + b
    C8, C4 = base("C8"), base("C4")
    p2 = reduction_mod_square(C4)
    p1 = Homomorphism(C8, p2.codomain, [p2(C4.generators[0])])
    mask = fibre_product(FibreSpec(p1, p2))
    assert mask.shape == (32,) and np.count_nonzero(mask) == 16
    want = {(a, b) for a in C8.elements for b in C4.elements if p1(a) == p2(b)}
    assert set(pairs(mask, (8, 4))) == want


def test_fibre_spec_rejects_bad_maps():
    C2, C4 = base("C2"), base("C4")
    embed = Homomorphism(C2, C4, [C4.mul(C4.generators[0], C4.generators[0])])
    ident = Homomorphism(C4, C4, C4.generators)
    with pytest.raises(ValueError):
        FibreSpec(ident, embed)  # not surjective
    p2 = reduction_mod_square(C4)
    with pytest.raises(ValueError):
        FibreSpec(ident, p2)  # codomains differ


def test_order_law_on_randomized_specs():
    rng = random.Random(0xF1B7E)
    pool = ["C4", "C8", "K4", "C2xC4", "D8", "Q8"]
    done = 0
    while done < 10:
        G = base(rng.choice(pool))
        w = rng.choice(G.elements)
        Q = quotient(G, normal_closure(G, [w]))
        p1 = Q.projection
        g0 = rng.choice(G.elements)
        p2 = Homomorphism(G, Q, [p1(G.conj(x, g0)) for x in G.generators])
        mask = fibre_product(FibreSpec(p1, p2))
        assert np.count_nonzero(mask) * Q.order == G.order * G.order
        rows = _projection_rows(mask, (G.order, G.order))
        assert rows["p1"]["surjective"] and rows["p2"]["surjective"]
        done += 1


@pytest.mark.parametrize(
    "name,order", [("C2", 2), ("C4", 4), ("D8", 16), ("Q8", 16)]
)
def test_antidiagonal_subgroup_frozen(name, order):
    # construction raises internally if the closure and the fibre
    # product over the abelianization were to disagree
    H = base(name)
    mask = s_subgroup(H)
    assert mask.shape == (H.order**2,)
    assert np.count_nonzero(mask) == order
    assert order == H.order**2 * derived_subgroup(H).order // H.order


def test_antidiagonal_of_c4_is_the_antidiagonal_set():
    H = base("C4")
    assert set(pairs(s_subgroup(H), (4, 4))) == {(h, H.inv(h)) for h in H.elements}


def test_antidiagonal_contains_the_derived_square():
    H = base("D8")
    got = set(pairs(s_subgroup(H), (8, 8)))
    der = [x for x in H.elements if x in derived_subgroup(H)]
    assert {(x, y) for x in der for y in der} <= got


@pytest.mark.parametrize("name", ["C2", "C4", "C3xC3", "D8", "Q8"])
def test_antidiagonal_closure_matches_the_closure_in_the_product(name):
    # the pair-index closure against the subgroup closure in H x H built
    # as a group, whose element indices are the same pair indices
    H = base(name)
    P = TupleGroup([H, H])
    want = subgroup_closure(P, [P.pack((h, H.inv(h))) for h in H.elements])
    assert np.array_equal(s_subgroup(H), want.mask)


def test_fibre_suite_and_command_build_no_product_group(monkeypatch, capsys):
    built = []
    init = TupleGroup.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TupleGroup, "__init__", counting)
    harness.clear_caches()
    try:
        report = harness.run_suite("fibre", builtin_catalog())
    finally:
        harness.clear_caches()
    assert report.ok
    assert main(["fibre", "catalog:Q8"]) == 0
    assert json.loads(capsys.readouterr().out)["antidiagonal_order"] == 16
    assert built == []


def test_antipodal_spec_shape():
    spec = antipodal_spec(base("D8"))
    assert spec.p1.codomain.order == 4
    A = spec.p1.codomain
    for x in base("D8").elements:
        assert spec.p2(x) == A.inv(spec.p1(x))


def test_im_rho_for_c2():
    rep = im_rho_verify(build_xp(base("C2")))
    assert rep.subgroup_order == 4
    assert rep.index_in_ambient == 2
    assert rep.equality_mode == "exhaustive"
    assert rep.mismatches == 0
    assert rep.index_matches_abelianization
    assert rep.ok


def test_im_rho_for_d8():
    rep = im_rho_verify(build_xp(base("D8")))
    assert rep.subgroup_order == 128
    assert rep.index_in_ambient == 4
    assert all(rep.projections[k]["surjective"] for k in ("p12", "p13", "p23"))
    assert rep.ok


def test_im_rho_sampled_for_larger_base():
    rep = im_rho_verify(build_xp(base("C3xC3")), samples=500)
    assert rep.equality_mode == "sampled"
    assert rep.samples_checked == 1000
    assert rep.mismatches == 0
    assert rep.index_in_ambient == 9
    assert rep.index_matches_abelianization
    assert rep.ok


def test_im_rho_report_serializes():
    rep = im_rho_verify(build_xp(base("C4")))
    d = rep.as_dict()
    assert d["ambient_orders"] == [4, 4, 4]
    assert d["equality"]["mismatches"] == 0
    assert set(d["projections"]) == {"p1", "p2", "p3", "p12", "p13", "p23"}
    assert d["ok"] is True


def test_report_ok_flags_failures():
    rep = SubdirectReport(
        ambient_orders=[2, 2, 2],
        subgroup_order=4,
        projections={"p1": {"image_order": 1, "index": 2, "surjective": False}},
        equality_mode="exhaustive",
        samples_checked=8,
        mismatches=0,
        index_in_ambient=2,
        index_matches_abelianization=True,
    )
    assert not rep.ok


@functools.lru_cache(maxsize=None)
def xp(name):
    return build_xp(base(name))


def test_described_set_check_fails_exhaustively_on_a_wrong_subgroup():
    # D8' has order 2, so the trivial subgroup describes a smaller set
    xb = xp("D8")
    G = xb.base
    im = xb.im_rho
    assert described_set_mismatches(G, derived_subgroup(G), im) == ("exhaustive", 512, 0)
    mode, checked, mismatches = described_set_mismatches(G, trivial_subgroup(G), im)
    assert (mode, checked) == ("exhaustive", 512)
    # im(rho) has index 4; the wrong description has index 8
    assert mismatches == 64


def test_described_set_check_fails_in_both_sampled_directions():
    # C3xC3 is abelian, so its derived subgroup is already trivial; the
    # whole group in place of G' (and the whole cube in place of im(rho))
    # describes too much, which each sampling direction must catch
    xb = xp("C3xC3")
    G = xb.base
    im = xb.im_rho
    der = derived_subgroup(G)
    cube = np.ones(G.order**3, dtype=bool)
    assert der.order == 1
    first = described_set_mismatches(G, der, cube, samples=500, seed=1)
    second = described_set_mismatches(G, whole_subgroup(G), im, samples=500, seed=1)
    assert first[:2] == second[:2] == ("sampled", 1000)
    # about 8/9 of the samples fall outside the other set
    assert 300 < first[2] < 500
    assert 300 < second[2] < 500
    assert described_set_mismatches(G, der, cube, samples=500, seed=1) == first
    assert described_set_mismatches(G, whole_subgroup(G), im, samples=500, seed=1) == second


@pytest.mark.parametrize("samples", [1, _SAMPLE_CHUNK, _SAMPLE_CHUNK + 1])
def test_sampled_check_across_chunk_edges(samples):
    xb = xp("C3xC3")
    G = xb.base
    assert described_set_mismatches(G, derived_subgroup(G), xb.im_rho, samples=samples) == (
        "sampled",
        2 * samples,
        0,
    )


def test_sampled_check_reads_the_stream_in_sample_order():
    # sample i reads hashes 2i and 2i+1 of the seed's stream, whatever the
    # chunking: the high half of hash 2i picks a triple of im, and the low
    # half with hash 2i+1 picks g1, g2 and d of a described triple.  Each
    # wrong description fails about 8/9 of one direction and none of the
    # other, so its count follows every draw of that direction
    xb = xp("C3xC3")
    G = xb.base
    n = G.order
    mul = G.multiplication_table().tolist()
    inv = [G.inv(g) for g in range(n)]
    cube = np.ones(n**3, dtype=bool)
    samples = 2 * _SAMPLE_CHUNK + 300
    h = _splitmix64(11, 0, 2 * samples).tolist()
    first_direction = second_direction = 0
    for i in range(samples):
        first, second = h[2 * i], h[2 * i + 1]
        # in the whole cube, against the trivial G'
        t = (first >> 32) * n**3 >> 32
        g1, g2, g3 = t // (n * n), t // n % n, t % n
        first_direction += mul[mul[g1][inv[g2]]][g3] != G.identity
        # with the whole group as G', checked in im(rho)
        g1 = (first & 0xFFFFFFFF) * n >> 32
        g2 = (second >> 32) * n >> 32
        d = (second & 0xFFFFFFFF) * n >> 32
        g3 = mul[inv[mul[g1][inv[g2]]]][d]
        second_direction += not xb.im_rho[(g1 * n + g2) * n + g3]
    assert 0 < first_direction < samples and 0 < second_direction < samples
    trivial = derived_subgroup(G)
    assert described_set_mismatches(G, trivial, cube, samples=samples, seed=11) == (
        "sampled",
        2 * samples,
        first_direction,
    )
    assert described_set_mismatches(G, whole_subgroup(G), xb.im_rho, samples=samples, seed=11) == (
        "sampled",
        2 * samples,
        second_direction,
    )


def test_sampled_check_repeats_under_a_seed_and_differs_across_seeds():
    xb = xp("C3xC3")
    G = xb.base
    cube = np.ones(G.order**3, dtype=bool)
    der = derived_subgroup(G)
    runs = {
        seed: described_set_mismatches(G, der, cube, samples=2000, seed=seed)
        for seed in (0, 1, 2**64 - 1)
    }
    assert described_set_mismatches(G, der, cube, samples=2000, seed=1) == runs[1]
    assert len({m for _, _, m in runs.values()}) == 3
    assert not np.array_equal(_splitmix64(0, 0, 64), _splitmix64(1, 0, 64))


def test_sampled_check_refuses_a_seed_or_bound_out_of_range():
    xb = xp("C3xC3")
    G = xb.base
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            described_set_mismatches(G, derived_subgroup(G), xb.im_rho, samples=10, seed=seed)
    with pytest.raises(ValueError, match="samples"):
        described_set_mismatches(G, derived_subgroup(G), xb.im_rho, samples=-1)
    half =np.array([0, 2**32 - 1], dtype=np.uint64)
    assert _scaled(half, 2**32 - 1).tolist() == [0, 2**32 - 2]
    for bound in (0, 2**32):
        with pytest.raises(ValueError, match="bound"):
            _scaled(half, bound)


def test_splitmix64_matches_the_reference_stream():
    # the reference generator's state advances by gamma before each output;
    # seed 1234567 gives the published first outputs
    assert _splitmix64(1234567, 0, 5).tolist() == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]
    mask = 2**64 - 1
    for seed in (0, 7, 2**64 - 1):
        state, expected = seed, []
        for _ in range(40):
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = ((state ^ state >> 30) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ z >> 27) * 0x94D049BB133111EB) & mask
            expected.append(z ^ z >> 31)
        assert _splitmix64(seed, 0, 40).tolist() == expected
        assert _splitmix64(seed, 17, 40).tolist() == expected[17:]


def test_im_rho_reports_repeat_under_a_seed():
    xb = xp("C3xC3")
    a = im_rho_verify(xb, samples=500, seed=7).as_dict()
    assert im_rho_verify(xb, samples=500, seed=7).as_dict() == a
    assert a["equality"] == {"mode": "sampled", "samples_checked": 1000, "mismatches": 0}
