"""Fibre products, the antidiagonal subgroup, and subdirect diagnostics.

A fibre product pulls two surjections p1: G1 -> Q, p2: G2 -> Q back to
the subgroup {(g1, g2) : p1(g1) = p2(g2)} of G1 x G2; its order is
always |G1|*|G2|/|Q|.  The antidiagonal subgroup S of H x H is generated
by the pairs (h, h^-1); it coincides with the fibre product of the
abelianization map against its composite with inversion (inversion is
only a homomorphism after abelianizing, which is why the comparison runs
through H/H').  s_subgroup performs that comparison on construction.

im_rho_verify checks the product-coordinate description of the image of
rho for a doubled-group bundle: a triple lies in the image exactly when
g1 * g2^-1 * g3 falls in the derived subgroup of the base.  The check
runs on index arrays: the base's multiplication table (built from its
right actions), the mask of G', and the bundle's mask of im(rho) over the
|G|^3 triples; no product group is built.  Small bases are checked
exhaustively; larger ones by sampling in both directions.  The draws come
from a counter-based splitmix64 stream (Steele, Lea and Flood, "Fast
splittable pseudorandom number generators", OOPSLA 2014) computed in numpy
uint64 arithmetic, with a fixed default seed: sample i reads hashes 2i and
2i+1, and each 32-bit half h of a hash is scaled to its bound as
(h * bound) >> 32, so a sample's draws do not depend on how many are taken.
The samples are checked in chunks of 2**14 through the flattened
multiplication table, which keeps the transients near 1 MB whatever the
sample size, and numpy.random is never imported.  The report also
tabulates every single and pairwise projection of the image, which are all
onto.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .groups import (
    FiniteGroup,
    Homomorphism,
    Subgroup,
    TupleGroup,
    _masked,
    derived_subgroup,
    direct_product,
    quotient,
    subgroup_closure,
)

EXHAUSTIVE_BASE_ORDER = 8
SAMPLES_PER_DIRECTION = 100_000
_SAMPLE_SEED = 0x5D17EC7
_SAMPLE_CHUNK = 1 << 14

# splitmix64: hash j of a seed is mix(seed + (j + 1) * gamma) mod 2**64
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


@dataclass
class FibreSpec:
    """Two surjections onto a common quotient."""

    p1: Homomorphism
    p2: Homomorphism

    def __post_init__(self):
        if self.p1.codomain is not self.p2.codomain:
            raise ValueError("the two maps must share a codomain")
        if not self.p1.is_surjective() or not self.p2.is_surjective():
            raise ValueError("fibre products are taken over surjections")


def fibre_product(spec: FibreSpec, ambient: TupleGroup | None = None) -> Subgroup:
    """The pullback {(g1, g2) : p1(g1) = p2(g2)} inside G1 x G2."""
    G1, G2 = spec.p1.domain, spec.p2.domain
    if ambient is None:
        ambient = direct_product(G1, G2)
    elif ambient.factors != [G1, G2]:
        raise ValueError("ambient product does not match the spec domains")
    g1, g2 = np.divmod(np.arange(ambient.order), G2.order)
    sub = _masked(ambient, spec.p1._image[g1] == spec.p2._image[g2])
    if sub.order * spec.p1.codomain.order != G1.order * G2.order:
        raise RuntimeError("fibre product violates the order law")
    return sub


def antipodal_spec(H: FiniteGroup) -> FibreSpec:
    """Abelianization map of H against its composite with inversion."""
    A = quotient(H, derived_subgroup(H))
    p = A.projection
    anti = Homomorphism(H, A, A._inverses(p._image[H.generators]).tolist())
    return FibreSpec(p, anti)


def s_subgroup(H: FiniteGroup, ambient: TupleGroup | None = None) -> Subgroup:
    """Closure of the pairs (h, h^-1) in H x H, verified on construction
    to equal the antipodal fibre product."""
    if ambient is None:
        ambient = direct_product(H, H)
    every = np.arange(H.order)
    pairs = np.ravel_multi_index((every, H._inverses(every)), ambient.shape)
    sub = subgroup_closure(ambient, pairs)
    if sub != fibre_product(antipodal_spec(H), ambient=ambient):
        raise RuntimeError("antidiagonal closure differs from the fibre product")
    return sub


def _projection_rows(mask: np.ndarray, shape) -> dict[str, dict]:
    """The single (and, past two factors, pairwise) projections of the
    subset `mask` of a product of groups of orders `shape`, mixed radix."""
    k = len(shape)
    digits = np.stack(np.unravel_index(np.flatnonzero(mask), shape))
    rows: dict[str, dict] = {}
    singles = [(i,) for i in range(k)]
    pairs = list(itertools.combinations(range(k), 2)) if k > 2 else []
    for coords in singles + pairs:
        dims = [shape[i] for i in coords]
        full = math.prod(dims)
        hit = np.zeros(full, dtype=bool)
        hit[np.ravel_multi_index(digits[list(coords)], dims)] = True
        shadow = int(np.count_nonzero(hit))
        key = "p" + "".join(str(i + 1) for i in coords)
        rows[key] = {
            "image_order": shadow,
            "index": full // shadow,
            "surjective": shadow == full,
        }
        if full % shadow:
            raise RuntimeError(f"projection {key} order does not divide the ambient")
    return rows


@dataclass
class SubdirectReport:
    ambient_orders: list[int]
    subgroup_order: int
    projections: dict[str, dict]
    equality_mode: str  # "exhaustive" or "sampled"
    samples_checked: int
    mismatches: int
    index_in_ambient: int
    index_matches_abelianization: bool | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.mismatches == 0 and all(
            row["surjective"] for key, row in self.projections.items()
        ) and self.index_matches_abelianization is not False

    def as_dict(self) -> dict:
        return {
            "ambient_orders": list(self.ambient_orders),
            "subgroup_order": self.subgroup_order,
            "index_in_ambient": self.index_in_ambient,
            "projections": {k: dict(v) for k, v in sorted(self.projections.items())},
            "equality": {
                "mode": self.equality_mode,
                "samples_checked": self.samples_checked,
                "mismatches": self.mismatches,
            },
            "index_matches_abelianization": self.index_matches_abelianization,
            "notes": list(self.notes),
            "ok": self.ok,
        }


def _splitmix64(seed: int, start: int, stop: int) -> np.ndarray:
    """Hashes start..stop-1 of the splitmix64 stream of `seed`, as uint64
    (numpy wraps uint64 arrays modulo 2**64)."""
    z = np.arange(start + 1, stop + 1, dtype=np.uint64) * _GAMMA + np.uint64(seed)
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _scaled(half: np.ndarray, bound: int) -> np.ndarray:
    """32-bit draws scaled to indices below `bound`, (h * bound) >> 32."""
    if not 0 < bound < 1 << 32:
        raise ValueError(f"cannot draw below {bound}: the bound must be 1 to 2**32 - 1")
    return (half * np.uint64(bound) >> np.uint64(32)).astype(np.intp)


def described_set_mismatches(
    G: FiniteGroup,
    der: Subgroup,
    im: np.ndarray,
    samples: int = SAMPLES_PER_DIRECTION,
    seed: int = _SAMPLE_SEED,
) -> tuple[str, int, int]:
    """Compare `im`, a mask over the triples of G x G x G with (g1, g2,
    g3) at (g1*n + g2)*n + g3, with the set of triples whose g1 * g2^-1 *
    g3 lies in `der`; returns (mode, checked, mismatches).

    Exhaustive over all |G|^3 triples for |G| <= EXHAUSTIVE_BASE_ORDER;
    otherwise `samples` triples of `im` checked against the description,
    then `samples` described triples checked for membership in `im`, all
    drawn from the splitmix64 stream of `seed` (a non-negative integer
    below 2**64).
    """
    n = G.order
    table = G.multiplication_table()
    inv = np.argmax(table == G.identity, axis=1)
    flat = table.ravel()

    def described(g1, g2, g3):
        return der.mask[flat[flat[g1 * n + inv[g2]] * n + g3]]

    if n <= EXHAUSTIVE_BASE_ORDER:
        mismatches = np.count_nonzero(described(*np.unravel_index(np.arange(n**3), (n,) * 3)) != im)
        return "exhaustive", n**3, int(mismatches)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be a non-negative integer below 2**64, not {seed}")
    if samples < 0:
        raise ValueError(f"samples must be non-negative, not {samples}")
    in_im = np.flatnonzero(im)
    in_der = np.flatnonzero(der.mask)
    mismatches = 0
    for start in range(0, samples, _SAMPLE_CHUNK):
        h = _splitmix64(seed, 2 * start, 2 * min(start + _SAMPLE_CHUNK, samples))
        hi, lo = h >> np.uint64(32), h & np.uint64(0xFFFFFFFF)
        # a triple of im, checked against the description
        triple = in_im[_scaled(hi[0::2], in_im.size)]
        mismatches += np.count_nonzero(~described(*np.unravel_index(triple, (n,) * 3)))
        # a described triple (g1, g2, (g1 g2^-1)^-1 d), checked for membership in im
        g1, g2 = _scaled(lo[0::2], n), _scaled(hi[1::2], n)
        d = in_der[_scaled(lo[1::2], in_der.size)]
        g3 = flat[inv[flat[g1 * n + inv[g2]]] * n + d]
        mismatches += np.count_nonzero(~im[(g1 * n + g2) * n + g3])
    return "sampled", 2 * samples, int(mismatches)


def im_rho_verify(
    xb,
    samples: int = SAMPLES_PER_DIRECTION,
    seed: int = _SAMPLE_SEED,
) -> SubdirectReport:
    """Check the coordinate description of im(rho) for a doubled-group
    bundle and tabulate its projections."""
    G = xb.base
    der = derived_subgroup(G)
    mode, checked, mismatches = described_set_mismatches(G, der, xb.im_rho, samples, seed)
    order = int(np.count_nonzero(xb.im_rho))
    index = G.order**3 // order
    ab_order = G.order // der.order
    return SubdirectReport(
        ambient_orders=[G.order] * 3,
        subgroup_order=order,
        projections=_projection_rows(xb.im_rho, (G.order,) * 3),
        equality_mode=mode,
        samples_checked=checked,
        mismatches=mismatches,
        index_in_ambient=index,
        index_matches_abelianization=(index == ab_order),
    )
