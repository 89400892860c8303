"""Crossed-pairing groups: a direct presentation of the tensor square and
the nu construction that contains it.

The tensor square T(P) is presented on symbols s(g, h) for nontrivial
g, h in P, with the two expansion families

    s(g1*g, h)  = s(g1^g, h^g) * s(g, h)
    s(g, h1*h)  = s(g, h) * s(g^h, h1^h)

where any symbol with an identity coordinate is dropped.  Both families
are defined once, as an index array of rows (-a, b, c) of symbol letters
read off P's multiplication and conjugation tables (_expansion_rows).
Enumeration runs once, on the words of the rows whose expansion element
(g resp. h) is a base generator; the full family is then certified on
the symbol images, img[a] == img[b] * img[c] for every row in one batch
of products.  The restricted group always maps onto the fully-related
one, so a passing certification proves the two coincide.  It is the only
proof of T for the bases too large for nu, so it stays at build time: an
enumeration limit propagates and a failed certification raises.

nu(P) doubles P like the weak-commutativity construction, but with
conjugation-compatibility relators instead of the diagonal pairing:

    [h1, h2']^h3 = [h1^h3, (h2^h3)'] = [h1, h2']^(h3')

(primes marking the mirror copy).  Inside nu, the subgroup [P, P'] is the
kernel of the fold-to-both-coordinates map and realizes the tensor
square -- checked here by an explicit isomorphism from the direct
presentation.  The diagonal subgroup Delta (closure of the [g, g']) is
central; T/Delta is the exterior square; and (ker alpha cap [P, P'])
modulo Delta recovers the Schur multiplier.  nu is enumerated only when
the predicted order |P|^2 * |T| stays under a size gate, since it grows
much faster than the constructions around it.

nu is enumerated once, from the relators with all three slots over the
base generators: Ellis and Leonard (Computing Schur multipliers and
tensor products of finite groups, Proc. R. Irish Acad. 95A, 1995) show
that these already present nu(P).  The build checks the order against
|P|^2 * |T| and the isomorphism from the direct tensor presentation; the
certification against the full |P|^3 relator family lives in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .coset import EnumerationLimits
from .groups import (
    FiniteGroup,
    Homomorphism,
    PermGroup,
    Subgroup,
    center,
    derived_subgroup,
    direct_product,
    group_from_presentation,
    intersection,
    normal_closure,
    quotient,
    quotient_invariants,
)
from .homology import invariants_from_cyclic_orders
from .weakcomm import mirror_names, mirror_word
from .words import Presentation, Word, commutator, conjugate

NU_SIZE_GATE = 20_000
TENSOR_COSET_CAP = 200_000


class SizeGateError(ValueError):
    """Predicted order of a nu build exceeds the configured gate."""

    def __init__(self, predicted: int, gate: int):
        super().__init__(
            f"predicted order {predicted} exceeds the size gate {gate}"
        )
        self.predicted = predicted
        self.gate = gate


def tensor_square_abelian_invariants(invariants) -> list[int]:
    """Closed form for abelian P: one cyclic factor gcd(d_i, d_j) per
    ordered pair (the pairing is biadditive there)."""
    pieces = [
        g
        for di in invariants
        for dj in invariants
        if (g := gcd(di, dj)) > 1
    ]
    return invariants_from_cyclic_orders(pieces)


# ---------------------------------------------------------------------------
# direct tensor-square presentation
# ---------------------------------------------------------------------------


def _tensor_symbols(base: FiniteGroup) -> list[tuple]:
    """The pairs (g, h) of nontrivial elements, in _symbol_number order."""
    els = base.elements[1:]
    return [(g, h) for g in els for h in els]


def _symbol_number(n: int, g: int, h: int) -> int:
    """The 0-based generator number of s(g, h) over a base of order n."""
    return (g - 1) * (n - 1) + h - 1


def _expansion_rows(base: FiniteGroup, movers) -> np.ndarray:
    """Both expansion families with the expansion element in `movers`,
    as rows (-a, b, c) of 1-based symbol letters, 0 for a symbol with an
    identity coordinate: s(g1*g, h) = s(g1^g, h^g) * s(g, h) for every
    g1, g, h (g1 outermost, h innermost), then s(g, h1*h) = s(g, h) *
    s(g^h, h1^h) for every h1, h, g, with g1, h1 and the unmoved slot
    over the nontrivial elements."""
    n = base.order
    mul = base.multiplication_table()
    inv = np.argmax(mul == base.identity, axis=1)
    conj = mul[inv[None, :], mul]  # conj[x, y] = x^y
    letter = np.zeros((n, n), dtype=np.int64)
    letter[1:, 1:] = np.arange(1, (n - 1) ** 2 + 1).reshape(n - 1, n - 1)
    x = np.arange(1, n)[:, None, None]
    m = np.asarray(movers, dtype=np.intp)[None, :, None]
    y = np.arange(1, n)[None, None, :]
    first = (-letter[mul[x, m], y], letter[conj[x, m], conj[y, m]], letter[m, y])
    second = (-letter[y, mul[x, m]], letter[y, m], letter[conj[y, m], conj[x, m]])
    return np.concatenate(
        [np.stack(np.broadcast_arrays(*f), axis=-1).reshape(-1, 3) for f in (first, second)]
    )


def tensor_relators(base: FiniteGroup) -> list[Word]:
    """The expansion relators with the expansion element over the base
    generators, zero letters dropped, first occurrences kept."""
    movers = [g for g in dict.fromkeys(base.generators) if g != base.identity]
    rels = []
    seen = set()
    for row in _expansion_rows(base, movers).tolist():
        w = Word(tuple(a for a in row if a))
        if w.letters and w.letters not in seen:
            seen.add(w.letters)
            rels.append(w)
    return rels


def _rows_hold(group: FiniteGroup, rows: np.ndarray, img: np.ndarray) -> bool:
    """Whether img[a] == img[b] * img[c] in `group` for every row (-a, b,
    c): the relators the rows spell, evaluated on the symbol images."""
    return np.array_equal(group._products(img[rows[:, 1]], img[rows[:, 2]]), img[-rows[:, 0]])


def tensor_square_presentation(base: FiniteGroup) -> Presentation:
    names = [f"s{g}_{h}" for g, h in _tensor_symbols(base)]
    label = base.presentation.name if base.presentation else base.name
    return Presentation(
        names,
        tensor_relators(base),
        name=f"ts_{label}" if label else None,
    )


@dataclass
class TensorSquare:
    """The directly-presented tensor square with its reading maps."""

    base: FiniteGroup
    group: PermGroup
    symbols: list[tuple]
    to_base: Homomorphism  # s(g, h) -> [g, h]; image is the derived subgroup
    delta: Subgroup  # normal closure of the diagonal symbols

    def symbol(self, g, h):
        if g == self.base.identity or h == self.base.identity:
            return self.group.identity
        return self.group.generators[_symbol_number(self.base.order, g, h)]

    @property
    def exterior_order(self) -> int:
        return self.group.order // self.delta.order

    def h2_invariants(self) -> list[int]:
        """Invariants of (ker to_base)/delta."""
        ker = self.to_base.kernel()
        if not self.delta <= ker:
            raise RuntimeError("diagonal subgroup escapes the commutator kernel")
        return quotient_invariants(ker, self.delta)

    def orders(self) -> dict[str, int]:
        return {
            "base": self.base.order,
            "tensor": self.group.order,
            "delta": self.delta.order,
            "exterior": self.exterior_order,
        }


def build_tensor_square(
    base: FiniteGroup,
    limits: EnumerationLimits | None = None,
    strategy: str = "auto",
) -> TensorSquare:
    if base.presentation is None:
        raise ValueError("base group carries no presentation")
    symbols = _tensor_symbols(base)
    if not symbols:
        raise ValueError("trivial base group has no pairing symbols")
    lim = limits or EnumerationLimits(max_cosets=TENSOR_COSET_CAP)
    pres = tensor_square_presentation(base)
    T = group_from_presentation(pres, limits=lim, strategy=strategy, name=pres.name)
    img = np.array([T.identity] + T.generators)
    if not _rows_hold(T, _expansion_rows(base, base.elements[1:]), img):
        raise RuntimeError("generator-scope tensor relators fail the full expansion family")

    to_base = Homomorphism(T, base, [base.comm(g, h) for g, h in symbols])
    diag = [T.generators[k] for k, (g, h) in enumerate(symbols) if g == h]
    delta = normal_closure(T, diag)
    return TensorSquare(
        base=base,
        group=T,
        symbols=symbols,
        to_base=to_base,
        delta=delta,
    )


# ---------------------------------------------------------------------------
# the nu construction
# ---------------------------------------------------------------------------


def nu_relators(base: FiniteGroup, scope: str) -> list[Word]:
    """Conjugation-compatibility relators with all three slots over the
    generators ("gens", the presentation) or over every element ("full",
    the family the tests certify against)."""
    e = base.identity
    if scope == "gens":
        slots = [g for g in dict.fromkeys(base.generators) if g != e]
    elif scope == "full":
        slots = [g for g in base.elements if g != e]
    else:
        raise ValueError(f"unknown scope {scope!r}")
    n = base.presentation.ngens
    word = [Word(w) for w in base.words]
    rels = []
    seen = set()

    def emit(w: Word):
        if w.letters and w.letters not in seen:
            seen.add(w.letters)
            rels.append(w)

    for h1 in slots:
        for h2 in slots:
            c12 = commutator(word[h1], mirror_word(word[h2], n))
            for h3 in slots:
                target = commutator(
                    word[base.conj(h1, h3)], mirror_word(word[base.conj(h2, h3)], n)
                )
                emit(conjugate(c12, word[h3]) * ~target)
                emit(conjugate(c12, mirror_word(word[h3], n)) * ~target)
    return rels


def nu_presentation(base: FiniteGroup) -> Presentation:
    pres = base.presentation
    if pres is None:
        raise ValueError("base group carries no presentation")
    n = pres.ngens
    rels = list(pres.relators)
    rels += [mirror_word(r, n) for r in pres.relators]
    rels += nu_relators(base, "gens")
    label = pres.name or base.name
    return Presentation(
        list(pres.generators) + mirror_names(pres.generators),
        rels,
        name=f"nu_{label}" if label else None,
    )


@dataclass
class NuBundle:
    base: FiniteGroup
    group: PermGroup
    embed_left: Homomorphism
    embed_right: Homomorphism
    alpha: Homomorphism  # fold both copies onto the base
    to_square: Homomorphism  # separate the copies; kernel is the tensor
    tensor: Subgroup
    delta: Subgroup
    tensor_square: TensorSquare  # the standalone direct presentation
    tensor_iso: Homomorphism  # direct presentation -> tensor subgroup

    @property
    def exterior_order(self) -> int:
        return self.tensor.order // self.delta.order

    def h2_invariants(self) -> list[int]:
        """Invariants of (ker alpha cap tensor)/delta."""
        ker = intersection(self.alpha.kernel(), self.tensor)
        if not self.delta <= ker:
            raise RuntimeError("diagonal subgroup escapes the fold kernel")
        return quotient_invariants(ker, self.delta)

    def delta_is_central(self) -> bool:
        z = center(self.group)
        return self.delta <= z

    def delta_in_derived(self) -> bool:
        return self.delta <= derived_subgroup(self.group)

    def orders(self) -> dict[str, int]:
        return {
            "base": self.base.order,
            "group": self.group.order,
            "tensor": self.tensor.order,
            "delta": self.delta.order,
            "exterior": self.exterior_order,
        }


def predicted_nu_order(base: FiniteGroup, tensor: TensorSquare) -> int:
    return base.order**2 * tensor.group.order


def build_nu(
    base: FiniteGroup,
    tensor: TensorSquare | None = None,
    size_gate: int = NU_SIZE_GATE,
    limits: EnumerationLimits | None = None,
    strategy: str = "auto",
) -> NuBundle:
    if tensor is None:
        tensor = build_tensor_square(base, strategy=strategy)
    predicted = predicted_nu_order(base, tensor)
    if predicted > size_gate:
        raise SizeGateError(predicted, size_gate)

    pres = nu_presentation(base)
    lim = limits or EnumerationLimits(max_cosets=max(60_000, 6 * predicted))
    X = group_from_presentation(pres, limits=lim, strategy=strategy, name=pres.name)
    if X.order != predicted:
        raise RuntimeError(f"nu presentation enumerates to {X.order}, predicted {predicted}")

    n = base.presentation.ngens
    embed_left = Homomorphism(base, X, X.generators[:n])
    embed_right = Homomorphism(base, X, X.generators[n:])
    alpha = Homomorphism(X, base, base.generators + base.generators)
    square = direct_product(base, base, name="basexbase")
    to_square = Homomorphism(
        X,
        square,
        [square.embed(0, g) for g in base.generators]
        + [square.embed(1, g) for g in base.generators],
    )
    tensor_sub = to_square.kernel()
    e = base.identity
    delta = normal_closure(
        X,
        [X.comm(embed_left(g), embed_right(g)) for g in base.elements if g != e],
    )
    tensor_iso = Homomorphism(
        tensor.group,
        X,
        [X.comm(embed_left(g), embed_right(h)) for g, h in tensor.symbols],
    )
    if not tensor_iso.is_injective() or tensor_iso.image() != tensor_sub:
        raise RuntimeError("direct tensor presentation does not match [P, P'] inside nu")
    return NuBundle(
        base=base,
        group=X,
        embed_left=embed_left,
        embed_right=embed_right,
        alpha=alpha,
        to_square=to_square,
        tensor=tensor_sub,
        delta=delta,
        tensor_square=tensor,
        tensor_iso=tensor_iso,
    )


def induced_nu_map(f: Homomorphism, src: NuBundle, dst: NuBundle) -> Homomorphism:
    """Functorial map nu(f), both copies transported through f."""
    if f.domain is not src.base or f.codomain is not dst.base:
        raise ValueError("map endpoints do not match the bundles")
    imgs = [dst.embed_left(f(g)) for g in src.base.generators]
    imgs += [dst.embed_right(f(g)) for g in src.base.generators]
    return Homomorphism(src.group, dst.group, imgs)


def quotient_identification(xp_bundle, nu_bundle: NuBundle) -> Homomorphism:
    """The generator-respecting map from the doubled pairing group onto
    nu/Delta; verifies that its kernel is exactly R, which identifies
    X/R with nu/Delta.  Returns the verified map."""
    if xp_bundle.base is not nu_bundle.base:
        raise ValueError("bundles are over different base groups")
    N = nu_bundle.group
    Q = quotient(N, nu_bundle.delta)
    phi = Homomorphism(
        xp_bundle.group, Q, [Q.projection(g) for g in N.generators]
    )
    if not phi.is_surjective():
        raise RuntimeError("quotient identification is not onto")
    if phi.kernel() != xp_bundle.R:
        raise RuntimeError("kernel of the quotient identification is not R")
    return phi
