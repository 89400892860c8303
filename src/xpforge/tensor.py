"""Crossed-pairing groups: a direct presentation of the tensor square and
the nu construction that contains it.

The tensor square T(P) is generated by symbols s(g, h) for nontrivial
g, h in P, subject to the two expansion families

    s(g1*g, h)  = s(g1^g, h^g) * s(g, h)
    s(g, h1*h)  = s(g, h) * s(g^h, h1^h)

where any symbol with an identity coordinate is dropped.  Both families
are defined once, as an index array of rows (-a, b, c) of symbol letters
read off P's multiplication and conjugation tables (_expansion_rows).

build_tensor_square presents T on few of the symbols: s(x^g, y^g) for
base generators x, y and every g in P (37 of the 676 for Heis27).  Inside
nu(P), conjugation by g acts on symbols diagonally, s(x, y)^g =
s(x^g, y^g), and the commutators of generators normally generate [P, P'],
so these symbols generate T (Ellis and Leonard, Proc. R. Irish Acad. 95A,
1995).  Every other symbol is Tietze-eliminated: the words of the rows
whose expansion element (g resp. h) is a base generator, tensor_relators,
are swept until a pass defines nothing, and a word with exactly one
unknown symbol, occurring once, defines it as a word in the known ones.
Each symbol is held as runs (x, e) of kept symbols, next to the runs of
its inverse.  Runs keep the words short where symbols are high powers:
on a cyclic base every symbol is one power of the single kept one,
s(a^i, a^j) = k^(i*j), so T(C64) would spell 4 M letters.  Every word
that made no definition is then rewritten in the kept symbols, by
joining the runs of its at most three letters and reducing only at the
two seams, and cyclically reduced; a word that made a definition
a = r^-1 rewrites to the identity and is skipped (639 of the 4 056 words
on Heis27).  The rewritten words of at most max(8, exp(P)) letters are
the relators of T~, the group the build reads T from.  The cap is the
exponent, not a fixed length: C9 needs k^9, and on D32 and Q32 an
8-letter cap leaves a presentation whose enumeration over the trivial
subgroup passes millions of cosets without closing.

T is not enumerated element by element.  The diagonal subgroup Delta =
<s(g, g)> lies in J2 = ker kappa, kappa: T -> P the commutator map
s(g, h) -> [g, h], and J2 is central because kappa is a crossed module
(Brown and Loday, Topology 26, 1987).  The build takes the subgroup H of
T~ generated by s(x, x) and s(x, y) * s(y, x) for base generators x < y
(_nabla_words).  It enumerates the cosets of H: |G ^ G| of them, 27 for
Heis27, whose T has 729 elements.  It reads H^ab and the coordinate of
every coset-table edge in it (homology.abelian_schreier), and assembles
T~/[H, H] on (coset, H^ab) pairs (groups.group_from_normal_subgroup,
which raises unless every generator of H fixes every coset, so that H,
and with it [H, H], is normal).

The result is exact by a certificate, not by the choice of words.  Each
symbol's element is read off its definition (a product of at most two
symbols defined before it, starting from the kept ones, the generators),
and the full families are checked on these images, img[a] == img[b] *
img[c] for every row in one batch of products.  The proof has two maps.
T~ maps onto T, since its relators are consequences of T's and the
elimination wrote every symbol in the kept ones.  That map sends H into
J2 (kappa kills s(x, x) and s(x, y) * s(y, x)), which is central, so
abelian; so [H, H] dies, and T is a quotient of T~/[H, H].  The passing
certificate gives a map from T onto T~/[H, H], onto because the kept
symbols' images are its generators.  Both groups are finite, so the two
coincide.  Then every s(g, g) is checked to lie in H, so H contains
Delta.  H lies in Delta too: the expansion of s(g*h, g*h) is s(g^h, h)
* s(g^h^h, g^h^h) * s(h, h) * s(h, g^h), so s(g', h) * s(h, g') is a
product of diagonal symbols for every g' and h, as they are central.
So H is Delta, and `delta` is the H factor of the assembled table.  The
certificate is the only proof of T for the bases too large for nu, so
it stays at build time: an enumeration limit propagates, and a symbol
the elimination misses, a non-normal H, a diagonal symbol outside H or
a failed certification raises.

nu(P) doubles P like the weak-commutativity construction, but with
conjugation-compatibility relators instead of the diagonal pairing:

    [h1, h2']^h3 = [h1^h3, (h2^h3)'] = [h1, h2']^(h3')

(primes marking the mirror copy).  Inside nu, the subgroup [P, P'] is the
kernel of the map nu -> P x P that separates the copies, and realizes the
tensor square -- checked here by an explicit isomorphism from the direct
presentation.  NuBundle holds that map as its two coordinates, the copy
projections of weakcomm.copy_projections, and `tensor` as their joint
kernel; no product group is built.  The diagonal subgroup Delta
(closure of the [g, g']) is central; T/Delta is the exterior square; and
(ker alpha cap [P, P']) modulo Delta recovers the Schur multiplier.  nu
is enumerated only when the predicted order |P|^2 * |T| stays under a
size gate, since it grows much faster than the constructions around it.

nu is enumerated once, from the relators with all three slots over the
base generators: Ellis and Leonard (Computing Schur multipliers and
tensor products of finite groups, Proc. R. Irish Acad. 95A, 1995) show
that these already present nu(P).  Every relator folds to the identity,
so the fold is a retraction of nu onto P, and nu is built from the
cosets of its left copy (groups.group_from_fold): |P| times fewer
cosets than the regular representation.  The build checks the order
against |P|^2 * |T| and the isomorphism from the direct tensor
presentation; the certification against the full |P|^3 relator family
lives in the tests.
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
    _masked,
    center,
    derived_subgroup,
    exponent,
    group_from_fold,
    group_from_normal_subgroup,
    intersection,
    normal_closure,
    quotient,
    quotient_invariants,
)
from .homology import invariants_from_cyclic_orders
from .weakcomm import copy_projections, mirror_names, mirror_word
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


def _conjugation_tables(base: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """The n x n arrays of x*y and of x^y, row x and column y; read-only,
    computed once per base."""

    def compute():
        mul = base.multiplication_table()
        inv = np.argmax(mul == base.identity, axis=1)
        return mul, mul[inv[None, :], mul]

    return base._remember("conjugation_tables", compute)


def _expansion_rows(base: FiniteGroup, movers) -> np.ndarray:
    """Both expansion families with the expansion element in `movers`,
    as rows (-a, b, c) of 1-based symbol letters, 0 for a symbol with an
    identity coordinate: s(g1*g, h) = s(g1^g, h^g) * s(g, h) for every
    g1, g, h (g1 outermost, h innermost), then s(g, h1*h) = s(g, h) *
    s(g^h, h1^h) for every h1, h, g, with g1, h1 and the unmoved slot
    over the nontrivial elements."""
    n = base.order
    mul, conj = _conjugation_tables(base)
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


def tensor_relators(base: FiniteGroup) -> list[tuple]:
    """The expansion relators with the expansion element over the base
    generators, as letter tuples: zero letters dropped, freely reduced,
    first occurrences kept."""
    movers = [g for g in dict.fromkeys(base.generators) if g != base.identity]
    rels = {}
    for x, y, z in _expansion_rows(base, movers).tolist():
        # x = -a <= 0 and y, z >= 0: only x can cancel, against the next
        # letter that is not dropped
        if y == -x:
            w = (z,) if z else ()
        elif not y:
            w = () if z == -x else (x, z) if z else (x,)
        elif not x:
            w = (y, z) if z else (y,)
        else:
            w = (x, y, z) if z else (x, y)
        rels[w] = None
    rels.pop((), None)
    return list(rels)


def _rows_hold(group: FiniteGroup, rows: np.ndarray, img: np.ndarray) -> bool:
    """Whether img[a] == img[b] * img[c] in `group` for every row (-a, b,
    c): the relators the rows spell, evaluated on the symbol images."""
    return np.array_equal(group._products(img[rows[:, 1]], img[rows[:, 2]]), img[-rows[:, 0]])


def _label(base: FiniteGroup) -> str | None:
    label = base.presentation.name if base.presentation else base.name
    return f"ts_{label}" if label else None


def tensor_square_presentation(base: FiniteGroup) -> Presentation:
    """T on every symbol, with the generator-scope relators; the build
    rewrites these relators in the kept symbols instead."""
    names = [f"s{g}_{h}" for g, h in _tensor_symbols(base)]
    return Presentation(names, [Word(w) for w in tensor_relators(base)], name=_label(base))


def _kept_letters(base: FiniteGroup) -> list[int]:
    """The letters of the symbols s(x^g, y^g) for base generators x, y
    and every element g, ascending."""
    n = base.order
    _, conj = _conjugation_tables(base)
    gens = [g for g in dict.fromkeys(base.generators) if g != base.identity]
    moved = conj[gens]  # moved[i, g] = x_i^g
    hit = np.zeros(n * n, dtype=bool)
    hit[(moved[:, None, :] - 1) * (n - 1) + moved[None, :, :]] = True
    return np.flatnonzero(hit).tolist()


def _join(parts) -> list:
    """The product of freely reduced words given as runs (x, e), kept
    symbol x to the power e != 0, as freely reduced runs.  Only the seam
    between the product so far and the next part can reduce: runs of one
    symbol meet there and merge, and the seam moves on while they cancel."""
    out = list(parts[0]) if parts else []
    for p in parts[1:]:
        i = 0
        while out and i < len(p) and out[-1][0] == p[i][0]:
            x, e = p[i]
            e += out.pop()[1]
            i += 1
            if e:
                out.append((x, e))
        out.extend(p[i:])
    return out


def _eliminate(words: list[tuple], kept: list[int], nsymbols: int):
    """Every symbol as runs in the kept ones, indexed by signed letter:
    runs[a] for symbol a and runs[-a] for its inverse, entry 0 unused
    (the kept symbol kept[j] is run (j + 1, 1)); the definitions in the
    order made, as pairs (a, r) with a * r = 1, r a word in the symbols
    defined before; and the set of indices of the words that made them.

    Sweeps the words until a pass defines nothing.  A word with exactly
    one unknown letter a is a * r = 1 after a rotation, so a = r^-1
    defines that symbol in the known ones.  A symbol that no pass
    defines stays None."""
    runs: list = [None] * (2 * nsymbols + 1)
    for j, a in enumerate(kept):
        runs[a], runs[-a] = ((j + 1, 1),), ((j + 1, -1),)
    definitions = []
    used = set()
    pending = list(enumerate(words))
    defined = True
    while defined:
        defined = False
        rest = []
        for k, w in pending:
            unknown = [i for i, a in enumerate(w) if runs[a] is None]
            if len(unknown) == 1:
                (i,) = unknown
                a, r = w[i], w[i + 1 :] + w[:i]
                runs[-a] = tuple(_join([runs[b] for b in r]))
                runs[a] = tuple((x, -e) for x, e in reversed(runs[-a]))
                definitions.append((a, r))
                used.add(k)
                defined = True
            elif unknown:
                rest.append((k, w))
        pending = rest
    return runs, definitions, used


def _cyclic_key(runs: list) -> tuple:
    """The least rotation of cyclically reduced runs or of their inverse,
    tried only where the least run stands.  A rotation of the letters
    that is again cyclically reduced cuts at a run boundary, so two
    words share a key exactly when one spells a rotation of the other or
    of its inverse."""
    w = tuple(runs)
    v = tuple((x, -e) for x, e in reversed(w))
    return min(u[i:] + u[:i] for u in (w, v) for m in (min(u),) for i in range(len(u)) if u[i] == m)


def _cyclic_reduce(runs: list) -> list:
    """Freely reduced runs made cyclically reduced, in place: while the
    first and last runs share a symbol, the last is merged into the
    first (a conjugate of the word)."""
    while len(runs) > 1 and runs[0][0] == runs[-1][0]:
        x, e = runs.pop()
        e += runs[0][1]
        runs[0:1] = [(x, e)] if e else []
    return runs


def _kept_relators(words: list[tuple], runs: list, used, cap: int) -> list[Word]:
    """The words rewritten in the kept symbols and cyclically reduced:
    those of at most `cap` letters, once per rotation and inverse,
    shortest first (HLT scans them in this order at every coset).  The
    words at the indices in `used` are skipped: each made a definition
    a = r^-1, so it rewrites to the identity."""
    rels = []
    seen = set()
    for k, w in enumerate(words):
        if k in used:
            continue
        rw = _cyclic_reduce(_join([runs[a] for a in w]))
        if len(rw) <= cap and 0 < sum(abs(e) for _, e in rw) <= cap:
            if (key := _cyclic_key(rw)) not in seen:
                seen.add(key)
                rels.append(Word(x if e > 0 else -x for x, e in rw for _ in range(abs(e))))
    return sorted(rels, key=len)


def _symbol_images(T: PermGroup, kept: list[int], definitions, nsymbols: int) -> np.ndarray:
    """The element of every symbol, indexed by symbol letter, entry 0 the
    identity: the kept symbols are T's generators, and each definition
    a * r = 1 is evaluated on the images before it.  A definition's r has
    at most two letters, and its depth is one more than the deepest
    symbol r uses (a kept symbol's depth is 0); the definitions of one
    depth are evaluated together, in one batch of _products, with the
    inverse of every element of T read off one array."""
    img = np.zeros(nsymbols + 1, dtype=np.intp)  # 0: the letter of the identity
    img[kept] = T.generators
    depth = [0] * (nsymbols + 1)
    batches: list = []
    for a, r in definitions:
        x, y = (*r, 0, 0)[:2]  # r padded with 0, the letter of depth 0
        d = depth[abs(a)] = 1 + max(depth[abs(x)], depth[abs(y)])
        if d > len(batches):
            batches.append([])
        batches[d - 1].append((a, x, y))
    inv = T._inverses(np.arange(T.order))
    for batch in batches:
        rows = np.array(batch, dtype=np.intp)
        vals = img[abs(rows)]
        vals = np.where(rows < 0, inv[vals], vals)
        x = T._products(vals[:, 1], vals[:, 2])
        img[abs(rows[:, 0])] = np.where(rows[:, 0] > 0, inv[x], x)
    return img


def _nabla_words(base: FiniteGroup, kept: list[int]) -> list[Word]:
    """The words s(x, x) and s(x, y) * s(y, x), for base generators x and
    x < y, in the kept symbols (s(x, y) is kept for every pair of
    generators): they generate the diagonal subgroup."""
    n = base.order
    position = {a: j + 1 for j, a in enumerate(kept)}
    gens = [g for g in dict.fromkeys(base.generators) if g != base.identity]

    def letter(g, h):
        return position[1 + _symbol_number(n, g, h)]

    words = [Word((letter(x, x),)) for x in gens]
    words += [Word((letter(x, y), letter(y, x))) for i, x in enumerate(gens) for y in gens[i + 1 :]]
    return words


@dataclass
class TensorSquare:
    """The directly-presented tensor square with its reading maps."""

    base: FiniteGroup
    group: PermGroup
    symbols: list[tuple]  # the kept pairs (g, h), one per generator of group
    images: np.ndarray  # the element of every symbol, by letter; 0 the identity
    to_base: Homomorphism  # s(g, h) -> [g, h]; image is the derived subgroup
    delta: Subgroup  # the diagonal subgroup, generated by the s(g, g)

    def symbol(self, g, h):
        if g == self.base.identity or h == self.base.identity:
            return self.group.identity
        return int(self.images[1 + _symbol_number(self.base.order, g, h)])

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
) -> TensorSquare:
    """T = base (x) base on its kept symbols, built from the cosets of
    the diagonal subgroup (see the module docstring).  `limits` holds
    that enumeration and the assembled |G^G| * |Delta| rows (default: a
    live-coset cap of TENSOR_COSET_CAP).  Raises RuntimeError when a
    symbol is left undefined, the diagonal subgroup is not normal or
    misses a diagonal symbol, or the certificate fails."""
    if base.presentation is None:
        raise ValueError("base group carries no presentation")
    symbols = _tensor_symbols(base)
    if not symbols:
        raise ValueError("trivial base group has no pairing symbols")
    lim = limits or EnumerationLimits(max_cosets=TENSOR_COSET_CAP)
    words = tensor_relators(base)
    kept = _kept_letters(base)
    runs, definitions, used = _eliminate(words, kept, len(symbols))
    if None in runs[1:]:
        g, h = symbols[runs.index(None, 1) - 1]
        raise RuntimeError(f"the kept symbols do not define s{g}_{h} by the expansion relators")
    pairs = [symbols[a - 1] for a in kept]
    pres = Presentation(
        [f"s{g}_{h}" for g, h in pairs],
        _kept_relators(words, runs, used, max(8, exponent(base))),
        name=_label(base),
    )
    nabla = _nabla_words(base, kept)
    T, delta = group_from_normal_subgroup(pres, nabla, limits=lim)
    img = _symbol_images(T, kept, definitions, len(symbols))
    if not _rows_hold(T, _expansion_rows(base, base.elements[1:]), img):
        raise RuntimeError("generator-scope tensor relators fail the full expansion family")
    n = base.order
    if not delta.mask[img[[1 + _symbol_number(n, g, g) for g in base.elements[1:]]]].all():
        raise RuntimeError("a diagonal symbol lies outside the subgroup of the generator pairs")
    g, h = np.array(pairs, dtype=np.intp).T
    to_base = Homomorphism(T, base, base._commutators(g, h).tolist())
    return TensorSquare(
        base=base,
        group=T,
        symbols=pairs,
        images=img,
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
    conj = _conjugation_tables(base)[1].tolist()
    word = [Word(base.word_of(x)) for x in base.elements]
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
                target = commutator(word[conj[h1][h3]], mirror_word(word[conj[h2][h3]], n))
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
    projections: tuple[Homomorphism, Homomorphism]  # rho1, rho3; joint kernel is the tensor
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
) -> NuBundle:
    """nu(base), with its embeddings, fold, tensor subgroup and Delta.

    Raises SizeGateError when the predicted order |base|^2 * |T| exceeds
    `size_gate`.  The group is built from the cosets of the left copy
    (groups.group_from_fold), whose index is |base| * |T|; `limits` holds
    that enumeration and the assembled |nu| rows (default: a live-coset
    cap of max(60 000, 6 * predicted)).  Raises RuntimeError when the
    order differs from the prediction or the direct tensor presentation
    does not map isomorphically onto [P, P'].
    """
    if tensor is None:
        tensor = build_tensor_square(base)
    predicted = predicted_nu_order(base, tensor)
    if predicted > size_gate:
        raise SizeGateError(predicted, size_gate)

    pres = nu_presentation(base)
    lim = limits or EnumerationLimits(max_cosets=max(60_000, 6 * predicted))
    X = group_from_fold(pres, base, limits=lim)
    if X.order != predicted:
        raise RuntimeError(f"nu presentation enumerates to {X.order}, predicted {predicted}")

    n = base.presentation.ngens
    embed_left = Homomorphism(base, X, X.generators[:n])
    embed_right = Homomorphism(base, X, X.generators[n:])
    alpha = Homomorphism(X, base, base.generators + base.generators)
    projections = copy_projections(X, base)
    tensor_sub = _masked(X, (projections[0]._image == 0) & (projections[1]._image == 0))
    left, right = embed_left._image, embed_right._image
    # [g, g'] for every nontrivial g (the elements after the identity 0)
    delta = normal_closure(X, X._commutators(left[1:], right[1:]))
    g, h = np.array(tensor.symbols, dtype=np.intp).T
    tensor_iso = Homomorphism(tensor.group, X, X._commutators(left[g], right[h]).tolist())
    if not tensor_iso.is_injective() or tensor_iso.image() != tensor_sub:
        raise RuntimeError("direct tensor presentation does not match [P, P'] inside nu")
    return NuBundle(
        base=base,
        group=X,
        embed_left=embed_left,
        embed_right=embed_right,
        alpha=alpha,
        projections=projections,
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
