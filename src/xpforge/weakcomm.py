"""The doubled group in which every element commutes with its mirror.

Given a finite group P (a regular representation carrying a presentation),
build the group X on two copies of P's generators -- the originals and a
mirrored set -- subject to the base relators in both copies plus one
commutation relator [w_g, mirror(w_g)] for every nontrivial element g,
with w_g the canonical word of g.  Any representing word would do, since
the base relators already identify them.  This is the weak commutativity
construction of Sidki (On weak permutability between groups, J. Algebra
63, 1980), in the p-group setting of Bridson and Kochloukova (Weak
commutativity and finiteness properties of groups, Bull. LMS 51, 2019).

That full family has |P| - 1 commutation relators, but a finitely
presented P gives a finitely presented X, so far fewer relators present
the same group.  build_xp enumerates a short family -- [w, mirror(w)] for
the canonical words w of at most 2 letters and the ordered products of
three or more distinct generators -- and then proves the full family on
element images: the two embeddings of P give, for every g, the elements
that w_g and mirror(w_g) spell, and one batch of commutators checks that
each pair commutes.  The short relators follow from the full ones, so
the short family presents a group X' mapping onto X; the full relators
holding in X' give a map back, and both are finite, so X' = X.  A short
family that presented a larger group would fail that check, and the
build raises instead of returning the wrong group.  The full family as
words (`xp_presentation(base)`) remains only as the tests' oracle.

Folding both copies onto P is a retraction of X onto P whose kernel L
has the left copy as a complement, X = L x| P (Sidki, 1980).  So X is
enumerated over the left copy, index |X|/|P| (729 for Heis27), and its
regular representation is assembled from those cosets and P's own
(groups.group_from_fold), element for element the one the trivial
subgroup would give.

The bundle keeps the structural maps this construction is studied through:

* embed_left / embed_right: the two copies of P inside X (both injective);
* alpha: X -> P, both copies folded onto P; its kernel is L;
* rho: X -> P^3, left copy to (g, g, 1), mirror copy to (1, g, g), held
  as its three coordinate maps (rho1, alpha, rho3): rho1 keeps the left
  copy and kills the mirror one, rho3 the other way round.  Its kernel
  is W, and its image is kept as a mask over the |P|^3 triples (im_rho);
* beta = (rho1, rho3): X -> P x P, the copies separated; its kernel is D;
* R = [left copy, [L, right copy]], a normal subgroup contained in W.

No product group is built: a kernel is where every coordinate is 1, and
the image is read off the coordinates of every element of X.

W is abelian, equals the intersection of L and D, and W/R recovers the
Schur multiplier of P; [L, D] = 1 and the cross pairing is symmetric
([x, mirror(y)] = [mirror(x), y]).  These are checked by the test suite
and the verification harness rather than re-proved at build time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .coset import EnumerationLimits
from .groups import (
    FiniteGroup,
    Homomorphism,
    PermGroup,
    Subgroup,
    _masked,
    commutator_subgroup,
    group_from_fold,
    quotient_invariants,
    subgroup_closure,
)
from .words import Presentation, Word, commutator


def mirror_word(w: Word, n: int) -> Word:
    """Shift a word on generators 1..n to the mirrored block n+1..2n."""
    return Word(tuple(a + n if a > 0 else a - n for a in w.letters))


def mirror_names(names) -> list[str]:
    """Mirror generator names: append 'p', extending on collision."""
    used = set(names)
    out = []
    for nm in names:
        cand = nm + "p"
        while cand in used:
            cand += "p"
        used.add(cand)
        out.append(cand)
    return out


def _short_words(base: FiniteGroup) -> list[Word]:
    """The words w whose relators [w, mirror(w)] make the short family:
    every canonical word of at most 2 letters, then the ordered product
    of every set of k >= 3 distinct base generators."""
    words = [Word(w) for w in map(base.word_of, base.elements) if 0 < len(w) <= 2]
    n = base.presentation.ngens
    for k in range(3, n + 1):
        words += [Word(i + 1 for i in subset) for subset in combinations(range(n), k)]
    return words


def xp_presentation(base: FiniteGroup, elements: str = "all") -> Presentation:
    """Presentation of X on two copies of the base generators.

    Every mode has the base relators and their mirrors; they differ in the
    commutation relators [w, mirror(w)]:

    * `"all"`: one per nontrivial base element, w its canonical word --
      the construction proper, which `build_xp` proves on element images
      and the tests check as words;
    * `"short"`: w ranges over the canonical words of at most 2 letters
      and the ordered products of k >= 3 distinct generators.  This is
      the family `build_xp` enumerates; it presents a group that maps
      onto X, and `build_xp` certifies that it is X;
    * `"gens"`: one per generator, which presents a group that can be
      strictly larger (infinite for K4) -- exposed for comparison.

    Words of length <= 2 alone do not suffice: for E8 = C2^3 that family
    does not close within 3 M cosets, while adding the product abc of
    the three generators closes at the 1024 cosets of X.
    """
    pres = base.presentation
    if pres is None:
        raise ValueError("base group carries no presentation")
    n = pres.ngens
    if elements == "all":
        sources = [Word(base.word_of(g)) for g in base.elements if g != base.identity]
    elif elements == "short":
        sources = _short_words(base)
    elif elements == "gens":
        sources = [Word.gen(i) for i in range(n)]
    else:
        raise ValueError(f"unknown elements mode {elements!r}")
    rels = list(pres.relators)
    rels += [mirror_word(r, n) for r in pres.relators]
    rels += [commutator(w, mirror_word(w, n)) for w in sources]
    label = pres.name or base.name
    return Presentation(
        list(pres.generators) + mirror_names(pres.generators),
        rels,
        name=f"xp_{label}" if label else None,
    )


@dataclass
class XPBundle:
    """X together with its structural maps and distinguished subgroups."""

    base: FiniteGroup
    group: PermGroup
    embed_left: Homomorphism
    embed_right: Homomorphism
    alpha: Homomorphism
    rho: tuple[Homomorphism, Homomorphism, Homomorphism]  # (rho1, alpha, rho3)
    im_rho: np.ndarray  # read-only; the triple (g1, g2, g3) at (g1*n + g2)*n + g3
    left_copy: Subgroup
    right_copy: Subgroup
    L: Subgroup
    D: Subgroup
    W: Subgroup
    R: Subgroup

    def h2_invariants(self) -> list[int]:
        """Invariant factors of W/R (the multiplier reading of this
        construction)."""
        return quotient_invariants(self.W, self.R)

    def orders(self) -> dict[str, int]:
        return {
            "base": self.base.order,
            "group": self.group.order,
            "L": self.L.order,
            "D": self.D.order,
            "W": self.W.order,
            "R": self.R.order,
            "im_rho": int(np.count_nonzero(self.im_rho)),
        }


def copy_projections(X: FiniteGroup, base: FiniteGroup) -> tuple[Homomorphism, Homomorphism]:
    """rho1 and rho3 of a group X on two copies of base's generators: X
    onto base through the first, resp. the second, copy, the other copy
    sent to the identity."""
    ones = [base.identity] * len(base.generators)
    return (
        Homomorphism(X, base, base.generators + ones),
        Homomorphism(X, base, ones + base.generators),
    )


def build_xp(
    base: FiniteGroup,
    limits: EnumerationLimits | None = None,
) -> XPBundle:
    """Enumerate X from the short commutation family, then certify the
    full family on the images of the two embeddings.

    Every short relator follows from the full family: a word and the
    canonical word of its element differ by base relators, in both
    copies.  So the group X' the short family presents maps onto X (the
    identity on generators).  The full relator [w_g, mirror(w_g)] holds
    in X' exactly when the images of g under the two embeddings, which
    spell w_g on the left generators and mirror(w_g) on the right ones,
    commute; once they do for every g, X maps onto X' as well, and both
    are finite, so X' = X.  `build_tensor_square` certifies T by the
    same argument.  X' itself comes from the cosets of the left copy
    (groups.group_from_fold), and `limits` bounds both that enumeration
    and the |X'| rows assembled from it.  A failed certification raises
    RuntimeError naming the canonical word of the first element g that
    fails; there is no fallback.
    """
    pres = xp_presentation(base, elements="short")
    X = group_from_fold(pres, base, limits=limits)
    n = base.presentation.ngens
    left_images = X.generators[:n]
    right_images = X.generators[n:]

    embed_left = Homomorphism(base, X, left_images)
    embed_right = Homomorphism(base, X, right_images)
    bad = np.flatnonzero(X._commutators(embed_left._image, embed_right._image))
    if bad.size:
        word = base.presentation.word_text(Word(base.word_of(bad[0])))
        raise RuntimeError(
            f"short commutation family of X fails the full family at the element {word}"
        )
    alpha = Homomorphism(X, base, base.generators + base.generators)
    rho1, rho3 = copy_projections(X, base)
    rho = (rho1, alpha, rho3)
    im_rho = np.zeros(base.order**3, dtype=bool)
    im_rho[np.ravel_multi_index([f._image for f in rho], (base.order,) * 3)] = True
    im_rho.flags.writeable = False

    left_copy = subgroup_closure(X, left_images)
    right_copy = subgroup_closure(X, right_images)
    L = alpha.kernel()
    D = _masked(X, (rho1._image == 0) & (rho3._image == 0))
    W = _masked(X, D.mask & (alpha._image == 0))
    inner = commutator_subgroup(L, right_copy)
    R = commutator_subgroup(left_copy, inner)
    return XPBundle(
        base=base,
        group=X,
        embed_left=embed_left,
        embed_right=embed_right,
        alpha=alpha,
        rho=rho,
        im_rho=im_rho,
        left_copy=left_copy,
        right_copy=right_copy,
        L=L,
        D=D,
        W=W,
        R=R,
    )


def fold_difference_generators(bundle: XPBundle, scope: str = "all") -> list:
    """Elements g * mirror(g)^-1, which generate L = ker(alpha).

    `scope="gens"` restricts to the base generators; that subset need not
    generate all of L, which is the point of exposing it.
    """
    base, X = bundle.base, bundle.group
    if scope == "all":
        items = [g for g in base.elements if g != base.identity]
    elif scope == "gens":
        items = [g for g in base.generators if g != base.identity]
    else:
        raise ValueError(f"unknown scope {scope!r}")
    items = np.asarray(items, dtype=np.intp)
    left, right = bundle.embed_left._image[items], bundle.embed_right._image[items]
    return X._products(left, X._inverses(right)).tolist()


def symmetrized_generators(base, extra=()) -> list:
    """The base generators plus `extra`, closed under inversion, with
    the identity dropped -- a symmetric generating set."""
    sym = []
    seen = set()
    cands = list(base.generators) + list(extra)
    for g, g_inv in zip(cands, base._inverses(np.asarray(cands, dtype=np.intp)).tolist()):
        for h in (g, g_inv):
            if h != base.identity and h not in seen:
                seen.add(h)
                sym.append(h)
    return sym


def z_set(bundle: XPBundle, generating_set=None) -> list:
    """The elements [x1, [y*mirror(y)^-1, mirror(x2)]] over a symmetric
    generating set of the base; their normal closure is R.  The set
    defaults to the symmetrized base generators; a custom one must be
    symmetric, identity-free, and generate the base."""
    base, X = bundle.base, bundle.group
    if generating_set is None:
        sym = symmetrized_generators(base)
    else:
        sym = list(dict.fromkeys(generating_set))
        if base.identity in sym:
            raise ValueError("generating set contains the identity")
        if any(g not in sym for g in base._inverses(np.asarray(sym, dtype=np.intp)).tolist()):
            raise ValueError("generating set is not symmetric")
        if subgroup_closure(base, sym).order != base.order:
            raise ValueError("set does not generate the base group")
    # one batch per bracket, each in the order of loops over x1, y, x2
    # (x2 innermost): ell[y] = y * mirror(y)^-1, inner[y, x2] = [ell[y],
    # mirror(x2)], and the result [x1, inner[y, x2]]
    m = len(sym)
    sym = np.asarray(sym, dtype=np.intp)
    left, right = bundle.embed_left._image[sym], bundle.embed_right._image[sym]
    ell = X._products(left, X._inverses(right))
    inner = X._commutators(np.repeat(ell, m), np.tile(right, m))
    return X._commutators(np.repeat(left, m * m), np.tile(inner, m)).tolist()


def swap_pairing_holds(bundle: XPBundle) -> bool:
    """[x, mirror(y)] == [mirror(x), y] for all base elements x, y."""
    X = bundle.group
    left, right = bundle.embed_left._image, bundle.embed_right._image
    i, j = (x.ravel() for x in np.indices((len(left), len(left))))
    return np.array_equal(
        X._commutators(left[i], right[j]), X._commutators(right[i], left[j])
    )


def induced_xp_map(f: Homomorphism, src: XPBundle, dst: XPBundle) -> Homomorphism:
    """Functorial map X(f): both copies transported through f.

    Construction verifies the relators, so a non-homomorphic assignment
    cannot slip through.
    """
    if f.domain is not src.base or f.codomain is not dst.base:
        raise ValueError("map endpoints do not match the bundles")
    imgs = [dst.embed_left(f(g)) for g in src.base.generators]
    imgs += [dst.embed_right(f(g)) for g in src.base.generators]
    return Homomorphism(src.group, dst.group, imgs)
