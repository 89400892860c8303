"""Exact integer linear algebra over Z and low-degree group homology.

Invariant factors are always reported in ascending divisibility order
(d1 | d2 | ... | dr, one entry per nonzero diagonal of the Smith normal
form, so r is the rank).  Torsion readings drop the 1s.

The Smith form runs in two stages: a sparse stage that eliminates +-1
pivots column by column (cheap, removes almost everything for the highly
redundant boundary matrices built here), then an exact textbook reduction
on the small dense remainder.  Everything is plain Python int arithmetic,
so there is no overflow to worry about.

The second homology of a finite group G on d generators (repeats and
the identity count) is read off the relation module of its Cayley graph:
Hopf's formula (R & F')/[F, R] through Gruenberg's resolution
0 -> R_ab -> ZG^d -> I_G -> 0 (Brown, Cohomology of Groups, GTM 87,
section II.5).  H_1 of the graph is R_ab, spanned by one loop per edge
around the shortlex BFS tree, and the edges modulo I_G*R_ab make
Z^(|G|+d-1) + H_2, so H_2 is the torsion of that cokernel and the rank
of I_G*R_ab is checked at run time.  The cost is the Smith form of about
d^2*|G| short rows.  The normalized bar complex stays as an independent
oracle: H_2 is the torsion of coker(d3) because ker(d2) is a pure
sublattice of C_2, and it costs |G|^3.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from math import gcd

import numpy as np

from .coset import shortlex_bfs


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def _sparse_unit_eliminate(rows: dict[int, dict[int, int]]):
    """Eliminate +-1 pivots in place; returns the number eliminated.

    `rows` maps row index -> {col index: value}.  After return it holds
    only the rows/columns that had no unit pivot reachable.
    """
    cols: dict[int, set[int]] = defaultdict(set)
    for i, r in rows.items():
        for j in r:
            cols[j].add(i)
    units = 0
    progress = True
    while progress:
        progress = False
        for j in sorted(cols):
            rowset = cols.get(j)
            if not rowset:
                cols.pop(j, None)
                continue
            piv = None
            for i in sorted(rowset, key=lambda i: (len(rows[i]), i)):
                if abs(rows[i][j]) == 1:
                    piv = i
                    break
            if piv is None:
                continue
            s = rows[piv][j]
            prow = dict(rows[piv])
            for i in sorted(rowset - {piv}):
                ri = rows[i]
                m = ri[j] * s
                for jj, v in prow.items():
                    nv = ri.get(jj, 0) - m * v
                    if nv:
                        if jj not in ri:
                            cols[jj].add(i)
                        ri[jj] = nv
                    elif jj in ri:
                        del ri[jj]
                        cols[jj].discard(i)
                if not ri:
                    del rows[i]
            for jj in prow:
                cols[jj].discard(piv)
            del rows[piv]
            cols.pop(j, None)
            units += 1
            progress = True
    return units


def _dense_invariants(a: list[list[int]]) -> list[int]:
    """Exact Smith normal form of a dense integer matrix; returns the
    nonzero diagonal (ascending divisibility)."""
    a = [list(row) for row in a]
    m = len(a)
    n = len(a[0]) if m else 0
    res: list[int] = []
    t = 0
    while t < m and t < n:
        # pull the smallest nonzero entry of the submatrix to (t, t)
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = a[i][j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
        if best is None:
            break
        _, bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        if bj != t:
            for row in a:
                row[t], row[bj] = row[bj], row[t]
        while True:
            if a[t][t] < 0:
                a[t] = [-v for v in a[t]]
            p = a[t][t]
            swapped = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // p
                    if q:
                        at = a[t]
                        ai = a[i]
                        for j in range(t, n):
                            ai[j] -= q * at[j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        swapped = True
                        break
            if swapped:
                continue
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // p
                    if q:
                        for i in range(t, m):
                            a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for i in range(t, m):
                            a[i][t], a[i][j] = a[i][j], a[i][t]
                        swapped = True
                        break
            if swapped:
                continue
            bad = None
            for i in range(t + 1, m):
                if any(a[i][j] % p for j in range(t + 1, n)):
                    bad = i
                    break
            if bad is None:
                res.append(p)
                t += 1
                break
            arow = a[bad]
            at = a[t]
            for j in range(t, n):
                at[j] += arow[j]
    return res


def _as_rows(entries):
    if isinstance(entries, dict):
        rows: dict[int, dict[int, int]] = defaultdict(dict)
        for (i, j), v in entries.items():
            if v:
                rows[i][j] = v
        return dict(rows)
    rows = {}
    for i, row in enumerate(entries):
        r = {j: v for j, v in enumerate(row) if v}
        if r:
            rows[i] = r
    return rows


def invariant_factors(entries) -> list[int]:
    """Invariant factors of an integer matrix.

    `entries` is either a list of rows or a sparse {(i, j): value} dict
    (zero rows/columns never matter for the result).
    """
    rows = _as_rows(entries)
    units = _sparse_unit_eliminate(rows)
    factors = [1] * units
    if rows:
        live_rows = sorted(rows)
        live_cols = sorted({j for r in rows.values() for j in r})
        colpos = {j: k for k, j in enumerate(live_cols)}
        dense = [[0] * len(live_cols) for _ in live_rows]
        for k, i in enumerate(live_rows):
            for j, v in rows[i].items():
                dense[k][colpos[j]] = v
        factors.extend(_dense_invariants(dense))
    return factors


def matrix_rank(entries) -> int:
    return len(invariant_factors(entries))


def torsion_factors(factors: list[int]) -> list[int]:
    return [d for d in factors if d != 1]


# ---------------------------------------------------------------------------
# Abelian invariants
# ---------------------------------------------------------------------------


def invariants_from_cyclic_orders(orders) -> list[int]:
    """Invariant-factor form of a direct sum of cyclic groups of the given
    orders."""
    primary: dict[int, list[int]] = defaultdict(list)
    for n in orders:
        for p, e in _factorize(n).items():
            primary[p].append(e)
    for exps in primary.values():
        exps.sort(reverse=True)
    width = max((len(v) for v in primary.values()), default=0)
    ds = []
    for i in range(width):
        d = 1
        for p, exps in primary.items():
            if i < len(exps):
                d *= p ** exps[i]
        ds.append(d)
    return ds[::-1]


def abelian_invariants(G) -> list[int]:
    """Invariant factors of a finite abelian group, from element-order
    counts (the number of solutions of x^(p^k) = 1 determines the p-primary
    partition)."""
    if not G.is_abelian():
        raise ValueError("abelian_invariants needs an abelian group")
    n = G.order
    if n == 1:
        return []
    order_counts = Counter(G.element_order(x) for x in G.elements)
    primary: dict[int, list[int]] = {}
    for p in _factorize(n):
        fks = []
        prev = 1
        k = 1
        while True:
            ck = sum(
                cnt
                for o, cnt in order_counts.items()
                if _divides_prime_power(o, p, k)
            )
            if ck == prev:
                break
            ratio = ck // prev
            fk = 0
            while ratio % p == 0:
                ratio //= p
                fk += 1
            if ratio != 1 or ck != prev * p**fk:
                raise RuntimeError("inconsistent element-order counts")
            fks.append(fk)
            prev = ck
            k += 1
        # conjugate partition: component i has exponent #{k : f_k > i}
        exps = [sum(1 for f in fks if f > i) for i in range(fks[0])] if fks else []
        if exps:
            primary[p] = exps
    return invariants_from_cyclic_orders(p**e for p, exps in primary.items() for e in exps)


def _divides_prime_power(o: int, p: int, k: int) -> bool:
    e = 0
    while o % p == 0:
        o //= p
        e += 1
    return o == 1 and e <= k


def exterior_square_invariants(invariants) -> list[int]:
    """Exterior square of an abelian group with the given cyclic
    decomposition: one cyclic factor of order gcd(d_i, d_j) per pair
    i < j."""
    pieces = [
        g
        for i, di in enumerate(invariants)
        for dj in invariants[i + 1 :]
        if (g := gcd(di, dj)) > 1
    ]
    return invariants_from_cyclic_orders(pieces)


def is_quotient_invariants(quot: list[int], of: list[int]) -> bool:
    """Whether an abelian group with invariants `quot` is a quotient of one
    with invariants `of` (right-aligned divisibility test)."""
    if len(quot) > len(of):
        return False
    return all(of[-1 - i] % q == 0 for i, q in enumerate(reversed(quot)))


# ---------------------------------------------------------------------------
# Second homology
# ---------------------------------------------------------------------------


def schur_multiplier(G) -> list[int]:
    """H_2(G, Z) as a list of invariant factors, read off the relation
    module of the Cayley graph.

    Edge (x, i) joins x to x*g_i and is column x*d + i.  With P(x) the
    path of tree edges from the identity to x, each edge gives the loop
    s = P(x) + (x, i) - P(x*g_i), zero on tree edges.  The rows y*s - s,
    for every generator y acting by (x, i) -> (y*x, i), span I_G*R_ab,
    whose cokernel is Z^(n+d-1) + H_2; any other rank raises
    RuntimeError."""
    n, d = G.order, len(G.generators)
    path = [()] * n
    for found, src, gen in shortlex_bfs(G.gen_cols):
        for x, s, i in zip(found.tolist(), src.tolist(), gen.tolist()):
            path[x] = path[s] + (s * d + i,)
    right = G.gen_cols.tolist()
    left = [G._products(np.full(n, y), np.arange(n)).tolist() for y in G.generators]
    rows: dict[tuple[int, int], int] = {}
    r = 0
    for x in range(n):
        for i in range(d):
            loop = Counter(path[x])
            loop[x * d + i] += 1
            loop.subtract(path[right[i][x]])
            loop = {e: v for e, v in loop.items() if v}
            for y in left:
                row = Counter()
                for e, v in loop.items():
                    row[y[e // d] * d + e % d] += v
                    row[e] -= v
                for e, v in row.items():
                    if v:
                        rows[r, e] = v
                r += 1
    factors = invariant_factors(rows)
    if len(factors) != (n - 1) * (d - 1):
        raise RuntimeError(
            f"relation-module rank {len(factors)} is not (n-1)(d-1) = {(n - 1) * (d - 1)}"
        )
    return torsion_factors(factors)


def bar_boundaries(G):
    """Sparse matrices of d2 and d3 of the normalized bar complex (rows are
    basis tuples, entries their boundary coefficients)."""
    e = G.identity
    els = [x for x in G.elements if x != e]
    idx1 = {x: i for i, x in enumerate(els)}
    pairs = list(itertools.product(els, els))
    idx2 = {pq: i for i, pq in enumerate(pairs)}
    mul = G.mul

    d2: dict[tuple[int, int], int] = defaultdict(int)
    for r, (g, h) in enumerate(pairs):
        d2[r, idx1[h]] += 1
        d2[r, idx1[g]] += 1
        gh = mul(g, h)
        if gh != e:
            d2[r, idx1[gh]] -= 1

    d3: dict[tuple[int, int], int] = defaultdict(int)
    r = 0
    for g, h in pairs:
        gh = mul(g, h)
        for k in els:
            d3[r, idx2[h, k]] += 1
            if gh != e:
                d3[r, idx2[gh, k]] -= 1
            hk = mul(h, k)
            if hk != e:
                d3[r, idx2[g, hk]] += 1
            d3[r, idx2[g, h]] -= 1
            r += 1

    d2 = {k: v for k, v in d2.items() if v}
    d3 = {k: v for k, v in d3.items() if v}
    return d2, d3, len(els)


def schur_multiplier_bar(G) -> list[int]:
    """H_2(G, Z) as a list of invariant factors, computed from the
    normalized bar complex; cubic in |G|."""
    if G.order == 1:
        return []
    d2, d3, m1 = bar_boundaries(G)
    f2 = invariant_factors(d2)
    f3 = invariant_factors(d3)
    m2 = m1 * m1
    if len(f2) + len(f3) != m2:
        raise RuntimeError("boundary ranks do not complement: H_2 not finite?")
    if len(f2) != m1:
        raise RuntimeError("d2 is not of full column rank")
    return torsion_factors(f3)

