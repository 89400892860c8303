"""Exact integer linear algebra over Z and low-degree group homology.

Invariant factors are always reported in ascending divisibility order
(d1 | d2 | ... | dr, one entry per nonzero diagonal of the Smith normal
form, so r is the rank).  Torsion readings drop the 1s.

The Smith form runs in two stages: a sparse stage that eliminates +-1
pivots column by column (cheap, removes almost everything for the highly
redundant boundary matrices built here), then an exact textbook reduction
on the small dense remainder.  Everything is plain Python int arithmetic,
so there is no overflow to worry about.

abelian_schreier reads H^ab off the coset table of a subgroup H of
finite index, with the coordinate in it of every edge of the table
(abelianised Reidemeister-Schreier).  Its relation matrix has one row
per relator and coset, so it is not handed to the Smith form: a sweep
defines almost every edge from one relator walk, and only the walks
left over reach a small Hermite normal form, in int64 with a checked
bound.

H_1 and H_2 of a finite group G on d generators (repeats and the
identity count) are read off one relation module, that of its Cayley
graph: Hopf's formula (R & F')/[F, R] through Gruenberg's resolution
0 -> R_ab -> ZG^d -> I_G -> 0 (Brown, Cohomology of Groups, GTM 87,
section II.5).  H_1 of the graph is R_ab, spanned by one loop per edge
around the shortlex BFS tree.  Z^d modulo the loops' images
(relation_rows) is H_1(G) = G^ab; the edges modulo I_G*R_ab make
Z^(|G|+d-1) + H_2, so H_2 is the torsion of that cokernel and the rank
of I_G*R_ab is checked at run time (a Smith form of about d^2*|G| short
rows).  Every abelian invariant, of a group, of a section N/M (groups.
quotient_invariants) or of a sum of cyclic groups, is one Smith form.
The normalized bar complex stays as an independent oracle: H_2 is the
torsion of coker(d3) because ker(d2) is a pure sublattice of C_2, and it
costs |G|^3.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass
from math import gcd, prod

import numpy as np

from .coset import CHUNK_CELLS, _by_length, shortlex_bfs, word_to_cols


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
    orders: the Smith form of their diagonal matrix."""
    return torsion_factors(invariant_factors({(i, i): n for i, n in enumerate(orders)}))


def letter_counts(G) -> np.ndarray:
    """Row x: how often each generator occurs in the shortlex word of x,
    counted from its steps; the pad past a word's end counts in a last,
    dropped column."""
    d = len(G.generators)
    counts = np.zeros((G.order, d + 1), dtype=np.int64)
    every = np.arange(G.order)
    for step in G._steps:
        counts[every, step >> 1] += 1
    return counts[:, :d]


def relation_rows(G) -> list[tuple[int, ...]]:
    """The distinct vectors c(x) + e_i - c(x*g_i) in Z^d, c the letter
    counts: each is the image in Z^d, the free abelian group on the d
    generators, of the loop that edge x -> x*g_i closes with the shortlex
    tree.  By Schreier those loops generate the relators R of the free
    group, so the rows span the image of R, and Z^d over their span is
    G^ab."""
    c = letter_counts(G)
    unit = np.eye(len(G.generators), dtype=np.int64)
    whole_row = np.dtype((np.void, unit.itemsize * len(unit)))
    rows: dict[tuple[int, ...], None] = {}
    # one generator's n rows at a time: np.unique on a byte view of the
    # rows finds each distinct row's first occurrence (np.unique(axis=0),
    # or np.unique without return flags, would import numpy.ma), and
    # dict.fromkeys drops the repeats across generators
    for e_i, col in zip(unit, G.gen_cols):
        block = c + e_i - c[col]
        first = np.sort(np.unique(block.view(whole_row).ravel(), return_index=True)[1])
        rows.update(dict.fromkeys(map(tuple, block[first].tolist())))
    return list(rows)


def abelian_invariants(G) -> list[int]:
    """Invariant factors of a finite abelian group, 1s dropped: the
    torsion of Z^d modulo its relation rows."""
    if not G.is_abelian():
        raise ValueError("abelian_invariants needs an abelian group")
    return torsion_factors(invariant_factors(relation_rows(G)))


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
# Abelianised Reidemeister-Schreier
# ---------------------------------------------------------------------------

# Every coordinate and lattice entry stays at most this in absolute value
# between steps, so that one multiply-and-subtract of two of them, or a
# walk's sum, is exact in int64; a step that leaves the bound raises.
COORD_BOUND = 1 << 31


def _bounded(a: np.ndarray) -> np.ndarray:
    if a.size and np.abs(a).max() > COORD_BOUND:
        raise RuntimeError(
            f"a Reidemeister-Schreier coordinate exceeds the bound {COORD_BOUND}; "
            "the subgroup's relation lattice is out of exact int64 range"
        )
    return a


@dataclass
class AbelianSchreier:
    """H^ab for a subgroup H of finite index, with the coordinates of the
    edges of its coset table.

    H^ab is Z^r modulo the rows of `hnf`: an r x r Hermite normal form,
    upper triangular with diagonal d_j > 1 and 0 <= hnf[i, j] < d_j
    above it.  Each element has one representative in the box 0 <= v_j <
    d_j (`reduce`), and `coords[i, c]` is that of the edge c -x_i-> c*x_i,
    the element t_c * x_i * t_(c*x_i)^-1 of H, t_c the shortlex word of
    coset c.  `free` counts the free coordinates the sweep introduced.
    """

    hnf: np.ndarray
    coords: np.ndarray
    free: int

    @property
    def order(self) -> int:
        return prod(int(d) for d in np.diagonal(self.hnf))

    def invariants(self) -> list[int]:
        """The invariant factors of H^ab, 1s dropped."""
        return torsion_factors(invariant_factors(self.hnf.tolist()))

    def reduce(self, v) -> np.ndarray:
        """The box representatives of the vectors along the last axis of v."""
        return _reduce(self.hnf, v)


def _reduce(hnf: np.ndarray, v) -> np.ndarray:
    """Column j of every vector brought into [0, d_j) by a multiple of row
    j of the Hermite normal form, which leaves the columns before j alone
    (and the ones after it, when row j is d_j * e_j)."""
    v = np.array(v, dtype=np.int64)
    for j, row in enumerate(hnf):
        if row[j + 1 :].any():
            q = v[..., j] // row[j]
            v[..., j:] = _bounded(v[..., j:] - q[..., None] * row[j:])
        else:
            v[..., j] %= row[j]
    return v


def _walks(cols: np.ndarray, letters: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The edges that the words `letters` (one row of table columns each)
    cross from every coset in `starts`, one walk per word and start.

    Edge i*k + c is c -x_i->; the walk holds 2*edge for an edge crossed
    forward (column 2*i) and 2*edge + 1 for one crossed backward (column
    2*i + 1 from the edge's head)."""
    k = cols.shape[1]
    nwords, length = letters.shape
    p = np.broadcast_to(starts, (nwords, len(starts)))
    out = np.empty((nwords, len(starts), length), dtype=np.int32)
    for t in range(length):
        c = letters[:, t, None]
        q = cols[c, p]
        back = c & 1
        out[:, :, t] = 2 * ((c >> 1) * k + np.where(back, q, p)) + back
        p = q
    return out.reshape(-1, length)


def _sweep(walks: list, known: np.ndarray, value: np.ndarray):
    """Give every edge a value in Z^K, K growing, such that every walk
    sums to zero or is returned as a relation.

    A pass defines, at once, each unknown edge that is the only unknown
    occurrence in some walk, as minus the sum of the others (the first
    such walk, which is then used up).  When a pass defines nothing, the
    first unknown edge becomes a new free coordinate.  Returns the values,
    the walks that were not used up (each sums to a relation), and the
    count of free coordinates."""
    closed = []
    free = 0
    while walks:
        progress = False
        rest = []
        for W in walks:
            unknown = ~known[W >> 1]
            count = unknown.sum(axis=1)
            one = np.flatnonzero(count == 1)
            if one.size:
                f = W[one, unknown[one].argmax(axis=1)]
                e, first = np.unique(f >> 1, return_index=True)
                one, f = one[first], f[first]
                rows = W[one]
                # unknown edges hold 0 until defined, so they add nothing
                s = (value[rows >> 1] * (1 - 2 * (rows & 1))[:, :, None]).sum(axis=1)
                value[e] = _bounded(np.where((f & 1)[:, None], s, -s))
                known[e] = True
                count[one] = -1
                progress = True
            closed.append(W[count == 0])
            if (count > 0).any():
                rest.append(W[count > 0])
        walks = rest
        if walks and not progress:
            value = np.hstack([value, np.zeros((len(value), 1), dtype=np.int64)])
            e = np.flatnonzero(~known)[0]
            value[e, -1] = 1
            known[e] = True
            free += 1
    return value, closed, free


def _relations(walks: list, value: np.ndarray) -> np.ndarray:
    """The nonzero sums of the walks, in chunks."""
    K = value.shape[1]
    signed = np.empty((2 * len(value), K), dtype=np.int64)
    signed[0::2], signed[1::2] = value, -value
    out = [np.zeros((0, K), dtype=np.int64)]
    step = max(1, CHUNK_CELLS // max(K, 1))
    for W in walks:
        for s in range(0, len(W), step):
            chunk = W[s : s + step]
            acc = signed[chunk[:, 0]]
            for t in range(1, chunk.shape[1]):
                acc += signed[chunk[:, t]]
            out.append(acc[acc.any(axis=1)])
    return _bounded(np.concatenate(out))


def _eliminate_units(R: np.ndarray, value: np.ndarray):
    """Drop every coordinate that some relation has with coefficient
    +-1: with that row scaled to r_j = 1, e_j = e_j - r in the quotient,
    so v becomes v - v_j * r in every relation and every value."""
    while R.size:
        unit = np.abs(R) == 1
        hit = np.flatnonzero(unit.any(axis=0))
        if not hit.size:
            break
        j = hit[0]
        rows = np.flatnonzero(unit[:, j])
        r = rows[np.argmin(np.count_nonzero(R[rows], axis=1))]
        row = R[r] * R[r, j]
        R = _bounded(R - np.outer(R[:, j], row))
        value = _bounded(value - np.outer(value[:, j], row))
        R, value = np.delete(R, j, axis=1), np.delete(value, j, axis=1)
        R = R[R.any(axis=1)]
    return R, value


def _hnf(R: np.ndarray) -> np.ndarray:
    """The reduced Hermite normal form of a full-rank lattice, as its
    square basis.  Column by column, the rows are reduced against the one
    of least nonzero entry there until only it is left, which becomes a
    basis row; then each entry above a pivot d_j is brought into [0, d_j).
    Raises RuntimeError when a column runs out of rows (infinite
    quotient)."""
    K = R.shape[1]
    basis = np.zeros((K, K), dtype=np.int64)
    for j in range(K):
        while True:
            nz = np.flatnonzero(R[:, j])
            if not nz.size:
                raise RuntimeError("the subgroup's abelianization is infinite")
            piv = nz[np.argmin(np.abs(R[nz, j]))]
            others = nz[nz != piv]
            if not others.size:
                break
            R[others] = _bounded(R[others] - (R[others, j] // R[piv, j])[:, None] * R[piv])
        basis[j] = R[piv] * np.sign(R[piv, j])
        R = np.delete(R, piv, axis=0)
        R = R[R.any(axis=1)]
    for j in range(K):
        basis[:j] = _bounded(basis[:j] - (basis[:j, j] // basis[j, j])[:, None] * basis[j])
    return basis


def abelian_schreier(table) -> AbelianSchreier:
    """H^ab, and the coordinates in it of every edge, for the subgroup H
    of a completed, standardized coset table (abelianised Reidemeister-
    Schreier: H^ab is generated by the edges, modulo the tree edges of
    the shortlex BFS and every relator walked from every coset).

    Each subgroup word w_j, walked from coset 0, is closed by a pseudo-
    edge crossed backward whose value is the unit vector e_j.  Tree edges
    and pseudo-edges start known; _sweep defines the rest, and the walks
    it did not use up give the relation lattice in Z^K.  Coordinates with
    a unit coefficient in a relation are eliminated (Havas-Holt-Rees,
    Linear Algebra Appl. 192, 1993), the rest is put in Hermite normal
    form, every value is reduced into its box, and coordinates whose
    diagonal is 1 (always 0 in the box) are dropped.  Everything is
    exact; a coordinate beyond COORD_BOUND or an infinite H^ab raises
    RuntimeError.
    """
    cols = table.col_arrays()
    m, k = table.ngens, table.n
    nedges = m * k
    subgroup = [word_to_cols(w) for w in table.subgroup_words if w.letters]
    known = np.zeros(nedges + len(subgroup), dtype=bool)
    known[nedges:] = True
    for _, src, gen in shortlex_bfs(cols[0::2]):
        known[gen * k + src] = True
    value = np.zeros((len(known), len(subgroup)), dtype=np.int64)
    value[nedges:] = np.eye(len(subgroup), dtype=np.int64)

    walks: dict[int, list] = {}
    relators = dict.fromkeys(word_to_cols(w) for w in table.presentation.relators)
    for length, letters in _by_length(relators).items():
        walks.setdefault(length, []).append(_walks(cols, letters, np.arange(k)))
    pseudo = 2 * nedges + 1  # the next subgroup word's pseudo-edge, crossed backward
    for length, letters in _by_length(subgroup).items():
        closing = np.arange(pseudo, pseudo + 2 * len(letters), 2, dtype=np.int32)[:, None]
        walk = _walks(cols, letters, np.zeros(1, dtype=np.intp))
        walks.setdefault(length + 1, []).append(np.hstack([walk, closing]))
        pseudo += 2 * len(letters)
    value, closed, free = _sweep([np.concatenate(ws) for ws in walks.values()], known, value)

    R, value = _eliminate_units(_relations(closed, value), value)
    hnf = _hnf(R)
    keep = np.diagonal(hnf) > 1
    coords = _reduce(hnf, value[:nedges])[:, keep].reshape(m, k, -1)
    return AbelianSchreier(hnf[keep][:, keep], coords, free)


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
    table = G.multiplication_table().tolist()

    def mul(g, h):
        return table[g][h]

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

