"""Todd-Coxeter coset enumeration: HLT with lookahead and Felsch.

The default strategy, "auto", reads the shape of the presentation: Felsch
when every relator has at most 3 letters (the wide symbol presentations of
the tensor square, where HLT fills every column of every row and defines
hundreds of cosets per final one), HLT otherwise (the narrow doubled and
pairing presentations, where HLT's relator-driven definitions pay off).
Felsch pushes one deduction per new edge: the rotations that start with the
inverse letter at the other end walk the same closed paths in reverse.

Table format: one row per coset, 2*ngens columns.  Column 2*i holds the
action of generator i, column 2*i+1 that of its inverse (so a column's
inverse column is ``col ^ 1``); -1 marks an undefined entry.  Coset 0 is
the subgroup coset.

Completed tables are compressed (dead rows removed) and standardized:
cosets are renumbered in BFS discovery order from coset 0, exploring
positive generator columns in index order.  The standardized table is
canonical for the (presentation, subgroup) pair, so HLT and Felsch agree
on it, and the BFS also yields shortlex canonical words in the positive
generators for every coset.

Enumeration either completes or raises EnumerationError (limit/time); a
partial table is never returned.  Memory is bounded by a cell budget, rows
times columns, as well as by the live-coset cap: a wide presentation
(T(C64) has 7938 columns) reaches gigabytes long before it reaches a row
cap.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .words import Presentation, Word

# Cell budget: rows (dead ones included) times 2*ngens columns.  It is
# fixed; max_cosets does not raise it.  Forced HLT on T(Heis27), the widest
# catalog enumeration (1352 columns), peaks at 71 731 rows, 97.0 M cells
# and about 1.1 GB; the list-of-lists table costs about 11.5 bytes a cell.
MAX_CELLS = 120_000_000


@dataclass
class EnumerationLimits:
    """Resource bounds for one enumeration.

    max_cosets bounds *live* cosets at any instant; max_time is wall-clock
    seconds (None = unbounded).  The table is also held to MAX_CELLS.
    """

    max_cosets: int = 10_000_000
    max_time: float | None = None


class EnumerationError(RuntimeError):
    """Enumeration hit a resource limit; carries the cosets used so far."""

    def __init__(self, message: str, cosets_used: int):
        super().__init__(message)
        self.cosets_used = cosets_used


class _CapHit(Exception):
    """Internal: live-coset cap reached; main loop should relieve pressure."""


def word_to_cols(w: Word) -> tuple[int, ...]:
    return tuple(2 * (a - 1) if a > 0 else 2 * (-a - 1) + 1 for a in w.letters)


class CosetTable:
    """A completed, standardized coset table."""

    def __init__(self, ngens, rows, words, presentation, subgroup_words, strategy, stats):
        self.ngens = ngens
        self.rows = rows
        self.words = words  # coset -> tuple of positive letters (1-based)
        self.presentation = presentation
        self.subgroup_words = list(subgroup_words)
        self.strategy = strategy
        self.stats = stats
        self._arrays = None

    @property
    def n(self) -> int:
        return len(self.rows)

    def trace(self, coset: int, letters) -> int:
        """Follow a letter sequence (signed, 1-based) from a coset."""
        row = self.rows
        for a in letters:
            coset = row[coset][2 * (a - 1) if a > 0 else 2 * (-a - 1) + 1]
        return coset

    def col_arrays(self) -> np.ndarray:
        """All 2*ngens columns as an int32 array of shape (ncols, n)."""
        if self._arrays is None:
            self._arrays = np.array(self.rows, dtype=np.int32).T.copy()
        return self._arrays

    def relators_hold(self, relator_words) -> bool:
        """Vectorized check that every word acts as the identity permutation."""
        cols = self.col_arrays()
        idx = np.arange(self.n, dtype=np.int32)
        for w in relator_words:
            v = idx
            for c in word_to_cols(w):
                v = cols[c][v]
            if not np.array_equal(v, idx):
                return False
        return True


class _Enumerator:
    def __init__(self, pres: Presentation, subgroup_words, limits: EnumerationLimits, strategy: str):
        self.pres = pres
        self.ngens = pres.ngens
        self.ncols = 2 * pres.ngens
        self.rel_cols = []
        seen = set()
        for w in pres.relators:
            cols = word_to_cols(w)
            if cols and cols not in seen:
                seen.add(cols)
                self.rel_cols.append(cols)
        self.sub_cols = [word_to_cols(w) for w in subgroup_words if w]
        self.limits = limits
        self.max_rows = MAX_CELLS // max(self.ncols, 1)
        self.strategy = strategy
        self.table: list[list[int]] = [[-1] * self.ncols]
        self.p = [0]
        self.live = 1
        self.total_defined = 1
        self._cq: deque = deque()
        self._deadline = None if limits.max_time is None else time.monotonic() + limits.max_time
        self._time_probe = 0

    # -- union-find ---------------------------------------------------------

    def _rep(self, k: int) -> int:
        p = self.p
        r = k
        while p[r] != r:
            r = p[r]
        while p[k] != r:
            p[k], k = r, p[k]
        return r

    def _merge(self, k: int, l: int, q: deque):
        k = self._rep(k)
        l = self._rep(l)
        if k != l:
            if k > l:
                k, l = l, k
            self.p[l] = k
            self.live -= 1
            q.append(l)

    def _coincidence(self, a: int, b: int, deds):
        q = self._cq
        self._merge(a, b, q)
        table = self.table
        while q:
            gamma = q.popleft()
            row = table[gamma]
            for x in range(self.ncols):
                delta = row[x]
                if delta < 0:
                    continue
                table[delta][x ^ 1] = -1
                mu = self._rep(gamma)
                nu = self._rep(delta)
                t = table[mu][x]
                if t >= 0:
                    self._merge(nu, t, q)
                else:
                    u = table[nu][x ^ 1]
                    if u >= 0:
                        self._merge(mu, u, q)
                    else:
                        table[mu][x] = nu
                        table[nu][x ^ 1] = mu
                        if deds is not None:
                            deds.append((mu, x))

    # -- defining and scanning ----------------------------------------------

    def _check_deadline(self):
        """Callers probe once every 1024 definitions or deductions."""
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise EnumerationError(
                f"enumeration exceeded the time limit "
                f"({self.limits.max_time}s) after defining {self.total_defined} cosets",
                self.total_defined,
            )

    def _define(self, f: int, col: int) -> int:
        if self.live >= self.limits.max_cosets or len(self.table) >= self.max_rows:
            raise _CapHit
        self._time_probe += 1
        if (self._time_probe & 1023) == 0:
            self._check_deadline()
        n = len(self.table)
        self.table.append([-1] * self.ncols)
        self.p.append(n)
        self.table[f][col] = n
        self.table[n][col ^ 1] = f
        self.live += 1
        self.total_defined += 1
        return n

    def _scan(self, alpha: int, w, fill: bool, deds) -> bool:
        """Scan word w at coset alpha.  Defines cosets when fill is set,
        deduces at a single gap, merges on contradiction.  Returns False
        only when abandoning a gap >= 2 with fill off."""
        table = self.table
        f = alpha
        i = 0
        b = alpha
        j = len(w) - 1
        while True:
            while i <= j:
                nxt = table[f][w[i]]
                if nxt < 0:
                    break
                f = nxt
                i += 1
            if i > j:
                if f != b:
                    self._coincidence(f, b, deds)
                return True
            while j >= i:
                prv = table[b][w[j] ^ 1]
                if prv < 0:
                    break
                b = prv
                j -= 1
            if j < i:
                self._coincidence(f, b, deds)
                return True
            if i == j:
                table[f][w[i]] = b
                table[b][w[i] ^ 1] = f
                if deds is not None:
                    deds.append((f, w[i]))
                return True
            if not fill:
                return False
            self._define(f, w[i])

    # -- pressure relief ----------------------------------------------------

    def _lookahead(self, deds):
        """Scan every relator at every live coset without defining, to
        harvest coincidences before giving up on the coset cap."""
        for a in range(len(self.table)):
            if self.p[a] != a:
                continue
            for w in self.rel_cols:
                self._scan(a, w, False, deds)
                if self.p[a] != a:
                    break

    def _compact(self) -> list[int]:
        """Drop dead rows, renumbering live cosets in order; returns the
        old->new mapping (-1 for dead rows)."""
        table = self.table
        mapping = [-1] * len(table)
        new = 0
        for a in range(len(table)):
            if self.p[a] == a:
                mapping[a] = new
                new += 1
        rows = []
        for a in range(len(table)):
            if self.p[a] != a:
                continue
            row = table[a]
            rows.append(
                [-1 if e < 0 else mapping[self._rep(e)] for e in row]
            )
        self.table = rows
        self.p = list(range(new))
        self.live = new
        return mapping

    def _relieve(self, alpha: int, deds) -> int:
        """Lookahead + compact after a cap hit; returns the renumbered alpha
        to resume from, or raises EnumerationError if still over the cap
        or the cell budget."""
        self._lookahead(deds)
        alpha = self._rep(alpha)
        mapping = self._compact()
        if self.live >= self.limits.max_cosets:
            raise EnumerationError(
                f"coset limit exceeded: {self.live} live cosets "
                f"({self.total_defined} defined in total, cap {self.limits.max_cosets}); "
                f"the index may be infinite or the limit too small",
                self.total_defined,
            )
        if self.live >= self.max_rows:
            raise EnumerationError(
                f"cell budget exceeded: {self.live} live cosets x {self.ncols} columns "
                f"leave no room in the fixed budget of {MAX_CELLS} cells "
                f"({self.total_defined} defined in total), and max_cosets does not "
                f"raise it; the index may be infinite or the presentation too wide",
                self.total_defined,
            )
        return mapping[alpha]

    def _maybe_compact(self, alpha: int) -> int:
        if len(self.table) > 2 * self.live + 10000:
            alpha = self._rep(alpha)
            mapping = self._compact()
            return mapping[alpha]
        return alpha

    # -- strategies ----------------------------------------------------------

    def run_hlt(self):
        try:
            for w in self.sub_cols:
                self._scan(0, w, True, None)
        except _CapHit:
            self._relieve(0, None)
            for w in self.sub_cols:
                self._scan(0, w, True, None)
        alpha = 0
        while alpha < len(self.table):
            if self.p[alpha] != alpha:
                alpha += 1
                continue
            try:
                for w in self.rel_cols:
                    self._scan(alpha, w, True, None)
                    if self.p[alpha] != alpha:
                        break
                if self.p[alpha] == alpha:
                    row = self.table[alpha]
                    for x in range(self.ncols):
                        if row[x] < 0:
                            self._define(alpha, x)
            except _CapHit:
                alpha = self._relieve(alpha, None)
                continue
            alpha = self._maybe_compact(alpha)
            alpha += 1

    def _relator_variants(self):
        """Cyclic rotations of every relator and its inverse, grouped by
        first column (Felsch deduction processing); each comes with the
        index of its last letter."""
        byletter: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in range(self.ncols)]
        seen = set()
        for w in self.rel_cols:
            for base in (w, tuple(c ^ 1 for c in reversed(w))):
                for s in range(len(base)):
                    rot = base[s:] + base[:s]
                    if rot not in seen:
                        seen.add(rot)
                        byletter[rot[0]].append((rot, len(rot) - 1))
        return byletter

    def _process_deductions(self, deds, byletter):
        """Scan every rotation that starts with x at a, for each deduced
        edge (a, x).  This is `_scan` without filling, inlined, and started
        past the known first step a -x->."""
        table = self.table
        p = self.p
        while deds:
            self._time_probe += 1
            if (self._time_probe & 1023) == 0:
                self._check_deadline()
            a, x = deds.pop()
            a = self._rep(a)
            if table[a][x] < 0:
                continue
            for w, j in byletter[x]:
                f = table[a][x]
                i = 1
                b = a
                while i <= j:
                    nxt = table[f][w[i]]
                    if nxt < 0:
                        break
                    f = nxt
                    i += 1
                else:
                    if f != b:
                        self._coincidence(f, b, deds)
                        if p[a] != a:
                            break
                    continue
                while j >= i:
                    prv = table[b][w[j] ^ 1]
                    if prv < 0:
                        break
                    b = prv
                    j -= 1
                if j < i:
                    if f != b:
                        self._coincidence(f, b, deds)
                        if p[a] != a:
                            break
                elif i == j:
                    c = w[i]
                    table[f][c] = b
                    table[b][c ^ 1] = f
                    deds.append((f, c))

    def run_felsch(self):
        byletter = self._relator_variants()
        deds: list[tuple[int, int]] = []
        try:
            for w in self.sub_cols:
                self._scan(0, w, True, deds)
        except _CapHit:
            self._relieve(0, deds)
            for w in self.sub_cols:
                self._scan(0, w, True, deds)
        self._process_deductions(deds, byletter)
        alpha = 0
        while alpha < len(self.table):
            if self.p[alpha] != alpha:
                alpha += 1
                continue
            x = 0
            while x < self.ncols:
                if self.p[alpha] != alpha:
                    break
                if self.table[alpha][x] < 0:
                    try:
                        self._define(alpha, x)
                    except _CapHit:
                        alpha = self._relieve(alpha, deds)
                        self._process_deductions(deds, byletter)
                        x = 0
                        continue
                    deds.append((alpha, x))
                    self._process_deductions(deds, byletter)
                x += 1
            if self.p[alpha] == alpha:
                alpha = self._maybe_compact(alpha)
            alpha += 1

    # -- finishing ------------------------------------------------------------

    def finish(self) -> CosetTable:
        self._compact()
        n = len(self.table)
        arr = np.array(self.table, dtype=np.int64)
        if (arr < 0).any():
            raise RuntimeError("internal: incomplete table after enumeration")
        idx = np.arange(n)
        for c in range(self.ncols):
            if not np.array_equal(np.sort(arr[:, c]), idx):
                raise RuntimeError("internal: table column is not a permutation")
        for w in self.rel_cols:
            v = idx
            for c in w:
                v = arr[v, c]
            if not np.array_equal(v, idx):
                raise RuntimeError("internal: relator does not close on the table")
        for w in self.sub_cols:
            v = 0
            for c in w:
                v = self.table[v][c]
            if v != 0:
                raise RuntimeError("internal: subgroup word leaves coset 0")

        # BFS standardization on positive columns; also canonical words.
        order = [0]
        new = [-1] * n
        new[0] = 0
        words: list[tuple[int, ...]] = [()]
        for u in order:
            row = self.table[u]
            for i in range(self.ngens):
                v = row[2 * i]
                if new[v] < 0:
                    new[v] = len(order)
                    order.append(v)
                    words.append(words[new[u]] + (i + 1,))
        if len(order) != n:
            raise RuntimeError("internal: table is not connected")
        rows = [
            tuple(new[e] for e in self.table[u])
            for u in order
        ]
        stats = {
            "cosets": n,
            "total_defined": self.total_defined,
            "strategy": self.strategy,
        }
        return CosetTable(
            self.ngens, rows, words, self.pres, [], self.strategy, stats
        )


STRATEGIES = ("auto", "hlt", "felsch")

# "auto" picks Felsch when no relator is longer than this
FELSCH_MAX_RELATOR = 3


def resolve_strategy(pres: Presentation, strategy: str = "auto") -> str:
    """The strategy an enumeration of `pres` runs: an explicit "hlt" or
    "felsch" as given, "auto" from the relator lengths alone."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r} (want one of {', '.join(STRATEGIES)})")
    if strategy != "auto":
        return strategy
    if all(len(w.letters) <= FELSCH_MAX_RELATOR for w in pres.relators):
        return "felsch"
    return "hlt"


def enumerate_cosets(
    pres: Presentation,
    subgroup_words=(),
    limits: EnumerationLimits | None = None,
    strategy: str = "auto",
) -> CosetTable:
    """Enumerate cosets of the subgroup generated by `subgroup_words` in the
    group given by `pres`.  Returns a completed standardized table or raises
    EnumerationError; never a partial table.  The table's stats record the
    strategy that ran."""
    if limits is None:
        limits = EnumerationLimits()
    strategy = resolve_strategy(pres, strategy)
    enum = _Enumerator(pres, subgroup_words, limits, strategy)
    if strategy == "hlt":
        enum.run_hlt()
    else:
        enum.run_felsch()
    table = enum.finish()
    table.subgroup_words = list(subgroup_words)
    return table
