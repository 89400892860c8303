"""Todd-Coxeter coset enumeration: HLT with lookahead.

HLT scans every relator at each live coset in turn, defining the cosets
a scan needs, and then fills the coset's open columns.  One routine,
_scan, writes every relator deduction to the table, for HLT and for the
lookahead alike.  tests/test_coset.py holds a Felsch enumerator on the
same routines as an independent cross-check of the standardized tables.

HLT tests each relator at a coset before it scans it there: the relator
c1 ... cL closes at alpha when its first L-1 letters walk alpha to the
coset that alpha's cL^-1 entry names.  Between scans every entry has its
inverse entry (table[f][c] == alpha exactly when table[alpha][c ^ 1] ==
f), so a closed relator's scan would walk it back to alpha and write
nothing; skipping it defines the same cosets in the same order.  In the
enumerations the builds run, 94 % of the relators tested are skipped for
T(Heis27) over its diagonal subgroup (640 relators at 27 cosets: 17 280
tests, 1 002 scans) and 77 % for X(Heis27) over its left copy (23
relators at 729 cosets: 16 767 tests, 3 808 scans).

Table format: while it is enumerated, one row per coset, 2*ngens
columns.  Column 2*i holds the action of generator i, column 2*i+1 that
of its inverse (so a column's inverse column is ``col ^ 1``); -1 marks an
undefined entry.  Coset 0 is the subgroup coset.  A finished table is
its ngens generator columns only, and one routine, with_inverses,
derives the inverse columns where a walk needs them.

Completed tables are compressed (dead rows removed) onto one int32
array of generator columns, then checked and standardized by one
routine, standardize: every entry must be a point, every column a
permutation, every relator must close at every coset, and the cosets
are renumbered in BFS discovery order from coset 0, exploring the
generator columns in index order.  The standardized table is canonical
for the (presentation, subgroup) pair, whatever order the cosets were
defined in, and the levels of the BFS, renumbered with the table, give
shortlex canonical words in the positive generators for every coset.
That BFS, shortlex_bfs, is the one every group in groups.py runs;
standardize also serves the regular tables that groups.group_from_fold
and groups.group_from_normal_subgroup assemble from a smaller
enumeration.  A CosetTable keeps that array and, until a PermGroup takes
them, the levels; its words are built from the levels only when asked
for.  Relators are certified on the derived columns with one gather per
letter for a chunk of words at a time.

Enumeration either completes or raises EnumerationError (limit/time); a
partial table is never returned.  Memory is bounded by a cell budget, rows
times columns, as well as by the live-coset cap: a wide presentation
(T(C64) has 7938 columns) reaches gigabytes long before it reaches a row
cap.  hold_to_limits states both bounds once, for the enumeration and
for any table assembled from it.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .words import Presentation, Word

# Cell budget: rows (dead ones included) times 2*ngens columns.  It is
# fixed; max_cosets does not raise it.  Forced HLT on T(Heis27) on every
# symbol (1352 columns) peaks at 71 731 rows, 97.0 M cells and about
# 1.1 GB; the list-of-lists table costs about 11.5 bytes a cell.
MAX_CELLS = 120_000_000


@dataclass(frozen=True)
class EnumerationLimits:
    """Resource bounds for one enumeration.

    max_cosets (at least 1) bounds *live* cosets at any instant; max_time
    is positive wall-clock seconds (None = unbounded).  The table is also
    held to MAX_CELLS.  A value that bounds nothing raises ValueError.
    """

    max_cosets: int = 10_000_000
    max_time: float | None = None

    def __post_init__(self):
        if not self.max_cosets >= 1:
            raise ValueError(f"enumeration limits: max_cosets must be at least 1, not {self.max_cosets}")
        if self.max_time is not None and not self.max_time > 0:
            raise ValueError(f"enumeration limits: max_time must be positive, not {self.max_time}")


class EnumerationError(RuntimeError):
    """Enumeration hit a resource limit; carries the cosets used so far."""

    def __init__(self, message: str, cosets_used: int):
        super().__init__(message)
        self.cosets_used = cosets_used


def hold_to_limits(rows: int, ncols: int, defined: int, limits: EnumerationLimits) -> None:
    """Raise EnumerationError unless a table of `rows` rows and `ncols`
    columns fits under the live-coset cap and the cell budget; `defined`
    is the count of cosets defined so far, which the error carries."""
    if rows > limits.max_cosets:
        raise EnumerationError(
            f"coset limit exceeded: {rows} cosets do not fit the cap of {limits.max_cosets} "
            f"({defined} defined in total); the index may be infinite or the limit too small",
            defined,
        )
    if rows * ncols > MAX_CELLS:
        raise EnumerationError(
            f"cell budget exceeded: {rows} cosets x {ncols} columns do not fit the fixed "
            f"budget of {MAX_CELLS} cells ({defined} defined in total), and max_cosets does "
            f"not raise it; the index may be infinite or the presentation too wide",
            defined,
        )


class _CapHit(Exception):
    """Internal: live-coset cap reached; main loop should relieve pressure."""


def word_to_cols(w: Word) -> tuple[int, ...]:
    return tuple(2 * (a - 1) if a > 0 else 2 * (-a - 1) + 1 for a in w.letters)


# Array work on a finished table goes in chunks of about this many cells
# (words or columns, times cosets), so that the temporaries of each step
# stay near 1 MB however wide the table or many the words.
CHUNK_CELLS = 1 << 17


def _by_length(words) -> dict[int, np.ndarray]:
    """Non-empty words (tuples of ints) stacked into one array per length."""
    groups: dict[int, list] = {}
    for w in words:
        if w:
            groups.setdefault(len(w), []).append(w)
    return {length: np.array(ws, dtype=np.intp) for length, ws in groups.items()}


def _words_close(cols: np.ndarray, groups: dict[int, np.ndarray]) -> bool:
    """Whether every word acts as the identity on every coset of the column
    array `cols` (ncols x n); `groups` holds the words as columns, one
    array per word length (see _by_length).

    Words of one length are checked together, a chunk at a time, with one
    gather per letter: c1 ... cL is the identity exactly when its first
    L-1 letters map every coset x to x * cL^-1, so a 3-letter word holds
    iff cols[c2][cols[c1]] == cols[c3 ^ 1].  A gather after the first
    reads the flattened array at column offset plus coset.
    """
    n = cols.shape[1]
    flat = cols.ravel()
    offset_type = np.int32 if flat.size < 2**31 else np.int64
    step = max(1, CHUNK_CELLS // max(n, 1))
    for length, letters in groups.items():
        offsets = (letters * n).astype(offset_type)
        for s in range(0, len(letters), step):
            c = letters[s : s + step]
            if length == 1:
                v = np.arange(n, dtype=cols.dtype)
            else:
                v = cols[c[:, 0]].astype(offset_type, copy=False)
                for j in range(1, length - 1):
                    v += offsets[s : s + step, j, None]
                    v = flat.take(v)
            if not (v == cols[c[:, -1] ^ 1]).all():
                return False
    return True


def shortlex_bfs(gen_cols: np.ndarray, source: int = 0) -> list:
    """Breadth-first search from `source` along the rows of `gen_cols`
    (one row per generator: the point that each point goes to), a level
    at a time.

    Returns one (found, src, gen) triple of arrays per level after the
    source: the new points in discovery order, the point each was reached
    from and the row that reached it.  The candidates of a level, point by
    point and row by row, are in BFS order, and each new point's first
    candidate finds it, so the words read off the levels are shortlex.

    A level finds its first candidates without sorting: np.minimum.at
    leaves in `first` the least candidate position of every point that
    the level reaches, and the positions that hold their point's least
    are the first discoveries, already in candidate order.  A point
    takes part in one level only, so `first` is never reset.
    """
    ngens, n = gen_cols.shape
    seen = np.zeros(n, dtype=bool)
    seen[source] = True
    first = np.full(n, np.iinfo(np.intp).max, dtype=np.intp)
    level = np.array([source], dtype=np.int32)
    levels = []
    while True:
        cand = gen_cols[:, level].T.ravel()
        fresh = np.flatnonzero(~seen[cand])
        if not fresh.size:
            return levels
        vals = cand[fresh]
        np.minimum.at(first, vals, fresh)
        hit = fresh[first[vals] == fresh]
        found = cand[hit]
        seen[found] = True
        levels.append((found, level[hit // ngens], hit % ngens))
        level = found


def words_from_levels(n: int, levels) -> list[tuple[int, ...]]:
    """The shortlex word (positive 1-based letters) of each of n points,
    indexed by point, from the levels of shortlex_bfs from point 0: each
    new point's word is its source's word plus one letter, so words of
    one prefix share it."""
    words: list = [None] * n
    words[0] = ()
    for found, src, gen in levels:
        for f, u, i in zip(found.tolist(), src.tolist(), (gen + 1).tolist()):
            words[f] = words[u] + (i,)
    return words


def with_inverses(gen_cols: np.ndarray) -> np.ndarray:
    """The 2*ngens columns of a table from its generator columns (ngens x
    n): column 2*i+1 holds at each point the point that generator i sends
    to it, or -1 where no entry of column 2*i reaches it."""
    d, n = gen_cols.shape
    cols = np.full((2 * d, n), -1, dtype=np.int32)
    cols[0::2] = gen_cols
    step = max(1, CHUNK_CELLS // max(n, 1))
    for s in range(0, d, step):
        rows = np.arange(2 * s + 1, 2 * min(s + step, d), 2)[:, None]
        cols[rows, gen_cols[s : s + step]] = np.arange(n, dtype=np.int32)
    return cols


def standardize(gen_cols: np.ndarray, rel_cols) -> tuple[np.ndarray, list]:
    """Check a complete table and renumber it canonically.

    `gen_cols` holds the generator columns (ngens x n) and `rel_cols` the
    relators as column tuples.  Raises RuntimeError unless every entry is
    a point, every column is a permutation (with_inverses leaves no -1,
    so the derived columns are the inverses that _words_close assumes of
    every inverse letter), every relator acts as the identity, and the
    BFS along the generator columns from point 0 reaches every point.
    Returns the generator columns renumbered in that BFS order and the
    levels of that BFS renumbered with them (new found, new src, gen):
    the levels that shortlex_bfs gives on the returned table, so that no
    caller searches it again.
    """
    n = gen_cols.shape[1]
    if gen_cols.size and not 0 <= gen_cols.min() <= gen_cols.max() < n:
        raise RuntimeError("a table entry is not a point")
    cols = with_inverses(gen_cols)
    if cols[1::2].min(initial=0) < 0:
        raise RuntimeError("a table column is not a permutation")
    if not _words_close(cols, _by_length(rel_cols)):
        raise RuntimeError("a relator does not close on the table")
    del cols
    levels = shortlex_bfs(gen_cols)
    order = np.concatenate([np.zeros(1, dtype=np.int32)] + [found for found, _, _ in levels])
    if len(order) != n:
        raise RuntimeError("the table is not connected")
    new = np.empty(n, dtype=np.int32)
    new[order] = np.arange(n, dtype=np.int32)
    std = np.empty_like(gen_cols)
    step = max(1, CHUNK_CELLS // max(n, 1))
    for s in range(0, len(gen_cols), step):
        std[s : s + step] = new[gen_cols[s : s + step, order]]
    return std, [(new[found], new[src], gen) for found, src, gen in levels]


class CosetTable:
    """A completed, standardized coset table, held as one int32 array of
    its generator columns (`gen_cols`, ngens x n).

    `levels` are the shortlex BFS levels of the table that standardize
    returned with it.  They are handed over once, by take_levels (PermGroup
    builds its words from them without a second search); the table keeps
    no level arrays after that.  `words`, one shortlex word per coset, is
    built on first use from the levels by prefix sharing.
    """

    def __init__(self, gen_cols, levels, presentation, subgroup_words, stats):
        self.gen_cols = gen_cols
        self.ngens = len(gen_cols)
        self._levels = levels
        self.presentation = presentation
        self.subgroup_words = list(subgroup_words)
        self.stats = stats
        self._words = None

    @property
    def n(self) -> int:
        return self.gen_cols.shape[1]

    @property
    def words(self) -> list[tuple[int, ...]]:
        """Coset -> its shortlex word, a tuple of positive letters
        (1-based)."""
        if self._words is None:
            self._words = words_from_levels(self.n, self.take_levels())
        return self._words

    def take_levels(self) -> list:
        """The shortlex BFS levels of the generator columns, as
        shortlex_bfs gives them.  The first call hands over the levels of
        standardize and drops them from the table; a later call searches
        the table again."""
        levels, self._levels = self._levels, None
        return shortlex_bfs(self.gen_cols) if levels is None else levels

    def trace(self, coset: int, letters) -> int:
        """Follow a letter sequence (signed, 1-based) from a coset; an
        inverse letter goes back along its generator's column."""
        for a in letters:
            col = self.gen_cols[abs(a) - 1]
            coset = int(col[coset]) if a > 0 else int((col == coset).argmax())
        return coset

    def col_arrays(self) -> np.ndarray:
        """All 2*ngens columns (ncols x n), derived on each call."""
        return with_inverses(self.gen_cols)

    def relators_hold(self, relator_words) -> bool:
        """Vectorized check that every word acts as the identity permutation."""
        groups = _by_length([w.letters for w in relator_words])
        for length, a in groups.items():  # word_to_cols, on arrays
            groups[length] = np.where(a > 0, 2 * a - 2, -2 * a - 1)
        return _words_close(with_inverses(self.gen_cols), groups)


class _Enumerator:
    def __init__(self, pres: Presentation, subgroup_words, limits: EnumerationLimits):
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
        # each relator with its first L-1 columns and the inverse of its
        # last column, for the closure test of HLT and the lookahead
        # (see _open_relators)
        self.rel_heads = [(w, w[:-1], w[-1] ^ 1) for w in self.rel_cols]
        self.subgroup_words = list(subgroup_words)
        self.sub_cols = [word_to_cols(w) for w in self.subgroup_words if w]
        self.limits = limits
        self.max_rows = MAX_CELLS // max(self.ncols, 1)
        # the (coset, column) of every entry that a scan deduces or a
        # coincidence writes, for a subclass that collects them; None
        # collects nothing
        self.deds: list | None = None
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

    def _coincidence(self, a: int, b: int):
        q = self._cq
        deds = self.deds
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

    def _tick(self):
        """Count one definition or deduction, and probe the deadline once
        every 1024 of them."""
        self._time_probe += 1
        if self._time_probe & 1023 or self._deadline is None:
            return
        if time.monotonic() > self._deadline:
            raise EnumerationError(
                f"enumeration exceeded the time limit "
                f"({self.limits.max_time}s) after defining {self.total_defined} cosets",
                self.total_defined,
            )

    def _define(self, f: int, col: int) -> int:
        if self.live >= self.limits.max_cosets or len(self.table) >= self.max_rows:
            raise _CapHit
        self._tick()
        n = len(self.table)
        self.table.append([-1] * self.ncols)
        self.p.append(n)
        self.table[f][col] = n
        self.table[n][col ^ 1] = f
        self.live += 1
        self.total_defined += 1
        return n

    def _scan(self, alpha: int, w, fill: bool) -> bool:
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
                    self._coincidence(f, b)
                return True
            while j >= i:
                prv = table[b][w[j] ^ 1]
                if prv < 0:
                    break
                b = prv
                j -= 1
            if j < i:
                self._coincidence(f, b)
                return True
            if i == j:
                table[f][w[i]] = b
                table[b][w[i] ^ 1] = f
                if self.deds is not None:
                    self.deds.append((f, w[i]))
                return True
            if not fill:
                return False
            self._define(f, w[i])

    def _open_relators(self, alpha: int):
        """The relators that do not close at the live coset alpha, as
        column tuples in scan order; each is tested when the caller asks
        for it, on the table as it then stands.

        A relator w = c1 ... cL closes at alpha when its first L-1 letters
        walk alpha to some coset f and f * cL = alpha.  Between scans the
        table is consistent both ways (table[f][c] == alpha exactly when
        table[alpha][c ^ 1] == f), so the last step is the test
        f == table[alpha][cL ^ 1].  A scan of a closed relator walks it
        forward to alpha and returns without writing, so skipping it
        changes nothing.  Closure also persists while alpha stays live:
        definitions only add entries, and coincidences replace cosets by
        their representatives.  So a relator found closed stays closed
        through the scans of the others at alpha, and the tests could as
        well all run before the first of those scans.
        """
        table = self.table
        row = table[alpha]
        for w, head, inv in self.rel_heads:
            t = row[inv]
            if t >= 0:
                f = alpha
                for c in head:
                    f = table[f][c]
                    if f < 0:
                        break
                if f == t:
                    continue
            yield w

    # -- pressure relief ----------------------------------------------------

    def _lookahead(self):
        """Scan every relator at every live coset without defining, to
        harvest coincidences before giving up on the coset cap."""
        for a in range(len(self.table)):
            if self.p[a] != a:
                continue
            for w in self._open_relators(a):
                self._scan(a, w, False)
                if self.p[a] != a:
                    break

    def _compact(self) -> list[int]:
        """Drop dead rows, renumbering live cosets in order; returns the
        old->new mapping, which sends a dead row to the new number of its
        representative."""
        table = self.table
        live = [a for a in range(len(table)) if self.p[a] == a]
        mapping = [-1] * len(table)
        for new, a in enumerate(live):
            mapping[a] = new
        for a in range(len(table)):
            mapping[a] = mapping[self._rep(a)]
        self.table = [[-1 if e < 0 else mapping[e] for e in table[a]] for a in live]
        self.p = list(range(len(live)))
        self.live = len(live)
        return mapping

    def _relieve(self, alpha: int) -> int:
        """Lookahead + compact after a cap hit; returns the renumbered alpha
        to resume from, or raises EnumerationError if there is still no
        room for one more coset under the cap or the cell budget."""
        self._lookahead()
        mapping = self._compact()
        # the live cosets and the one that the cap hit was defining
        hold_to_limits(self.live + 1, self.ncols, self.total_defined, self.limits)
        return mapping[alpha]

    def _maybe_compact(self, alpha: int) -> int:
        if len(self.table) > 2 * self.live + 10000:
            return self._compact()[alpha]
        return alpha

    # -- enumeration ---------------------------------------------------------

    def _scan_subgroup(self):
        """Scan the subgroup words at coset 0, defining as needed; on a cap
        hit, relieve and scan them again."""
        while True:
            try:
                for w in self.sub_cols:
                    self._scan(0, w, True)
                return
            except _CapHit:
                self._relieve(0)

    def run(self):
        """HLT: scan the subgroup words at coset 0, then at each live coset
        in turn scan the relators that do not close there, defining as
        needed, and define its open columns."""
        self._scan_subgroup()
        alpha = 0
        while alpha < len(self.table):
            if self.p[alpha] != alpha:
                alpha += 1
                continue
            try:
                for w in self._open_relators(alpha):
                    self._scan(alpha, w, True)
                    if self.p[alpha] != alpha:
                        break
                if self.p[alpha] == alpha:
                    row = self.table[alpha]
                    for x in range(self.ncols):
                        if row[x] < 0:
                            self._define(alpha, x)
            except _CapHit:
                alpha = self._relieve(alpha)
                continue
            alpha = self._maybe_compact(alpha)
            alpha += 1

    # -- finishing ------------------------------------------------------------

    def finish(self) -> CosetTable:
        """Compact the table onto one int32 array, check and renumber its
        generator columns with standardize, then check that the subgroup
        words fix coset 0."""
        p = np.array(self.p, dtype=np.int32)
        live = np.flatnonzero(p == np.arange(len(p)))
        n = len(live)
        cols = np.array(self.table, dtype=np.int32).T[:, live]
        if (cols < 0).any():
            raise RuntimeError("internal: incomplete table after enumeration")
        gen_cols = cols[0::2]
        if n < len(p):
            # renumber the live cosets in order, through their representatives
            rep = p
            while True:
                up = rep[rep]
                if np.array_equal(up, rep):
                    break
                rep = up
            mapping = np.full(len(p), -1, dtype=np.int32)
            mapping[live] = np.arange(n, dtype=np.int32)
            gen_cols = mapping[rep][gen_cols]
        std, levels = standardize(gen_cols, self.rel_cols)
        stats = {"cosets": n, "total_defined": self.total_defined}
        table = CosetTable(std, levels, self.pres, self.subgroup_words, stats)
        if any(table.trace(0, w.letters) != 0 for w in self.subgroup_words):
            raise RuntimeError("internal: subgroup word leaves coset 0")
        return table


def enumerate_cosets(
    pres: Presentation,
    subgroup_words=(),
    limits: EnumerationLimits | None = None,
) -> CosetTable:
    """Enumerate cosets of the subgroup generated by `subgroup_words` in the
    group given by `pres`.  Returns a completed standardized table or raises
    EnumerationError; never a partial table."""
    enum = _Enumerator(pres, subgroup_words, limits or EnumerationLimits())
    enum.run()
    return enum.finish()
