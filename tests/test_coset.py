import functools
import itertools
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from xpforge import coset, harness
from xpforge.catalog import builtin_catalog, catalog_entry
from xpforge.coset import EnumerationError, EnumerationLimits, enumerate_cosets
from xpforge.groups import group_from_presentation
from xpforge.tensor import SizeGateError, build_nu, build_tensor_square, tensor_square_presentation
from xpforge.weakcomm import build_xp, xp_presentation
from xpforge.words import Presentation, Word, parse_presentation

C4 = parse_presentation("gens a\nrels a^4")
KLEIN = parse_presentation("gens a, b\nrels a^2, b^2, [a,b]")
S3 = parse_presentation("gens a, b\nrels a^3, b^2, (a*b)^2")
D8 = parse_presentation("gens a, b\nrels a^4, b^2, (a*b)^2")
Q8 = parse_presentation("gens a, b\nrels a^4, a^2*b^-2, b^-1*a*b*a")
A4 = parse_presentation("gens a, b\nrels a^3, b^3, (a*b)^2")
A5 = parse_presentation("gens a, b\nrels a^5, b^2, (a*b)^3")
HEIS27 = parse_presentation("gens a, b, c\nrels a^3, b^3, c^3, [a,b]*c^-1, [a,c], [b,c]")
MOD27 = parse_presentation("gens a, b\nrels a^9, b^3, a^b*a^-4")
# Both generators collapse to the identity: a classic coincidence stress test.
TRIVIAL = parse_presentation("gens a, b\nrels a*b*a^-1*b^-2, b*a*b^-1*a^-2")
# Order 11, but HLT transiently defines ~15x that: heavy coincidence traffic.
F25 = parse_presentation(
    "gens a, b, c, d, e\nrels a*b*c^-1, b*c*d^-1, c*d*e^-1, d*e*a^-1, e*a*b^-1"
)


class _Felsch(coset._Enumerator):
    """Felsch's strategy on the enumerator's own routines, the oracle that
    HLT's standardized tables are checked against.

    It pushes one deduction per new edge a -x->, and scans at a, with
    _scan and without defining, every distinct rotation of a relator or
    its inverse that starts with x, until a dies; the rotations that start
    with the inverse letter at the other end walk the same closed paths in
    reverse.  It defines a coset only in the first open column of the
    first live coset once every deduction is processed, so it decides
    unlike HLT: on the tensor presentations on every symbol it defines at
    most one coset beyond the final ones, where HLT defines up to 320
    times as many (26 256 for 81 on T(Mod27)).
    """

    def __init__(self, pres, subgroup_words, limits):
        super().__init__(pres, subgroup_words, limits)
        self.deds = []

    def _rotations(self) -> list[list[tuple[int, ...]]]:
        """Every distinct cyclic rotation of every relator and of its
        inverse, listed under its first column for the deduction scan."""
        by_col: list[list[tuple[int, ...]]] = [[] for _ in range(self.ncols)]
        seen = set()
        for w in self.rel_cols:
            for base in (w, tuple(c ^ 1 for c in reversed(w))):
                for s in range(len(base)):
                    rot = base[s:] + base[:s]
                    if rot not in seen:
                        seen.add(rot)
                        by_col[rot[0]].append(rot)
        return by_col

    def _compact(self):
        # pending deductions name rows that the compaction renumbers
        mapping = super()._compact()
        self.deds[:] = [(mapping[a], x) for a, x in self.deds]
        return mapping

    def _process_deductions(self, rotations):
        """For each deduced edge a -x->, scan every rotation that starts
        with x at a's representative without defining, until a dies; a
        scan may push further deductions.  An edge whose entry is gone (a
        coincidence cleared it) is skipped."""
        p, deds = self.p, self.deds
        while deds:
            self._tick()
            a, x = deds.pop()
            a = self._rep(a)
            if self.table[a][x] < 0:
                continue
            for w in rotations[x]:
                self._scan(a, w, False)
                if p[a] != a:
                    break

    def run(self):
        rotations = self._rotations()
        self._scan_subgroup()
        self._process_deductions(rotations)
        alpha = 0
        while alpha < len(self.table):
            if self.p[alpha] != alpha:
                alpha += 1
                continue
            x = 0
            while self.p[alpha] == alpha:
                # the next undefined column of alpha (deductions only fill)
                try:
                    x = self.table[alpha].index(-1, x)
                except ValueError:
                    break
                try:
                    self._define(alpha, x)
                except coset._CapHit:
                    alpha = self._relieve(alpha)
                    self._process_deductions(rotations)
                    x = 0
                    continue
                self.deds.append((alpha, x))
                self._process_deductions(rotations)
            if self.p[alpha] == alpha:
                alpha = self._maybe_compact(alpha)
            alpha += 1


def _run(enumerator, pres, subgroup_words=(), limits=None):
    enum = enumerator(pres, subgroup_words, limits or EnumerationLimits())
    enum.run()
    return enum.finish()


def enumerate_with(strategy, pres, subgroup_words=(), limits=None):
    """The table of `pres` over `subgroup_words`: from enumerate_cosets
    (HLT) for "hlt", from the Felsch oracle for "felsch"."""
    if strategy == "hlt":
        return enumerate_cosets(pres, subgroup_words, limits)
    return _run(_Felsch, pres, subgroup_words, limits)


@functools.lru_cache(maxsize=None)
def catalog_base(name):
    return group_from_presentation(catalog_entry(name).presentation())


@functools.lru_cache(maxsize=None)
def tensor_pres(name):
    return tensor_square_presentation(catalog_base(name))


@functools.lru_cache(maxsize=None)
def kept_tensor_pres(name):
    """T on the kept symbols: the presentation build_tensor_square enumerates."""
    return build_tensor_square(catalog_base(name)).group.presentation


# Tensor-square presentations on every symbol: 49 to 64 generators and
# relators of at most 3 letters, where HLT defines many spare cosets.
T_D8, T_Q8, T_C3XC3 = (tensor_pres(name) for name in ("D8", "Q8", "C3xC3"))


@pytest.mark.parametrize(
    "pres,order",
    [
        (C4, 4),
        (KLEIN, 4),
        (S3, 6),
        (D8, 8),
        (Q8, 8),
        (A4, 12),
        (A5, 60),
        (HEIS27, 27),
        (MOD27, 27),
        (TRIVIAL, 1),
        (F25, 11),
    ],
)
@pytest.mark.parametrize("strategy", ["hlt", "felsch"])
def test_group_orders(pres, order, strategy):
    table = enumerate_with(strategy, pres)
    assert table.n == order


def test_canonical_words_c4():
    table = enumerate_cosets(C4)
    assert table.words == [(), (1,), (1, 1), (1, 1, 1)]


def test_canonical_words_klein():
    table = enumerate_cosets(KLEIN)
    assert table.words == [(), (1,), (2,), (1, 2)]


def test_identity_row_and_trace():
    table = enumerate_cosets(C4)
    a_coset = table.rows[0][0]
    assert table.words[a_coset] == (1,)
    assert table.trace(0, [1, 1, 1, 1]) == 0
    assert table.trace(0, [-1]) == table.trace(0, [1, 1, 1])


@pytest.mark.parametrize(
    "pres,subgens,index",
    [
        (D8, [Word.gen(0)], 2),
        (D8, [Word.gen(1)], 4),
        (S3, [Word.gen(1)], 3),
        (S3, [Word.gen(0)], 2),
        (A5, [Word.gen(0)], 12),
        (HEIS27, [Word.gen(2)], 9),
    ],
)
def test_subgroup_index(pres, subgens, index):
    table = enumerate_cosets(pres, subgroup_words=subgens)
    assert table.n == index


# X(C3xC3): one Felsch run over 3-letter and longer rotations, with
# coincidences (255 cosets defined for 243)
X_C3XC3 = xp_presentation(catalog_base("C3xC3"))
# the enumerations of the catalog that relators of at most 3 letters once
# sent to Felsch: the C2 and C3 bases and T(C2) on its kept symbol
C2_BASE, C3_BASE = (catalog_entry(name).presentation() for name in ("C2", "C3"))
T_KEPT_C2 = kept_tensor_pres("C2")


@pytest.mark.parametrize(
    "pres",
    [C4, KLEIN, S3, D8, Q8, A4, HEIS27, MOD27, TRIVIAL, T_D8, T_Q8, T_C3XC3, X_C3XC3]
    + [C2_BASE, C3_BASE, T_KEPT_C2],
)
def test_strategies_agree_after_standardization(pres):
    t1 = enumerate_with("hlt", pres)
    t2 = enumerate_with("felsch", pres)
    assert t1.rows == t2.rows
    assert t1.words == t2.words


def test_enumeration_is_deterministic():
    t1 = enumerate_cosets(D8)
    t2 = enumerate_cosets(D8)
    assert t1.rows == t2.rows and t1.words == t2.words


def test_relators_hold_on_completed_table():
    table = enumerate_cosets(D8)
    assert table.relators_hold(D8.relators)
    # a^2 is not a relation of D8
    assert not table.relators_hold([Word([1, 1])])


def test_relators_hold_checks_every_coset():
    # D8 over <b> (index 4) is not regular: a word can fix coset 0 and still
    # move another coset, so checking coset 0 alone, or gathering from the
    # wrong column, answers wrongly on some word of 1-5 letters
    table = enumerate_cosets(D8, subgroup_words=[Word.gen(1)])
    assert table.n == 4
    words = {
        Word(letters)
        for length in range(1, 6)
        for letters in itertools.product((1, -1, 2, -2), repeat=length)
    }
    fix_zero_move_another = holds = 0
    for w in sorted(words, key=lambda w: (len(w.letters), w.letters)):
        moved = [c for c in range(table.n) if table.trace(c, w.letters) != c]
        assert table.relators_hold([w]) == (not moved), w.letters
        # one failing word among words that hold fails the whole set
        assert table.relators_hold(D8.relators + [w]) == (not moved), w.letters
        holds += not moved
        fix_zero_move_another += bool(moved) and 0 not in moved
    assert holds and fix_zero_move_another


def test_infinite_group_hits_coset_limit():
    free = parse_presentation("gens a\nrels a*a^-1")
    with pytest.raises(EnumerationError) as err:
        enumerate_cosets(free, limits=EnumerationLimits(max_cosets=64))
    assert err.value.cosets_used >= 64
    assert "infinite" in str(err.value)


def test_z2_hits_coset_limit():
    z2 = parse_presentation("gens a, b\nrels [a,b]")
    with pytest.raises(EnumerationError):
        enumerate_cosets(z2, limits=EnumerationLimits(max_cosets=500))


def test_time_limit():
    free = parse_presentation("gens a, b\nrels [a,b]")
    with pytest.raises(EnumerationError) as err:
        enumerate_cosets(free, limits=EnumerationLimits(max_time=0.05))
    assert "time limit" in str(err.value)


def test_tight_limit_with_lookahead_still_completes():
    # A5 wants ~70 fresh definitions; with a live cap of 61 only the
    # lookahead/compaction path lets the run finish instead of erroring.
    table = enumerate_cosets(A5, limits=EnumerationLimits(max_cosets=61))
    assert table.n == 60


def test_overtight_limit_never_returns_partial_table():
    with pytest.raises(EnumerationError):
        enumerate_cosets(F25, limits=EnumerationLimits(max_cosets=12))


@pytest.mark.parametrize(
    "kwargs", [{"max_cosets": 0}, {"max_cosets": -5}, {"max_time": 0}, {"max_time": -1.0}]
)
def test_limits_reject_values_that_bound_nothing(kwargs):
    with pytest.raises(ValueError, match="enumeration limits"):
        EnumerationLimits(**kwargs)
    assert EnumerationLimits(max_cosets=1, max_time=0.01).max_cosets == 1


# ------------------------------------------- wide tensor-square presentations


@pytest.mark.parametrize("name", ["D8", "Q8", "C3xC3", "Mod27"])
def test_auto_enumerates_wide_presentations_without_spare_cosets(name):
    # the Felsch oracle on the every-symbol presentations; HLT defines 580
    # cosets for 32 on D8 and 26 256 for 81 on Mod27
    table = enumerate_with("felsch", tensor_pres(name))
    assert table.stats["total_defined"] <= table.n + 1


def test_felsch_honours_the_time_limit():
    # T(Heis27) on every symbol takes several seconds under Felsch; the limit
    # must stop it early, even though Felsch defines few cosets and the
    # deadline is probed in the deduction loop
    limit = 0.25
    pres = tensor_pres("Heis27")
    t0 = time.monotonic()
    with pytest.raises(EnumerationError) as err:
        enumerate_with("felsch", pres, limits=EnumerationLimits(max_time=limit))
    assert time.monotonic() - t0 < 2 * limit
    assert "time limit" in str(err.value)


# cosets HLT (enumerate_cosets) and the Felsch oracle define on these
# presentations, frozen as first measured: a change to what either scans,
# or in what order, shows here even when the standardized table stays the
# same
TOTAL_DEFINED = {
    ("hlt", "T", "D8"): 580,
    ("hlt", "T", "Q8"): 1166,
    ("hlt", "T", "C3xC3"): 1942,
    ("hlt", "X", "D8"): 695,
    ("hlt", "X", "Q8"): 349,
    ("hlt", "X", "C3xC3"): 1017,
    ("felsch", "T", "D8"): 33,
    ("felsch", "T", "Q8"): 64,
    ("felsch", "T", "C3xC3"): 81,
    ("felsch", "T", "Mod27"): 82,
    ("felsch", "X", "C3xC3"): 255,
    # the short commutation family build_xp enumerates
    ("hlt", "X-short", "D8"): 620,
    ("hlt", "X-short", "Q8"): 309,
    ("hlt", "X-short", "C3xC3"): 559,
    # the kept-symbol presentations build_tensor_square enumerates
    ("hlt", "T-kept", "Heis27"): 12255,
    ("hlt", "T-kept", "Mod27"): 1864,
}


def _frozen_presentation(kind, name):
    if kind == "T":
        return tensor_pres(name)
    if kind == "T-kept":
        return kept_tensor_pres(name)
    return xp_presentation(catalog_base(name), "short" if kind == "X-short" else "all")


@pytest.mark.parametrize(
    "strategy,kind,name",
    sorted(TOTAL_DEFINED),
    ids=[f"{k}-{n}" if s == "hlt" else f"{k}-{n}-{s}" for s, k, n in sorted(TOTAL_DEFINED)],
)
def test_forced_hlt_defines_as_before(strategy, kind, name):
    table = enumerate_with(strategy, _frozen_presentation(kind, name))
    assert table.stats["total_defined"] == TOTAL_DEFINED[strategy, kind, name]


def test_left_copy_enumerations_define_as_before():
    # X and nu are enumerated over the cosets of their left copy
    # (groups.group_from_fold); these are the counts of those enumerations
    assert build_xp(catalog_base("Heis27")).group.table.stats["total_defined"] == 3382
    assert build_nu(catalog_base("Q8")).group.table.stats["total_defined"] == 3236


# ------------------------------------------------- random small presentations


def _relator(ngens):
    letter = st.integers(1, ngens).flatmap(lambda g: st.sampled_from((g, -g)))
    return st.lists(letter, min_size=1, max_size=5).map(Word)


@st.composite
def small_presentations(draw):
    """2-3 generators and 1-5 relators of 1-5 letters (before free
    reduction): many collapse, some are infinite."""
    ngens = draw(st.integers(2, 3))
    rels = draw(st.lists(_relator(ngens), min_size=1, max_size=5))
    return Presentation(list("abc"[:ngens]), [w for w in rels if w.letters])


class _ScanEveryRelatorHLT(coset._Enumerator):
    """HLT, and its lookahead, scanning every relator at every coset with
    `_scan`: the reference for the closure test that lets HLT skip the
    relators already closed at a coset."""

    def _open_relators(self, alpha):
        return self.rel_cols


def _reference_hlt(pres, subgroup_words=(), limits=None):
    return _run(_ScanEveryRelatorHLT, pres, subgroup_words, limits)


def _assert_same_decisions(table, reference):
    assert table.rows == reference.rows
    assert table.words == reference.words
    assert table.stats["total_defined"] == reference.stats["total_defined"]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_presentations())
def test_strategies_agree_on_random_presentations(pres):
    # whenever both complete, they give one standardized table
    limits = EnumerationLimits(max_cosets=200)
    try:
        hlt = enumerate_with("hlt", pres, limits=limits)
        felsch = enumerate_with("felsch", pres, limits=limits)
    except EnumerationError:
        return
    assert hlt.rows == felsch.rows
    assert hlt.words == felsch.words


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_presentations())
def test_hlt_decides_as_its_scan_every_relator_reference(pres):
    # a run that fails must fail at the same count
    limits = EnumerationLimits(max_cosets=60)
    try:
        hlt = enumerate_cosets(pres, limits=limits)
    except EnumerationError as err:
        with pytest.raises(EnumerationError) as reference_err:
            _reference_hlt(pres, limits=limits)
        assert reference_err.value.cosets_used == err.cosets_used
        return
    _assert_same_decisions(hlt, _reference_hlt(pres, limits=limits))


@pytest.mark.parametrize("name", [entry.name for entry in builtin_catalog()])
def test_hlt_decides_as_its_reference_on_the_catalog(name):
    # T on its kept symbols, and X over the cosets of its left copy: the
    # enumerations that build_tensor_square and build_xp run
    base = catalog_base(name)
    left_copy = [Word.gen(i) for i in range(base.presentation.ngens)]
    for pres, subgroup in ((kept_tensor_pres(name), ()), (xp_presentation(base, "short"), left_copy)):
        table = enumerate_cosets(pres, subgroup)
        _assert_same_decisions(table, _reference_hlt(pres, subgroup))


def test_hlt_decides_as_its_reference_through_the_lookahead(monkeypatch):
    # a live cap of 61 on A5, and a cell budget of 40 rows on T(D8), send
    # HLT through the lookahead, which skips closed relators too
    limits = EnumerationLimits(max_cosets=61)
    _assert_same_decisions(
        enumerate_cosets(A5, limits=limits), _reference_hlt(A5, limits=limits)
    )
    monkeypatch.setattr(coset, "MAX_CELLS", 40 * 2 * T_D8.ngens)
    _assert_same_decisions(enumerate_cosets(T_D8), _reference_hlt(T_D8))


def test_hlt_scans_a_relator_whose_last_inverse_entry_is_open():
    # 0 -a-> 1 -a-> 2 is defined before HLT starts.  At coset 0 the first
    # two letters of a^3 walk to 2, but 0's a^-1 entry is open, so a^3
    # does not close there; its scan deduces 2 -a-> 0, the only deduction
    # at 0, and no coset is defined after the first three
    enum = coset._Enumerator(parse_presentation("gens a\nrels a^3"), (), EnumerationLimits())
    enum._define(0, 0)
    enum._define(1, 0)
    assert list(enum._open_relators(0)) == [(0, 0, 0)]
    enum.run()
    assert enum.total_defined == 3
    assert enum.table[2][0] == 0 and enum.table[0][1] == 2
    assert list(enum._open_relators(0)) == []


# ------------------------------------------------------------ cell budget


@pytest.mark.parametrize("strategy", ["hlt", "felsch"])
def test_cell_budget_stops_a_wide_presentation(strategy, monkeypatch):
    # T(D8) has 98 columns and 32 cosets; a budget of 20 rows cannot hold it,
    # and an explicit max_cosets far above it does not lift it
    monkeypatch.setattr(coset, "MAX_CELLS", 20 * 2 * T_D8.ngens)
    with pytest.raises(EnumerationError) as err:
        enumerate_with(strategy, T_D8, limits=EnumerationLimits(max_cosets=10**6))
    assert "cell budget" in str(err.value)
    assert "max_cosets does not raise it" in str(err.value)
    assert 20 <= err.value.cosets_used


def test_cell_budget_relief_keeps_the_table(monkeypatch):
    # HLT defines 580 cosets on T(D8) unbounded; 40 rows force lookahead
    # and compaction, and the standardized table must not change
    free = enumerate_cosets(T_D8)
    monkeypatch.setattr(coset, "MAX_CELLS", 40 * 2 * T_D8.ngens)
    tight = enumerate_cosets(T_D8)
    assert free.stats["total_defined"] > 40
    assert tight.rows == free.rows
    assert tight.words == free.words


# ------------------------------------------------------------- cap relief


def test_felsch_resumes_after_a_cap_relief(monkeypatch):
    # a live cap of 3, and a cell budget of 3 rows, send the Felsch oracle
    # through the lookahead, whose deductions name cosets that the
    # compaction then renumbers
    trivial = parse_presentation("gens a, b\nrels b^-2*a^-1, b, b^-1")
    table = enumerate_with("felsch", trivial, limits=EnumerationLimits(max_cosets=3))
    assert table.n == 1
    c2 = parse_presentation("gens a, b\nrels a, b^2")
    monkeypatch.setattr(coset, "MAX_CELLS", 3 * 2 * c2.ngens)
    table = enumerate_with("felsch", c2)
    assert table.words == [(), (2,)]


@pytest.mark.parametrize("strategy", ["hlt", "felsch"])
def test_subgroup_words_are_scanned_again_after_every_relief(strategy):
    # at a live cap of 2 the scan of b*a^-1*b*a^-1 at coset 0 hits the cap
    # again after its first relief; a = b = 1, so the run completes.  With
    # a third generator free, a cap hit no relief can clear is an
    # EnumerationError
    pres = parse_presentation("gens a, b\nrels b^-1*a, b")
    sub = [Word([2, -1, 2, -1])]
    assert enumerate_with(strategy, pres, sub, EnumerationLimits(max_cosets=2)).n == 1
    pres = parse_presentation("gens a, b, c\nrels a^-1")
    with pytest.raises(EnumerationError):
        enumerate_with(strategy, pres, [Word([-1, 2, -1, 3])], EnumerationLimits(max_cosets=2))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_presentations(), st.sampled_from(["hlt", "felsch"]), st.data())
def test_relief_keeps_the_table_or_fails(pres, strategy, data):
    # a live cap below the cosets defined, or a cell budget of fewer rows,
    # sends the run through the lookahead and compaction; it must then give
    # the table of the unbounded run or raise EnumerationError
    limits = EnumerationLimits(max_cosets=200)
    try:
        free = enumerate_with(strategy, pres, limits=limits)
    except EnumerationError:
        return
    defined = free.stats["total_defined"]
    cap = data.draw(st.integers(free.n, max(free.n, defined - 1)), label="cap")
    rows = data.draw(st.integers(free.n + 1, max(free.n + 1, defined)), label="rows")

    def keeps_the_table_or_fails(run_limits):
        try:
            tight = enumerate_with(strategy, pres, limits=run_limits)
        except EnumerationError:
            return
        assert tight.rows == free.rows
        assert tight.words == free.words

    keeps_the_table_or_fails(EnumerationLimits(max_cosets=cap))
    with mock.patch.object(coset, "MAX_CELLS", rows * 2 * pres.ngens):
        keeps_the_table_or_fails(limits)


# ---------------------------------------------------------------- shortlex BFS


def _same_levels(got, want):
    return len(got) == len(want) and all(
        all(np.array_equal(a, b) for a, b in zip(g, w)) for g, w in zip(got, want)
    )


@st.composite
def connected_tables(draw):
    """Permutation tables (one row per generator) on up to 40 points,
    connected because generator 0 is an n-cycle, and a source point."""
    n = draw(st.integers(1, 40))
    ngens = draw(st.integers(1, 4))
    cycle = draw(st.permutations(range(n)))
    rows = [np.empty(n, dtype=np.int32)]
    rows[0][cycle] = np.roll(cycle, -1)
    rows += [np.array(draw(st.permutations(range(n))), dtype=np.int32) for _ in range(ngens - 1)]
    position = draw(st.integers(0, ngens - 1))
    rows.insert(position, rows.pop(0))
    return np.array(rows, dtype=np.int32), draw(st.integers(0, n - 1))


@settings(max_examples=200, deadline=None)
@given(table=connected_tables())
def test_shortlex_bfs_matches_the_sorting_bfs(table, unique_bfs):
    gen_cols, source = table
    levels = coset.shortlex_bfs(gen_cols, source)
    assert _same_levels(levels, unique_bfs(gen_cols, source))
    assert 1 + sum(len(found) for found, _, _ in levels) == gen_cols.shape[1]


def _catalog_groups():
    for e in builtin_catalog():
        yield f"X({e.name})", harness.xp_of(e).group
        yield f"T({e.name})", harness.tensor_of(e).group
        try:
            yield f"nu({e.name})", harness.nu_of(e).group
        except SizeGateError:
            pass


def test_shortlex_bfs_matches_the_sorting_bfs_on_the_catalog(unique_bfs):
    # every X, T and (below the size gate) nu of the catalog; their regular
    # tables give the same levels again through standardize
    seen = 0
    for name, G in _catalog_groups():
        assert _same_levels(coset.shortlex_bfs(G.gen_cols), unique_bfs(G.gen_cols)), name
        cols = G.table.col_arrays()
        std, levels = coset.standardize(cols, [])
        assert np.array_equal(std, cols), name  # a standardized table is a fixed point
        assert _same_levels(levels, unique_bfs(cols[0::2])), name
        seen += 1
    assert seen == 34  # 12 X, 12 T, and nu of all but Heis27 and Mod27


def test_table_levels_are_handed_over_once():
    # standardize's levels go to the first taker; the table keeps none of
    # them, and the words and a later taker search the table again
    table = enumerate_cosets(D8)
    first = table.take_levels()
    assert table._levels is None
    assert _same_levels(table.take_levels(), first)
    assert table.words == [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (1, 1, 1), (1, 1, 2)]
