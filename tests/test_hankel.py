import random
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from catalan_hankel import hankel, ring
from catalan_hankel.hankel import (
    InternalDivisionError,
    det_fraction_free,
    hankel_det,
    hankel_dets,
    hankel_minors,
)
from catalan_hankel.ring import C, NotDivisibleError, Polynomial
from catalan_hankel.sequences import (
    Constant,
    Explicit,
    admissible_table,
    parse_weight_spec,
    shift,
)

from oracles import (
    det_bareiss_per_size,
    det_cofactor,
    hankel_rows,
    leading_minors_row_swaps,
    perm_sign,
    symmetric_minors_generic,
)

ZERO_HEAVY = st.sampled_from((0, 0, 0, 0, 1, -1, 2, -3))
ZERO_HEAVY_ZC = st.one_of(
    ZERO_HEAVY, ZERO_HEAVY.map(lambda a: a * C), ZERO_HEAVY.map(lambda a: a + C)
)


def minors(rows):
    """The library's leading minors of a symmetric matrix, on a copy; one
    holding c goes in as coefficient lists, the way ``hankel_minors`` hands
    a Hankel matrix over Z[c] to the kernel."""
    if any(isinstance(v, Polynomial) for row in rows for v in row):
        return hankel._minors([[ring._coeffs(v) for v in row] for row in rows])
    return hankel._minors([list(row) for row in rows])


def _symmetric(entries):
    """Symmetric matrices of size 0..8 whose upper triangles draw from entries."""

    def build(n):
        upper = st.lists(entries, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2)

        def fill(values):
            it = iter(values)
            rows = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = next(it)
            return rows

        return upper.map(fill)

    return st.integers(0, 8).flatmap(build)


def test_hankel_matrix_known_block():
    t = admissible_table(Constant(1), 10)
    assert hankel_rows(t, 4, 2, 2) == [[9, 25], [25, 69]]
    assert hankel_minors([9, 25, 69], 2) == [1, 9, 9 * 69 - 25 * 25]
    assert hankel_dets(Constant(1), [(4, 2, 2)])[4, 2] == [1, 9, 9 * 69 - 25 * 25]


def test_hankel_matrix_all_negative_indices():
    t = admissible_table(Constant(1), 2)
    assert hankel_rows(t, -5, 0, 2) == [[0, 0], [0, 0]]
    assert hankel_dets(Constant(1), [(-5, 0, 2)])[-5, 0] == [1, 0, 0]


def test_hankel_matrix_symbolic():
    t = admissible_table(Constant(C), 2)
    assert hankel_rows(t, 0, 1, 2) == [[0, 1], [1, 2 * C]]
    assert hankel_minors([0, 1, 2 * C], 2) == [1, 0, -1]
    assert hankel_dets(Constant(C), [(0, 1, 2)])[0, 1] == [1, 0, -1]


def test_hankel_matrices_are_symmetric():
    w = Explicit((2, -1, 3), 0)
    t = admissible_table(w, 12)
    for m_shift in (-2, 0, 3):
        for k in (0, 2):
            rows = hankel_rows(t, m_shift, k, 4)
            assert rows == [list(col) for col in zip(*rows)]
            blocks = [[row[:s] for row in rows[:s]] for s in range(5)]
            dets = hankel_dets(w, [(m_shift, k, 4)])[m_shift, k]
            assert dets == [det_cofactor(b) for b in blocks]


def test_spec_validation():
    with pytest.raises(ValueError, match="column index"):
        hankel_dets(Constant(1), [(0, -1, 2)])
    with pytest.raises(ValueError, match="matrix size"):
        hankel_dets(Constant(1), [(0, 0, -1)])
    with pytest.raises(ValueError, match="column index"):
        hankel_dets(Constant(1), [(0, 0, 3), (-2, -1, 0)])
    # non-square, ragged, unsymmetric
    for rows in ([[1, 2]], [[1, 2], [2]], [[1, 2], [3, 4]], [[0, C], [C + 1, 1]]):
        with pytest.raises(ValueError, match="square and symmetric"):
            det_fraction_free(rows)


def test_shallow_table_raises_instead_of_truncating():
    # size 3 needs the five terms 0..4
    with pytest.raises(ValueError, match="size 3 needs 5 terms, got 4"):
        hankel_minors([1, 1, 2, 4], 3)
    with pytest.raises(ValueError):
        hankel_minors([], -1)


def test_det_identity():
    assert det_fraction_free([[1, 0], [0, 1]]) == 1


def test_det_transposition():
    assert det_fraction_free([[0, 1], [1, 0]]) == -1


def test_det_worked_three_by_three():
    assert det_fraction_free([[1, -3, 0], [-3, 0, 2], [0, 2, 0]]) == -4


def test_det_empty_matrix_is_one():
    assert det_fraction_free([]) == 1


@given(
    st.integers(0, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-5, 5), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_det_matches_cofactor_expansion(rows):
    assert leading_minors_row_swaps(rows)[-1] == det_cofactor(rows)


def test_det_matches_cofactor_on_seeded_trials():
    rng = random.Random(987654)
    for _ in range(60):
        n = rng.randint(0, 5)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert det_bareiss_per_size(rows) == det_cofactor(rows)


def test_det_symbolic_matches_cofactor():
    rng = random.Random(4242)
    for _ in range(25):
        n = rng.randint(1, 4)
        rows = [
            [rng.randint(-3, 3) + rng.randint(-2, 2) * C for _ in range(n)]
            for _ in range(n)
        ]
        assert det_bareiss_per_size(rows) == det_cofactor(rows)


def test_permutation_matrix_signs():
    for perm in permutations(range(4)):
        rows = [[1 if j == perm[i] else 0 for j in range(4)] for i in range(4)]
        assert det_bareiss_per_size(rows) == perm_sign(perm)
        if all(perm[p] == i for i, p in enumerate(perm)):  # an involution: symmetric
            assert det_fraction_free(rows) == perm_sign(perm)


def test_duplicated_row_kills_determinant():
    rng = random.Random(55)
    for _ in range(20):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        i, j = rng.sample(range(n), 2)
        rows[i] = list(rows[j])
        assert det_bareiss_per_size(rows) == 0


@given(
    st.integers(0, 8).flatmap(
        lambda n: st.lists(
            st.lists(ZERO_HEAVY, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_leading_minors_match_cofactor_on_zero_heavy_matrices(rows):
    blocks = [[row[:s] for row in rows[:s]] for s in range(len(rows) + 1)]
    assert leading_minors_row_swaps(rows) == [det_cofactor(block) for block in blocks]


@given(
    st.integers(0, 7),
    st.integers(0, 6),
    st.one_of(*(st.lists(e, min_size=13, max_size=13) for e in (ZERO_HEAVY, ZERO_HEAVY_ZC))),
)
def test_hankel_minors_match_cofactor_after_a_zero_prefix(n, zeros, tail):
    # lemma13's negative shift: the sequence starts with a run of zeros
    terms = [0] * zeros + tail
    rows = [[terms[i + j] for j in range(n)] for i in range(n)]
    blocks = [[row[:s] for row in rows[:s]] for s in range(n + 1)]
    assert hankel_minors(terms, n) == [det_cofactor(block) for block in blocks]


@given(st.one_of(_symmetric(ZERO_HEAVY), _symmetric(ZERO_HEAVY_ZC)))
def test_leading_minors_match_cofactor_on_symmetric_zero_heavy_matrices(rows):
    blocks = [[row[:s] for row in rows[:s]] for s in range(len(rows) + 1)]
    assert minors(rows) == [det_cofactor(block) for block in blocks]


@given(
    st.integers(0, 14),
    st.integers(0, 8),
    st.one_of(*(st.lists(e, min_size=27, max_size=27) for e in (ZERO_HEAVY, ZERO_HEAVY_ZC))),
)
def test_hankel_minors_match_the_row_swap_oracle_after_a_zero_prefix(n, zeros, tail):
    terms = [0] * zeros + tail
    rows = [[terms[i + j] for j in range(n)] for i in range(n)]
    assert hankel_minors(terms, n) == leading_minors_row_swaps(rows)


def test_leading_minors_pair_step_on_adjacent_rows():
    # symmetric, pivot 0: steps 0 and 1 run together on [[0, 1], [1, 1]]
    assert minors([[0, 1], [1, 1]]) == [1, 0, -1]


def test_leading_minors_pair_step_with_a_zero_diagonal():
    # entry (1, 1) is 0 too: the pair's determinant -1 is still the pivot
    assert minors([[0, 1], [1, 0]]) == [1, 0, -1]


def test_leading_minors_pair_steps_exchange_a_far_row():
    # two pairs: at step 0 with row 1, at step 2 with row 3
    rows = [[0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    blocks = [[row[:s] for row in rows[:s]] for s in range(5)]
    assert minors(rows) == [1, 0, -1, 0, 1]
    assert minors(rows) == [det_cofactor(block) for block in blocks]
    # over Z[c]: step 0 pairs with row 2, exchanged into place 1; blocks of
    # size 1 and 2 have a zero first row; step 3 pairs with row 4
    rows = [[0, 0, C, 0, 0], [0, 1, 0, 0, 0], [C, 0, 1, 0, 0], [0, 0, 0, 0, C], [0, 0, 0, C, 0]]
    assert minors(rows) == [1, 0, 0, -C * C, 0, C**4]
    # a Hankel matrix behind a zero prefix of 3: every block up to size 3 is 0
    terms = [0, 0, 0, 1, 2, 5, 14, 42, 132]
    assert hankel_minors(terms, 5) == leading_minors_row_swaps(
        [terms[i : i + 5] for i in range(5)]
    )


def test_symmetric_elimination_updates_one_triangle(monkeypatch):
    # twice the Catalan numbers: the leading minors are 2^s, so every step
    # after step 0 (which follows the empty minor 1) divides by a non-unit
    catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
    calls = []

    def counting(a, b):
        calls.append(b)
        return divmod(a, b)

    monkeypatch.setattr(hankel, "divmod", counting, raising=False)
    assert hankel_minors([2 * t for t in catalan], 6) == [2**s for s in range(7)]
    # step p divides the (5 - p)(6 - p) / 2 entries with j >= i by 2^p
    assert calls == [2**p for p in range(1, 6) for _ in range((5 - p) * (6 - p) // 2)]
    # every minor of the Catalan Hankel matrix is 1: no step divides
    calls.clear()
    assert hankel_minors(catalan, 6) == [1] * 7
    assert calls == []
    rows = [catalan[i : i + 6] for i in range(6)]
    rows[5][0] += 1  # no longer symmetric: only the row-swap oracle takes it
    blocks = [[row[:s] for row in rows[:s]] for s in range(7)]
    assert leading_minors_row_swaps(rows) == [det_cofactor(block) for block in blocks]
    with pytest.raises(ValueError, match="symmetric"):
        det_fraction_free(rows)


# -- unit pivots: the steps that divide by 1 or -1 ------------------------------

UNIT_WEIGHTS = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=8).map(
    lambda p: Explicit(tuple(p), 0)
)


def _column_zero(w, sign, zeros, n):
    """``zeros`` zeros, then sign times column 0 of the triangle of w, enough
    terms for size n.  With no zeros every leading minor of their Hankel
    matrix is sign^s (D(0, 0, s) = 1), so every step divides by 1 or -1."""
    return [0] * zeros + [sign * row[0] for row in admissible_table(w, 2 * n)]


@given(UNIT_WEIGHTS, st.sampled_from((1, -1)), st.integers(0, 14))
def test_unit_pivot_minors_are_signs(w, sign, n):
    terms = _column_zero(w, sign, 0, n)
    expected = [sign**s for s in range(n + 1)]
    assert hankel_minors(terms, n) == expected
    rows = [terms[i : i + n] for i in range(n)]
    assert symmetric_minors_generic(rows) == expected
    if n <= 8:
        blocks = [[row[:s] for row in rows[:s]] for s in range(n + 1)]
        assert [det_cofactor(block) for block in blocks] == expected


@given(UNIT_WEIGHTS, st.sampled_from((1, -1)), st.integers(1, 5), st.integers(0, 14))
def test_unit_pivot_minors_behind_a_zero_prefix(w, sign, zeros, n):
    # the zeros make pair steps, some of them at a previous pivot of 1 or -1
    terms = _column_zero(w, sign, zeros, n)
    rows = [terms[i : i + n] for i in range(n)]
    expected = symmetric_minors_generic(rows)
    assert hankel_minors(terms, n) == expected
    if n <= 8:
        blocks = [[row[:s] for row in rows[:s]] for s in range(n + 1)]
        assert expected == [det_cofactor(block) for block in blocks]


def test_leading_minors_anti_identity():
    rows = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    assert minors(rows) == [1, 0, 0, -1]


def test_leading_minors_zero_below_a_far_swap_row():
    # the step-0 swap brings in row 3: blocks of size 1..3 have a zero column
    rows = [[0, 2, 1, 0], [0, 1, 3, 1], [0, 5, 1, 2], [3, 1, 0, 1]]
    blocks = [[row[:s] for row in rows[:s]] for s in range(5)]
    swapped = leading_minors_row_swaps(rows)
    assert swapped == [1, 0, 0, 0, det_cofactor(rows)]
    assert swapped == [det_cofactor(block) for block in blocks]
    assert swapped[4] != 0


def test_leading_minors_stop_when_no_row_can_be_swapped_in():
    # after step 0 the pivot column below row 0 is all zero
    rows = [[1, 2, 3], [2, 4, 5], [3, 6, 7]]
    blocks = [[row[:s] for row in rows[:s]] for s in range(4)]
    assert leading_minors_row_swaps(rows) == [1, 1, 0, 0]
    assert leading_minors_row_swaps(rows) == [det_cofactor(block) for block in blocks]


def test_leading_minors_symbolic_zeros_compare_by_value():
    # a zero minor over Z[c] may be the zero polynomial rather than int 0
    rows = [[C, 1], [C, 1]]  # not symmetric: the row-swap oracle
    blocks = [[row[:s] for row in rows[:s]] for s in range(3)]
    assert leading_minors_row_swaps(rows) == [1, C, 0]
    assert leading_minors_row_swaps(rows) == [det_cofactor(block) for block in blocks]
    assert minors([[0, C], [C, 1]]) == [1, 0, -C * C]


class _RemainderDivisor(int):
    """A pivot whose every division leaves a remainder."""

    def __rdivmod__(self, other):
        return other // int(self), 1


class _LeadingCoefficientDivisor(int):
    """A pivot whose every division fails on a leading coefficient."""

    def __rdivmod__(self, other):
        raise NotDivisibleError(f"{other} is not divisible by {int(self)}")


@pytest.mark.parametrize("divisor", [_RemainderDivisor, _LeadingCoefficientDivisor])
def test_leading_minors_check_every_quotient(divisor):
    # step 0 divides by 1; step 1 divides by the first pivot, the broken one:
    # one triangle, and a pair step at step 1, whose pivot 0 needs row 2
    for rows in (
        [[divisor(2), 1, 1], [1, 2, 1], [1, 1, 2]],
        [[divisor(1), 1, 1], [1, 1, 2], [1, 2, 1]],
    ):
        with pytest.raises(InternalDivisionError, match="elimination step 1"):
            minors(rows)
        with pytest.raises(InternalDivisionError, match="elimination step 1"):
            det_fraction_free(rows)
    # not symmetric (whole rows): the row-swap oracle checks its quotients too
    with pytest.raises(InternalDivisionError, match="elimination step 1"):
        leading_minors_row_swaps([[divisor(2), 1, 1], [1, 2, 1], [0, 1, 2]])


# -- the Z[c] kernel -----------------------------------------------------------

SMALL_POLY = st.lists(st.integers(-3, 3), max_size=4).map(Polynomial)
ZC_ENTRIES = st.one_of(ZERO_HEAVY_ZC, SMALL_POLY)


@st.composite
def _with_a_multiple(draw, entries):
    """A symmetric matrix in which index s repeats index k times a factor f
    (rows and columns alike), so every block holding both is singular and,
    over Z[c], its minor the zero polynomial."""
    rows = draw(_symmetric(entries).filter(lambda rows: 0 < len(rows) < 8))
    n = len(rows)
    k, s = draw(st.integers(0, n - 1)), draw(st.integers(0, n))
    f = draw(st.sampled_from((1, -2, C, C + 1, 2 * C - 1)))
    scale = [f if t == s else 1 for t in range(n + 1)]
    index = list(range(n))
    index.insert(s, k)
    return [
        [scale[i] * scale[j] * rows[a][b] for j, b in enumerate(index)]
        for i, a in enumerate(index)
    ]


@given(st.one_of(_symmetric(ZC_ENTRIES), _with_a_multiple(ZC_ENTRIES)))
def test_zc_minors_match_the_generic_kernel_and_cofactor(rows):
    # mixed int and Polynomial entries, zero pivots and zero horizons, and
    # blocks whose minor is the zero polynomial
    blocks = [[row[:s] for row in rows[:s]] for s in range(len(rows) + 1)]
    expected = [det_cofactor(block) for block in blocks]
    assert minors(rows) == symmetric_minors_generic(rows) == expected


@given(
    st.integers(0, 12),
    st.integers(0, 6),
    st.lists(ZC_ENTRIES, min_size=23, max_size=23),
)
def test_hankel_minors_over_zc_match_the_generic_kernel(n, zeros, tail):
    terms = [0] * zeros + tail
    rows = [[terms[i + j] for j in range(n)] for i in range(n)]
    assert hankel_minors(terms, n) == symmetric_minors_generic(rows)


def test_zc_minors_of_a_rank_one_hankel_matrix_are_zero_polynomials():
    # (c^(i+j)) has rank 1; behind one zero, a pair step comes first
    assert hankel_minors([C**t for t in range(9)], 5) == [1, 1, 0, 0, 0, 0]
    terms = [0] + [C**t for t in range(9)]
    assert hankel_minors(terms, 5) == [1, 0, -1, 0, 0, 0]
    assert hankel_minors(terms, 5) == symmetric_minors_generic(
        [terms[i : i + 5] for i in range(5)]
    )


def test_exact_div_over_zc():
    def div(num, den):
        return ring._exact_div(list(num), ring._terms(den))

    assert div([-1, 0, 1], [-1, 1]) == [1, 1]  # (c^2 - 1) / (c - 1)
    assert div([0, 0, 6], [0, 2]) == [0, 3]
    assert div([0, 0, 0], [5, 7]) == []
    with pytest.raises(NotDivisibleError, match="remainder"):
        div([1, 0, 1], [1, 1])  # c^2 + 1 = (c - 1)(c + 1) + 2
    with pytest.raises(NotDivisibleError, match="remainder"):
        div([3], [0, 1])  # degree below the divisor's
    with pytest.raises(NotDivisibleError, match="leading coefficient"):
        div([0, 3], [0, 2])
    with pytest.raises(NotDivisibleError, match="leading coefficient"):
        div([2, 0, 3], [1, 2])


@given(SMALL_POLY, SMALL_POLY.filter(bool))
def test_exact_div_inverts_a_product(a, b):
    assert ring._exact_div(list((a * b).coeffs), ring._terms(list(b.coeffs))) == list(
        a.coeffs
    )


def _fault(kind):
    # the real division, after spoiling a numerator whose divisor is not 1
    real = ring._exact_div

    def spoiled(num, den):
        if den != [(0, 1)]:
            num[0 if kind == "remainder" else -1] += 1
        return real(num, den)

    return spoiled


@pytest.mark.parametrize("kind", ["remainder", "leading coefficient"])
def test_zc_elimination_checks_every_quotient(monkeypatch, kind):
    # step 1 divides by the pivot 2c: as a plain step, and as a pair step
    # (pivot (1, 1) is 0 after step 0) whose next pivot divides by 2c
    for rows in (
        [[2 * C, 1, 1], [1, 2 * C, 1], [1, 1, 2 * C]],
        [[2 * C, 2 * C, 1], [2 * C, 2 * C, 3], [1, 3, 2 * C]],
    ):
        blocks = [[row[:s] for row in rows[:s]] for s in range(4)]
        assert minors(rows) == [det_cofactor(block) for block in blocks]
        with monkeypatch.context() as patch:
            patch.setattr(hankel, "_exact_div", _fault(kind))
            with pytest.raises(InternalDivisionError, match="elimination step 1") as info:
                minors(rows)
            assert kind in str(info.value.__cause__)
            with pytest.raises(InternalDivisionError, match="elimination step 1"):
                det_fraction_free(rows)


def test_zc_elimination_builds_no_polynomial_per_entry(monkeypatch):
    # a Hankel matrix over Z[c] with a pair step: only the minors are
    # Polynomials, and no Polynomial operator runs
    w = parse_weight_spec("shift^2:explicit:1,c,0,c,-1,2,c;tail=c")
    terms = [row[1] if len(row) > 1 else 0 for row in admissible_table(w, 2 * 7)]
    expected = symmetric_minors_generic([terms[i : i + 8] for i in range(8)])
    calls = []
    pair_step = hankel._pair_step_zc
    monkeypatch.setattr(
        hankel, "_pair_step_zc", lambda *args: calls.append("pair") or pair_step(*args)
    )
    for name in ("__mul__", "__rmul__", "__sub__", "__rsub__", "exact_div"):
        real = getattr(Polynomial, name)

        def counting(self, other, real=real, name=name):
            calls.append(name)
            return real(self, other)

        monkeypatch.setattr(Polynomial, name, counting)
    assert hankel_minors(terms, 8) == expected
    assert calls == ["pair"]  # at step 0: term 0 is 0


HANKEL_WEIGHTS = st.one_of(
    st.sampled_from((Constant(C), Constant(1), Constant(0))),
    st.lists(ZERO_HEAVY, max_size=6).map(lambda p: shift(Explicit(tuple(p), 0))),
)


REQUESTS = st.lists(
    st.tuples(
        st.one_of(st.integers(-4, 4), st.integers(-10**6, -5)),
        st.sampled_from((0, 1, 3, 5)),
        st.integers(0, 9),
    ),
    max_size=6,
)


@given(HANKEL_WEIGHTS, REQUESTS)
def test_hankel_dets_match_per_size_bareiss(w, requests):
    # repeated (m, k) at other sizes, shifts far below 0, gaps in k, size 0
    dets = hankel_dets(w, requests)
    assert set(dets) == {(m, k) for m, k, _ in requests}
    table = admissible_table(w, 2 * 9 + 4)
    for (m, k), values in dets.items():
        assert len(values) == 1 + max(n for m2, k2, n in requests if (m2, k2) == (m, k))
        for n, value in enumerate(values):
            assert value == det_bareiss_per_size(hankel_rows(table, m, k, n))


def test_hankel_dets_stream_every_column_in_one_call(monkeypatch):
    calls = []
    real = hankel.columns

    def counting(w, ks, depth):
        calls.append((list(ks), depth))
        return real(w, ks, depth)

    monkeypatch.setattr(hankel, "columns", counting)
    dets = hankel_dets(Constant(1), [(1, 3, 2), (-4, 0, 5), (1, 3, 4), (9, 1, 0)])
    assert calls == [([0, 1, 3], 2 * (4 - 1) + 1)]  # size 0 at shift 9 reads no row
    assert dets[1, 3] == hankel_dets(Constant(1), [(1, 3, 4)])[1, 3]
    assert dets[9, 1] == [1]
    calls.clear()
    assert hankel_dets(Constant(1), []) == {}
    assert len(calls) == 1


DJ_WEIGHTS = st.one_of(
    st.integers(-3, 3).map(Constant),
    st.lists(ZERO_HEAVY, max_size=6).map(lambda p: Explicit(tuple(p), 0)),
    st.lists(ZERO_HEAVY, max_size=6).map(lambda p: shift(Explicit(tuple(p), 0))),
    st.just(Constant(C)),
)


@given(DJ_WEIGHTS, st.integers(-6, 3), st.integers(0, 2), st.integers(2, 8))
def test_hankel_dets_satisfy_desnanot_jacobi_across_shifts(w, m, k, n_max):
    # condensation of the (n+1) x (n+1) matrix of shift m: its corner minors
    # are the matrices of shifts m, m+1 (twice) and m+2, whatever the pivots
    dets = hankel_dets(w, [(m + i, k, n_max) for i in range(3)])
    d0, d1, d2 = (dets[m + i, k] for i in range(3))
    for n in range(1, n_max):
        assert d0[n + 1] * d2[n - 1] == d0[n] * d2[n] - d1[n] * d1[n]


def test_hankel_dets_read_zeros_before_row_zero():
    # column 0 is the Motzkin numbers 1, 1, 2, 4, 9, ...
    dets = hankel_dets(Constant(1), [(0, 0, 3), (-2, 0, 3), (-9, 0, 3)])
    assert dets[0, 0] == [1, 1, 1, 1]
    assert dets[-2, 0] == [1, 0, 0, -1]
    assert dets[-9, 0] == [1, 0, 0, 0]


def test_a_far_negative_shift_reads_only_the_zeros_it_needs():
    m = -(10**15)
    assert hankel_dets(Constant(1), [(m, 0, 3)])[m, 0] == [1, 0, 0, 0]


def test_hankel_det_size_zero_is_one():
    assert hankel_det(Constant(C), -3, 2, 0) == 1


def test_hankel_det_rejects_negative_size():
    with pytest.raises(ValueError):
        hankel_det(Constant(1), 0, 0, -1)


def test_known_shifted_sequences():
    assert [hankel_det(Constant(1), 1, 1, n) for n in range(12)] == [
        1, 1, 1, 1, 0, 0, -1, -1, -1, -1, 0, 0,
    ]
    s = Explicit((1,), 0)
    assert [hankel_det(s, -2, 0, n) for n in range(9)] == [
        1, 0, 0, -1, -1, -2, -2, -3, -3,
    ]
    assert [hankel_det(Constant(1), 2, 2, n) for n in range(10)] == [
        1, 1, 0, -4, -4, 0, 9, 9, 0, -16,
    ]


def test_symbolic_numeric_commutation():
    for t in (-2, -1, 0, 1, 2, 3):
        for m in range(-2, 3):
            for k in range(3):
                for n in range(7):
                    sym = hankel_det(Constant(C), m, k, n)
                    if isinstance(sym, Polynomial):
                        sym = sym.evaluate(t)
                    assert sym == hankel_det(Constant(t), m, k, n)


def test_flat_and_once_shifted_recurrences():
    # D(0, 0, n) = 1 and D(1, 0, n) = s_{n-1} D(1, 0, n-1) - D(1, 0, n-2)
    rng = random.Random(31337)
    for _ in range(10):
        w = Explicit(tuple(rng.randint(-3, 3) for _ in range(10)), 0)
        d1 = [hankel_det(w, 1, 0, n) for n in range(9)]
        assert d1[0] == 1 and d1[1] == w.at(0)
        for n in range(2, 9):
            assert d1[n] == w.at(n - 1) * d1[n - 1] - d1[n - 2]
        for n in range(9):
            assert hankel_det(w, 0, 0, n) == 1


SYMPY_SPECS = (
    "const:c", "explicit:c,1;tail=c", "explicit:1,c,-1;tail=0", "shift:explicit:2,c;tail=-1",
)


@pytest.mark.parametrize("text", SYMPY_SPECS)
def test_hankel_dets_match_sympy_over_zz_c(text):
    # the triangle and its determinants over ZZ[c], all in sympy
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    ring = sympy.ZZ[sympy.Symbol("c")]
    c = ring.gens[0]

    def to_ring(value):
        coeffs = value.coeffs if isinstance(value, Polynomial) else (value,)
        return sum((v * c**i for i, v in enumerate(coeffs)), ring.zero)

    w = parse_weight_spec(text)
    weight = [to_ring(w.at(h)) for h in range(11)]
    rows = [[ring.one]]
    for _ in range(10):
        prev = [ring.zero] + rows[-1] + [ring.zero, ring.zero]
        rows.append(
            [prev[h] + weight[h] * prev[h + 1] + prev[h + 2] for h in range(len(rows[-1]) + 1)]
        )

    def entry(r, k):
        return rows[r][k] if 0 <= r and k < len(rows[r]) else ring.zero

    requests = [(m, k, 4) for m in range(-3, 4) for k in range(3)]
    for (m, k), values in hankel_dets(w, requests).items():
        for n, value in enumerate(values):
            matrix = [[entry(i + j + m, k) for j in range(n)] for i in range(n)]
            assert to_ring(value) == DomainMatrix(matrix, (n, n), ring).det(), (m, k, n)
