import math

import pytest
from hypothesis import example, given, strategies as st

from catalan_hankel.ring import C
from catalan_hankel.sequences import (
    Constant,
    Explicit,
    Shifted,
    admissible_table,
    columns,
    parse_weight_spec,
    shift,
)

from oracles import TooLargeError, paths_oracle

int_specs = st.lists(st.integers(-3, 3), max_size=6).map(
    lambda vs: Explicit(tuple(vs), 0)
)


def test_weight_at_explicit_with_tail():
    w = Explicit((1,), 0)
    assert w.at(0) == 1
    assert w.at(3) == 0


def test_weight_at_constant():
    assert Constant(1).at(17) == 1


def test_weight_at_shifted_drops_prefix():
    assert Shifted(Explicit((1,), 0), 1).at(0) == 0


def test_weight_at_negative_index_raises():
    with pytest.raises(ValueError):
        Constant(1).at(-1)


def test_shift_of_constant_is_pointwise_equal():
    w = shift(Constant(C))
    assert all(w.at(k) == C for k in range(10))


def test_shift_of_explicit_prefix():
    w = shift(Explicit((1,), 0))
    assert all(w.at(k) == Explicit((), 0).at(k) for k in range(10))


@given(int_specs, st.integers(0, 20))
def test_shift_composes(w, k):
    assert shift(shift(w)).at(k) == w.at(k + 2)
    assert Shifted(w, 2).at(k) == w.at(k + 2)


def test_motzkin_column_zero():
    rows = admissible_table(Constant(1), 7)
    assert [rows[n][0] for n in range(8)] == [1, 1, 2, 4, 9, 21, 51, 127]


def test_motzkin_column_two():
    rows = admissible_table(Constant(1), 8)
    assert [rows[n][2] for n in range(2, 9)] == [1, 3, 9, 25, 69, 189, 518]


def test_single_one_weights_give_central_binomials():
    # independent oracle: binom(n, floor(n/2))
    rows = admissible_table(Explicit((1,), 0), 6)
    assert [rows[n][0] for n in range(7)] == [
        math.comb(n, n // 2) for n in range(7)
    ]


def test_column_conventions():
    rows = admissible_table(Constant(1), 4)
    assert rows[3][1] == 5  # row 3 of the Motzkin triangle is 4, 5, 3, 1
    assert rows[3] == (4, 5, 3, 1)


def test_symbolic_entry():
    rows = admissible_table(Constant(C), 3)
    assert rows[2][1] == 2 * C


def test_table_validates_depth():
    with pytest.raises(ValueError):
        admissible_table(Constant(1), -1)


COLUMN_SPECS = st.one_of(
    st.integers(-3, 3).map(Constant),
    st.sampled_from((Constant(C), Constant(C + 1))),
    int_specs,
    st.builds(Shifted, int_specs, st.integers(0, 4)),
    st.builds(
        Explicit,
        st.lists(st.sampled_from((0, 0, 1, -2, C)), max_size=5).map(tuple),
        st.sampled_from((0, 1, C)),
    ),
)


@given(COLUMN_SPECS, st.lists(st.integers(0, 14), max_size=5), st.integers(0, 12))
@example(Constant(1), [0, 3, 7], 0)
@example(Constant(C), [2, 9], 12)
def test_columns_match_the_whole_triangle(w, ks, depth):
    rows = admissible_table(w, depth)
    cols = columns(w, ks, depth)
    assert set(cols) == set(ks)
    for k in ks:
        assert cols[k] == [rows[r][k] if k <= r else 0 for r in range(depth + 1)]


def test_columns_validate_their_arguments():
    assert columns(Constant(1), [], 3) == {}
    with pytest.raises(ValueError):
        columns(Constant(1), [0], -1)
    with pytest.raises(ValueError):
        columns(Constant(1), [2, -1], 3)


def test_paths_trivial_length_zero():
    assert paths_oracle(Constant(7), 0, 0) == 1
    assert paths_oracle(Explicit((), 5), 0, 0) == 1


def test_paths_motzkin_number():
    assert paths_oracle(Constant(1), 4, 0) == 9


def test_paths_central_binomial():
    assert paths_oracle(Explicit((1,), 0), 4, 0) == 6


def test_paths_guard():
    with pytest.raises(TooLargeError):
        paths_oracle(Constant(1), 15, 0)


def test_paths_match_recurrence_on_small_grid():
    for w in (Constant(0), Constant(2), Explicit((2, 1), 0)):
        rows = admissible_table(w, 6)
        for n in range(7):
            for k in range(n + 1):
                assert paths_oracle(w, n, k) == rows[n][k]


def test_symbolic_paths_match_recurrence():
    w = Constant(C)
    rows = admissible_table(w, 5)
    for n in range(6):
        for k in range(n + 1):
            assert paths_oracle(w, n, k) == rows[n][k]


@given(st.lists(st.integers(0, 3), min_size=1, max_size=6))
def test_nonnegative_weights_give_nonnegative_entries(vs):
    rows = admissible_table(Explicit(tuple(vs), 0), 8)
    assert all(v >= 0 for row in rows for v in row)


@given(int_specs)
def test_diagonal_is_all_ones(w):
    rows = admissible_table(w, 8)
    assert all(rows[n][n] == 1 for n in range(9))


def test_zero_weights_parity():
    rows = admissible_table(Constant(0), 9)
    for n in range(10):
        for k in range(n + 1):
            if (n + k) % 2 == 1:
                assert rows[n][k] == 0


@pytest.mark.parametrize(
    "text",
    [
        "const:1",
        "const:c",
        "const:-4",
        "explicit:1,0,-2;tail=0",
        "explicit:;tail=3",
        "explicit:2,1;tail=c",
        "shift^2:const:1",
        "shift:explicit:1;tail=0",
        "shift^3:shift:const:c",
    ],
)
def test_parse_describe_round_trip(text):
    w = parse_weight_spec(text)
    again = parse_weight_spec(w.describe())
    assert all(w.at(k) == again.at(k) for k in range(12))


@pytest.mark.parametrize(
    "text",
    ["", "const", "const:x", "explicit:1;tl=0", "bogus:1", "shift^:const:1"],
)
def test_parse_errors(text):
    with pytest.raises(ValueError):
        parse_weight_spec(text)


def test_describe_golden():
    assert Constant(1).describe() == "const:1"
    assert Constant(C).describe() == "const:c"
    assert Explicit((1, 0), 0).describe() == "explicit:1,0;tail=0"
    assert Shifted(Constant(1), 2).describe() == "shift^2:const:1"
