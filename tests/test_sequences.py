import math

import pytest
from hypothesis import example, given, strategies as st

from catalan_hankel.cli import main
from catalan_hankel.ring import C, Polynomial
from catalan_hankel.sequences import (
    Constant,
    Explicit,
    Shifted,
    admissible_table,
    columns,
    parse_weight_spec,
    shift,
)

from oracles import TooLargeError, columns_generic, paths_oracle, table_generic

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
    cols = columns(w, ks, depth)
    assert set(cols) == set(ks)
    assert cols == columns_generic(w, ks, depth)


# -- the packed Z[c] triangle vs the Polynomial-object step ---------------------
#
# A triangle whose weights hold c runs on the weights' values at c = 2**h and
# is read back as digits, h from the same step run on the weights' norms and
# halved when every weight holds only odd or only even powers of c.  The
# oracle steps on Polynomial objects.  Weights are drawn from one of three
# pools, so a spec holds only odd powers of c, only even ones, or both; the
# odd pool has large multiples of c, whose entries have no cancellation and
# reach the majorant.

odd_weights = st.sampled_from((0, 0, C, -C, 3 * C, C**3 - 2 * C)) | st.integers(0, 2**40).map(
    lambda v: v * C
)
even_weights = st.sampled_from((0, 1, -2, 3, C * C, 1 - C * C, Polynomial((5,))))
mixed_weights = st.sampled_from((0, 0, 1, -2, C, 1 + C, C * C))


def zc_specs(values):
    explicit = st.builds(Explicit, st.lists(values, max_size=6).map(tuple), values)
    return st.one_of(
        st.builds(Constant, values), explicit, st.builds(Shifted, explicit, st.integers(0, 4))
    )


ZC_SPECS = st.sampled_from((odd_weights, even_weights, mixed_weights)).flatmap(zc_specs)


def holds_c(w, depth):
    return any(isinstance(w.at(h), Polynomial) for h in range(depth + 1))


@given(ZC_SPECS, st.lists(st.integers(0, 20), max_size=5), st.integers(0, 14))
@example(Constant(C), [0, 3, 15], 0)
@example(Explicit((1, C, -1), C), [20, 0], 14)
def test_zc_columns_match_the_generic_triangle(w, ks, depth):
    cols = columns(w, ks, depth)
    assert cols == columns_generic(w, ks, depth)
    if holds_c(w, depth):
        assert all(isinstance(v, Polynomial) for values in cols.values() for v in values)


@given(ZC_SPECS, st.integers(0, 14))
@example(Constant(C), 0)
@example(Shifted(Explicit((0, C, C * C), 0), 1), 9)
def test_zc_table_matches_the_generic_triangle(w, max_n):
    rows = admissible_table(w, max_n)
    assert rows == table_generic(w, max_n)
    if holds_c(w, max_n):
        assert all(isinstance(v, Polynomial) for row in rows for v in row)


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


@pytest.mark.parametrize("text", ["explicit:1,,2", "explicit:1,2,;tail=0", "explicit:,1"])
def test_parse_rejects_an_empty_value_in_a_prefix(text):
    # dropping it would read explicit:1,2 and shift every later height
    with pytest.raises(ValueError, match="bad weight value ''"):
        parse_weight_spec(text)


def test_parse_empty_prefix_is_the_tail_alone():
    w = parse_weight_spec("explicit:;tail=3")
    assert w == Explicit((), 3)
    assert w.describe() == "explicit:;tail=3"


def test_cli_rejects_an_empty_weight_value(capsys):
    assert main(["seq", "--weights", "explicit:1,,2", "--n", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad weight value ''" in captured.err


def test_nested_shifts_unwrap_into_one_offset():
    assert Shifted(Shifted(Explicit((1, C), 2), 1), 2) == Shifted(Explicit((1, C), 2), 3)
    assert shift(Shifted(Explicit((1,), 0), 4)) == Shifted(Explicit((1,), 0), 5)
    w = parse_weight_spec("shift:shift^2:explicit:1,2,3,4;tail=c")
    assert w == Shifted(Explicit((1, 2, 3, 4), C), 3)
    assert w.describe() == "shift^3:explicit:1,2,3,4;tail=c"
    # a single prefix keeps its wrapper, shift^0 included
    assert parse_weight_spec("shift^0:const:1").describe() == "shift^0:const:1"


def test_nested_shift_errors_name_the_text_after_the_prefixes():
    with pytest.raises(ValueError, match="bad weight spec 'bogus:1'"):
        parse_weight_spec("shift:shift^2:bogus:1")
    with pytest.raises(ValueError, match="bad weight spec '': missing ':'"):
        parse_weight_spec("shift:shift:")


def test_thousands_of_nested_shift_prefixes_run(capsys):
    # each prefix used to cost a level of recursion in the parser, at and
    # describe, so about 990 of them crashed every --weights command
    spec = "shift:" * 5000 + "explicit:1,2;tail=1"
    assert main(["seq", "--weights", spec, "--n", "3"]) == 0
    assert capsys.readouterr().out == "1,1,2\n"
    assert main(["verify", "theorem1", "--weights", spec]) == 0
    assert "theorem1: verified" in capsys.readouterr().out


def test_nested_shift_prefixes_describe_as_one(capsys):
    assert main(["seq", "--weights", "shift:shift:const:1", "--n", "2", "--format", "json"]) == 0
    assert '"weights": "shift^2:const:1"' in capsys.readouterr().out


def test_describe_golden():
    assert Constant(1).describe() == "const:1"
    assert Constant(C).describe() == "const:c"
    assert Explicit((1, 0), 0).describe() == "explicit:1,0;tail=0"
    assert Shifted(Constant(1), 2).describe() == "shift^2:const:1"
