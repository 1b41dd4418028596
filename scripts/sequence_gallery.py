#!/usr/bin/env python3
"""Print the gallery of sequences the test suite pins down.

Everything here is recomputed from scratch; the OEIS ids are given where
a sequence is catalogued, for eyeball cross-checking.
"""

from catalan_hankel.hankel import hankel_dets, hankel_minors
from catalan_hankel.ring import render
from catalan_hankel.sequences import Constant, Explicit, admissible_table, column
from catalan_hankel.series import reciprocal_power_coeffs


def show(label, values):
    print(f"{label:<28} {', '.join(render(v) for v in values)}")


def main():
    unit = Constant(1)
    t = admissible_table(unit, 10)
    d = hankel_dets(unit, [(1, 1, 11), (-1, 1, 11), (2, 2, 13), (-2, 2, 12), (4, 2, 6)])

    print("== triangle columns, constant weight 1 ==")
    show("a[n][0] (A001006 Motzkin)", [column(t, 0, n) for n in range(11)])
    show("a[n][1]", [column(t, 1, n) for n in range(11)])
    show("a[n][2]", [column(t, 2, n) for n in range(11)])

    print()
    print("== shifted Hankel determinants, constant weight 1 ==")
    show("D(1,1,n)", d[1, 1])
    show("D(-1,1,n)", d[-1, 1])
    show("D(2,2,n)", d[2, 2])
    show("D(-2,2,n)", d[-2, 2])

    print()
    print("== weights (1, 0, 0, ...): central binomial column ==")
    s = Explicit((1,), 0)
    ts = admissible_table(s, 10)
    ds = hankel_dets(s, [(2, 0, 11), (-2, 0, 18)])
    show("a[n][0] (A001405)", [column(ts, 0, n) for n in range(11)])
    show("D(2,0,n)", ds[2, 0])
    show("D(2,0,n), shifted wts", hankel_dets(Explicit((), 0), [(2, 0, 13)])[2, 0])
    show("D(-2,0,n)", ds[-2, 0])

    print()
    print("== reciprocal third power of the Motzkin series ==")
    b = reciprocal_power_coeffs(1, 2, 13)
    show("b[n] of 1/A^3", b)
    minors = hankel_minors(b, 7)
    show("det(b[i+j]) by size", minors)
    show("D(4,2,n)", d[4, 2])
    print()
    print("worked example: det of the leading 3x3 block of (b[i+j]) is")
    for i in range(3):
        print("   ", list(b[i : i + 3]))
    print(" =", minors[3], "= D(4,2,2)")


if __name__ == "__main__":
    main()
