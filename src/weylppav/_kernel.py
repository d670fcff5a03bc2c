"""Exact matrix product on flat row-major tuples, by rows of nonzero entries.

The one product loop behind ``Matrix.__mul__``, for any n*k by k*m shape.
Row i of the product is the sum, over the nonzero entries x = a[i][t], of
x times row t of ``b`` (Gustavson, "Two fast algorithms for sparse
matrices: multiplication and permuted transposition", ACM TOMS 4(3),
1978). Zero entries of ``a`` cost one test each and no arithmetic. A
simple reflection is the identity except in one row, so its other rows
each hold a single 1 and cost only a copy of one row of ``b``; an all-zero
row is m int zeros.

It works on any exact scalars, but ``Matrix.__mul__`` passes it ints only:
the numerators of both operands, whose denominators it never sees. The
group closure in ``weyl`` works on interned rows of its own and does not
go through it.
"""

from __future__ import annotations

from itertools import compress


def mat_mul_flat(a, b, n, k, m):
    """Flat row-major product of an n*k matrix ``a`` and a k*m matrix ``b``.

    Each output row combines the rows of ``b`` picked by the nonzero
    entries of the matching row of ``a``; a row holding one 1 is a copy.
    """
    rows = [b[t * m:t * m + m] for t in range(k)]
    zero = (0,) * m
    out = []
    for i in range(0, n * k, k):
        ai = a[i:i + k]
        acc = None
        for x, row in zip(filter(None, ai), compress(rows, ai)):
            if acc is None:
                acc = row if x == 1 else [x * y for y in row]
            else:
                acc = [s + x * y for s, y in zip(acc, row)]
        out.extend(zero if acc is None else acc)
    return tuple(out)


# Second name kept importable: perfbench/tracing.py looks it up, and the
# dense reference closure in tests/test_weyl.py calls it.
mat_mul_flat_py = mat_mul_flat
