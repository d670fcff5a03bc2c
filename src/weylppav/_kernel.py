"""Exact dense matrix product on flat row-major tuples.

The one product loop behind ``Matrix.__mul__``, for any n*k by k*m shape
and any exact scalars (Python ints and ``fractions.Fraction``). The group
closure and the exhaustive form check in ``verify`` use sparse column
arithmetic of their own and do not go through it.
"""

from __future__ import annotations

from operator import mul


def mat_mul_flat(a, b, n, k, m):
    """Flat row-major product of an n*k matrix ``a`` and a k*m matrix ``b``."""
    cols = [b[j::m] for j in range(m)]
    out = []
    for i in range(0, n * k, k):
        row = a[i:i + k]
        out.extend(sum(map(mul, row, col)) for col in cols)
    return tuple(out)


# Second name kept importable: perfbench/tracing.py looks it up, and the
# dense reference closure in tests/test_weyl.py calls it.
mat_mul_flat_py = mat_mul_flat
