"""Integer matrix-multiply kernel with import-time backend selection.

The compiled Cython extension is used when it is importable (and not
disabled via WEYLPPAV_NO_EXT=1); the pure-Python implementation is the
universal fallback and the reference for correctness. Both operate on
flat row-major tuples of Python ints. The only caller is
``Matrix.__mul__`` for square integer operands: the group closure and the
exhaustive form check in ``verify`` use sparse column arithmetic of their
own and do not go through this kernel. The compiled path bails out with
OverflowError on entries that might not fit 64-bit arithmetic, in which
case the exact pure path takes over, so results are identical by
construction.
"""

from __future__ import annotations

import os
from operator import mul

if os.environ.get("WEYLPPAV_NO_EXT") == "1":
    _compiled = None
else:
    try:
        from . import _intmul as _compiled
    except ImportError:
        _compiled = None

USING_COMPILED = _compiled is not None


def mat_mul_flat_py(a, b, n):
    """Flat row-major product of two n*n matrices of exact scalars."""
    cols = [b[j::n] for j in range(n)]
    out = []
    for i in range(0, n * n, n):
        row = a[i:i + n]
        out.extend(sum(map(mul, row, col)) for col in cols)
    return tuple(out)


if _compiled is not None:

    def mat_mul_flat(a, b, n):
        """Product via the compiled kernel, exact fallback on overflow."""
        try:
            return _compiled.mat_mul_flat(a, b, n)
        except OverflowError:
            return mat_mul_flat_py(a, b, n)

else:
    mat_mul_flat = mat_mul_flat_py
