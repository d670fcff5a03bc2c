"""Hand-entered reference values the verifier cross-checks against.

Closed forms of the base Riemann matrices per root system, expected
torus decompositions, congruence levels, coroot polarization degrees, the
degrees of the Weyl groups' basic invariants, explicit change-of-basis
witnesses, and two sample integral representations with their known
invariant families.

Two entries reproduce known misprints on purpose (the whole printed E7
matrix, which is the Gram form rather than its inverse, and the (6,6)
entry of the printed E8 matrix, 22 where the exact value is 12). They are
kept verbatim so the verifier can classify the mismatch as a documented
discrepancy instead of a failure; fixing them here would defeat that.
"""

from __future__ import annotations

from fractions import Fraction

from .exactmat import Matrix
from .rootsys import RootSystemId


def _sym(upper_rows):
    """Build a symmetric matrix from its upper-triangle rows."""
    n = len(upper_rows)
    full = [[0] * n for _ in range(n)]
    for i, row in enumerate(upper_rows):
        for k, x in enumerate(row):
            j = i + k
            full[i][j] = x
            full[j][i] = x
    return Matrix(full)


# -- closed forms of z0 -----------------------------------------------------------

F = Fraction

_Z0_E6 = _sym([
    [F(4, 3), 1, F(5, 3), 2, F(4, 3), F(2, 3)],
    [2, 2, 3, 2, 1],
    [F(10, 3), 4, F(8, 3), F(4, 3)],
    [6, 4, 2],
    [F(10, 3), F(5, 3)],
    [F(4, 3)],
])

_Z0_F4 = _sym([
    [1, F(3, 2), 2, 1],
    [3, 4, 2],
    [6, 3],
    [2],
])

_Z0_G2 = _sym([
    [2, 1],
    [F(2, 3)],
])

# Printed E7 value: this is the Gram matrix itself, a known misprint for
# its inverse. Kept verbatim; see the module docstring.
PRINTED_Z0_E7 = _sym([
    [2, 0, -1, 0, 0, 0, 0],
    [2, 0, -1, 0, 0, 0],
    [2, -1, 0, 0, 0],
    [2, -1, 0, 0],
    [2, -1, 0],
    [2, -1],
    [2],
])

# Printed E8 value; (6,6) reads 22 where the exact inverse has 12.
PRINTED_Z0_E8 = _sym([
    [4, 5, 7, 10, 8, 6, 4, 2],
    [8, 10, 15, 12, 9, 6, 3],
    [14, 20, 16, 12, 8, 4],
    [30, 24, 18, 12, 6],
    [20, 15, 10, 5],
    [22, 8, 4],
    [6, 3],
    [2],
])

E8_MISPRINT_CELLS = frozenset({(5, 5)})  # 0-indexed


def closed_form_z0(system: RootSystemId):
    """Published closed form of z0, or None for E7/E8 (see PRINTED_Z0_*)."""
    fam, n = system.family, system.rank
    if fam == "A":
        return Matrix([[F(min(i, j) * (n + 1 - max(i, j)), n + 1)
                        for j in range(1, n + 1)] for i in range(1, n + 1)])
    if fam == "B":
        return Matrix([[min(i, j) for j in range(1, n + 1)]
                       for i in range(1, n + 1)])
    if fam == "C":
        def entry(i, j):
            if i == n and j == n:
                return F(n, 4)
            if j == n:
                return F(i, 2)
            if i == n:
                return F(j, 2)
            return min(i, j)
        return Matrix([[entry(i, j) for j in range(1, n + 1)]
                       for i in range(1, n + 1)])
    if fam == "D":
        def entry(i, j):
            if i > j:
                i, j = j, i
            if j <= n - 2:
                return min(i, j)
            if i <= n - 2:
                return F(i, 2)
            if i == j:
                return F(n, 4)
            return F(n - 2, 4)
        return Matrix([[entry(i, j) for j in range(1, n + 1)]
                       for i in range(1, n + 1)])
    if fam == "E":
        return _Z0_E6 if n == 6 else None
    if fam == "F":
        return _Z0_F4
    return _Z0_G2


# -- expected invariant factors, levels, degrees -----------------------------------


def expected_divisor_chain(system: RootSystemId) -> tuple:
    """Published invariant-factor chain, largest first."""
    fam, n = system.family, system.rank
    if fam == "A":
        return (n + 1,) + (1,) * (n - 1)
    if fam == "B":
        return (1,) * n
    if fam in ("C", "D"):
        if n % 2:
            return (4,) + (1,) * (n - 1)
        return (2, 2) + (1,) * (n - 2)
    if fam == "E":
        return {6: (3, 1, 1, 1, 1, 1),
                7: (2, 1, 1, 1, 1, 1, 1),
                8: (1,) * 8}[n]
    if fam == "F":
        return (2, 2, 1, 1)
    return (3, 1)  # G2


def expected_level(system: RootSystemId) -> int:
    """Published congruence level of the family's parameterizing curve."""
    return expected_divisor_chain(system)[0]


def expected_degree(system: RootSystemId) -> int:
    """Published coroot polarization degree.

    The published list gives nine values for eight named systems; the value
    for E7 (2) is read positionally between E6 and E8. Reports carry a note
    whenever that reading is used.
    """
    fam, n = system.family, system.rank
    return {"A": n + 1, "B": 4, "C": 1, "D": 4,
            "E": {6: 3, 7: 2, 8: 1}.get(n, 0),
            "F": 4, "G": 3}[fam]


def invariant_degrees(system: RootSystemId) -> tuple:
    """Degrees of the basic invariants of the Weyl group, ascending (Humphreys,
    *Reflection Groups and Coxeter Groups*, Table 3.1); unrelated to
    ``expected_degree``, the coroot polarization degree."""
    fam, n = system.family, system.rank
    if fam == "A":
        return tuple(range(2, n + 2))
    if fam in ("B", "C"):
        return tuple(range(2, 2 * n + 1, 2))
    if fam == "D":
        return tuple(sorted((*range(2, 2 * n - 1, 2), n)))
    return {"E6": (2, 5, 6, 8, 9, 12), "E7": (2, 6, 8, 10, 12, 14, 18),
            "E8": (2, 8, 12, 14, 18, 20, 24, 30), "F4": (2, 6, 8, 12),
            "G2": (2, 6)}[str(system)]


DEGREE_LIST_NOTE = ("degree for E7 read positionally from a published list "
                    "that names eight systems for nine values")


# -- change-of-basis witnesses ------------------------------------------------------


def dn_to_cn_witness(n: int) -> Matrix:
    """Unimodular a with a * z0(Dn) * a^t = z0(Cn), for n >= 3."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    rows[n - 2] = [0] * n
    rows[n - 2][n - 3] = 1
    rows[n - 2][n - 2] = 1
    rows[n - 2][n - 1] = -1
    rows[n - 1] = [0] * n
    rows[n - 1][n - 2] = 1
    return Matrix(rows)


def d4_to_f4_witness() -> Matrix:
    """Unimodular a with a * z0(D4) * a^t = z0(F4)."""
    return Matrix([[0, 0, 0, 1], [1, 0, 0, 1], [1, 0, 1, 1], [0, 1, 0, 0]])


def g2_to_a2_witness_printed() -> Matrix:
    """Published G2 -> A2 witness; needs a sign flip, see g2_to_a2_sign_fix."""
    return Matrix([[1, -2], [0, 1]])


def g2_to_a2_sign_fix() -> Matrix:
    """diag(1, -1): composing the printed witness with this makes it exact."""
    return Matrix.diagonal([1, -1])


def an_alternate_witness(n: int) -> Matrix:
    """Lower bidiagonal (1 on the diagonal, -1 below) relating the two An families."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
        if i:
            rows[i][i - 1] = -1
    return Matrix(rows)


def an_alternate_base_printed(n: int) -> Matrix:
    """Published base matrix of the other An family: n on the diagonal, -1 elsewhere.

    The published identity relating the families omits a parameter rescale:
    witness * z0(An) * witness^t equals this matrix divided by n + 1, i.e.
    the same one-parameter family under tau |-> tau / (n + 1).
    """
    return Matrix([[n if i == j else -1 for j in range(n)] for i in range(n)])


def bn_split_witness(n: int):
    """(f, d, m) with f * z0(Bn) = diag(d) * m, d all ones and m = f^{-t}."""
    f = an_alternate_witness(n)  # same bidiagonal shape
    d = (1,) * n
    m = Matrix([[1 if j >= i else 0 for j in range(n)] for i in range(n)])
    return f, d, m


# -- sample integral representations ------------------------------------------------


def cyclic5_generator() -> Matrix:
    """Order-5 integral matrix: generator of a cyclic group acting in rank 4."""
    return Matrix([
        [0, 0, 0, -1],
        [1, 0, 0, -1],
        [0, 1, 0, -1],
        [0, 0, 1, -1],
    ])


def cyclic5_fixed_span() -> tuple:
    """The two symmetric matrices spanning the forms fixed by the order-5 action."""
    m1 = Matrix([
        [4, 3, 2, 1],
        [3, 6, 4, 2],
        [2, 4, 6, 3],
        [1, 2, 3, 4],
    ])
    m2 = Matrix([
        [2, 2, 1, 0],
        [2, 4, 3, 1],
        [1, 3, 4, 2],
        [0, 1, 2, 2],
    ])
    return m1, m2


def sym5_degree6_generators() -> tuple:
    """The two 12x12 symplectic generators of the degree-6 symmetric-group action.

    Returned as plain matrices: blockdiag(r5, r5^{-t}) for the 5-cycle and
    [[r2, L], [0, r2^{-t}]] for the transposition.
    """
    r5 = Matrix([
        [1, 1, 0, 1, 0, 0],
        [-1, 0, 1, 0, 1, 0],
        [1, 0, 0, 0, 0, 0],
        [0, -1, -1, 0, 0, 1],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
    ])
    r2 = Matrix([
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [-1, -1, 0, -1, 0, 0],
        [1, 0, -1, 0, -1, 0],
        [0, 1, 1, 0, 0, -1],
    ])
    off = Matrix([
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, -1, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, -1, 0, 1, -1],
        [0, 1, 0, -1, 0, 1],
        [-1, 0, 0, 1, -1, 0],
    ])
    # r5^{-t} and r2^{-t}, written out; r * (r^{-t})^t = I is tested.
    r5_inv_t = Matrix([
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [1, 0, 0, -1, 1, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 1, 0, -1, 0, 1],
        [0, 0, 1, 0, -1, 1],
    ])
    r2_inv_t = Matrix([
        [1, 0, 0, -1, 1, 0],
        [0, 1, 0, -1, 0, 1],
        [0, 0, 1, 0, -1, 1],
        [0, 0, 0, -1, 0, 0],
        [0, 0, 0, 0, -1, 0],
        [0, 0, 0, 0, 0, -1],
    ])
    zero = Matrix.zeros(6)
    g1 = Matrix.block2(r5, zero, zero, r5_inv_t)
    g2 = Matrix.block2(r2, off, zero, r2_inv_t)
    return g1, g2


def sym5_fixed_family() -> tuple:
    """(constant part, linear part) of the one-parameter family fixed by both generators."""
    half = F(1, 2)
    constant = Matrix([
        [0, 0, 0, 0, 0, -half],
        [0, 0, 0, 0, half, 0],
        [0, 0, 0, -half, 0, 0],
        [0, 0, -half, 0, 0, 0],
        [0, half, 0, 0, 0, 0],
        [-half, 0, 0, 0, 0, 0],
    ])
    linear = Matrix([
        [3, -1, 1, -1, 1, 0],
        [-1, 3, -1, -1, 0, 1],
        [1, -1, 3, 0, -1, 1],
        [-1, -1, 0, 3, -1, -1],
        [1, 0, -1, -1, 3, -1],
        [0, 1, 1, -1, -1, 3],
    ])
    return constant, linear
