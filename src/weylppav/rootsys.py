"""Catalog of irreducible reduced root systems.

Simple-root data in the standard Bourbaki numbering: Cartan matrices, root
norms, Gram forms of the invariant inner product, simple-reflection
matrices in the simple-root basis, Dynkin-diagram automorphisms and
coroot Gram forms. Everything downstream consumes only these matrices;
no root vectors are ever materialized.

Norm conventions per family are fixed so that the Gram matrix S (with
S[i][j] the inner product of simple roots i and j) is integral and
coincides with the published closed forms of the associated base Riemann
matrices Z0 = S^{-1}:

  A, D, E     all roots of squared length 2
  B           long 2, short 1
  C           short 2, long 4
  F4          short 2, long 4
  G2          short 2, long 6
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterator

from .exactmat import Matrix

_FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
_FIXED_RANKS = {"E": (6, 7, 8), "F": (4,), "G": (2,)}


@dataclass(frozen=True)
class RootSystemId:
    """Family letter plus rank, e.g. A4, D7, E8."""

    family: str
    rank: int

    def __post_init__(self):
        if type(self.rank) is not int:
            raise TypeError(f"rank must be an int, got {type(self.rank).__name__}")
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family in _FIXED_RANKS:
            if self.rank not in _FIXED_RANKS[self.family]:
                raise ValueError(f"{self.family}{self.rank} is not a root system")
        elif self.rank < _MIN_RANK[self.family]:
            raise ValueError(
                f"{self.family}{self.rank} is below the minimum rank "
                f"{_MIN_RANK[self.family]} for family {self.family}")

    @classmethod
    def parse(cls, tag: str, max_rank: int | None = None) -> "RootSystemId":
        """Read a tag such as ``A4`` or ``e8``: a family letter, then the
        rank in ASCII digits without leading zeros.

        A rank above ``max_rank`` raises ValueError naming the limit. A rank
        with more digits than the limit is refused before it is converted,
        so a tag of any length gets that message.
        """
        tag = tag.strip().upper()
        family, digits = tag[:1], tag[1:]
        if (family not in _FAMILIES or not (digits.isascii() and digits.isdigit())
                or (digits.startswith("0") and digits != "0")):
            raise ValueError(f"cannot parse root system tag {tag!r}")
        if max_rank is not None and len(digits) > len(str(max_rank)):
            raise ValueError(f"rank {digits} exceeds the limit {max_rank}")
        system = cls(family, int(digits))
        if max_rank is not None and system.rank > max_rank:
            raise ValueError(f"rank {system.rank} exceeds the limit {max_rank}")
        return system

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def all_systems(max_rank: int) -> Iterator[RootSystemId]:
    """Catalog ids with rank <= max_rank, in a fixed reporting order.

    D3 is included (it is A3 in a different basis); a consumer that wants
    the classification-minimal list can start D at rank 4.
    """
    for fam in ("A", "B", "C", "D"):
        for n in range(_MIN_RANK[fam], max_rank + 1):
            yield RootSystemId(fam, n)
    for fam, ranks in _FIXED_RANKS.items():
        for n in ranks:
            if n <= max_rank:
                yield RootSystemId(fam, n)


@dataclass(frozen=True)
class CartanData:
    """Cartan matrix together with the half-norms of the simple roots."""

    cartan: Matrix
    norm_halves: tuple  # entry i is (alpha_i, alpha_i) / 2


# Bonds of the simply-laced diagrams, 1-indexed node pairs.
_E_BONDS = {
    6: ((1, 3), (3, 4), (4, 5), (5, 6), (2, 4)),
    7: ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)),
    8: ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)),
}


def _chain_cartan(n: int) -> list:
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        c[i][i + 1] = -1
        c[i + 1][i] = -1
    return c


def cartan_data(system: RootSystemId) -> CartanData:
    fam, n = system.family, system.rank
    if fam == "A":
        c = _chain_cartan(n)
        norms = (1,) * n
    elif fam == "B":
        # last root short: the asymmetric bond is -2 towards the short root
        c = _chain_cartan(n)
        c[n - 2][n - 1] = -2
        norms = (1,) * (n - 1) + (Fraction(1, 2),)
    elif fam == "C":
        # last root long
        c = _chain_cartan(n)
        c[n - 1][n - 2] = -2
        norms = (1,) * (n - 1) + (2,)
    elif fam == "D":
        c = _chain_cartan(n)
        c[n - 2][n - 1] = 0
        c[n - 1][n - 2] = 0
        c[n - 3][n - 1] = -1
        c[n - 1][n - 3] = -1
        norms = (1,) * n
    elif fam == "E":
        c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i, j in _E_BONDS[n]:
            c[i - 1][j - 1] = -1
            c[j - 1][i - 1] = -1
        norms = (1,) * n
    elif fam == "F":
        c = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
        norms = (2, 2, 1, 1)
    else:  # G
        c = [[2, -1], [-3, 2]]
        norms = (1, 3)
    return CartanData(cartan=Matrix(c), norm_halves=norms)


def cartan_matrix(system: RootSystemId) -> Matrix:
    """Cartan matrix C with C[i][j] = 2 (a_i, a_j) / (a_j, a_j)."""
    return cartan_data(system).cartan


def gram_matrix(system: RootSystemId) -> Matrix:
    """Gram matrix S = C * diag(norm_halves) of the invariant inner product.

    Built once, in O(n^2), on integer numerators: with q the lcm of the
    half-norm denominators, column j of the Cartan matrix times
    norm_halves[j] * q is the numerators of S over q.
    """
    data = cartan_data(system)
    d, n = data.norm_halves, system.rank
    q = lcm(*(x.denominator for x in d))  # ints and Fractions both have numerator/denominator
    w = [x.numerator * (q // x.denominator) for x in d]
    s = Matrix._from_numerators(tuple(map(mul, data.cartan.numerators, w * n)), q, n, n)
    if not (s.is_integral() and s.is_symmetric()):
        raise AssertionError(f"catalog data for {system} is inconsistent")
    return s


def simple_reflections(system: RootSystemId) -> list:
    """Reflection matrices in the simple-root basis.

    s_i sends a_j to a_j - C[j][i] * a_i, so the matrix of s_i is the
    identity with row i replaced by (delta_ij - C[j][i])_j. The Cartan
    entries are ints, so the matrices take the trusted constructor.
    """
    c = cartan_matrix(system)
    n = system.rank
    ident = Matrix.identity(n).flat
    out = []
    for i in range(n):
        row = tuple(int(i == j) - x for j, x in enumerate(c.col(i)))
        out.append(Matrix._from_numerators(ident[:i * n] + row + ident[(i + 1) * n:], 1, n, n))
    return out


def _perm_matrix(perm: list) -> Matrix:
    """Matrix sending basis vector j to basis vector perm[j]."""
    n = len(perm)
    return Matrix([[1 if perm[j] == i else 0 for j in range(n)] for i in range(n)])


def diagram_automorphisms(system: RootSystemId) -> list:
    """Generators of the diagram-symmetry group as permutation matrices.

    A_n (n >= 2): the end-to-end flip. D_n (n > 4): swap of the two fork
    nodes. D4: two generators of the full symmetric group on the three
    outer nodes. E6: the flip. Everything else has no symmetry.
    """
    fam, n = system.family, system.rank
    if fam == "A" and n >= 2:
        return [_perm_matrix([n - 1 - j for j in range(n)])]
    if fam == "D" and n == 4:
        # outer nodes are 1, 3, 4 (node 2 is the center); 0-indexed 0, 2, 3
        swap = [0, 1, 3, 2]
        cycle = [2, 1, 3, 0]  # 0 -> 2 -> 3 -> 0
        return [_perm_matrix(swap), _perm_matrix(cycle)]
    if fam == "D" and n > 4:
        perm = list(range(n))
        perm[n - 2], perm[n - 1] = perm[n - 1], perm[n - 2]
        return [_perm_matrix(perm)]
    if fam == "E" and n == 6:
        return [_perm_matrix([5, 1, 4, 3, 2, 0])]
    return []


def coroot_gram_matrix(system: RootSystemId) -> Matrix:
    """Gram matrix of the simple coroots, scaled to a primitive integral form.

    The coroot a_i^ = a_i / norm_half_i has pairings S[i][j] / (d_i d_j) =
    C[i][j] / d_i; the least positive integer multiple making that matrix
    integral is the natural polarization form on the coroot lattice. With
    d_i = u_i / v_i and u the lcm of the u_i, each pairing is C[i][j] w_i
    over u, w_i = u / d_i an int. A ``Matrix`` divides out the common factor,
    and its numerators are that least multiple.
    """
    data = cartan_data(system)
    d, n = data.norm_halves, system.rank
    u = lcm(*(x.numerator for x in d))
    w = [x.denominator * (u // x.numerator) for x in d]
    pairings = Matrix._from_numerators(
        tuple(x * w[k // n] for k, x in enumerate(data.cartan.numerators)), u, n, n)
    return Matrix._from_numerators(pairings.numerators, 1, n, n)
