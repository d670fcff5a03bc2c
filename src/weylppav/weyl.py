"""Finite closure of integer matrix groups.

Breadth-first closure under products from a generator set, used to realize
reflection groups explicitly and to verify their orders. Elements are flat
row-major integer tuples, and each product ``el * g`` is formed sparsely as
``el + el * (g - I)``: a simple reflection differs from the identity in one
row only (Humphreys, *Reflection Groups and Coxeter Groups*, 1.12), so a
product rewrites the few columns where ``g - I`` is nonzero instead of
doing a dense n^3 multiply. The arithmetic is exact for any integer
generator; the cost is O(n * nnz(g - I)) per product.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .exactmat import Matrix
from .rootsys import RootSystemId


class NonUnimodularGenerator(ValueError):
    """A generator with |det| != 1 cannot generate a group of lattice symmetries."""


@dataclass(frozen=True)
class MatrixGroup:
    """Closure result: elements in canonical order plus a truncation flag.

    ``elements`` is sorted lexicographically on the flattened entries, so
    two runs (or two backends) produce identical output. When ``truncated``
    is True the closure hit the cap and ``elements`` holds exactly what had
    been found, in the same canonical order.
    """

    dimension: int
    elements: tuple
    generators: tuple
    truncated: bool

    @property
    def order(self) -> int:
        return len(self.elements)


def _sparse_update(g_flat, n: int) -> list:
    """Flat-index form of ``el -> el * g`` as updates ``out[dst] += v * el[src]``.

    ``out`` starts as a copy of ``el``. For each nonzero entry v of g - I at
    (r, c), and every row k, entry (k, c) of the product gains
    v * el[k, r]; ``src`` always indexes the unmodified ``el``.
    """
    return [(k + c, k + r, v)
            for r in range(n) for c in range(n)
            if (v := g_flat[r * n + c] - (r == c))
            for k in range(0, n * n, n)]


def generate_group(generators, cap: int) -> MatrixGroup:
    """Close a set of unimodular integer matrices under multiplication.

    The cap is mandatory: if one more element would push the closure past
    it, exploration stops and the result is flagged truncated.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator required")
    n = gens[0].nrows
    for g in gens:
        if not (g.is_square and g.nrows == n and g.is_integral()):
            raise ValueError("generators must be square integer matrices of equal size")
        if abs(g.det()) != 1:
            raise NonUnimodularGenerator(f"generator has determinant {g.det()}")
    if cap < 1:
        raise ValueError("cap must be positive")

    updates = [_sparse_update(g.flat, n) for g in gens]
    ident = Matrix.identity(n).flat
    seen = {ident}
    frontier = [ident]
    truncated = False
    while frontier and not truncated:
        nxt = []
        for el in frontier:
            for update in updates:
                out = list(el)
                for dst, src, v in update:
                    out[dst] += v * el[src]
                prod = tuple(out)
                if prod not in seen:
                    if len(seen) >= cap:
                        truncated = True
                        break
                    seen.add(prod)
                    nxt.append(prod)
            if truncated:
                break
        frontier = nxt

    elements = tuple(Matrix._from_int_flat(f, n, n) for f in sorted(seen))
    return MatrixGroup(dimension=n, elements=elements,
                       generators=tuple(gens), truncated=truncated)


def check_invariance(generators, form: Matrix) -> bool:
    """True iff g^t * form * g == form for every generator.

    Checking generators suffices for the whole generated group.
    """
    if not form.is_symmetric():
        raise ValueError("symmetric form required")
    return all(g.T * form * g == form for g in generators)


def expected_order(system: RootSystemId) -> int:
    """Classical order of the reflection group of the given root system."""
    fam, n = system.family, system.rank
    if fam == "A":
        return factorial(n + 1)
    if fam in ("B", "C"):
        return 2 ** n * factorial(n)
    if fam == "D":
        return 2 ** (n - 1) * factorial(n)
    if fam == "E":
        return {6: 51840, 7: 2903040, 8: 696729600}[n]
    if fam == "F":
        return 1152
    return 12  # G2
