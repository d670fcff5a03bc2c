"""Finite closure of integer matrix groups.

Breadth-first closure under products from a generator set, used to realize
reflection groups explicitly and to verify their orders. An element is the
sequence of ids of its n rows, taken from an intern table of row vectors.
Row r of ``el * g`` is ``(row r of el) * g``, so each generator acts on row
ids through a table of its own, and a product is n table lookups instead
of an n^3 multiply. A finite group has finitely many distinct rows (for a
Weyl group in the simple-root basis they lie in the orbits of the
fundamental coweights, and for the transposed reflections they are the
roots), so the tables stay small; they grow only for rows of elements
already found, so an infinite group still stops at the cap. A table entry
copies the row and recomputes only the columns in which the generator
differs from the identity.

While the intern table holds at most 256 rows, an element is a ``bytes``
string with one byte per row id; once it passes 256 rows, the elements
found so far are re-encoded once as tuples of row ids. The closure
advances one breadth-first level per step. At the start of each level the
tables are filled to the end of the row table, since the rows interned
since the last fill all belong to the level's elements. The level's
elements are then joined into one sequence and each generator maps all of
it through its table. With m generators, a string goes through one
``bytes.translate`` per generator, and n strided slice assignments write
each result into that generator's slots of one buffer, so the buffer holds
each element's m products of n bytes side by side;
``Struct(f"{n}s" * m).iter_unpack`` cuts it into m-tuples in one C pass. A
list goes through one ``map`` per generator, cut back into n-tuples by
``zip``, and a second ``zip`` interleaves the generators. Either way the
products come element by element, generator by generator, the order in
which an element-by-element scan meets them. The products already found
are dropped first, and ``dict.fromkeys`` keeps the first occurrence of each
one left: the level's new elements, in scan order. The group keeps its
elements in that breadth-first order, its only order. The arithmetic is
exact for any integer generator. Level k holds the elements of length k in
the generators, so for a Weyl group closed from its simple reflections the
level sizes are the coefficients of the Poincare polynomial (Humphreys,
*Reflection Groups and Coxeter Groups*, 1.11), which
``poincare_polynomial`` computes from the invariant degrees.

``coset_closure`` gives the same order and levels when every generator
is an involution, and lists no element. For the first generator g_k,
omega lies in the kernel of omega * (g_j - I) = 0 over j != k (a Smith
form), and each point mu of omega's orbit T gets a representative t_mu =
t_parent * g. The certificate: omega * g_j == omega for j != k and, for
each mu and generator g, t_mu * g == t_(mu g) if mu g != mu, else t_mu * g
== g_j * t_mu for some j != k. Then W_J * T, W_J = <g_j : j != k>, is
closed under the generators, so it is the group; u * t maps omega to mu,
so |W| = |W_J| * |T|; l_J(u) + depth(t) is the breadth-first length, as
it moves by at most 1 under a generator and only the identity has no
generator that lowers it. So the levels are W_J's convolved with the
orbit depths (Humphreys, 1.10); W_J's figures come by the same
certificate, its first generator removed each time, down to {I, g}, which
is also the whole answer for a single generator. omega_k is taken at the
level that removes g_k, from the equations of all the other generators,
those removed before it too, so the g_j left beside it fix it; the last
level, {I, g}, takes none. Of the kernel's Smith basis vectors omega_k is
the last one that g_k moves, so a kernel of dimension >= 2 (generators
that fix a common nonzero vector) gives a one-point orbit only when g_k
fixes all of it. No Coxeter-group theorem is assumed; a failed check gives
a reason naming it in place of the figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, filterfalse, product
from math import factorial
from struct import Struct

from .exactmat import (Matrix, _is_involution, _moved_columns, _row_times, _unimodular_columns,
                       smith_normal_form)
from .rootsys import RootSystemId


@dataclass(frozen=True)
class MatrixGroup:
    """Closure result: the elements found plus a truncation flag.

    ``found`` holds the elements in breadth-first order, the order in which
    the closure accepted them, identity first. Each element is the sequence
    of ids of its rows in the intern table ``vectors`` (row id -> row
    vector): ``bytes``, one byte per id, when ``vectors`` holds at most 256
    rows, else a tuple of ints; all elements of a group share one encoding.
    ``order`` and ``truncated`` read nothing else. ``levels`` holds the size
    of each breadth-first level, the identity's level first, so its sum is
    ``order``. When ``truncated`` is True the closure hit the cap, ``found``
    holds the first ``cap`` elements of that order, and the last level is
    cut short. Equality is the dataclass default, field by field; the
    closure is deterministic, so two closures of the same generators and
    cap compare equal.
    """

    dimension: int
    found: tuple = field(repr=False)
    vectors: tuple = field(repr=False)
    generators: tuple
    truncated: bool
    levels: tuple

    @property
    def order(self) -> int:
        return len(self.found)

    @cached_property
    def elements(self) -> tuple:
        """The elements as ``Matrix`` objects, in the order of ``found``."""
        n, vectors = self.dimension, self.vectors
        flats = (tuple(chain.from_iterable(map(vectors.__getitem__, el))) for el in self.found)
        return tuple(Matrix._from_numerators(flat, 1, n, n) for flat in flats)


def generate_group(generators, cap: int) -> MatrixGroup:
    """Close a set of unimodular integer matrices under multiplication; a
    generator with |det| != 1 raises ``exactmat.NonUnimodular``.

    The cap is mandatory: if one more element would push the closure past
    it, exploration stops and the result is flagged truncated. The elements
    kept are then the first ``cap`` that a breadth-first scan, element by
    element and generator by generator, meets.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator required")
    n = gens[0].nrows
    if not all(g.is_square and g.nrows == n and g.is_integral() for g in gens):
        raise ValueError("generators must be square integer matrices of equal size")

    # vec * gens[k] differs from vec only in the columns where gens[k]
    # differs from the identity: one for a transposed reflection.
    moved = [_unimodular_columns(g) for g in gens]
    if cap < 1:
        raise ValueError("cap must be positive")

    vectors = []  # row id -> row vector
    ids = {}      # row vector -> row id

    def intern(vec):
        rid = ids.get(vec)
        if rid is None:
            rid = ids[vec] = len(vectors)
            vectors.append(vec)
        return rid

    # acts[k][rid] is the id of vectors[rid] * gens[k]. The tables are
    # filled together at the start of each level, to the end of the row
    # table as it stands then; the rows they intern are not chased further.
    acts = [[] for _ in gens]
    for row in Matrix.identity(n).rows():
        intern(row)
    wide = len(vectors) > 256  # elements are tuples once a row id needs more than a byte
    ident = tuple(range(n)) if wide else bytes(range(n))
    seen = {ident}
    found = [ident]  # the elements in the order they are accepted
    frontier = [ident]
    levels = [1]
    truncated = False
    m = len(gens)
    stride = m * n  # bytes per element's m products in a level's buffer
    cut = Struct(f"{n}s" * m).iter_unpack
    while frontier and not truncated:
        # Each row interned since the last fill is a row of a product of the
        # last level, and a product already seen brought no new row, so the
        # new rows all belong to the frontier: the end of the row table is
        # one past the level's largest row id whenever a fill is due.
        top = len(vectors)
        for cols, act in zip(moved, acts):
            act.extend(intern(_row_times(vectors[rid], cols)) for rid in range(len(act), top))
        if not wide and len(vectors) > 256:
            wide = True
            found = list(map(tuple, found))
            frontier = list(map(tuple, frontier))
            seen = set(found)
        # Products go element-major, generator-minor: the order in which an
        # element-by-element scan meets them.
        if wide:
            # Each generator maps the whole level through one map, cut back
            # into n-tuples by zip; a second zip interleaves the generators.
            # The byte encoding's interleaved buffer, built here as a list
            # of ids, measured slower: B40 at cap 1,000 took 0.13-0.15 s
            # against 0.10 s (2-vCPU x86-64 VM, Python 3.11). Its strided
            # copies move object references, not bytes, and its products
            # still need a zip to become tuples.
            level = list(chain.from_iterable(frontier))
            per_gen = [zip(*[map(act.__getitem__, level)] * n) for act in acts]
            products = chain.from_iterable(zip(*per_gen))
        else:
            # Each generator translates the whole level once, and n strided
            # slice assignments put the images into the generator's slots of
            # one buffer, m products of n bytes per element; one C pass cuts
            # the buffer into m-tuples of products.
            level = b"".join(frontier)
            buf = bytearray(len(level) * m)
            for k, act in enumerate(acts):
                images = level.translate(bytes(act).ljust(256, b"\0"))
                for j in range(n):
                    buf[k * n + j::stride] = images[j::n]
            products = chain.from_iterable(cut(buf))
        # Products already found are dropped before the level's dict, which
        # keeps the first occurrence of each product left. For a Weyl group
        # closed from its simple reflections they are half the products: a
        # product is one level up or one level down, and half go down.
        frontier = list(dict.fromkeys(filterfalse(seen.__contains__, products)))
        room = cap - len(seen)
        if len(frontier) > room:
            del frontier[room:]
            truncated = True
        seen.update(frontier)
        found += frontier
        if frontier:
            levels.append(len(frontier))

    return MatrixGroup(dimension=n, found=tuple(found), vectors=tuple(vectors),
                       generators=tuple(gens), truncated=truncated,
                       levels=tuple(levels))


def coset_closure(generators, cap: int):
    """``(order, levels)`` of ``generate_group(generators, cap)`` by the
    coset certificate of the module docstring, taken again on W_J, one
    generator removed at each level in list order; no element is listed.
    When the certificate declines it returns, in place of the figures, a
    short reason that names the check that failed: the generators' shape,
    a generator with g * g != I, the 256-row table, the orbit or order
    passing ``cap``, omega * g_j != omega or a table check; each level's
    reason names the generator it removes, and a table check the orbit
    point and generator.
    """
    gens = list(generators)
    n, m = gens[0].nrows if gens else 0, len(gens)
    if not m or not all(g.is_square and g.nrows == n and g.is_integral() for g in gens):
        return "generators must be one or more square integer matrices of equal size"
    moved = [_moved_columns(g) for g in gens]
    for k, cols in enumerate(moved):
        if not _is_involution(cols):
            return f"generator {k}: g * g != I"

    # acts[g][r] is the id of vectors[r] * gens[g]: the identity's rows closed under gens.
    vectors = list(Matrix.identity(n).rows())
    ids = {vec: r for r, vec in enumerate(vectors)}
    acts = [[] for _ in gens]
    for vec in vectors:
        for cols, act in zip(moved, acts):
            act.append(ids.setdefault(img := _row_times(vec, cols), len(ids)))
            if len(ids) > len(vectors):
                vectors.append(img)
        if len(vectors) > 256:
            return "the row table passes 256 rows"
    acts = [bytes(act).ljust(256, b"\0") for act in acts]

    # The group of gens[k:] is W_J * T, W_J the group of gens[k + 1:] and T
    # the orbit of omega_k: one level per generator removed, each convolving
    # the levels with T's depths, down to {I, g}.
    order, levels = 1, [1]
    for k in range(m):
        sub, removing = range(k, m), f"removing generator {k}: "
        if k == m - 1:  # {I, g}, or {I} when g = I
            depths = (0, 1) if moved[k] else (0,)
        else:
            # The columns of v past the Smith rank span the solutions of
            # omega . (moved column b of g_j - e_b) = 0 over every j != k,
            # which each g_j, j != k, fixes; omega is the last of them that
            # g_k moves, else v's last column, which the certificate then
            # rejects.
            eqs = [[dict(terms).get(i, 0) - (i == b) for i in range(n)]
                   for j in range(m) if j != k for b, terms in moved[j]]
            snf = smith_normal_form(Matrix(eqs or [[0] * n]))
            kernel = [snf.v.numerators[c::n] for c in range(sum(map(bool, snf.diagonal())), n)]
            omega = next((w for w in reversed(kernel) if _row_times(w, moved[k]) != w),
                         snf.v.numerators[n - 1::n])
            # The breadth-first orbit: images[i][g] indexes point i * gens[sub[g]];
            # tree[i] is (parent, generator, depth).
            index, points, images, tree = {omega: 0}, [omega], [], [(0, k, 0)]
            while len(images) < len(points):
                i = len(images)
                nus = [_row_times(points[i], moved[j]) for j in sub]
                for j, nu in zip(sub, nus):
                    if nu not in index:
                        index[nu] = len(points)
                        points.append(nu)
                        tree.append((i, j, tree[i][2] + 1))
                if len(points) > cap:
                    return removing + f"the orbit of omega passes {cap} points"
                images.append([index[nu] for nu in nus])
            for j, to in zip(sub[1:], images[0][1:]):
                if to:
                    return removing + f"omega * g_{j} != omega"
            # tables[i] takes row id r to the id of vectors[r] * t_i; t_i is its first n bytes.
            tables = [bytes(range(256))]
            for p, j, _ in tree[1:]:
                tables.append(tables[p].translate(acts[j]))
            for i, (table, row) in enumerate(zip(tables, images)):
                left = {acts[j][:n].translate(table) for j in sub[1:]}  # g_j * t_i
                for j, to in zip(sub, row):
                    tg = table[:n].translate(acts[j])  # t_i * g_j
                    if to != i and tg != tables[to][:n]:
                        return removing + f"t_{i} * g_{j} != t_{to}"
                    if to == i and tg not in left:
                        return removing + (f"g_{j} fixes orbit point {i}, "
                                           f"but t_{i} * g_{j} is no g_l * t_{i}")
            depths = [depth for *_, depth in tree]
        if (order := order * len(depths)) > cap:
            return removing + f"the order passes {cap}"
        levels, below = [0] * (len(levels) + max(depths)), levels
        for (a, x), depth in product(enumerate(below), depths):
            levels[a + depth] += x
    return order, tuple(levels)


def check_invariance(generators, form: Matrix) -> bool:
    """True iff g^t * form * g == form for every generator; the form S may be
    any square rational matrix, the generators square integer ones of its size.

    Checking generators suffices for the whole generated group. Column b of
    g^t S g is g^t (S g_b), which is S's own column b unless g moves column
    b (``exactmat._moved_columns``); for a moved b, S g_b sums x * (column k
    of S) over b's terms (k, x), on S's numerators. The rows g moves are the
    same test on S^t, which a symmetric S passes with the first.
    """
    n = form.nrows
    gens = list(generators)
    if not (form.is_square and all(g.is_square and g.nrows == n and g.is_integral()
                                   for g in gens)):
        raise ValueError("a square form and square integer generators of its size required")
    sides = [form.numerators] if form.is_symmetric() else [form.numerators, form.T.numerators]
    for moved, qs in product(map(_moved_columns, gens), sides):
        for b, terms in moved:
            y = [0] * n
            for k, x in terms:
                y = [a + x * c for a, c in zip(y, qs[k::n])]
            if _row_times(y, moved) != qs[b::n]:
                return False
    return True


def poincare_polynomial(degrees) -> tuple:
    """Coefficients, constant first, of the product of 1 + q + ... + q^(d-1)
    over ``degrees``."""
    coeffs = [1]
    for d in degrees:
        # Multiplying by [d]_q sums each window of d consecutive coefficients.
        padded = [0] * (d - 1) + coeffs + [0] * (d - 1)
        coeffs = [sum(padded[k:k + d]) for k in range(len(coeffs) + d - 1)]
    return tuple(coeffs)


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
