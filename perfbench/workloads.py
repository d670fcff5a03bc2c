"""Inputs and output checks of the three benchmark workloads.

Every input is made from the workload seed alone, before timing starts.
Nothing here imports weylppav: the fixed-space inputs and their checks use
this file's own integer and Fraction arithmetic, so a fault in the
program's elimination code cannot hide in its own check.

A workload hands the run loop a list of decks. A deck is a list of CLI
operations whose mix, but not whose exact inputs, is the same for every
seed; the loop runs whole decks, so every run measures the same mix.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction
from math import gcd
from typing import NamedTuple, Optional

FAMILIES = ("A", "B", "C", "D")
EXCEPTIONAL = ("E6", "E7", "E8", "F4", "G2")
QUERY_COMMANDS = ("z0", "centralizer", "decompose", "degrees", "gram", "cartan")
# One classical query per command and rank stratum. Elimination cost grows
# like rank^3.5, so the strata are narrow: a wide top stratum would let the
# seed alone move a deck's cost by half.
RANK_STRATA = ((12, 14), (26, 28), (40, 42), (54, 56))
FIXED_SPACE_SIZES = range(4, 13)
# Reflection sets at n = 8 sit in the middle of a deck's cost order. Four
# more of them put the median operation inside one input class instead of
# on the edge between two whose costs differ by a third.
MEDIAN_SLOTS = (("reflections", 8),) * 4
VERIFY_MAX_RANK = 8


class Op(NamedTuple):
    argv: tuple
    spec: Optional[dict] = None  # fixed-space: the generators and the expected answer


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest_key(argv) -> str:
    return " ".join(argv)


# -- verify-catalog ----------------------------------------------------------------


def verify_decks(seed: int, workdir: str, tiny: bool = False) -> list:
    """One full pass of the whole verification harness; the seed has no say."""
    rank = 3 if tiny else VERIFY_MAX_RANK
    return [[Op(("verify-all", "--max-rank", str(rank)))]]


def check_verify(op: Op, rc, out: str, digests: dict) -> Optional[str]:
    problem = check_digest(op, rc, out, digests)
    if problem is None and json.loads(out).get("status") != "pass":
        problem = "report status is not pass"
    return problem


# -- rank-queries ------------------------------------------------------------------


def rank_query_deck(rng: random.Random, turn: int, tiny: bool = False) -> list:
    """One query per command and stratum, plus every command on every
    exceptional system. Families rotate over the strata from deck to deck,
    each command starting at its own place, so no family holds the costly
    top stratum for long."""
    strata = ((10, 12),) if tiny else RANK_STRATA
    systems = EXCEPTIONAL[3:] if tiny else EXCEPTIONAL
    ops = []
    for c, cmd in enumerate(QUERY_COMMANDS):
        for s, (lo, hi) in enumerate(strata):
            family = FAMILIES[(s + c + turn) % len(FAMILIES)]
            ops.append(Op((cmd, f"{family}{rng.randint(lo, hi)}")))
        ops.extend(Op((cmd, tag)) for tag in systems)
    rng.shuffle(ops)
    return ops


def rank_query_decks(seed: int, workdir: str, tiny: bool = False) -> list:
    rng = random.Random(f"rank-queries:{seed}")
    start = rng.randrange(len(FAMILIES))
    return [rank_query_deck(rng, start + d, tiny) for d in range(1 if tiny else 16)]


def all_rank_query_argvs() -> list:
    """Every query the rank-queries stream can draw, for recording digests."""
    tags = [f"{f}{r}" for f in FAMILIES for r in range(10, 71)]
    return [(cmd, tag) for cmd in QUERY_COMMANDS for tag in tags + list(EXCEPTIONAL)]


def check_digest(op: Op, rc, out: str, digests: dict) -> Optional[str]:
    """Exit code 0 and stdout byte-identical to the seed commit's."""
    if rc != 0:
        return f"exit code {rc}"
    expected = digests.get(digest_key(op.argv))
    if expected is None:
        return "no pinned digest for this operation"
    if sha256(out) != expected:
        return "output differs from the pinned seed-commit digest"
    return None


# -- exact helpers shared by the fixed-space inputs and checks --------------------

PRIME = (1 << 61) - 1


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def blocks(m, n):
    return ([r[:n] for r in m[:n]], [r[n:] for r in m[:n]],
            [r[:n] for r in m[n:]], [r[n:] for r in m[n:]])


def rank_mod_p(rows) -> int:
    """Rank over GF(PRIME); never above the rank over the rationals."""
    pivots = {}  # column -> reduced row with a 1 in that column
    for row in rows:
        row = [x % PRIME for x in row]
        for col, piv in pivots.items():
            if row[col]:
                f = row[col]
                row = [(x - f * y) % PRIME for x, y in zip(row, piv)]
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None:
            continue
        inv = pow(row[lead], PRIME - 2, PRIME)
        row = [x * inv % PRIME for x in row]
        for col, piv in pivots.items():
            if piv[lead]:
                f = piv[lead]
                pivots[col] = [(x - f * y) % PRIME for x, y in zip(piv, row)]
        pivots[lead] = row
    return len(pivots)


def sym_coords(n):
    return [(i, j) for i in range(n) for j in range(i, n)]


def fixed_space_equations(a, n):
    """Rows of z -> A z A^t - z on the upper-triangle coordinates of z."""
    coords = sym_coords(n)
    rows = []
    for i, j in coords:
        row = []
        for k, l in coords:
            c = a[i][k] * a[j][l] + (a[i][l] * a[j][k] if k != l else 0)
            row.append(c - ((i, j) == (k, l)))
        rows.append(row)
    return rows


# -- fixed-space inputs ----------------------------------------------------------------


def cartan(family: str, n: int):
    c = identity(n)
    for i in range(n):
        c[i][i] = 2
    for i in range(n - 1):
        c[i][i + 1] = c[i + 1][i] = -1
    if family == "B":
        c[n - 2][n - 1] = -2
    elif family == "C":
        c[n - 1][n - 2] = -2
    elif family == "D":
        c[n - 2][n - 1] = c[n - 1][n - 2] = 0
        c[n - 3][n - 1] = c[n - 1][n - 3] = -1
    return c


def reflection(c, i):
    """I - e_i c_i^t with c_i the i-th column of c; an involution since c[i][i] = 2."""
    n = len(c)
    rho = identity(n)
    for j in range(n):
        rho[i][j] -= c[j][i]
    return rho


def block_matrix(a, b, c, d):
    return [ra + rb for ra, rb in zip(a, b)] + [rc + rd for rc, rd in zip(c, d)]


def reflection_generators(rng, n):
    """[[rho, 0], [0, rho^t]] for a few simple reflections (rho^-1 = rho)."""
    c = cartan(rng.choice(FAMILIES), n)
    zero = [[0] * n for _ in range(n)]
    chosen = sorted(rng.sample(range(n), 3))
    return [block_matrix(reflection(c, i), zero, zero, transpose(reflection(c, i)))
            for i in chosen]


def unimodular(rng, n):
    """A product of elementary matrices along a random path through half
    the coordinates, and its exact inverse.

    Along a path the product is a permuted unitriangular matrix with entries
    +-1 and its inverse is bidiagonal, so every seed gives inputs of one
    size class rather than entries that grow with chance.
    """
    a, a_inv = identity(n), identity(n)
    path = rng.sample(range(n), n // 2 + 2)
    for i, j in zip(path, path[1:]):
        s = rng.choice((-1, 1))
        for row in a:                      # a <- a (I + s e_ij)
            row[j] += s * row[i]
        a_inv[i] = [x - s * y for x, y in zip(a_inv[i], a_inv[j])]  # (I - s e_ij) a_inv
    return a, a_inv


def triangular_generators(rng, n, count=1):
    """[[A, S A^-t], [0, A^-t]] with S = z* - A z* A^t, so z* is a fixed point."""
    z = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            z[i][j] = z[j][i] = rng.randint(-2, 2)
    gens = []
    for _ in range(count):
        a, a_inv = unimodular(rng, n)
        a_inv_t = transpose(a_inv)
        s = [[x - y for x, y in zip(r, q)]
             for r, q in zip(z, matmul(matmul(a, z), transpose(a)))]
        gens.append(block_matrix(a, matmul(s, a_inv_t), [[0] * n for _ in range(n)], a_inv_t))
    return gens


def lower_left_generators(rng, n):
    """A valid generator plus [[I, 0], [C, I]] with C symmetric and nonzero."""
    c = [[0] * n for _ in range(n)]
    i = rng.randrange(n)
    c[i][i] = rng.choice((-1, 1))
    zero = [[0] * n for _ in range(n)]
    return triangular_generators(rng, n)[:1] + [block_matrix(identity(n), zero, c, identity(n))]


def expected_dimension(gens, n) -> int:
    rows = []
    for g in gens:
        rows.extend(fixed_space_equations(blocks(g, n)[0], n))
    return len(sym_coords(n)) - rank_mod_p(rows)


def fixed_space_decks(seed: int, workdir: str, tiny: bool = False) -> list:
    """Per deck: a reflection set and a triangular set for each n, the
    median slots, and one input with a nonzero lower-left block, which must
    exit with code 3."""
    rng = random.Random(f"fixed-space:{seed}")
    sizes = (4, 5) if tiny else FIXED_SPACE_SIZES
    slots = [(kind, n) for n in sizes for kind in ("reflections", "triangular")]
    slots += () if tiny else MEDIAN_SLOTS
    make = {"reflections": reflection_generators, "triangular": triangular_generators}
    decks = []
    for d in range(1 if tiny else 24):
        deck = []
        for kind, n in slots:
            gens = make[kind](rng, n)
            deck.append({"n": n, "kind": kind, "generators": gens,
                         "dimension": expected_dimension(gens, n)})
        n = rng.choice(list(sizes))
        deck.append({"n": n, "kind": "lower-left",
                     "generators": lower_left_generators(rng, n)})
        rng.shuffle(deck)
        ops = []
        for k, spec in enumerate(deck):
            path = os.path.join(workdir, f"fixed-space-{d:02d}-{k:02d}.json")
            with open(path, "w") as handle:
                json.dump({"n": spec["n"],
                           "generators": [{"matrix": g} for g in spec["generators"]]},
                          handle)
            ops.append(Op(("fixed-space", path), spec))
        decks.append(ops)
    return decks


# -- fixed-space checks ---------------------------------------------------------------


def _is_fixed(gens, n, z, homogeneous: bool) -> bool:
    """A z A^t + B A^t == z for every generator (B dropped when homogeneous)."""
    for g in gens:
        a, b, _, _ = blocks(g, n)
        a_t = transpose(a)
        lhs = matmul(matmul(a, z), a_t)
        if not homogeneous:
            lhs = [[x + y for x, y in zip(r, q)] for r, q in zip(lhs, matmul(b, a_t))]
        if lhs != z:
            return False
    return True


def _primitive(vec) -> bool:
    lead = next((x for x in vec if x), 0)
    return lead > 0 and gcd(*vec) == 1


def check_fixed_space(op: Op, rc, out: str, digests: dict) -> Optional[str]:
    spec = op.spec
    n, gens = spec["n"], spec["generators"]
    if spec["kind"] == "lower-left":
        return None if rc == 3 and out == "" else f"expected exit code 3, got {rc}"
    if rc != 0:
        return f"exit code {rc}"
    payload = json.loads(out)
    if payload["n"] != n or payload["particular"] is None:
        return "missing particular solution of a consistent system"
    basis = payload["basis"]
    if payload["dimension"] != len(basis) or len(basis) != spec["dimension"]:
        return f"dimension {payload['dimension']}, expected {spec['dimension']}"
    z = [[Fraction(x) for x in row] for row in payload["particular"]]
    if z != transpose(z) or not _is_fixed(gens, n, z, homogeneous=False):
        return "particular solution is not fixed by every generator"
    vecs = []
    for m in basis:
        if any(isinstance(x, str) and "/" in x for row in m for x in row):
            return "basis matrix is not integral"
        b = [[int(x) for x in row] for row in m]
        vec = [b[i][j] for i, j in sym_coords(n)]
        if b != transpose(b) or not _primitive(vec):
            return "basis matrix is not a primitive symmetric integer matrix"
        if not _is_fixed(gens, n, b, homogeneous=True):
            return "basis matrix is not fixed by every generator"
        vecs.append(vec)
    if rank_mod_p(vecs) != len(vecs):
        return "basis matrices are linearly dependent"
    return None


# -- registry ---------------------------------------------------------------------------

WORKLOADS = {
    "fixed-space": {
        "decks": fixed_space_decks, "check": check_fixed_space, "min_ops": 100, "rounds": 4,
        "why": "fixed-space solving is a wide rectangular RREF rather than a "
               "square inverse, so an elimination change that helps inverse "
               "but slows the RREF shows here",
    },
    "rank-queries": {
        "decks": rank_query_decks, "check": check_digest, "min_ops": 100, "rounds": 3,
        "why": "single-system queries at ranks 12-56 are exact elimination "
               "(inverse, det, Smith form) plus CLI formatting and run no "
               "closure, so closure changes should not move them",
    },
    "verify-catalog": {
        "decks": verify_decks, "check": check_verify, "min_ops": 1, "rounds": 1,
        "why": "the north-star figure: closure and the per-element form check "
               "dominate, so closure and kernel changes show here and almost "
               "nowhere else",
    },
}
