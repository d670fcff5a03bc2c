"""Command-line front end.

Subcommands query one root system at a time (z0, gram, cartan, decompose,
centralizer, degrees, group-order), solve fixed-space problems from a JSON
file, or run the whole verification harness. Output is JSON on stdout;
rationals are serialized as strings like "2/3" (plain "2" for integers)
because JSON numbers cannot carry exactness.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error
(including input over one of the size limits below), 3 unsupported input
(a fixed-space generator with nonzero lower-left block).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__, reference
from .centralizer import modular_curve_report
from .exactmat import Matrix
from .ppav import (coroot_polarization_degree, divisor_chain,
                   elliptic_decomposition, riemann_family)
from .rootsys import RootSystemId, cartan_data, gram_matrix, simple_reflections
from .symplectic import (NotSymplectic, SymplecticMat, UnsupportedGenerator,
                         fixed_symmetric_space)
from .verify import run_verification
from .weyl import NonUnimodularGenerator, expected_order, generate_group

USAGE_ERROR = 2
UNSUPPORTED_INPUT = 3

# Input size limits; larger input exits with USAGE_ERROR. Exact elimination
# time grows like rank^3.5 (on a 2-vCPU x86-64 VM, z0 A150 takes about
# 16 s and z0 A200 about 37 s), and a fixed-space problem of size n is a
# dense system in n(n+1)/2 unknowns.
MAX_QUERY_RANK = 200
MAX_FIXED_SPACE_N = 16


def fmt_scalar(x) -> str:
    return str(x)


def parse_scalar(s: str):
    frac = Fraction(s)
    return frac.numerator if frac.denominator == 1 else frac


def fmt_matrix(m: Matrix) -> list:
    return [[fmt_scalar(x) for x in m.row(i)] for i in range(m.nrows)]


def _emit(payload: dict, pretty: bool):
    if pretty:
        print(json.dumps(payload, indent=2))
    else:
        print(json.dumps(payload))


def _parse_tag(tag: str) -> RootSystemId:
    try:
        system = RootSystemId.parse(tag)
        if system.rank > MAX_QUERY_RANK:
            raise ValueError(f"rank {system.rank} exceeds the limit {MAX_QUERY_RANK}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)
    return system


def cmd_z0(args) -> int:
    system = _parse_tag(args.system)
    _emit({"system": str(system),
           "z0": fmt_matrix(riemann_family(system).z0)}, args.pretty)
    return 0


def cmd_gram(args) -> int:
    system = _parse_tag(args.system)
    _emit({"system": str(system),
           "gram": fmt_matrix(gram_matrix(system))}, args.pretty)
    return 0


def cmd_cartan(args) -> int:
    system = _parse_tag(args.system)
    data = cartan_data(system)
    _emit({"system": str(system),
           "cartan": fmt_matrix(data.cartan),
           "norm_halves": [fmt_scalar(x) for x in data.norm_halves]},
          args.pretty)
    return 0


def cmd_decompose(args) -> int:
    system = _parse_tag(args.system)
    chain = divisor_chain(system)
    decomp = elliptic_decomposition(system)
    _emit({"system": str(system),
           "divisors": list(chain.divisors),
           "decomposition": decomp.render()}, args.pretty)
    return 0


def cmd_centralizer(args) -> int:
    system = _parse_tag(args.system)
    report = modular_curve_report(system)
    _emit({"system": str(system),
           "level": report.level,
           "curve": report.curve}, args.pretty)
    return 0


def cmd_degrees(args) -> int:
    system = _parse_tag(args.system)
    payload = {"system": str(system),
               "degree": coroot_polarization_degree(system)}
    if str(system) == "E7":
        payload["note"] = reference.DEGREE_LIST_NOTE
    _emit(payload, args.pretty)
    return 0


def cmd_group_order(args) -> int:
    system = _parse_tag(args.system)
    expected = expected_order(system)
    try:
        group = generate_group(simple_reflections(system), args.cap)
    except (NonUnimodularGenerator, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    payload = {
        "system": str(system),
        "expected_order": expected,
        "truncated": group.truncated,
        "enumerated_order": None if group.truncated else group.order,
        "matches": (not group.truncated) and group.order == expected,
    }
    _emit(payload, args.pretty)
    return 0


def cmd_fixed_space(args) -> int:
    try:
        with open(args.file) as handle:
            data = json.load(handle)
        n = data["n"]
        if type(n) is not int or n < 1:
            raise ValueError("n must be a positive integer")
        if n > MAX_FIXED_SPACE_N:
            raise ValueError(f"n = {n} exceeds the limit {MAX_FIXED_SPACE_N}")
        raw = data["generators"]
        if not raw:
            raise ValueError("at least one generator required")
        gens = []
        for item in raw:
            mat = Matrix(item["matrix"])
            if mat.nrows != 2 * n or mat.ncols != 2 * n:
                raise ValueError(f"generator must be {2 * n} x {2 * n}")
            if not mat.is_integral():
                raise ValueError("generator entries must be integers")
            gens.append(SymplecticMat(n, mat))
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError,
            NotSymplectic) as exc:
        print(f"error: malformed fixed-space input: {exc}", file=sys.stderr)
        return USAGE_ERROR

    try:
        space = fixed_symmetric_space(gens)
    except UnsupportedGenerator as exc:
        print(f"error: {exc}", file=sys.stderr)
        return UNSUPPORTED_INPUT

    _emit({
        "n": n,
        "dimension": space.dimension,
        "particular": None if space.particular is None else fmt_matrix(space.particular),
        "basis": [fmt_matrix(b) for b in space.basis],
    }, args.pretty)
    return 0


def cmd_verify_all(args) -> int:
    if args.max_rank < 2:
        print("error: --max-rank must be at least 2", file=sys.stderr)
        return USAGE_ERROR
    report = run_verification(args.max_rank)
    _emit(report, args.pretty)
    return 0 if report["status"] == "pass" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylppav",
        description="Exact Riemann-matrix families for root systems: "
                    "query and verify.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("--pretty", action="store_true",
                        help="indent the JSON output")
    parser.add_argument("--json", action="store_true",
                        help="compact JSON output (the default)")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_text in (
            ("z0", cmd_z0, "base Riemann matrix of the family"),
            ("gram", cmd_gram, "Gram matrix of the invariant inner product"),
            ("cartan", cmd_cartan, "Cartan matrix and root half-norms"),
            ("decompose", cmd_decompose, "divisor chain and elliptic decomposition"),
            ("centralizer", cmd_centralizer, "congruence level and modular curve"),
            ("degrees", cmd_degrees, "coroot polarization degree")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("system", help="root system tag, e.g. A4, D7, E8")
        p.set_defaults(func=func)

    p = sub.add_parser("group-order", help="enumerate the reflection group")
    p.add_argument("system", help="root system tag")
    p.add_argument("--cap", type=int, required=True,
                   help="hard cap on the number of elements explored")
    p.set_defaults(func=cmd_group_order)

    p = sub.add_parser("fixed-space",
                       help="fixed symmetric matrices of symplectic generators "
                            "read from a JSON file")
    p.add_argument("file", help='JSON file {"n": k, "generators": [{"matrix": ...}]}')
    p.set_defaults(func=cmd_fixed_space)

    p = sub.add_parser("verify-all", help="run the whole verification harness")
    p.add_argument("--max-rank", type=int, default=8,
                   help="largest rank to check (default 8, minimum 2)")
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
