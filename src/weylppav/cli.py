"""Command-line front end.

Subcommands query one root system at a time (z0, gram, cartan, decompose,
centralizer, degrees, group-order), solve fixed-space problems from a JSON
file, or run the whole verification harness. Output is JSON on stdout;
rationals are serialized as strings like "2/3" (plain "2" for integers)
because JSON numbers cannot carry exactness.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error
(including input over one of the size limits below), 3 unsupported input
(a fixed-space generator with nonzero lower-left block), 141 stdout closed
by its reader before the output was written (``weylppav z0 A120 | head``;
128 + SIGPIPE, as a shell reports a process killed by that signal).

Every ``main`` call builds its own parser, but a subcommand's parser is
built only when parsing reaches it (``_DeferredParser``): building all nine
costs more than a small query's whole answer. For the same reason a command
imports only the modules it runs, inside its ``cmd_*`` function.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__

USAGE_ERROR = 2
UNSUPPORTED_INPUT = 3
BROKEN_PIPE = 141

# Input size limits; larger input exits with USAGE_ERROR. Exact elimination
# time grows like rank^3.5 (in a fresh process on a 2-vCPU Intel Xeon VM,
# Python 3.11.7, median of 3: z0 A150 takes about 14 s and z0 A200 about
# 29 s, 13-15 s and 24-31 s across the runs), and a fixed-space
# problem of size n is a dense system in n(n+1)/2 unknowns with n(n+1)/2
# rows per generator. At n = 16, dense random block-upper-triangular
# generators (entries up to 18) take about 8 s for one, 95 s for 8, 165 s
# for 16 and 750 s (140 MB max RSS) for 64; 64 identity generators, whose
# equations are all zero and dropped before the solve, take about 0.7 s.
# Those 64 dense generators are about 220 kB of JSON, so a file is read only
# up to MAX_FIXED_SPACE_BYTES (4 MiB). A closure holds cap elements of rank
# row ids each, in a list beside the set that tests membership; its peak
# memory is at most about 4 bytes per cap * rank^2 entry (tracemalloc,
# transposed reflections: E6, A7, B6 closed, E7, E8, A8, A100, A200, D30
# truncated at the limit; D30 is the largest at 3.7 and E7 next at 2.5), so
# about 18 MB. verify-all runs no closure (it certifies each group by coset
# tables), so group-order is the only command this limit bounds.
# The generators are rank dense rank x rank matrices beside it: group-order
# A200 --cap 125 takes about 0.86 s and 80 MB max RSS (a fresh process, the
# Intel Xeon VM, median of 3), most of it the 8 million reflection entries.
# verify-all at rank 32 takes about 3 times its rank-16 time: 0.68-0.69 s
# against 0.22-0.24 s in a fresh process, and rank 8 0.14-0.15 s (median of
# 5, two rounds, 2-vCPU Intel Xeon VM, Python 3.11.7).
MAX_QUERY_RANK = 200
MAX_FIXED_SPACE_N = 16
MAX_FIXED_SPACE_GENERATORS = 64
MAX_FIXED_SPACE_BYTES = 4 << 20
MAX_VERIFY_RANK = 32
MAX_GROUP_ENTRIES = 5_000_000


def fmt_scalar(x) -> str:
    return str(x)


def fmt_matrix(m) -> list:
    return [[fmt_scalar(x) for x in m.row(i)] for i in range(m.nrows)]


def _emit(payload: dict, pretty: bool):
    if pretty:
        print(json.dumps(payload, indent=2))
    else:
        print(json.dumps(payload))


def _parse_tag(tag: str):
    from .rootsys import RootSystemId
    try:
        system = RootSystemId.parse(tag, max_rank=MAX_QUERY_RANK)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)
    return system


def cmd_z0(args) -> int:
    from .rootsys import gram_matrix
    system = _parse_tag(args.system)
    _emit({"system": str(system),
           "z0": fmt_matrix(gram_matrix(system).inverse())}, args.pretty)
    return 0


def cmd_gram(args) -> int:
    from .rootsys import gram_matrix
    system = _parse_tag(args.system)
    _emit({"system": str(system),
           "gram": fmt_matrix(gram_matrix(system))}, args.pretty)
    return 0


def cmd_cartan(args) -> int:
    from .rootsys import cartan_data
    system = _parse_tag(args.system)
    data = cartan_data(system)
    _emit({"system": str(system),
           "cartan": fmt_matrix(data.cartan),
           "norm_halves": [fmt_scalar(x) for x in data.norm_halves]},
          args.pretty)
    return 0


def cmd_decompose(args) -> int:
    from .ppav import divisor_chain, group_divisors
    from .rootsys import gram_matrix
    system = _parse_tag(args.system)
    chain = divisor_chain(gram_matrix(system))
    _emit({"system": str(system),
           "divisors": list(chain.divisors),
           "decomposition": group_divisors(chain).render()}, args.pretty)
    return 0


def cmd_centralizer(args) -> int:
    from .centralizer import curve_description
    from .ppav import divisor_chain
    from .rootsys import gram_matrix
    system = _parse_tag(args.system)
    level = divisor_chain(gram_matrix(system)).divisors[0]
    _emit({"system": str(system), "level": level, "curve": curve_description(level)},
          args.pretty)
    return 0


def cmd_degrees(args) -> int:
    from .ppav import coroot_polarization_degree
    system = _parse_tag(args.system)
    payload = {"system": str(system),
               "degree": coroot_polarization_degree(system)}
    if str(system) == "E7":
        from .reference import DEGREE_LIST_NOTE
        payload["note"] = DEGREE_LIST_NOTE
    _emit(payload, args.pretty)
    return 0


def cmd_group_order(args) -> int:
    system = _parse_tag(args.system)
    entries = args.cap * system.rank ** 2
    if entries > MAX_GROUP_ENTRIES:
        print(f"error: --cap {args.cap} at rank {system.rank} allows {entries} "
              f"stored entries, over the limit {MAX_GROUP_ENTRIES}", file=sys.stderr)
        return USAGE_ERROR
    from .rootsys import simple_reflections
    from .weyl import expected_order, generate_group
    expected = expected_order(system)
    # Transposing keeps the order and the truncation; the closure of the
    # transposed reflections interns only the roots as rows. In place, so
    # each untransposed matrix is freed as soon as it is replaced.
    gens = simple_reflections(system)
    for k, g in enumerate(gens):
        gens[k] = g.T
    try:
        group = generate_group(gens, args.cap)
    except ValueError as exc:
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
    from .exactmat import Matrix
    from .symplectic import SymplecticMat, UnsupportedGenerator, fixed_symmetric_space
    try:
        with open(args.file, "rb") as handle:
            content = handle.read(MAX_FIXED_SPACE_BYTES + 1)
        if len(content) > MAX_FIXED_SPACE_BYTES:
            raise ValueError(f"input exceeds the limit of {MAX_FIXED_SPACE_BYTES} bytes")
        data = json.loads(content)
        n = data["n"]
        if type(n) is not int or n < 1:
            raise ValueError("n must be a positive integer")
        if n > MAX_FIXED_SPACE_N:
            raise ValueError(f"n = {n} exceeds the limit {MAX_FIXED_SPACE_N}")
        raw = data["generators"]
        if not raw:
            raise ValueError("at least one generator required")
        if len(raw) > MAX_FIXED_SPACE_GENERATORS:
            raise ValueError(f"{len(raw)} generators exceed the limit "
                             f"{MAX_FIXED_SPACE_GENERATORS}")
        gens = [SymplecticMat(n, Matrix(item["matrix"])) for item in raw]
    except (OSError, RecursionError, json.JSONDecodeError, KeyError, TypeError,
            ValueError) as exc:
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
    if args.max_rank > MAX_VERIFY_RANK:
        print(f"error: --max-rank {args.max_rank} exceeds the limit {MAX_VERIFY_RANK}",
              file=sys.stderr)
        return USAGE_ERROR
    from .verify import run_verification
    report = run_verification(args.max_rank)
    _emit(report, args.pretty)
    return 0 if report["status"] == "pass" else 1


class _DeferredParser:
    """A subcommand's ``argparse.ArgumentParser``, built on first use.

    ``add_argument`` and ``set_defaults`` calls are recorded; any other
    attribute (parsing, help) builds the real parser, replays them and
    delegates. A parse therefore builds the parser of the one subcommand
    it runs, and help and error output are those of the eager tree.
    """

    def __init__(self, **kwargs):
        self._kwargs = kwargs
        self._calls = []
        self._parser = None

    def add_argument(self, *args, **kwargs):
        self._calls.append(("add_argument", args, kwargs))

    def set_defaults(self, **kwargs):
        self._calls.append(("set_defaults", (), kwargs))

    def __getattr__(self, name):
        if self._parser is None:
            self._parser = argparse.ArgumentParser(**self._kwargs)
            for method, args, kwargs in self._calls:
                getattr(self._parser, method)(*args, **kwargs)
        return getattr(self._parser, name)


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
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_DeferredParser)

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
                   help="hard cap on the number of elements explored "
                        f"(cap * rank^2 at most {MAX_GROUP_ENTRIES})")
    p.set_defaults(func=cmd_group_order)

    p = sub.add_parser("fixed-space",
                       help="fixed symmetric matrices of symplectic generators "
                            "read from a JSON file")
    p.add_argument("file", help='JSON file {"n": k, "generators": [{"matrix": ...}]}')
    p.set_defaults(func=cmd_fixed_space)

    p = sub.add_parser("verify-all", help="run the whole verification harness")
    p.add_argument("--max-rank", type=int, default=8,
                   help="largest rank to check (default 8, minimum 2, "
                        f"maximum {MAX_VERIFY_RANK})")
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone. Point stdout at devnull so that the flush at
        # interpreter exit does not fail on the same pipe again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
