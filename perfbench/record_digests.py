#!/usr/bin/env python3
"""Record the stdout digests the benchmark checks outputs against.

Runs every query the rank-queries workload can draw and the verify-all
passes of verify-catalog through ``weylppav.cli.main``, and writes the
SHA-256 of each output to ``perfbench/digests.json``. Run it only on a
commit whose output is known good (the digests pin that output):

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import VERIFY_MAX_RANK, all_rank_query_argvs, digest_key, sha256  # noqa: E402


def main() -> int:
    from weylppav.cli import main as cli_main

    argvs = [("verify-all", "--max-rank", str(r)) for r in (3, VERIFY_MAX_RANK)]
    argvs += all_rank_query_argvs()
    digests = {}
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli_main(list(argv))
        if rc != 0:
            print(f"error: {' '.join(argv)} exited with {rc}", file=sys.stderr)
            return 1
        digests[digest_key(argv)] = sha256(out.getvalue())
    with open(HERE / "digests.json", "w") as handle:
        json.dump(digests, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
