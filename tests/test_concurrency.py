"""Everything is immutable and pure, so concurrent callers must agree."""

import json
from concurrent.futures import ThreadPoolExecutor

from weylppav import (Family, all_systems, embed_block_diag, fixed_symmetric_space,
                      generate_group, simple_reflections)
from weylppav.verify import run_verification


def _profile(system):
    family = Family.from_system(system)
    space = fixed_symmetric_space(
        [embed_block_diag(r) for r in simple_reflections(system)])
    return (str(system), family.z0, family.chain.divisors,
            space.particular, space.basis)


def test_concurrent_catalog_queries_match_serial():
    systems = [s for s in all_systems(5)]
    serial = [_profile(s) for s in systems]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(_profile, systems))
    assert threaded == serial


def test_concurrent_group_closures_are_canonical():
    tags = ["A3", "B3", "C3", "D4", "G2", "A2", "B2", "C2"]
    from weylppav import RootSystemId

    def close(tag):
        system = RootSystemId.parse(tag)
        return generate_group(simple_reflections(system), 10 ** 4).elements

    serial = [close(t) for t in tags]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(close, tags))
    assert threaded == serial


def test_concurrent_verification_passes_match_serial():
    # Each pass builds its own per-system data; nothing is shared between
    # passes, so threads running whole passes agree with a serial one.
    serial = run_verification(4)
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(run_verification, [4] * 4))
    assert threaded == [serial] * 4


# Four threads make the first access to lazy names of four modules at once,
# switching as often as the interpreter allows; prints the modules loaded
# before, and whether each result equals a serial run made afterwards.
FIRST_USE = """
import json, sys, threading
from concurrent.futures import ThreadPoolExecutor
import weylppav
sys.setswitchinterval(1e-6)

def family(start):
    start()
    return weylppav.Family.from_system(weylppav.RootSystemId.parse("E6")).z0

def closure(start):
    start()
    gens = weylppav.simple_reflections(weylppav.RootSystemId.parse("B3"))
    return weylppav.generate_group(gens, 10 ** 4).elements

def fixed_space(start):
    start()
    gens = [weylppav.embed_block_diag(r)
            for r in weylppav.simple_reflections(weylppav.RootSystemId.parse("A3"))]
    space = weylppav.fixed_symmetric_space(gens)
    return space.particular, space.basis

def verification(start):
    start()
    import weylppav.verify
    return weylppav.verify.run_verification(3)

tasks = (family, closure, fixed_space, verification)
before = sorted(m for m in sys.modules if m.split(".")[0] == "weylppav")
barrier = threading.Barrier(len(tasks), timeout=60)
with ThreadPoolExecutor(max_workers=4) as pool:
    threaded = [f.result() for f in [pool.submit(t, barrier.wait) for t in tasks]]
serial = [t(lambda: None) for t in tasks]
print(json.dumps({"before": before, "equal": [a == b for a, b in zip(threaded, serial)]}))
"""


def test_concurrent_first_use_matches_serial(fresh_python):
    out = json.loads(fresh_python(FIRST_USE))
    assert out["before"] == ["weylppav"]
    assert out["equal"] == [True] * 4
