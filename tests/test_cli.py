import argparse
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import weylppav
from weylppav import (Family, Matrix, RootSystemId, all_systems, embed_block_diag,
                      expected_order, generate_group, smith_normal_form)
from weylppav import cli, ppav, verify
from weylppav.cli import (MAX_FIXED_SPACE_BYTES, MAX_FIXED_SPACE_GENERATORS,
                          MAX_FIXED_SPACE_N, MAX_GROUP_ENTRIES, MAX_QUERY_RANK,
                          MAX_VERIFY_RANK, main)
from weylppav.reference import cyclic5_generator, sym5_degree6_generators


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def run_exit(capsys, *argv):
    """(exit code, stdout, stderr) of a call that exits through SystemExit."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


# SHA-256 of the `verify-all --max-rank 8` report at the seed commit 58b3be1.
RANK8_REPORT_SHA256 = "7f3d5c02971508ac30107794086a0d42ef66a7b5578e881c61b2a6b97927f042"

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestQueries:
    def test_z0_g2(self, capsys):
        payload = run_json(capsys, "z0", "G2")
        assert payload == {"system": "G2", "z0": [["2", "1"], ["1", "2/3"]]}

    def test_z0_a1(self, capsys):
        payload = run_json(capsys, "z0", "A1")
        assert payload["z0"] == [["1/2"]]

    def test_z0_b2(self, capsys):
        payload = run_json(capsys, "z0", "B2")
        assert payload["z0"] == [["1", "1"], ["1", "2"]]

    def test_z0_round_trip(self, capsys):
        payload = run_json(capsys, "z0", "E7")
        reparsed = Matrix([[Fraction(x) for x in row] for row in payload["z0"]])
        assert reparsed == Family.from_system(RootSystemId.parse("E7")).z0

    def test_round_trip_all_systems(self, capsys):
        from weylppav import all_systems, gram_matrix

        for system in all_systems(8):
            payload = run_json(capsys, "z0", str(system))
            assert Matrix([[Fraction(x) for x in row]
                           for row in payload["z0"]]) == Family.from_system(system).z0
            payload = run_json(capsys, "gram", str(system))
            assert Matrix([[Fraction(x) for x in row]
                           for row in payload["gram"]]) == gram_matrix(system)

    def test_gram(self, capsys):
        payload = run_json(capsys, "gram", "G2")
        assert payload["gram"] == [["2", "-3"], ["-3", "6"]]

    def test_cartan(self, capsys):
        payload = run_json(capsys, "cartan", "B2")
        assert payload["cartan"] == [["2", "-2"], ["-1", "2"]]
        assert payload["norm_halves"] == ["1", "1/2"]

    def test_decompose(self, capsys):
        assert run_json(capsys, "decompose", "E7")["decomposition"] == \
            "E_t^6 x E_{t/2}"
        assert run_json(capsys, "decompose", "A1")["decomposition"] == "E_{t/2}"
        payload = run_json(capsys, "decompose", "C4")
        assert payload["decomposition"] == "E_t^2 x E_{t/2}^2"
        assert payload["divisors"] == [2, 2, 1, 1]

    def test_decompose_runs_one_smith_form(self, capsys, monkeypatch):
        calls = []

        def counted(m):
            calls.append(m)
            return smith_normal_form(m)

        monkeypatch.setattr(ppav, "smith_normal_form", counted)
        code, out, _ = run(capsys, "decompose", "A12")
        assert code == 0
        assert len(calls) == 1
        assert out == ('{"system": "A12", "divisors": [13, 1, 1, 1, 1, 1, 1, 1, 1, 1, '
                       '1, 1], "decomposition": "E_t^11 x E_{t/13}"}\n')

    def test_chain_queries_need_no_determinant(self, capsys, monkeypatch):
        def no_det(self):
            raise AssertionError("det called")

        monkeypatch.setattr(Matrix, "det", no_det)
        assert run_json(capsys, "centralizer", "A56")["level"] == 57
        payload = run_json(capsys, "decompose", "A56")
        assert payload["divisors"] == [57] + [1] * 55
        assert payload["decomposition"] == "E_t^55 x E_{t/57}"

    def test_centralizer(self, capsys):
        assert run_json(capsys, "centralizer", "A6")["level"] == 7
        payload = run_json(capsys, "centralizer", "E8")
        assert payload["level"] == 1
        assert payload["curve"] == "H_1/Gamma"
        assert run_json(capsys, "centralizer", "D5")["level"] == 4

    def test_degrees(self, capsys):
        assert run_json(capsys, "degrees", "A5")["degree"] == 6
        payload = run_json(capsys, "degrees", "E7")
        assert payload["degree"] == 2
        assert "note" in payload

    def test_case_insensitive_tag(self, capsys):
        payload = run_json(capsys, "z0", "g2")
        assert payload["system"] == "G2"

    def test_bad_tag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["z0", "Z9"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("tag", ["A\u0663", "A\u00b3"])
    def test_non_ascii_rank_exits_2(self, capsys, tag):
        with pytest.raises(SystemExit) as exc:
            main(["gram", tag])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot parse root system tag" in captured.err

    def test_leading_zeros_exit_2(self, capsys):
        code, out, err = run_exit(capsys, "gram", "A0003")
        assert (code, out) == (2, "")
        assert err == "error: cannot parse root system tag 'A0003'\n"

    def test_huge_rank_gets_the_limit_message(self, capsys):
        digits = "9" * 5000
        code, out, err = run_exit(capsys, "gram", "A" + digits)
        assert (code, out) == (2, "")
        assert err == f"error: rank {digits} exceeds the limit 200\n"

    def test_rank_limit_boundary(self, capsys):
        assert MAX_QUERY_RANK == 200
        payload = run_json(capsys, "cartan", f"A{MAX_QUERY_RANK}")
        assert len(payload["cartan"]) == MAX_QUERY_RANK
        for command in ("z0", "gram", "cartan", "decompose", "centralizer",
                        "degrees"):
            with pytest.raises(SystemExit) as exc:
                main([command, f"D{MAX_QUERY_RANK + 1}"])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: rank 201 exceeds the limit 200\n"
        with pytest.raises(SystemExit) as exc:
            main(["group-order", "B201", "--cap", "10"])
        assert exc.value.code == 2

    def test_pretty_flag(self, capsys):
        code, out, _ = run(capsys, "--pretty", "z0", "G2")
        assert code == 0
        assert out.startswith("{\n")
        assert json.loads(out)["system"] == "G2"

    def test_json_flag_is_default(self, capsys):
        _, compact, _ = run(capsys, "--json", "z0", "G2")
        _, default, _ = run(capsys, "z0", "G2")
        assert compact == default

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out == f"weylppav {weylppav.__version__}\n"
        assert captured.err == ""

    def test_version_matches_project_metadata(self):
        pyproject = (Path(SRC).parent / "pyproject.toml").read_text()
        assert f'version = "{weylppav.__version__}"' in pyproject

    def test_every_public_name_resolves(self):
        assert len(set(weylppav.__all__)) == len(weylppav.__all__)
        for name in weylppav.__all__:
            assert hasattr(weylppav, name), name


# The public names of the package: those it exported when it still imported
# every module eagerly, with ``Family`` in place of ``RiemannFamily``,
# ``riemann_family`` and ``centralizer_level``, and without ``weyl``'s own
# refusal class: the closure refuses a generator with ``exactmat``'s one
# ``NonUnimodular``.
PUBLIC_NAMES = {
    "AffineMatrixSpace", "AffineSolution", "CartanData", "DeterminantNotOne",
    "DivisorChain", "EllipticDecomposition", "Family", "LevelViolation",
    "Matrix", "MatrixGroup", "NonUnimodular", "NotSymmetric", "NotSymplectic",
    "RootSystemId", "Singular", "SingularDenominator", "SnfResult", "SymplecticMat",
    "UnsupportedGenerator", "USING_COMPILED", "all_systems", "cartan_data",
    "cartan_matrix", "centralizer_element", "check_invariance",
    "coroot_gram_matrix", "coroot_polarization_degree", "curve_description",
    "diagram_automorphisms", "divisor_chain", "embed_block_diag",
    "expected_order", "fixed_symmetric_space", "generate_group", "gram_matrix",
    "group_divisors", "is_symplectic", "modular_action", "simple_reflections",
    "smith_normal_form", "solve_affine", "standard_form",
    "verify_decomposition_witness", "verify_family_isomorphism",
}

# Prints, one JSON line each, the weylppav modules loaded after each step.
LAZY_STARTUP = """
import json, sys
def loaded():
    print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "weylppav")))
import weylppav.cli as cli
loaded()
for argv in (["gram", "B5"], ["z0", "B5"], ["decompose", "B5"], ["centralizer", "B5"],
             ["degrees", "E7"]):
    cli.main(argv)
    loaded()
"""

API_PROBE = """
import json, sys
import weylppav
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "weylppav")
out = {"flags": [weylppav.USING_COMPILED, weylppav.__version__], "after_flags": loaded(),
       "all": weylppav.__all__, "dir": dir(weylppav)}
try:
    weylppav.no_such_name
except AttributeError as exc:
    out["unknown"] = str(exc)
out["after_unknown"] = loaded()
namespace = {}
exec("from weylppav import *", namespace)
out["star"] = sorted(set(namespace) - {"__builtins__"})
out["not_defining_object"] = [
    name for name in weylppav.__all__ if name != "USING_COMPILED"
    and getattr(weylppav, name) is not getattr(sys.modules[getattr(weylppav, name).__module__], name)]
from weylppav import cli, verify, reference
out["submodules"] = [m.__name__ for m in (cli, verify, reference) if type(m) is type(sys)]
print(json.dumps(out))
"""


class TestLazyImport:
    """A command imports only the modules it runs; the package API is unchanged."""

    def test_startup_loads_only_what_a_command_runs(self, fresh_python):
        from weylppav.reference import DEGREE_LIST_NOTE

        lines = fresh_python(LAZY_STARTUP).splitlines()
        assert len(lines) == 11
        assert json.loads(lines[0]) == ["weylppav", "weylppav.cli"]
        assert [json.loads(line)["system"] for line in lines[1:9:2]] == ["B5"] * 4
        after_gram, after_z0, after_decompose, after_centralizer = (
            set(json.loads(line)) for line in lines[2:10:2])
        for name in ("verify", "reference", "weyl", "symplectic", "centralizer", "ppav"):
            assert f"weylppav.{name}" not in after_gram, name
        # z0 inverts the Gram matrix, so it needs rootsys and exactmat only;
        # decompose adds ppav, and centralizer adds the module of
        # curve_description, which imports symplectic.
        assert after_z0 == after_gram
        assert after_decompose - after_z0 == {"weylppav.ppav"}
        assert after_centralizer - after_decompose == {"weylppav.centralizer",
                                                       "weylppav.symplectic"}
        assert json.loads(lines[9])["note"] == DEGREE_LIST_NOTE
        assert "weylppav.reference" in json.loads(lines[10])

    def test_package_api_unchanged(self, fresh_python):
        out = json.loads(fresh_python(API_PROBE))
        assert out["flags"] == [False, weylppav.__version__]
        assert out["after_flags"] == ["weylppav"]
        assert set(out["all"]) == PUBLIC_NAMES
        assert len(out["all"]) == len(PUBLIC_NAMES)
        assert PUBLIC_NAMES <= set(out["dir"])
        assert out["unknown"] == "module 'weylppav' has no attribute 'no_such_name'"
        assert out["after_unknown"] == ["weylppav"]
        assert set(out["star"]) == PUBLIC_NAMES
        assert out["not_defining_object"] == []
        assert out["submodules"] == ["weylppav.cli", "weylppav.verify", "weylppav.reference"]


# stdout of `weylppav z0 G2` and `weylppav group-order G2 --cap 100`, byte
# for byte what a fresh `weylppav` process prints.
Z0_G2_STDOUT = '{"system": "G2", "z0": [["2", "1"], ["1", "2/3"]]}\n'
GROUP_ORDER_G2_STDOUT = ('{"system": "G2", "expected_order": 12, "truncated": false, '
                         '"enumerated_order": 12, "matches": true}\n')


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of one call, usage exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


USAGE_ARGVS = [[], ["--help"], ["--he"], ["--help", "z0"], ["--version"],
               ["--pretty", "z0", "G2"], ["z0"], ["z0", "--help"], ["z0", "G2", "extra"],
               ["nosuch", "G2"], ["group-order", "G2"], ["group-order", "--help"],
               ["group-order", "G2", "--cap", "x"], ["group-order", "G2", "--ca", "100"],
               ["fixed-space"], ["verify-all", "--max-rank", "x"], ["--", "z0", "G2"]]


class TestBrokenPipe:
    def test_closed_stdout_exits_141(self, monkeypatch, tmp_path):
        # A reader that went away: every write fails with EPIPE.
        target = open(tmp_path / "stdout", "w")

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return target.fileno()

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        try:
            assert main(["gram", "A3"]) == cli.BROKEN_PIPE == 141
            # The descriptor behind stdout now writes to devnull.
            assert os.path.samestat(os.fstat(target.fileno()), os.stat(os.devnull))
        finally:
            target.close()

    def test_reader_closing_early_leaves_stderr_empty(self):
        path = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        # About 200 kB of output: more than a pipe buffers, so the writer
        # is still writing when the reader closes its end.
        proc = subprocess.Popen([sys.executable, "-m", "weylppav", "gram", "A200"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            assert proc.stdout.read(20) == b'{"system": "A200", "'
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 141
        finally:
            proc.kill()
            proc.stderr.close()
        assert err == b""


class TestDeferredSubparsers:
    def test_a_call_builds_only_its_subparser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert run(capsys, "z0", "G2") == (0, Z0_G2_STDOUT, "")
        assert built == ["weylppav", "weylppav z0"]
        built.clear()
        assert run(capsys, "group-order", "G2", "--cap", "100") == \
            (0, GROUP_ORDER_G2_STDOUT, "")
        assert built == ["weylppav", "weylppav group-order"]

    @pytest.mark.parametrize("argv", USAGE_ARGVS, ids=" ".join)
    def test_output_equals_eager_tree(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        deferred = outcome(capsys, argv)
        monkeypatch.setattr(cli, "_DeferredParser", argparse.ArgumentParser)
        assert deferred == outcome(capsys, argv)

    @pytest.mark.parametrize("argv, code", [
        (["group-order", "G2"], 2),
        (["nosuch", "G2"], 2),
        (["--version"], 0),
        (["--pretty", "z0", "G2"], 0),
    ])
    def test_earlier_call_leaves_later_output_unchanged(self, capsys, argv, code):
        assert outcome(capsys, argv)[0] == code
        assert run(capsys, "z0", "G2") == (0, Z0_G2_STDOUT, "")
        assert run(capsys, "group-order", "G2", "--cap", "100") == \
            (0, GROUP_ORDER_G2_STDOUT, "")


class TestGroupOrder:
    def test_g2(self, capsys):
        payload = run_json(capsys, "group-order", "G2", "--cap", "100")
        assert payload["expected_order"] == 12
        assert payload["enumerated_order"] == 12
        assert payload["matches"] is True

    def test_truncated(self, capsys):
        payload = run_json(capsys, "group-order", "F4", "--cap", "10")
        assert payload["truncated"] is True
        assert payload["enumerated_order"] is None
        assert payload["matches"] is False

    def test_builds_no_element_matrices(self, capsys, monkeypatch, no_group_matrices):
        groups = []
        monkeypatch.setattr("weylppav.weyl.generate_group",
                            lambda gens, cap: groups.append(generate_group(gens, cap)) or groups[0])
        payload = run_json(capsys, "group-order", "E6", "--cap", "100001")
        assert payload["enumerated_order"] == 51840
        assert payload["matches"] is True
        # The closure of the transposed reflections interns only E6's 72
        # roots, so each element keeps one byte per row id.
        (group,) = groups
        assert len(group.vectors) == 72
        assert all(type(el) is bytes for el in group.found)

    def test_cap_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["group-order", "G2"])
        assert exc.value.code == 2

    def test_nonpositive_cap_exits_2(self, capsys):
        code, _, err = run(capsys, "group-order", "G2", "--cap", "0")
        assert code == 2
        assert "cap" in err

    def test_entry_limit_boundary(self, capsys):
        assert MAX_GROUP_ENTRIES == 5_000_000
        cap = MAX_GROUP_ENTRIES // 4  # G2 stores rank^2 = 4 entries per element
        assert run_json(capsys, "group-order", "G2", "--cap", str(cap))["matches"] is True
        code, out, err = run(capsys, "group-order", "G2", "--cap", str(cap + 1))
        assert code == 2
        assert out == ""
        assert err == ("error: --cap 1250001 at rank 2 allows 5000004 stored entries, "
                       "over the limit 5000000\n")
        code, out, err = run(capsys, "group-order", "E8", "--cap", str(10 ** 9))
        assert code == 2 and out == "" and "64000000000" in err

    def test_entry_limit_admits_verify_all_enumerations(self):
        cap = verify.ENUMERATION_LIMIT + 1
        for system in all_systems(8):
            if expected_order(system) <= verify.ENUMERATION_LIMIT:
                assert cap * system.rank ** 2 <= MAX_GROUP_ENTRIES, str(system)


def write_generators(path, n, mats):
    path.write_text(json.dumps(
        {"n": n, "generators": [{"matrix": [list(r) for r in m.rows()]}
                                for m in mats]}))


class TestFixedSpace:
    def test_identity_generators(self, capsys, tmp_path):
        f = tmp_path / "gens.json"
        write_generators(f, 4, [Matrix.identity(8)])
        payload = run_json(capsys, "fixed-space", str(f))
        assert payload["dimension"] == 10

    def test_cyclic5(self, capsys, tmp_path):
        f = tmp_path / "gens.json"
        write_generators(f, 4, [embed_block_diag(cyclic5_generator()).m])
        payload = run_json(capsys, "fixed-space", str(f))
        assert payload["dimension"] == 2

    def test_sym5_pair(self, capsys, tmp_path):
        f = tmp_path / "gens.json"
        write_generators(f, 6, list(sym5_degree6_generators()))
        payload = run_json(capsys, "fixed-space", str(f))
        assert payload["dimension"] == 1
        assert payload["particular"] is not None
        assert payload["basis"][0][0][0] == "3"

    def test_lower_block_exits_3(self, capsys, tmp_path):
        f = tmp_path / "gens.json"
        from weylppav import standard_form

        write_generators(f, 2, [standard_form(2)])
        code, _, err = run(capsys, "fixed-space", str(f))
        assert code == 3
        assert "lower-left" in err

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        f = tmp_path / "gens.json"
        f.write_text("{ not json")
        code, _, _ = run(capsys, "fixed-space", str(f))
        assert code == 2

    def test_wrong_shape_exits_2(self, capsys, tmp_path):
        f = tmp_path / "gens.json"
        write_generators(f, 3, [Matrix.identity(4)])
        code, out, err = run(capsys, "fixed-space", str(f))
        assert code == 2
        assert out == ""
        assert err == "error: malformed fixed-space input: matrix size must be 6 x 6\n"

    def test_non_symplectic_exits_2(self, capsys, tmp_path):
        f = tmp_path / "gens.json"
        write_generators(f, 1, [Matrix.diagonal([2, 1])])
        code, _, _ = run(capsys, "fixed-space", str(f))
        assert code == 2

    def test_bool_n_exits_2(self, capsys, tmp_path):
        f = tmp_path / "gens.json"
        f.write_text(json.dumps({"n": True, "generators": [{"matrix": [[1, 0], [0, 1]]}]}))
        code, out, err = run(capsys, "fixed-space", str(f))
        assert code == 2
        assert out == "" and "n must be a positive integer" in err
        assert "Traceback" not in err

    def test_bool_entries_exit_2(self, capsys, tmp_path):
        f = tmp_path / "gens.json"
        f.write_text(json.dumps({"n": 1, "generators": [{"matrix": [[True, 0], [0, True]]}]}))
        code, out, err = run(capsys, "fixed-space", str(f))
        assert code == 2
        assert out == "" and "bool" in err
        assert "Traceback" not in err

    def test_n_limit_boundary(self, capsys, tmp_path):
        assert MAX_FIXED_SPACE_N == 16
        f = tmp_path / "gens.json"
        write_generators(f, MAX_FIXED_SPACE_N, [Matrix.identity(2 * MAX_FIXED_SPACE_N)])
        assert run_json(capsys, "fixed-space", str(f))["dimension"] == 136
        write_generators(f, MAX_FIXED_SPACE_N + 1,
                         [Matrix.identity(2 * MAX_FIXED_SPACE_N + 2)])
        code, out, err = run(capsys, "fixed-space", str(f))
        assert code == 2
        assert out == "" and "n = 17 exceeds the limit 16" in err

    def test_generator_limit_boundary(self, capsys, tmp_path):
        assert MAX_FIXED_SPACE_GENERATORS == 64
        f = tmp_path / "gens.json"
        write_generators(f, 1, [Matrix.identity(2)] * MAX_FIXED_SPACE_GENERATORS)
        assert run_json(capsys, "fixed-space", str(f))["dimension"] == 1
        write_generators(f, 1, [Matrix.identity(2)] * (MAX_FIXED_SPACE_GENERATORS + 1))
        code, out, err = run(capsys, "fixed-space", str(f))
        assert code == 2
        assert out == ""
        assert err == ("error: malformed fixed-space input: "
                       "65 generators exceed the limit 64\n")
        assert "Traceback" not in err

    def test_deeply_nested_json_exits_2(self, capsys, tmp_path):
        f = tmp_path / "gens.json"
        depth = 100_000
        f.write_text('{"n": 1, "generators": [{"matrix": '
                     + "[" * depth + "]" * depth + "}]}")
        code, out, err = run(capsys, "fixed-space", str(f))
        assert code == 2
        assert out == ""
        assert "malformed fixed-space input" in err
        assert "Traceback" not in err

    def test_byte_limit_boundary(self, capsys, tmp_path):
        # Whitespace pads valid input to the limit; one byte more is refused
        # before it is parsed.
        f = tmp_path / "gens.json"
        write_generators(f, 1, [Matrix.identity(2)])
        body = f.read_bytes()
        f.write_bytes(body + b" " * (MAX_FIXED_SPACE_BYTES - len(body)))
        assert run_json(capsys, "fixed-space", str(f))["dimension"] == 1
        f.write_bytes(body + b" " * (MAX_FIXED_SPACE_BYTES + 1 - len(body)))
        code, out, err = run(capsys, "fixed-space", str(f))
        assert code == 2
        assert out == ""
        assert err == ("error: malformed fixed-space input: input exceeds the "
                       f"limit of {MAX_FIXED_SPACE_BYTES} bytes\n")

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_endless_input_exits_2(self):
        # An endless file is read only up to the byte limit.
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "weylppav",
                               "fixed-space", "/dev/zero"], capture_output=True,
                              env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == ("error: malformed fixed-space input: input exceeds the "
                               f"limit of {MAX_FIXED_SPACE_BYTES} bytes\n").encode()

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "fixed-space", str(tmp_path / "absent.json"))
        assert code == 2


class TestVerifyAll:
    def test_small_rank_passes(self, capsys):
        code, out, _ = run(capsys, "verify-all", "--max-rank", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "pass"
        assert payload["summary"]["fail"] == 0
        assert payload["summary"]["documented_discrepancy"] >= 1

    def test_full_rank_passes(self, capsys):
        code, out, _ = run(capsys, "verify-all", "--max-rank", "8")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "pass"
        assert payload["summary"]["documented_discrepancy"] == 3
        assert hashlib.sha256(out.encode()).hexdigest() == RANK8_REPORT_SHA256

    def test_rank_below_minimum_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify-all", "--max-rank", "1")
        assert code == 2

    def test_rank_limit_boundary(self, capsys, monkeypatch):
        assert MAX_VERIFY_RANK == 32
        ranks = []

        def record(rank):
            ranks.append(rank)
            return {"max_rank": rank, "sections": [], "summary": {}, "status": "pass"}

        monkeypatch.setattr("weylppav.verify.run_verification", record)
        for rank in (8, 12, MAX_VERIFY_RANK):
            code, _, _ = run(capsys, "verify-all", "--max-rank", str(rank))
            assert code == 0
        code, out, err = run(capsys, "verify-all", "--max-rank", str(MAX_VERIFY_RANK + 1))
        assert code == 2
        assert out == ""
        assert err == "error: --max-rank 33 exceeds the limit 32\n"
        assert ranks == [8, 12, MAX_VERIFY_RANK]

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "verify-all", "--max-rank", "3")
        _, out2, _ = run(capsys, "verify-all", "--max-rank", "3")
        assert out1 == out2

    def test_output_independent_of_hash_seed(self):
        def report(hash_seed):
            path = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(path))
            proc = subprocess.run(
                [sys.executable, "-m", "weylppav.cli", "verify-all", "--max-rank", "5"],
                env=env, capture_output=True, timeout=300, check=True)
            return proc.stdout

        first = report("1")
        assert json.loads(first)["status"] == "pass"
        assert report("2") == first

    def test_failure_exits_1(self, capsys, monkeypatch):
        failing = {"max_rank": 2, "sections": [],
                   "summary": {"pass": 0, "documented_discrepancy": 0, "fail": 1},
                   "status": "fail"}
        monkeypatch.setattr("weylppav.verify.run_verification", lambda rank: failing)
        code, out, _ = run(capsys, "verify-all", "--max-rank", "2")
        assert code == 1
        assert json.loads(out)["status"] == "fail"
