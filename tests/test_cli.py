import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylppav
from weylppav import Matrix, embed_block_diag, riemann_family, RootSystemId
from weylppav.cli import MAX_FIXED_SPACE_N, MAX_QUERY_RANK, main, parse_scalar
from weylppav.reference import cyclic5_generator, sym5_degree6_generators


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


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
        reparsed = Matrix([[parse_scalar(x) for x in row]
                           for row in payload["z0"]])
        assert reparsed == riemann_family(RootSystemId.parse("E7")).z0

    def test_round_trip_all_systems(self, capsys):
        from weylppav import all_systems, gram_matrix

        for system in all_systems(8):
            payload = run_json(capsys, "z0", str(system))
            assert Matrix([[parse_scalar(x) for x in row]
                           for row in payload["z0"]]) == riemann_family(system).z0
            payload = run_json(capsys, "gram", str(system))
            assert Matrix([[parse_scalar(x) for x in row]
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

    def test_cap_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["group-order", "G2"])
        assert exc.value.code == 2

    def test_nonpositive_cap_exits_2(self, capsys):
        code, _, err = run(capsys, "group-order", "G2", "--cap", "0")
        assert code == 2
        assert "cap" in err


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
        code, _, _ = run(capsys, "fixed-space", str(f))
        assert code == 2

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
        import weylppav.cli as cli_mod

        failing = {"max_rank": 2, "sections": [],
                   "summary": {"pass": 0, "documented_discrepancy": 0, "fail": 1},
                   "status": "fail"}
        monkeypatch.setattr(cli_mod, "run_verification", lambda rank: failing)
        code, out, _ = run(capsys, "verify-all", "--max-rank", "2")
        assert code == 1
        assert json.loads(out)["status"] == "fail"
