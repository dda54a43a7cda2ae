import json
import os
import subprocess
import sys

import pytest

from latticecft import blocks, cli
from latticecft.blocks import s_matrix
from latticecft.cli import render_report, run
from latticecft.lattices import E8_GRAM

A2 = "[[2,1],[1,2]]"
SPHERE = '{"components":[{"genus":0,"boundaries":[]}]}'
TORUS = '{"components":[{"genus":1,"boundaries":[]}]}'
DISK = '{"components":[{"genus":0,"boundaries":[{"id":"c0","orientation":"out"}]}]}'


def invoke(argv):
    code, payload, _ = run(argv)
    return code, json.loads(payload.decode())


def invoke_process(argv):
    """Run the CLI as `python -m latticecft` on this checkout's sources."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "latticecft", *argv],
                          capture_output=True, env=env)


def assert_refused(argv, error_kind):
    """A refused input: exit 2 at once, one JSON line with the error kind,
    no traceback."""
    proc = invoke_process(argv)
    assert proc.returncode == 2
    assert proc.stderr == b""
    (line,) = proc.stdout.splitlines()
    assert json.loads(line)["error_kind"] == error_kind


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestDisc:
    def test_inline_a1(self):
        code, rep = invoke(["disc", "--lattice", "[[2]]"])
        assert code == 0
        assert rep["results"]["invariant_factors"] == [2]
        assert rep["results"]["order"] == 2
        assert rep["format"] == 1
        assert {"command", "inputs_digest", "seed", "results"} <= set(rep)

    def test_file_input(self, tmp_path):
        path = tmp_path / "lat.json"
        path.write_text('{"gram": [[2,1],[1,2]]}')
        code, rep = invoke(["disc", "--lattice", str(path)])
        assert code == 0 and rep["results"]["order"] == 3

    def test_malformed_json(self):
        code, rep = invoke(["disc", "--lattice", "[[2,"])
        assert code == 2
        assert rep["error_kind"] == "parse"

    def test_odd_diagonal_error_kind(self):
        code, rep = invoke(["disc", "--lattice", "[[1]]"])
        assert code == 2
        assert rep["error_kind"] == "OddDiagonal"

    def test_non_integral_entry_is_refused(self):
        # not truncated to [[2]] or to an odd diagonal, and no traceback
        for gram in ("[[2.5]]", "[[3.9,1],[1,2]]", "[[Infinity]]"):
            assert_refused(["disc", "--lattice", gram], "validation")

    def test_group_over_budget_is_refused(self):
        # |A| is about 1.6e11: the Gauss sum is refused before any work
        assert_refused(["disc", "--lattice", "[[2000,1,0],[1,4000,3],[0,3,20000]]"],
                       "GroupTooLarge")


class TestBlocks:
    def test_sphere_dimension_one(self):
        code, rep = invoke(["blocks", "--surface", SPHERE])
        assert code == 0 and rep["results"]["dimension"] == 1

    def test_torus_with_lattice(self):
        code, rep = invoke(["blocks", "--surface", TORUS, "--lattice", A2])
        assert code == 0 and rep["results"]["dimension"] == 3

    def test_labeled_boundary(self):
        surf = ('{"components":[{"genus":1,"boundaries":'
                '[{"id":"c","orientation":"out"}]}]}')
        code, rep = invoke(["blocks", "--surface", surf, "--lattice", A2,
                            "--labels", '{"c": [1]}'])
        assert code == 0 and rep["results"]["dimension"] == 0


class TestFactorize:
    def test_genus_two_split(self):
        genus2 = '{"components":[{"genus":2,"boundaries":[]}]}'
        pieces = ('[{"components":[{"genus":1,"boundaries":'
                  '[{"id":"x","orientation":"out"}]}]},'
                  '{"components":[{"genus":1,"boundaries":'
                  '[{"id":"y","orientation":"in"}]}]}]')
        code, rep = invoke(["factorize", "--surface", genus2,
                            "--pieces", pieces,
                            "--matching", '[["x","y"]]',
                            "--lattice", "[[2]]", "--terms"])
        assert code == 0
        assert rep["results"]["lhs"] == rep["results"]["rhs"] == 4
        assert rep["results"]["equal"] is True
        assert len(rep["results"]["terms"]) == 2

    @staticmethod
    def three_circle_argv(lattice):
        """A genus-3 closed surface from a sphere with three glued pairs."""
        circles = [{"id": f"{d}{i}", "orientation": o} for i in range(3)
                   for d, o in (("o", "out"), ("i", "in"))]
        piece = {"components": [{"genus": 0, "boundaries": circles}]}
        return ["factorize", "--surface", '{"components":[{"genus":3,"boundaries":[]}]}',
                "--pieces", json.dumps([piece]),
                "--matching", json.dumps([[f"o{i}", f"i{i}"] for i in range(3)]),
                "--lattice", lattice]

    def test_sum_over_budget_is_refused(self):
        # 512^3 label assignments, over DENSE_ENTRY_BUDGET
        assert_refused(self.three_circle_argv("[[512]]"), "GroupTooLarge")

    def test_sum_at_budget_is_answered(self):
        # 256^3 = 2^24 label assignments, summed in bounded slabs
        code, rep = invoke(self.three_circle_argv("[[256]]"))
        assert code == 0
        assert rep["results"] == {"lhs": 256 ** 3, "rhs": 256 ** 3, "equal": True}

    def test_invalid_split_error(self):
        genus2 = '{"components":[{"genus":2,"boundaries":[]}]}'
        code, rep = invoke(["factorize", "--surface", genus2,
                            "--pieces", f"[{TORUS}]", "--matching", "[]"])
        assert code == 2 and rep["error_kind"] == "InvalidSplit"


class TestModular:
    def test_relations_hold(self):
        code, rep = invoke(["modular", "--lattice", A2])
        assert code == 0
        assert rep["results"]["ok"] is True
        assert rep["results"]["signature_mod8"] == 2
        assert rep["results"]["central_charge_exponent"] == "2"

    def test_builds_s_once(self, monkeypatch):
        calls = []

        def counting_s_matrix(disc):
            calls.append(disc.order)
            return s_matrix(disc)

        monkeypatch.setattr(blocks, "s_matrix", counting_s_matrix)
        code, _ = invoke(["modular", "--lattice", "[[12]]"])
        assert code == 0
        assert calls == [12]


class TestVerlinde:
    def test_sphere(self):
        code, rep = invoke(["verlinde", "--surface", SPHERE,
                            "--lattice", A2])
        assert code == 0
        assert rep["results"]["rounded"] == rep["results"]["block_dimension"] == 1


    def test_closed_genus_36_is_exact(self):
        surface = '{"components":[{"genus":36,"boundaries":[]}]}'
        code, rep = invoke(["verlinde", "--surface", surface,
                            "--lattice", "[[2]]"])
        assert code == 0
        assert rep["results"]["rounded"] == 68719476736
        assert rep["results"]["block_dimension"] == 68719476736
        assert rep["results"]["equal"] is True

    def test_past_float_range_writes_null(self):
        surface = '{"components":[{"genus":1100,"boundaries":[]}]}'
        proc = invoke_process(["verlinde", "--surface", surface,
                               "--lattice", "[[2]]"])
        assert proc.returncode == 0
        assert proc.stderr == b""
        rep = json.loads(proc.stdout, parse_constant=refuse_constant)
        res = rep["results"]
        assert res["rounded"] == res["block_dimension"] == 2 ** 1100
        assert res["equal"] is True
        assert res["verlinde_re"] is None and res["deviation"] is None

    def test_high_prime_power_level_is_exact(self):
        # one outgoing circle labelled 1 on a torus: the character sum has
        # level 16384, reduced modulo Phi_2(x^8192)
        surface = ('{"components":[{"genus":1,"boundaries":'
                   '[{"id":"c0","orientation":"out"}]}]}')
        code, rep = invoke(["verlinde", "--surface", surface,
                            "--lattice", "[[16384]]", "--labels", '{"c0":[1]}'])
        assert code == 0
        assert rep["results"]["equal"] is True
        assert rep["results"]["block_dimension"] == 0


class TestTheta:
    def test_theta3(self):
        code, rep = invoke(["theta", "--tau", '{"re": 0, "im": 1}',
                            "--z", "0", "--char", "0,0", "--tol", "1e-10"])
        assert code == 0
        res = rep["results"]
        assert abs(res["value_re"] - 1.0864348112133080) < 1e-9
        assert abs(res["value_im"]) < 1e-12
        assert res["tail_bound"] < 1e-10
        assert isinstance(res["R"], int)

    def test_fraction_characteristics(self):
        code, rep = invoke(["theta", "--tau", '{"re": 0, "im": 1}',
                            "--z", "0", "--char", '"1/2","1/2"'])
        assert code == 0
        assert abs(rep["results"]["value_re"]) < 1e-12
        assert abs(rep["results"]["value_im"]) < 1e-12

    def test_e8_period_matrix_is_refused(self):
        # tau = i G_E8 asks for a radius-41 box, 83^8 points
        assert_refused(["theta", "--tau", json.dumps({"im": E8_GRAM}),
                        "--z", json.dumps([0] * 8)], "GroupTooLarge")


class TestFock:
    def test_character_vacuum(self):
        code, rep = invoke(["fock", "character", "--lattice", "[[2]]",
                            "--phi", "0", "--max-energy", "3"])
        assert code == 0
        assert rep["results"]["ground_energy"] == "0"
        assert rep["results"]["coefficients"] == [1, 3, 4, 7]

    def test_character_twisted(self):
        code, rep = invoke(["fock", "character", "--lattice", "[[2]]",
                            "--phi", "1", "--max-energy", "2"])
        assert code == 0
        assert rep["results"]["ground_energy"] == "1/4"
        assert rep["results"]["coefficients"] == [2, 2, 6]

    def test_e8_character_box_is_refused(self):
        # the offsets box at E = 2 has 43^8 points
        assert_refused(["fock", "character", "--lattice", json.dumps(E8_GRAM),
                        "--phi", "0", "--max-energy", "2"], "GroupTooLarge")

    def test_negative_max_energy_is_validation_error(self):
        code, rep = invoke(["fock", "character", "--lattice", "[[2]]",
                            "--max-energy", "-1"])
        assert code == 2
        assert rep["error_kind"] == "validation"
        assert "max_energy" in rep["detail"]


class TestHeisenberg:
    def test_export(self):
        code, rep = invoke(["heisenberg", "--lattice", "[[2]]", "--genus", "1"])
        assert code == 0
        res = rep["results"]
        assert res["dimension"] == 2
        assert len(res["generators"]) == 2

    def test_genus_12_is_refused(self):
        # 24 generator matrices of size 4096^2, over the dense-entry budget
        assert_refused(["heisenberg", "--lattice", "[[2]]", "--genus", "12"], "GroupTooLarge")


class TestDeterminism:
    def test_byte_identical_reports(self):
        argv = ["disc", "--lattice", A2, "--seed", "42"]
        assert render_report(argv) == render_report(argv)

    def test_seed_recorded(self):
        code, rep = invoke(["disc", "--lattice", A2, "--seed", "7"])
        assert rep["seed"] == 7

    def test_output_file(self, tmp_path):
        out = tmp_path / "report.json"
        proc = subprocess.run(
            [sys.executable, "-m", "latticecft", "disc", "--lattice", "[[2]]",
             "--output", str(out)],
            capture_output=True)
        assert proc.returncode == 0
        data = json.loads(out.read_text())
        assert data["results"]["order"] == 2


class TestGoldenReports:
    def test_reports_unchanged(self):
        # pairs of lines: the argv as JSON, then its report bytes
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                            "reports.txt")
        with open(path, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        assert len(lines) == 36
        for argv_line, report in zip(lines[0::2], lines[1::2]):
            assert render_report(json.loads(argv_line)) == report, argv_line


class TestRefusals:
    @pytest.mark.parametrize("argv", [
        ["blocks", "--surface", TORUS, "--labels", "[1,2]"],
        ["blocks", "--surface", TORUS, "--labels", '"x"'],
        ["blocks", "--surface", TORUS, "--labels", "5"],
        ["blocks", "--surface", '{"components":[5]}'],
    ])
    def test_malformed_json_shape_is_parse_error(self, argv):
        assert_refused(argv, "parse")

    @pytest.mark.parametrize("labels", ['{"c0":[1.7]}', '{"c0":[true]}', '{"c0":true}'])
    def test_non_integral_label_is_refused(self, labels):
        # each was read as the label 1
        assert_refused(["blocks", "--surface", DISK, "--lattice", "[[4]]",
                        "--labels", labels], "validation")

    def test_label_shorthand_is_kept(self):
        code, rep = invoke(["blocks", "--surface", DISK, "--lattice", "[[4]]",
                            "--labels", '{"c0": 0}'])
        assert code == 0 and rep["results"]["dimension"] == 1

    @pytest.mark.parametrize("genus", ["1.5", '"2"', "true"])
    def test_non_integral_genus_is_refused(self, genus):
        # read as 1, 2 and 1 before
        assert_refused(["blocks", "--surface",
                        f'{{"components":[{{"genus":{genus},"boundaries":[]}}]}}'],
                       "validation")

    def test_nan_tolerance_is_refused(self):
        # every numerical criterion would fail, an exit 1 without a failed identity
        assert_refused(["accept", "--tolerance", "nan"], "validation")

    def test_nan_theta_tol_is_refused(self):
        assert_refused(["theta", "--tau", '{"im": 1}', "--z", "0", "--tol", "nan"],
                       "validation")

    def test_infinite_characteristic_is_refused(self):
        # Fraction(inf) raised OverflowError, a traceback
        code, rep = invoke(["theta", "--tau", '{"im": 1}', "--z", "0", "--char", "Infinity,0"])
        assert code == 2 and rep["error_kind"] == "validation"

    def test_program_fault_is_not_a_parse_refusal(self, monkeypatch):
        def broken(disc):
            raise KeyError("a fault inside the library")

        monkeypatch.setattr(cli.lattices, "gauss_sum", broken)
        with pytest.raises(KeyError):
            run(["disc", "--lattice", "[[2]]"])


class TestExitCodes:
    def test_verification_failure_is_exit_one(self, tmp_path):
        # a lying surface: claim the factorization of a torus against genus 2
        genus2 = '{"components":[{"genus":2,"boundaries":[]}]}'
        pieces = ('[{"components":[{"genus":1,"boundaries":'
                  '[{"id":"p","orientation":"out"},'
                  '{"id":"q","orientation":"in"}]}]}]')
        code, rep = invoke(["factorize", "--surface", genus2,
                            "--pieces", pieces, "--matching", '[["p","q"]]',
                            "--lattice", "[[2]]"])
        # this split is valid and the identity holds, so exit 0;
        # the exit-1 path is exercised through accept --defect below
        assert code == 0 and rep["results"]["equal"] is True

    def test_negative_tolerance_is_validation_error(self):
        code, rep = invoke(["accept", "--tolerance", "-1"])
        assert code == 2
        assert rep["error_kind"] == "validation"
        assert rep["detail"] == "tolerance override must be nonnegative"

    def test_accept_defect_fails(self):
        code, rep = invoke(["accept", "--defect", "s_sign_flip"])
        assert code == 1
        by_id = {row["id"]: row["passed"] for row in rep["results"]["criteria"]}
        assert by_id[5] is False
        assert rep["results"]["all_passed"] is False
