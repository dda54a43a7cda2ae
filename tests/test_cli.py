import json
import os
import re
import subprocess
import sys
import time

import pytest

from latticecft import blocks, cli
from latticecft.blocks import s_matrix
from latticecft.cli import render_report, run
from latticecft.lattices import E8_GRAM

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
REPORTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "reports.txt")
A2 = "[[2,1],[1,2]]"
SPHERE = '{"components":[{"genus":0,"boundaries":[]}]}'
TORUS = '{"components":[{"genus":1,"boundaries":[]}]}'
DISK = '{"components":[{"genus":0,"boundaries":[{"id":"c0","orientation":"out"}]}]}'


def invoke(argv):
    code, payload, _ = run(argv)
    return code, json.loads(payload.decode())


def invoke_process(argv):
    """Run the CLI as `python -m latticecft` on this checkout's sources."""
    return subprocess.run([sys.executable, "-m", "latticecft", *argv],
                          capture_output=True, env=dict(os.environ, PYTHONPATH=SRC))


def golden_reports():
    """(argv, report bytes) pairs: in the file, the argv as a JSON line and
    then its report."""
    with open(REPORTS, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    return [(json.loads(argv), report)
            for argv, report in zip(lines[0::2], lines[1::2], strict=True)]


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

    def test_terms_over_budget_are_refused_at_once(self):
        # 2^24 terms: the sum is within its budget, a list of its terms is not
        start = time.perf_counter()
        assert_refused(self.three_circle_argv("[[256]]") + ["--terms"], "GroupTooLarge")
        assert time.perf_counter() - start < 1.0

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

    def test_value_past_float_range_is_refused(self):
        # wrote "value_re":Infinity, not JSON, after an overflow warning
        code, rep = invoke(["theta", "--tau", '{"im": 1}', "--z", '{"im": 20}'])
        assert code == 2 and rep["error_kind"] == "TruncationOverflow"

    def test_large_finite_value_is_answered(self):
        # about e^(196 pi): near the top of the float range, still an answer
        code, rep = invoke(["theta", "--tau", '{"im": 1}', "--z", '{"im": 14}'])
        assert code == 0
        assert rep["results"]["value_re"] == pytest.approx(2.842948717153185e+267, rel=1e-12)


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

    @pytest.mark.parametrize("max_energy", ["4096", "5000"])
    def test_long_q_series_is_refused(self, max_energy):
        # (E + 1)^2 rank series steps over 2^24: E = 5000 ran 3.3 s before it was refused
        code, rep = invoke(["fock", "character", "--lattice", "[[2]]",
                            "--max-energy", max_energy])
        assert code == 2 and rep["error_kind"] == "GroupTooLarge"


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


class TestReportTooLarge:
    # on [[6]] a closed genus-g surface has 6^g blocks: 4,669 digits at g = 6000,
    # past the 4,300 that int-to-str conversion allows, and 3,891 at g = 5000
    @staticmethod
    def closed(genus):
        return json.dumps({"components": [{"genus": genus, "boundaries": []}]})

    @pytest.mark.parametrize("command", ["blocks", "verlinde"])
    def test_refused_not_a_traceback(self, command):
        assert_refused([command, "--lattice", "[[6]]", "--surface", self.closed(6000)],
                       "output")

    @pytest.mark.parametrize("command", ["blocks", "verlinde"])
    def test_below_the_limit_answers(self, command):
        proc = invoke_process([command, "--lattice", "[[6]]", "--surface", self.closed(5000)])
        assert proc.returncode == 0 and proc.stderr == b""
        results = json.loads(proc.stdout)["results"]
        assert results.get("dimension", results.get("block_dimension")) == 6 ** 5000

    @classmethod
    def argv(cls, command, genus):
        """`command` on a closed genus-g surface over [[6]]; factorize cuts
        one handle, a piece of genus g - 1 glued to itself."""
        argv = [command, "--lattice", "[[6]]", "--surface", cls.closed(genus)]
        if command == "factorize":
            circles = [{"id": "o", "orientation": "out"}, {"id": "i", "orientation": "in"}]
            piece = {"components": [{"genus": genus - 1, "boundaries": circles}]}
            argv += ["--pieces", json.dumps([piece]), "--matching", '[["o", "i"]]']
        return argv

    @pytest.mark.parametrize("command", ["blocks", "verlinde", "factorize"])
    def test_absurd_genus_is_refused_before_the_power(self, command):
        # 6^(10^8) has 77.8 million digits: forming it took seconds before
        # the same refusal, at genus 10^7 already
        start = time.perf_counter()
        proc = invoke_process(self.argv(command, 10 ** 8))
        assert time.perf_counter() - start < 1
        assert proc.returncode == 2 and proc.stderr == b""
        assert json.loads(proc.stdout) == cli._refusal(
            command, "output", "the result is too large to write: it holds an integer "
            f"of over {sys.get_int_max_str_digits()} digits")

    def test_factorize_below_the_limit_answers(self):
        proc = invoke_process(self.argv("factorize", 5000))
        assert proc.returncode == 0 and proc.stderr == b""
        assert json.loads(proc.stdout)["results"] == {"lhs": 6 ** 5000, "rhs": 6 ** 5000,
                                                      "equal": True}


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

    @pytest.mark.parametrize("target", ["missing/report.json", "."])
    def test_unwritable_output_is_refused(self, target, tmp_path, monkeypatch, capsysbinary):
        # a missing directory, and a directory: both raised out of main
        monkeypatch.setattr(sys, "argv", ["latticecft", "disc", "--lattice", "[[2]]",
                                          "--output", str(tmp_path / target)])
        with pytest.raises(SystemExit) as exited:
            cli.main()
        assert exited.value.code == 2
        out, err = capsysbinary.readouterr()
        (line,) = out.splitlines()
        assert json.loads(line)["error_kind"] == "output"
        assert err == b""


    @pytest.mark.parametrize("target", ["missing/x.json", "."])
    def test_unwritable_output_is_refused_before_computing(self, target, tmp_path,
                                                           monkeypatch, capsysbinary):
        # genus 9 would spend seconds on a report with nowhere to go
        def never(args):
            raise AssertionError("the handler ran")

        monkeypatch.setitem(cli.HANDLERS, "heisenberg", never)
        monkeypatch.setattr(sys, "argv", ["latticecft", "heisenberg", "--lattice", "[[2]]",
                                          "--genus", "9", "--output", str(tmp_path / target)])
        with pytest.raises(SystemExit) as exited:
            cli.main()
        assert exited.value.code == 2
        (line,) = capsysbinary.readouterr().out.splitlines()
        assert json.loads(line)["error_kind"] == "output"

    def test_output_is_not_touched_before_the_handler_succeeds(self, tmp_path, monkeypatch):
        out = tmp_path / "report.json"
        out.write_bytes(b"kept")

        def failing(args):
            assert out.read_bytes() == b"kept"
            raise AssertionError("the handler failed")

        monkeypatch.setitem(cli.HANDLERS, "disc", failing)
        monkeypatch.setattr(sys, "argv", ["latticecft", "disc", "--lattice", "[[2]]",
                                          "--output", str(out)])
        with pytest.raises(AssertionError, match="handler failed"):
            cli.main()
        assert out.read_bytes() == b"kept"

    def test_one_parser_serves_every_run(self):
        # a refusal leaves nothing behind in the cached argparse tree
        assert cli.build_parser() is cli.build_parser()
        assert run(["disc", "--lattice", "[[2]]", "--bogus"])[0] == 2
        assert run(["disc", "--lattice", "[[3]]"])[0] == 2
        good = ["disc", "--lattice", A2, "--seed", "7"]
        proc = invoke_process(good)
        assert proc.returncode == 0 and run(good)[1] == proc.stdout


class TestGoldenReports:
    def test_reports_unchanged(self):
        reports = golden_reports()
        assert len(reports) == 22
        for argv, report in reports:
            assert render_report(argv) == report, argv


# `python -m latticecft ARGV` that, on its way out, writes the names of the
# latticecft modules it loaded to PATH (its first argument)
CHILD = """
import runpy, sys
path = sys.argv.pop(1)
try:
    runpy.run_module("latticecft", run_name="__main__", alter_sys=True)
finally:
    with open(path, "w") as fh:
        fh.write(" ".join(m for m in sys.modules if m.startswith("latticecft.")))
"""
LOADED_BY_CLI = {"cli", "errors", "exact", "lattices", "surfaces"}
EVERY_MODULE = {name.removesuffix(".py") for name in os.listdir(os.path.join(SRC, "latticecft"))
                if name.endswith(".py") and not name.startswith("__")}
LAYER = {"disc": set(), "blocks": {"blocks"}, "factorize": {"blocks"}, "modular": {"blocks"},
         "verlinde": {"blocks"}, "theta": {"theta"}, "fock": {"fock"},
         "heisenberg": {"heisenberg"}, "accept": EVERY_MODULE}
# accept writes each criterion's wall time to stderr, one line each and in order
STDERR = {"accept": b"".join(rb"criterion %02d \[PASS\] [^\n]*\n" % cid
                             for cid in range(1, 11))}
# reports.txt pins no modular or theta report: their last bits depend on the
# machine's BLAS and SIMD exp, so these two are held to the in-process bytes
UNPINNED = {"modular": ["modular", "--lattice", A2],
            "theta": ["theta", "--tau", '{"re": 0, "im": 1}', "--z", "0"]}


class TestFreshProcess:
    """Each subcommand in a fresh process, which loads only the layer it
    runs; accept loads every layer.  In-process tests run with every
    module loaded already."""

    @pytest.fixture(scope="class")
    def children(self, tmp_path_factory):
        cases = {}
        for argv, report in golden_reports():  # the first stored argv of each subcommand
            cases.setdefault(argv[0], (argv, report))
        cases.update((cmd, (argv, render_report(argv))) for cmd, argv in UNPINNED.items())
        env = dict(os.environ, PYTHONPATH=SRC)
        out, started = tmp_path_factory.mktemp("modules"), {}
        try:  # all at once: the children's start-ups overlap
            for cmd in LAYER:
                argv, report = cases[cmd]
                path = out / cmd
                proc = subprocess.Popen([sys.executable, "-c", CHILD, str(path), *argv],
                                        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                started[cmd] = proc, path, report
            yield started
        finally:
            for proc, _, _ in started.values():
                proc.kill()
                proc.communicate()

    @pytest.mark.parametrize("cmd", sorted(LAYER))
    def test_report_and_loaded_layers(self, children, cmd):
        proc, path, report = children[cmd]
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0  # every stored report is an answer
        assert stdout == report
        assert re.fullmatch(STDERR.get(cmd, b""), stderr)
        loaded = {m.removeprefix("latticecft.") for m in path.read_text().split()}
        assert loaded == LOADED_BY_CLI | LAYER[cmd]


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

    @pytest.mark.parametrize("argv, error_kind, detail", [
        (["blocks", "--surface", '{"components":[{"genus":-1,"boundaries":[]}]}'],
         "validation", "genus must be nonnegative"),
        (["blocks", "--surface", DISK.replace('"out"', '"sideways"')],
         "OrientationMismatch", "got 'sideways'"),
        (["fock", "character", "--lattice", "[[2]]", "--phi", "0,1"],
         "validation", "coordinate length does not match invariant factors"),
        (["blocks", "--surface", DISK, "--labels", '{"c0":[0,1]}'],
         "validation", "coordinate length does not match invariant factors"),
        (["factorize", "--surface", TORUS, "--matching", "[]", "--pieces",
          f"[{DISK},{DISK.replace('c0', 'c1')},{DISK.replace('c0', 'c2')}]"],
         "InvalidSplit", "one self-glued piece or two pieces"),
        (["theta", "--tau", "[[1,2]]", "--z", "0"], "NotPositiveDefinite", "tau must be square"),
        (["theta", "--tau", '{"im":[[1,0],[0,1]]}', "--z", "[0,0]", "--char", "[0,0],[0]"],
         "validation", "characteristics must have equal length"),
        (["theta", "--tau", '{"re":0,"im":1}', "--z", "0", "--char", "[0,0],[0,0]"],
         "validation", "z length does not match the characteristic length"),
    ])
    def test_refusal_names_its_guard(self, argv, error_kind, detail):
        code, rep = invoke(argv)
        assert code == 2
        assert rep["error_kind"] == error_kind
        assert detail in rep["detail"]

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
        # the exit-1 path is exercised through accept with a negated S below
        assert code == 0 and rep["results"]["equal"] is True

    def test_negative_tolerance_is_validation_error(self):
        code, rep = invoke(["accept", "--tolerance", "-1"])
        assert code == 2
        assert rep["error_kind"] == "validation"
        assert rep["detail"] == "tolerance override must be nonnegative"

    def test_accept_defect_fails(self, monkeypatch):
        monkeypatch.setattr(blocks, "s_matrix", lambda disc: -s_matrix(disc))
        code, rep = invoke(["accept"])
        assert code == 1
        by_id = {row["id"]: row["passed"] for row in rep["results"]["criteria"]}
        assert by_id[5] is False
        assert rep["results"]["all_passed"] is False
