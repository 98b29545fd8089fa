import json
import logging
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from seshadri import cli, constants, oracle
from seshadri.cli import (
    EXIT_HYPOTHESIS,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    load_instance,
    main,
    run,
)
from seshadri.constants import CurveCertificate

from conftest import bundled


def run_report(argv):
    report, code, _ = run(argv)
    return report, code


class TestCommands:
    def test_classify_fermat(self, capsys):
        code = main(["classify", bundled("fermat-cubic")])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out == (
            "command: classify\n"
            "ambient.cut_out_degree: 1\n"
            "ambient.line_scheme_dimension: 2\n"
            'seshadri.assumptions: ["i: complete intersection of codimension r (verified)", '
            '"ii: ambient line scheme large enough (verified)", '
            '"iii: d_p(Y) <= d_r (verified)", "line scheme of X empty (verified)"]\n'
            "seshadri.cut_out_degree: 3\n"
            "seshadri.epsilon: 3/2\n"
            "seshadri.line_scheme_dimension: -1\n"
            "seshadri.lower_bound: 3/2\n"
            "seshadri.status: EXACT\n"
        )

    def test_oracle_human_output(self, capsys):
        code = main(["oracle", bundled("quadric-surface"), "--primes", "5", "--conics"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == (
            "command: oracle\n"
            "oracle.5.conic.attempts: 5\n"
            "oracle.5.conic.found: True\n"
            "oracle.5.conic.inconclusive: False\n"
            "oracle.5.conic.witness: [[1, 0, 0, 0], [4, 1, 2, 0], [0, 4, 0, 2]]\n"
            "oracle.5.directions: [[0, 0, 1, 0], [0, 1, 0, 0]]\n"
            "oracle.5.line_count: 2\n"
        )

    def test_oracle_wide_fields(self, capsys):
        # past q of about 2^32 a field of the conic search's packed sum is
        # wider than 8 bytes; the report reads 200 inconclusive draws
        large = (4294967311, 2**61 - 1)
        code = main(
            ["oracle", bundled("gr24-hyperplanes"), "--primes", "%d,%d" % large, "--conics"]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out == "command: oracle\n" + "".join(
            f"oracle.{q}.conic.attempts: 200\n"
            f"oracle.{q}.conic.found: False\n"
            f"oracle.{q}.conic.inconclusive: True\n"
            f"oracle.{q}.conic.witness: None\n"
            f"oracle.{q}.directions: []\n"
            f"oracle.{q}.line_count: 0\n"
            for q in sorted(map(str, large))
        )

    def test_bound_fermat(self):
        report, code = run_report(["bound", bundled("fermat-cubic")])
        assert code == EXIT_OK
        seshadri = report["result"]["seshadri"]
        assert seshadri["status"] == "LOWER_BOUND_ONLY"
        assert seshadri["lower_bound"] == "3/2"
        assert seshadri["cut_out_degree"] == 3

    def test_fano_quadric(self):
        report, code = run_report(["fano", bundled("quadric-surface")])
        assert code == EXIT_OK
        scheme = report["result"]["line_scheme"]
        assert scheme["dimension"] == 0
        assert scheme["degree"] == 2

    def test_dp_twisted_cubic(self):
        report, code = run_report(["dp", bundled("twisted-cubic")])
        assert code == EXIT_OK
        assert report["result"]["cut_out_degree"] == 2
        assert report["result"]["variety"]["degree"] == 3

    def test_classify_gr24(self):
        report, code = run_report(["classify", bundled("gr24-hyperplanes")])
        assert code == EXIT_OK
        assert report["result"]["seshadri"]["epsilon"] == "2"

    def test_curve_two_quadrics(self):
        report, code = run_report(["curve", bundled("two-quadrics-p4"), "--seed", "1"])
        assert code == EXIT_OK
        cert = report["result"]["certificate"]
        assert cert["ratio"] == "2"
        assert cert["degree"] == 4
        assert cert["multiplicity"] == 2

    def test_sharpness(self):
        report, code = run_report(["sharpness", "2", "4", "--seed", "1"])
        assert code == EXIT_OK
        assert report["result"]["certificate"]["ratio"] == "4/3"

    def test_oracle_quadric(self):
        report, code = run_report(["oracle", bundled("quadric-surface")])
        assert code == EXIT_OK
        for q in ("5", "7", "11"):
            assert report["result"]["oracle"][q]["line_count"] == 2

    def test_oracle_gr25_lines(self):
        # Gr(2,5) has (q + 1)(q^2 + q + 1) lines through a point over F_q
        report, code = run_report(
            ["oracle", bundled("gr25-pluecker"), "--primes", "7,11"]
        )
        assert code == EXIT_OK
        for q, count in (("7", 456), ("11", 1596)):
            assert report["result"]["oracle"][q]["line_count"] == count

    def test_oracle_exponents_above_q(self, tmp_path):
        # q = 5 < degree: the line test expands coefficients, and the base-5
        # digits of 20000 keep (p_i + v_i*t)^20000 short; the 6 lines are
        # the directions in x0 = x1 = 0
        high = tmp_path / "high.json"
        high.write_text(json.dumps({
            "variables": ["x0", "x1", "x2", "x3"],
            "ambient": [],
            "cutting": [{"expression": "x0^19999*x1 - x1^20000", "degree": 20000}],
            "point": ["1", "0", "0", "0"],
        }))
        report, code = run_report(["oracle", str(high), "--primes", "5"])
        assert code == EXIT_OK
        assert report["result"]["oracle"]["5"]["line_count"] == 6

    def test_oracle_limit_is_reported_per_prime(self):
        large = 2**61 - 1
        report, code = run_report(
            ["oracle", bundled("quadric-surface"), "--primes", f"5,{large}"]
        )
        assert code == EXIT_OK
        oracle = report["result"]["oracle"]
        assert oracle["5"]["line_count"] == 2
        assert "exceed the enumeration limit" in oracle[str(large)]["error"]

    @staticmethod
    def _assert_primes_run_once(monkeypatch, argv):
        # a prime listed twice is scanned and searched once, in first-seen order
        scanned = []
        original = cli.count_lines_mod_q

        def counting(instance):
            scanned.append(instance.prime)
            return original(instance)

        monkeypatch.setattr(cli, "count_lines_mod_q", counting)
        report, code = run_report(argv)
        assert code == EXIT_OK
        assert scanned == [7, 5]
        assert report["flags"]["primes"] == [7, 5]
        assert list(report["result"]["oracle"]) == ["7", "5"]

    def test_oracle_repeated_primes_run_once(self, monkeypatch):
        self._assert_primes_run_once(
            monkeypatch,
            ["oracle", bundled("quadric-surface"), "--primes", "7,5,7,5", "--conics"],
        )

    def test_oracle_repeated_primes_in_the_file_run_once(self, monkeypatch, tmp_path):
        raw = json.loads(Path(bundled("quadric-surface")).read_text())
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps({**raw, "primes": [7, 5, 7]}))
        self._assert_primes_run_once(monkeypatch, ["oracle", str(path), "--conics"])

    def test_oracle_with_conics(self):
        report, code = run_report(
            ["oracle", bundled("gr24-hyperplanes"), "--conics", "--primes", "11"]
        )
        assert code == EXIT_OK
        entry = report["result"]["oracle"]["11"]
        assert entry["conic"]["found"] is True

    def test_refused_conic_expansion_is_an_error_entry(self, monkeypatch):
        # past the conic term limit the prime's conic search is refused
        # before its expansion is built; its line count stays
        monkeypatch.setattr(oracle, "CONIC_TERM_LIMIT", 0)
        report, code = run_report(
            ["oracle", bundled("gr24-hyperplanes"), "--conics", "--primes", "11"]
        )
        assert code == EXIT_OK
        entry = report["result"]["oracle"]["11"]
        assert entry["line_count"] >= 0
        assert entry["conic"] == {
            "error": "the conic expansion may hold 34 terms, more than the limit 0"
        }

    def test_validate_flag(self):
        report, code = run_report(["dp", bundled("quadric-surface"), "--validate"])
        assert code == EXIT_OK

    def test_reused_parser_keeps_no_flag_between_runs(self):
        cli._parser.cache_clear()
        first, _ = run_report(["dp", bundled("quadric-surface"), "--validate"])
        second, code = run_report(["dp", bundled("quadric-surface")])
        assert code == EXIT_OK
        assert first["flags"]["validate"] is True
        assert second["flags"]["validate"] is False
        assert cli._parser.cache_info().misses == 1

    def test_validate_accepts_saturated_ideal_without_nonzerodivisor(self, tmp_path):
        # (x0*x1, x0*x2) = (x0) ∩ (x1, x2) is saturated, and each variable
        # vanishes on one of its components
        reducible = tmp_path / "reducible.json"
        reducible.write_text(json.dumps({
            "variables": ["x0", "x1", "x2"],
            "ambient": ["x0*x1", "x0*x2"],
            "cutting": [],
            "point": ["1", "0", "0"],
        }))
        report, code = run_report(["dp", str(reducible), "--validate"])
        assert code == EXIT_OK
        assert report["result"]["cut_out_degree"] == 2

    def test_downgraded_classify_leaves_the_conic_search_to_the_oracle(self, tmp_path):
        # without the flag classify reports the certified lower bound 2 and
        # runs no conic search; `oracle --conics` is the mod-q cross-check
        raw = json.loads(Path(bundled("gr24-hyperplanes")).read_text())
        raw["ambient_homogeneous"] = False
        unflagged = tmp_path / "unflagged.json"
        unflagged.write_text(json.dumps(raw))
        report, code = run_report(["classify", str(unflagged)])
        assert code == EXIT_OK
        seshadri = report["result"]["seshadri"]
        assert (seshadri["status"], seshadri["lower_bound"]) == ("LOWER_BOUND_ONLY", "2")
        assert "oracle" not in report["result"]
        assert "seshadri oracle --conics" in seshadri["assumptions"][-1]
        report, code = run_report(["oracle", str(unflagged), "--conics"])
        assert code == EXIT_OK
        conics = {q: entry["conic"] for q, entry in report["result"]["oracle"].items()}
        assert {q: (c["found"], c["attempts"]) for q, c in conics.items()} == {
            "7": (True, 3), "11": (True, 10), "13": (True, 3)
        }


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        main(["classify", bundled("fermat-cubic"), "--json", str(first)])
        main(["classify", bundled("fermat-cubic"), "--json", str(second)])
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_rationals_round_trip(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        main(["classify", bundled("fermat-cubic"), "--json", str(target)])
        capsys.readouterr()
        reloaded = json.loads(target.read_text())
        assert Fraction(reloaded["result"]["seshadri"]["epsilon"]) == Fraction(3, 2)
        assert Fraction(reloaded["result"]["seshadri"]["lower_bound"]) == Fraction(3, 2)

    def test_curve_deterministic_with_seed(self):
        a, _ = run_report(["curve", bundled("two-quadrics-p4"), "--seed", "7"])
        b, _ = run_report(["curve", bundled("two-quadrics-p4"), "--seed", "7"])
        assert a == b


class TestExitCodes:
    @pytest.mark.parametrize("homogeneous", [True, False])
    @pytest.mark.parametrize("command", ["bound", "classify"])
    def test_zero_dimensional_variety_is_refused(self, tmp_path, command, homogeneous):
        # two lines of P^2 meet in the point alone: no curve passes through it
        raw = json.loads((Path(__file__).parent / "data" / "point-p2.json").read_text())
        raw["ambient_homogeneous"] = homogeneous
        point = tmp_path / "point.json"
        point.write_text(json.dumps(raw))
        report, code = run_report([command, str(point)])
        assert code == EXIT_INPUT
        assert report["error"] == {
            "kind": "input",
            "message": "the variety must contain a curve through the point",
        }

    def test_missing_file(self, capsys):
        code = main(["dp", "no-such-file.json"])
        capsys.readouterr()
        assert code == EXIT_INPUT

    def test_invalid_expression(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "variables": ["x0", "x1"],
            "ambient": ["x0 + yy"],
            "cutting": [],
            "point": ["1", "0"],
        }))
        code = main(["dp", str(bad)])
        capsys.readouterr()
        assert code == EXIT_INPUT

    def test_degree_mismatch(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "variables": ["x0", "x1", "x2"],
            "ambient": [],
            "cutting": [{"expression": "x0*x2 - x1^2", "degree": 3}],
            "point": ["1", "0", "0"],
        }))
        code = main(["dp", str(bad)])
        capsys.readouterr()
        assert code == EXIT_INPUT

    @pytest.mark.parametrize(
        "variables, cutting, message",
        [
            (["x0", "x1", "x0"], [], "duplicate variable names"),
            (["x0", "x1", "x2"], [{"expression": "x1 - x1", "degree": 1}],
             "cutting expression 'x1 - x1' is zero"),
        ],
    )
    def test_input_message_names_the_file(self, tmp_path, variables, cutting, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "variables": variables, "ambient": [], "cutting": cutting, "point": ["1", "0", "0"],
        }))
        report, code = run_report(["dp", str(bad)])
        assert code == EXIT_INPUT
        assert report["error"] == {"kind": "input", "message": f"{bad}: {message}"}

    def test_point_off_variety(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "variables": ["x0", "x1", "x2"],
            "ambient": [],
            "cutting": [{"expression": "x0*x2 - x1^2", "degree": 2}],
            "point": ["0", "1", "0"],
        }))
        code = main(["classify", str(bad)])
        capsys.readouterr()
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("command", ["classify", "curve", "bound", "fano", "dp", "oracle"])
    def test_point_error_names_the_file_once(self, tmp_path, command):
        bad = tmp_path / "zero.json"
        bad.write_text(json.dumps({
            "variables": ["x0", "x1", "x2"],
            "ambient": [],
            "cutting": [{"expression": "x0*x2 - x1^2", "degree": 2}],
            "point": ["0", "0", "0"],
        }))
        report, code = run_report([command, str(bad)])
        assert code == EXIT_INPUT
        assert report["error"] == {
            "kind": "input", "message": f"{bad}: the zero vector is not a projective point"
        }

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit before 3.10.7"
    )
    def test_overlong_integer_literal_names_the_file(self, tmp_path):
        # a literal beyond the interpreter's digit limit is a parse error at
        # its token, not the interpreter's own message
        digits = sys.get_int_max_str_digits() + 700
        bad = tmp_path / "long.json"
        bad.write_text(json.dumps({
            "variables": ["x0", "x1", "x2"],
            "ambient": [],
            "cutting": [{"expression": "x1*" + "7" * digits, "degree": 1}],
            "point": ["1", "0", "0"],
        }))
        report, code = run_report(["bound", str(bad)])
        assert code == EXIT_INPUT
        assert report["error"] == {
            "kind": "input",
            "message": f"{bad}: integer literal of {digits} digits exceeds the limit of "
            f"{sys.get_int_max_str_digits()} digits (at position 3)",
        }

    def test_oracle_without_primes_tries_none(self, tmp_path, monkeypatch):
        raw = json.loads(Path(bundled("quadric-surface")).read_text())
        path = tmp_path / "no-primes.json"
        path.write_text(json.dumps({**raw, "primes": []}))
        monkeypatch.setattr(cli, "count_lines_mod_q", None)  # never reached
        report, code = run_report(["oracle", str(path), "--conics"])
        assert code == EXIT_INPUT
        assert report["error"] == {
            "kind": "input",
            "message": f"{path}: the list of primes is empty, so no prime was tried",
        }
        assert report["flags"]["primes"] == []

    def test_hypothesis_failure(self, tmp_path, capsys):
        # two cubics in P^4: degree sum exceeds the ambient line-scheme bound
        bad = tmp_path / "hypothesis.json"
        bad.write_text(json.dumps({
            "variables": ["x0", "x1", "x2", "x3", "x4"],
            "ambient": [],
            "cutting": [
                {"expression": "x1^3 + x2^3 + x3^3 + x4^3", "degree": 3},
                {"expression": "x1^3 + 2*x2^3 - x3^3 + x4^3 + x1*x2*x3", "degree": 3},
            ],
            "point": ["1", "0", "0", "0", "0"],
        }))
        messages = []
        for command in ("classify", "curve"):
            report, code, _ = run([command, str(bad)])
            assert code == EXIT_HYPOTHESIS
            assert report["error"]["condition"] == "ii"
            messages.append(report["error"]["message"])
        # curve's hypotheses are classify's, in the same words
        assert messages[0] == messages[1]

    def test_internal_failure_on_bad_component(self, tmp_path, capsys):
        # a component ideal that is not a maximal component of the ambient
        # line scheme starves the cone construction: loud internal failure
        raw = json.loads(Path(bundled("two-quadrics-p4")).read_text())
        raw["component"] = ["x2", "x3", "x4"]
        bad = tmp_path / "component.json"
        bad.write_text(json.dumps(raw))
        code = main(["curve", str(bad), "--retries", "1"])
        capsys.readouterr()
        assert code == EXIT_INTERNAL

    def test_validate_rejects_unsaturated_ideal(self, tmp_path):
        # (x0*x1, x1^2, x1*x2) = x1 * (x0, x1, x2) has saturation (x1)
        bad = tmp_path / "unsaturated.json"
        bad.write_text(json.dumps({
            "variables": ["x0", "x1", "x2"],
            "ambient": ["x0*x1", "x1^2", "x1*x2"],
            "cutting": [],
            "point": ["1", "0", "0"],
        }))
        for command in ("dp", "bound"):
            report, code = run_report([command, str(bad), "--validate"])
            assert code == EXIT_INPUT
            assert report["error"] == {"kind": "input", "message": "ideal is not saturated"}

    @pytest.mark.parametrize(
        "raw",
        [
            ["x0", "x1"],
            {"variables": ["x0", "x1"], "cutting": "x1", "point": ["1", "0"]},
            {"variables": ["x0", "x1"], "cutting": ["x1"], "point": ["1", "0"]},
            {"variables": ["x0", "x1"], "cutting": [{"degree": 1}], "point": ["1", "0"]},
            {"variables": ["x0", "x1"], "cutting": [{"expression": "x1"}], "point": ["1", "0"]},
            {"variables": ["x0", "x1"], "cutting": [], "point": 5},
            {"variables": ["x0", "x1"], "ambient": [7], "point": ["1", "0"]},
            {"variables": ["x0", "x1"], "cutting": [{"expression": 5, "degree": 1}],
             "point": ["1", "0"]},
        ],
        ids=["top-level-list", "cutting-not-list", "entry-not-object",
             "entry-without-expression", "entry-without-degree", "point-not-list",
             "ambient-entry-not-string", "expression-not-string"],
    )
    def test_malformed_instance_shapes(self, tmp_path, capsys, raw):
        bad = tmp_path / "malformed.json"
        bad.write_text(json.dumps(raw))
        code = main(["dp", str(bad)])
        capsys.readouterr()
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("coordinate", ["1e1000000000", "-2E-4301", "1e1_000_000_000"])
    def test_huge_point_exponent_is_refused(self, tmp_path, coordinate):
        # Fraction("1e1000000000") would build 10^(10^9) before any check
        raw = json.loads(Path(bundled("quadric-surface")).read_text())
        raw["point"][0] = coordinate
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(raw))
        report, code = run_report(["bound", str(bad)])
        assert code == EXIT_INPUT
        assert "decimal exponent beyond 4300" in report["error"]["message"]

    @pytest.mark.parametrize("coordinate", ["1/0", "0/0", "-3/0"])
    def test_zero_denominator_is_input(self, tmp_path, coordinate):
        raw = json.loads(Path(bundled("quadric-surface")).read_text())
        raw["point"][0] = coordinate
        bad = tmp_path / "zero-denominator.json"
        bad.write_text(json.dumps(raw))
        report, code = run_report(["bound", str(bad)])
        assert code == EXIT_INPUT
        assert report["error"]["kind"] == "input"
        assert "zero denominator" in report["error"]["message"]

    @pytest.mark.parametrize(
        "ambient, cutting",
        [
            (["x0*x2 - x1"], []),
            ([], [{"expression": "x0*x3 - x1*x2 + x1", "degree": 2}]),
        ],
        ids=["ambient", "cutting"],
    )
    def test_inhomogeneous_expression_is_rejected(self, tmp_path, ambient, cutting):
        expression = (ambient or [cutting[0]["expression"]])[0]
        nvars = 3 if ambient else 4
        bad = tmp_path / "inhomogeneous.json"
        bad.write_text(json.dumps({
            "variables": [f"x{i}" for i in range(nvars)],
            "ambient": ambient,
            "cutting": cutting,
            "point": ["1"] + ["0"] * (nvars - 1),
        }))
        for command in ("oracle", "bound"):
            report, code = run_report([command, str(bad)])
            assert code == EXIT_INPUT
            message = report["error"]["message"]
            assert str(bad) in message and repr(expression) in message

    def test_oracle_enumeration_limit(self, tmp_path):
        # P^9 at q = 101 has about 10^16 tangent directions
        big = tmp_path / "p9.json"
        big.write_text(json.dumps({
            "variables": [f"x{i}" for i in range(10)],
            "ambient": [],
            "cutting": [],
            "point": ["1"] + ["0"] * 9,
        }))
        report, code = run_report(["oracle", str(big), "--primes", "101"])
        assert code == EXIT_INPUT
        assert "exceed the enumeration limit" in report["error"]["message"]

    def test_oracle_prime_beyond_trial_division(self):
        # 2^61 - 1 is certified prime at once; its direction count is refused
        report, code = run_report(
            ["oracle", bundled("quadric-surface"), "--primes", str(2**61 - 1)]
        )
        assert code == EXIT_INPUT
        assert "exceed the enumeration limit" in report["error"]["message"]

    def test_unexpected_exception_is_internal(self, monkeypatch):
        def broken(instance, args):
            raise KeyError("missing")

        monkeypatch.setattr(cli, "_cmd_dp", broken)
        report, code = run_report(["dp", bundled("quadric-surface")])
        assert code == EXIT_INTERNAL
        assert report["error"] == {"kind": "internal", "message": "KeyError: 'missing'"}
        # the partial report survives
        assert report["command"] == "dp" and report["instance"]["primes"] == [5, 7, 11]

    @pytest.mark.parametrize(
        "argv",
        [
            ["dp"],
            ["oracle", bundled("quadric-surface"), "--primes", "a,b"],
            ["sharpness", "two", "3"],
            ["no-such-command"],
            ["curve", bundled("two-quadrics-p4"), "--retries", "-1"],
            ["oracle", bundled("quadric-surface"), "--conics", "--budget", "-5"],
        ],
        ids=["missing-file", "non-integer-primes", "non-integer-n", "unknown-command",
             "negative-retries", "negative-budget"],
    )
    def test_malformed_command_line_is_input(self, capsys, argv):
        # argparse would exit 2, the code reserved for a failed hypothesis
        report, code = run_report(argv)
        assert code == EXIT_INPUT
        assert report["error"]["kind"] == "input"
        assert main(argv) == EXIT_INPUT
        assert "error (input)" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", list(cli.FLAGS))
    @pytest.mark.parametrize("command", list(cli.COMMAND_FLAGS))
    def test_each_command_takes_only_the_flags_it_reads(self, command, flag):
        if command == "sharpness":
            head = ["sharpness", "2", "3"]
        else:
            head = [command, bundled("fermat-cubic")]
        values = {"--json": "r.json", "--seed": "1", "--retries": "1", "--primes": "7",
                  "--budget": "5"}
        argv = [*head, flag, *([values[flag]] if flag in values else [])]
        if flag in cli.COMMAND_FLAGS[command]:
            assert cli.build_parser().parse_args(argv).command == command
        else:
            report, code = run_report(argv)
            assert code == EXIT_INPUT
            assert report["error"]["kind"] == "input"
            assert "unrecognized arguments" in report["error"]["message"]

    def test_flags_echo_the_defaults_of_every_flag(self):
        # a flag a command does not take is still echoed with its default
        for command in ("bound", "classify"):
            report, code = run_report([command, bundled("fermat-cubic")])
            assert code == EXIT_OK
            assert report["flags"] == {"seed": 0, "primes": [5, 11, 17], "max_m": 24,
                                       "validate": False, "retries": 4}
        report, code = run_report(["sharpness", "2", "3"])
        assert code == EXIT_OK
        assert report["flags"] == {"seed": 0, "retries": 4, "n": 2, "d": 3}

    @pytest.mark.parametrize("unwritable", ["missing-directory", "directory"])
    def test_unwritable_json_path_is_input(self, tmp_path, capsys, unwritable):
        path = tmp_path / "missing" / "r.json" if unwritable == "missing-directory" else tmp_path
        code = main(["bound", bundled("quadric-surface"), "--json", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert err.startswith(f"error (input): cannot write {path}: ")
        assert "Traceback" not in err

    def test_max_m_option_is_gone(self, tmp_path):
        # mult and ord are exact, so no option caps them; the instance key
        # is still echoed into the flags, so recorded reports stay the same
        report, code = run_report(["bound", bundled("fermat-cubic"), "--max-m", "5"])
        assert code == EXIT_INPUT
        assert report["error"]["kind"] == "input"
        report, code = run_report(["bound", bundled("fermat-cubic")])
        assert code == EXIT_OK
        assert report["flags"]["max_m"] == 24
        raw = json.loads(Path(bundled("fermat-cubic")).read_text())
        raw["max_m"] = 5
        keyed = tmp_path / "keyed.json"
        keyed.write_text(json.dumps(raw))
        report, code = run_report(["bound", str(keyed)])
        assert code == EXIT_OK
        assert report["flags"]["max_m"] == 5

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        assert "usage" in capsys.readouterr().out

    def test_classify_needs_cuts(self, capsys):
        code = main(["classify", bundled("twisted-cubic")])
        capsys.readouterr()
        assert code == EXIT_INPUT

    def test_file_that_is_not_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        report, code = run_report(["dp", str(bad)])
        assert code == EXIT_INPUT
        assert report["error"]["message"].startswith(f"{bad}: invalid JSON: ")

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"point": ["1", "0"]}, "point length does not match variable count"),
            (
                {"cutting": [{"expression": "x0*x2 - x1^2", "degree": 2},
                             {"expression": "x1", "degree": 1}]},
                "cutting degrees must be ascending",
            ),
        ],
        ids=["short-point", "descending-degrees"],
    )
    def test_instance_shape_errors_name_the_file(self, tmp_path, changes, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "variables": ["x0", "x1", "x2"],
            "ambient": [],
            "cutting": [{"expression": "x1", "degree": 1}],
            "point": ["1", "0", "0"],
            **changes,
        }))
        report, code = run_report(["dp", str(bad)])
        assert code == EXIT_INPUT
        assert report["error"] == {"kind": "input", "message": f"{bad}: {message}"}

    @pytest.mark.parametrize("field", ["variables", "point"])
    def test_missing_field_is_named(self, tmp_path, field):
        raw = {"variables": ["x0", "x1", "x2"], "ambient": ["x1"], "point": ["1", "0", "0"]}
        del raw[field]
        bad = tmp_path / "missing.json"
        bad.write_text(json.dumps(raw))
        report, code = run_report(["dp", str(bad)])
        assert code == EXIT_INPUT
        assert report["error"] == {
            "kind": "input",
            "message": f"{bad}: missing field {field!r}",
        }

    def test_component_that_does_not_parse(self, tmp_path):
        raw = json.loads(Path(bundled("two-quadrics-p4")).read_text())
        raw["component"] = ["x1 +"]
        bad = tmp_path / "component.json"
        bad.write_text(json.dumps(raw))
        report, code = run_report(["curve", str(bad)])
        assert code == EXIT_INPUT
        assert report["error"]["message"].startswith(f"{bad}: component: ")

    def test_scaled_point_reduces_at_every_prime(self, tmp_path):
        # the same projective point with every coordinate divided by 7 is
        # read as the bundled integer point, so at 7 and at 11 the oracle
        # gives the bundled file's entries, and classify leaves the value 2
        # a lower bound
        raw = json.loads(Path(bundled("gr24-hyperplanes")).read_text())
        raw["ambient_homogeneous"] = False
        raw["primes"] = [7, 11]
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps(raw))
        raw["point"] = [str(Fraction(x) / 7) for x in raw["point"]]
        scaled = tmp_path / "scaled.json"
        scaled.write_text(json.dumps(raw))
        report, code = run_report(["oracle", str(scaled)])
        assert code == EXIT_OK
        expected, _ = run_report(["oracle", str(plain)])
        assert report["result"]["oracle"] == expected["result"]["oracle"]
        assert list(report["result"]["oracle"]) == ["7", "11"]
        report, code = run_report(["classify", str(scaled)])
        assert code == EXIT_OK
        assert report["result"]["seshadri"]["status"] == "LOWER_BOUND_ONLY"

    def test_inconsistency_carries_the_certificate(self, monkeypatch, capsys):
        # a curve whose ratio 5/2 misses the classified value 2 is a
        # counterexample candidate: exit 4 with the certificate, and main
        # prints the whole report to stderr
        def wrong(curve_ideal, trace):
            return 1, CurveCertificate(curve_ideal, 5, 2, Fraction(5, 2), trace)

        monkeypatch.setattr(constants, "_curve_certificate", wrong)
        argv = ["curve", bundled("two-quadrics-p4")]
        report, code = run_report(argv)
        assert code == EXIT_INTERNAL
        error = report["error"]
        assert error["kind"] == "inconsistency"
        assert error["message"] == "certificate ratio 5/2 differs from the classified value 2"
        assert error["certificate"]["ratio"] == "5/2"
        assert (error["certificate"]["degree"], error["certificate"]["multiplicity"]) == (5, 2)
        assert main(argv) == EXIT_INTERNAL
        err = capsys.readouterr().err
        first, payload = err.split("\n", 1)
        assert first == f"error (inconsistency): {error['message']}"
        assert json.loads(payload) == json.loads(json.dumps(report))


def test_load_instance_echo():
    instance = load_instance(bundled("fermat-cubic"))
    assert instance.primes == (5, 11, 17)
    assert instance.point == (3, 4, 5, -6)
    assert len(instance.cutting) == 1


def test_load_instance_logs_one_parse_line(caplog):
    caplog.set_level(logging.DEBUG, logger="seshadri")
    path = bundled("gr25-pluecker")
    report, code, _ = run(["fano", path])
    assert code == EXIT_OK
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("parsed ")]
    assert len(lines) == 1
    assert re.fullmatch(
        re.escape(f"parsed {path}: 5 ambient and 0 cutting forms, 15 terms, in ") + r"[0-9.]+ ms",
        lines[0],
    )
    assert "parsed" not in json.dumps(report)


def test_pluecker_relations_vanish_on_decomposable_vectors():
    # the bundled Gr(2,5) generators really are Pluecker relations: they
    # vanish on every rank-2 decomposable vector a wedge b
    import random
    from itertools import combinations

    instance = load_instance(bundled("gr25-pluecker"))
    rng = random.Random(25)
    pairs = list(combinations(range(5), 2))
    for _ in range(10):
        a = [rng.randint(-5, 5) for _ in range(5)]
        b = [rng.randint(-5, 5) for _ in range(5)]
        vector = [a[i] * b[j] - a[j] * b[i] for i, j in pairs]
        for g in instance.ambient_generators:
            assert g.evaluate(vector) == 0
