"""CLI behavior: outputs, exit codes, determinism, strict parsing."""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from greenmat import cli
from greenmat import matrix as mx
from greenmat.linear_maps import linear_map_to_json, to_linear_map
from greenmat.matrix import (
    MAX_MATRIX_SIDE,
    matrix_from_json,
    matrix_to_json,
    monomial_identity,
    zero_matrix,
)
from greenmat.semiring import Semifield
from greenmat.verify import SuiteReport

B, T = Semifield.BOOLEAN, Semifield.TROPICAL


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def run(argv):
    """(exit code, stdout, stderr) of one in-process request; argparse
    rejections raise SystemExit, whose code counts as the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def zero_file(tmp_path):
    return write_json(tmp_path / "zero.json", matrix_to_json(zero_matrix(B, 2, 2)))


@pytest.fixture
def ones_file(tmp_path):
    return write_json(
        tmp_path / "ones.json", matrix_to_json(mx.from_rows(B, [[1, 1], [1, 1]]))
    )


@pytest.fixture
def trop_file(tmp_path):
    return write_json(
        tmp_path / "trop.json", matrix_to_json(mx.from_rows(T, [[0, 0], [0, 1]]))
    )


class TestRelate:
    def test_zero_below_anything(self, capsys, zero_file, ones_file):
        code = cli.main(["relate", "--rel", "leqL", zero_file, ones_file])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["related"] is True
        assert out["witness"] is not None
        s = matrix_from_json(out["witness"]["s"])
        assert s.rows == 2

    def test_unrelated_pair(self, capsys, ones_file, zero_file):
        code = cli.main(["relate", "--rel", "leqL", ones_file, zero_file])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out == {"related": False, "witness": None}

    def test_bounded_relation_over_tropical_is_an_error(self, capsys, trop_file):
        code = cli.main(["relate", "--rel", "D", trop_file, trop_file])
        captured = capsys.readouterr()
        assert code == 2
        assert "boolean" in captured.err

    def test_witness_reconstructs(self, capsys, tmp_path, ones_file):
        a_file = write_json(
            tmp_path / "a.json", matrix_to_json(mx.from_rows(B, [[1, 1], [0, 0]]))
        )
        cli.main(["relate", "--rel", "L", a_file, ones_file])
        out = json.loads(capsys.readouterr().out)
        assert out["related"] is True
        assert set(out["witness"]) == {"s_forward", "s_backward"}


class TestRank:
    def test_two_by_two_criterion(self, capsys, trop_file):
        assert cli.main(["rank", trop_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"rank": 2, "method": "TwoByTwoCriterion"}

    def test_undetermined(self, capsys, tmp_path):
        path = write_json(
            tmp_path / "big.json",
            matrix_to_json(mx.from_rows(T, [[0, 0, 0], [0, 1, 0], [0, 0, 2]])),
        )
        assert cli.main(["rank", path]) == 0
        assert json.loads(capsys.readouterr().out) == {"rank": "undetermined"}

    def test_zero(self, capsys, zero_file):
        cli.main(["rank", zero_file])
        out = json.loads(capsys.readouterr().out)
        assert out == {"rank": 0, "method": "ZeroMatrix"}

    @pytest.mark.parametrize("rows, cols", [(6, 6), (6, 9), (9, 6)])
    def test_boolean_search_beyond_limit_is_one_line_error(self, capsys, tmp_path, rows, cols):
        # the identity block is rank min(rows, cols) and needs the exhaustive search
        entries = [[int(i == j) for j in range(cols)] for i in range(rows)]
        path = write_json(tmp_path / "big.json", matrix_to_json(mx.from_rows(B, entries)))
        assert cli.main(["rank", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: boolean factor rank search is limited")
        assert captured.err.count("\n") == 1

    def test_boolean_search_runs_on_the_shorter_side(self, capsys, tmp_path):
        entries = [[int(i == j or i == j + 5) for j in range(5)] for i in range(8)]
        path = write_json(tmp_path / "tall.json", matrix_to_json(mx.from_rows(B, entries)))
        assert cli.main(["rank", path]) == 0
        assert json.loads(capsys.readouterr().out) == {"rank": 5, "method": "ExhaustiveBoolean"}


class TestClassify:
    def test_identity_map(self, capsys, tmp_path):
        from greenmat.linear_maps import CanonicalForm, synthesize

        u = synthesize(
            CanonicalForm(monomial_identity(B, 2), monomial_identity(B, 2), False), 2, B
        )
        path = write_json(tmp_path / "map.json", linear_map_to_json(to_linear_map(u)))
        assert cli.main(["classify", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {
            "p": {"perm": [0, 1], "scale": ["1", "1"]},
            "q": {"perm": [0, 1], "scale": ["1", "1"]},
            "transposed": False,
        }

    def test_non_canonical_map(self, capsys, tmp_path):
        obj = {
            "n": 1,
            "semifield": "boolean",
            "images": [matrix_to_json(zero_matrix(B, 1, 1))],
        }
        path = write_json(tmp_path / "bad.json", obj)
        assert cli.main(["classify", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"non_canonical": "NotUnitPermutation"}


class TestVerify:
    def test_t1_passes(self, capsys):
        code = cli.main(["verify", "--suite", "t1", "--semifield", "boolean", "--n", "2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["passed"] is True
        assert out["counts"]["l_preservers"] == 4

    def test_missing_seed_is_validation_error(self, capsys):
        code = cli.main(
            ["verify", "--suite", "h_theorem", "--semifield", "tropical", "--n", "2"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "seed" in captured.err

    def test_unknown_suite(self, capsys):
        code = cli.main(["verify", "--suite", "t99"])
        assert code == 2
        assert "no suite named" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["--suite", "t1", "--n", "0"],
            ["--suite", "t1", "--n", "-1"],
            ["--suite", "invertibles", "--n", "0"],
            ["--suite", "rank_j_monotone", "--n", "0"],
            ["--suite", "corollaries", "--semifield", "tropical", "--n", "0", "--seed", "1"],
        ],
    )
    def test_nonpositive_n_is_one_line_error(self, capsys, args):
        assert cli.main(["verify", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: n must be at least 1")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "args",
        [
            ["--suite", "corollaries", "--semifield", "tropical", "--n", "9", "--seed", "1"],
            ["--suite", "corollaries", "--semifield", "tropical", "--n", "40", "--seed", "1",
             "--trials", "5"],
            ["--suite", "corollaries", "--semifield", "tropical_int", "--n", "9", "--seed", "1"],
            ["--suite", "h_theorem", "--semifield", "tropical", "--n", "1000", "--seed", "1"],
        ],
    )
    def test_tropical_n_beyond_limit_is_one_line_error(self, capsys, args):
        assert cli.main(["verify", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: suites over a tropical carrier are limited to n <= 8"
        )
        assert captured.err.count("\n") == 1

    def test_tropical_n_at_limit_runs(self, capsys):
        argv = ["verify", "--suite", "corollaries", "--semifield", "tropical", "--n", "8",
                "--seed", "1", "--trials", "1"]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 8

    @pytest.mark.parametrize("suite", ["corollaries", "h_theorem"])
    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_nonpositive_trials_is_one_line_error(self, capsys, suite, trials):
        argv = ["verify", "--suite", suite, "--semifield", "tropical", "--seed", "1",
                "--trials", trials]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: trials must be at least 1, got {trials}\n"

    @pytest.mark.parametrize(
        "args",
        [
            ["--suite", "t1", "--n", "3", "--seed", "1"],
            ["--suite", "corollaries", "--semifield", "tropical", "--seed", "1"],
            ["--suite", "h_theorem", "--semifield", "tropical", "--seed", "1"],
        ],
    )
    def test_trials_beyond_limit_is_one_line_error(self, capsys, args):
        assert cli.main(["verify", *args, "--trials", "10001"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: trials must be at most 10000, got 10001\n"

    def test_battery_script_rejects_bad_params_before_running(self):
        script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "run_suites.py"
        done = subprocess.run(
            [sys.executable, str(script), "--trials", "0"],
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 2
        assert done.stdout == ""  # no suite of the battery ran
        assert done.stderr == "error: trials must be at least 1, got 0\n"

    def test_trials_at_limit_runs(self, capsys):
        # a suite that reads --trials: the sticky search tests one candidate per trial
        argv = ["verify", "--suite", "h_theorem", "--semifield", "tropical", "--n", "2",
                "--seed", "1", "--trials", "10000"]
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["counts"]["sticky_candidates"] == 10000

    @pytest.mark.parametrize(
        "args",
        [
            ["--suite", "h_theorem", "--semifield", "tropical", "--n", "7", "--seed", "1",
             "--trials", "2"],
            ["--suite", "h_theorem", "--semifield", "tropical_int", "--n", "3", "--seed", "1"],
            ["--suite", "h_theorem", "--semifield", "tropical", "--n", "1", "--seed", "1"],
            ["--suite", "remark_2_6_regression", "--n", "9"],
            ["--suite", "remark_2_6_regression", "--n", "1"],
        ],
    )
    def test_fixed_2x2_suites_reject_other_n(self, capsys, args):
        # these suites only ever look at 2x2 matrices; another n is not run
        assert cli.main(["verify", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "n must be 2" in captured.err
        assert captured.err.count("\n") == 1

    def test_suite_failure_exits_one(self, capsys, monkeypatch):
        fake = SuiteReport(
            "t1", "boolean", 2, "exhaustive", False,
            {"maps_enumerated": 0}, ({"problem": "forced"},),
        )
        monkeypatch.setattr(cli, "run_suite", lambda name, params: fake)
        code = cli.main(["verify", "--suite", "t1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["passed"] is False

    def test_text_style(self, capsys):
        code = cli.main(
            ["verify", "--suite", "invertibles", "--n", "2", "--style", "text"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("suite invertibles (boolean, n=2, exhaustive): PASS")
        assert "invertible: 2" in out
        assert "witnesses: none" in out

    def test_text_style_renders_zero_counts(self, capsys):
        code = cli.main(
            ["verify", "--suite", "rank_j_monotone", "--n", "2", "--style", "text"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "violations: 0" in out  # zeros are rendered, never omitted

    def test_text_style_failure_renders_witness_matrices(self, capsys, monkeypatch):
        fake = SuiteReport(
            "t1", "boolean", 2, "exhaustive", False,
            {"maps_enumerated": 1},
            ({"pair": [matrix_to_json(zero_matrix(B, 2, 2))]},),
        )
        monkeypatch.setattr(cli, "run_suite", lambda name, params: fake)
        code = cli.main(["verify", "--suite", "t1", "--style", "text"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out
        assert '"entries": [["0", "0"], ["0", "0"]]' in out

    def test_randomized_suite_reports_seed(self, capsys):
        code = cli.main(
            [
                "verify", "--suite", "h_theorem", "--semifield", "tropical",
                "--n", "2", "--seed", "42", "--trials", "50",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["seed"] == 42
        assert out["generator"] == "python-random-mt19937"

    def test_byte_identical_output(self, capsys):
        argv = ["verify", "--suite", "t2", "--semifield", "boolean", "--n", "2"]
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        second = capsys.readouterr().out
        assert first == second


class TestEggbox:
    def test_json(self, capsys):
        assert cli.main(["eggbox", "--n", "2", "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n"] == 2
        assert sum(d["size"] for d in out["d_classes"]) == 16

    def test_dot(self, capsys):
        assert cli.main(["eggbox", "--n", "2", "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph eggbox {")
        assert "cluster_d0" in out

    def test_too_large(self, capsys):
        assert cli.main(["eggbox", "--n", "5"]) == 2

    def test_deterministic(self, capsys):
        cli.main(["eggbox", "--n", "2", "--format", "dot"])
        first = capsys.readouterr().out
        cli.main(["eggbox", "--n", "2", "--format", "dot"])
        assert capsys.readouterr().out == first


def _script_main(name):
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"script_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


class TestScripts:
    @pytest.mark.parametrize(
        "name, argv, error",
        [
            ("emit_eggbox", ["--n", "1", "4"],
             "egg-box decomposition is available for 1 <= n <= 3"),
            ("search_sticky", ["--trials", "0"], "trials must be at least 1, got 0"),
            ("search_sticky", ["--semifield", "boolean", "--trials", "0"],
             "trials must be at least 1, got 0"),
            ("search_sticky", ["--trials", "100000000"],
             "trials must be at most 10000, got 100000000"),
            ("search_sticky", ["--show", "-1", "--trials", "5"],
             "show must be at least 0, got -1"),
        ],
    )
    def test_bad_input_is_one_line_error(self, capsys, name, argv, error):
        assert _script_main(name)(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing was searched or drawn
        assert captured.err == f"error: {error}\n"

    @pytest.mark.parametrize(
        "semifield, digest",
        [
            ("tropical", "10c66abd4afa04aedfc62a7e50aa5953a1fe86fbf661614390924f9efc776afc"),
            ("tropical_int", "48d10c4a5c94cfc0a285f3f55ea0987c2241acddeeefdd8cdc6cbe0cf8ffcc6c"),
            ("boolean", "c279438f7e9ae06597987b7079b593f8a05766ce558c4fc5d2e32af82ad0d0a8"),
        ],
    )
    def test_sticky_search_output_is_byte_identical_to_golden(self, capsys, semifield, digest):
        # SHA-256 of the stdout of `search_sticky.py --semifield S --show 50`,
        # recorded while every candidate was lifted to a Matrix as it was drawn
        assert _script_main("search_sticky")(["--semifield", semifield, "--show", "50"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_boolean_sticky_search_refutes_its_one_candidate_by_s2(self, capsys):
        assert _script_main("search_sticky")(["--semifield", "boolean"]) == 0
        out = capsys.readouterr().out
        assert "candidates examined: 1\n" in out
        assert "  refuted by S2: 1\n" in out
        assert out.count("refuted by") == 1
        assert out.endswith("outcome: NoCandidateFound\n")

    def test_eggbox_out_dir_that_cannot_be_made_is_one_line_error(self, capsys, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert _script_main("emit_eggbox")(["--n", "1", "--out-dir", str(taken)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_suites_json_dir_that_cannot_be_made_is_one_line_error(self, capsys, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert _script_main("run_suites")(["--json-dir", str(taken / "reports")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no suite ran
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestParsing:
    def test_missing_file(self, capsys):
        assert cli.main(["rank", "/nonexistent/m.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["rank", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_canonical_entry(self, capsys, tmp_path):
        obj = matrix_to_json(zero_matrix(T, 1, 1))
        obj["entries"][0][0] = "2/4"
        path = write_json(tmp_path / "m.json", obj)
        assert cli.main(["rank", str(path)]) == 2
        assert "canonical" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["1e5000", "1e1000000000", "7" * 1001, "1/" + "3" * 1001])
    def test_oversized_entry_is_one_line_error(self, capsys, tmp_path, text):
        obj = {"semifield": "tropical", "rows": 1, "cols": 1, "entries": [[text]]}
        path = write_json(tmp_path / "m.json", obj)
        assert cli.main(["rank", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @staticmethod
    def _assert_one_line_error(result, needle):
        code, out, err = result
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err

    def test_duplicate_key_in_matrix_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"semifield": "tropical", "rows": 1, "rows": 1, "cols": 1, "entries": [["1"]]}')
        self._assert_one_line_error(run(["rank", str(path)]), "duplicate key 'rows'")
        self._assert_one_line_error(
            run(["relate", "--rel", "L", str(path), str(path)]), "duplicate key 'rows'"
        )

    @pytest.mark.parametrize("where", ["map", "image"])
    def test_duplicate_key_in_map_file(self, tmp_path, where):
        image = '{"semifield": "boolean", "rows": 1, "cols": 1, "entries": [["1"]]}'
        if where == "image":
            image = image.replace('"cols": 1', '"cols": 1, "cols": 1')
        text = f'{{"n": 1, "semifield": "boolean", "images": [{image}]}}'
        if where == "map":
            text = text.replace('"n": 1', '"n": 1, "n": 1')
        path = tmp_path / "map.json"
        path.write_text(text)
        dup = "'n'" if where == "map" else "'cols'"
        self._assert_one_line_error(run(["classify", str(path)]), f"duplicate key {dup}")

    def test_same_key_in_different_objects_is_accepted(self, tmp_path):
        image = '{"semifield": "boolean", "rows": 1, "cols": 1, "entries": [["1"]]}'
        path = tmp_path / "map.json"
        path.write_text(f'{{"n": 1, "semifield": "boolean", "images": [{image}]}}')
        assert run(["classify", str(path)])[0] == 0

    @pytest.mark.parametrize(
        "data, needle",
        [
            (b'{"semifield": "tropical", "rows": ' + b"1" * 5000 + b"}", "digits"),
            (b"\xff\xfe{}", "utf-8"),
            (b"[" * 100000 + b"]" * 100000, "recursion"),
        ],
        ids=["huge-int", "not-utf8", "deep-nesting"],
    )
    def test_undecodable_file_is_one_line_error(self, tmp_path, data, needle):
        path = tmp_path / "m.json"
        path.write_bytes(data)
        self._assert_one_line_error(run(["rank", str(path)]), needle)

    def test_wrong_arity(self, capsys, tmp_path):
        obj = matrix_to_json(zero_matrix(B, 2, 2))
        obj["entries"][1] = ["0"]
        path = write_json(tmp_path / "m.json", obj)
        assert cli.main(["rank", str(path)]) == 2

    def test_argparse_rejects_bad_rel(self, zero_file):
        with pytest.raises(SystemExit) as exc:
            cli.main(["relate", "--rel", "X", zero_file, zero_file])
        assert exc.value.code == 2

    def test_dimension_mismatch_is_validation_error(self, capsys, tmp_path, zero_file):
        other = write_json(
            tmp_path / "m3.json", matrix_to_json(zero_matrix(B, 3, 3))
        )
        assert cli.main(["relate", "--rel", "L", zero_file, other]) == 2

    def test_emitted_matrix_json_reparses(self, capsys, zero_file, ones_file):
        cli.main(["relate", "--rel", "leqL", zero_file, ones_file])
        out = json.loads(capsys.readouterr().out)
        matrix_from_json(out["witness"]["s"])


class TestSizeLimit:
    """Matrix sides and map sizes above MAX_MATRIX_SIDE are parse errors."""

    @staticmethod
    def _tropical(rows, cols):
        return {"semifield": "tropical", "rows": rows, "cols": cols,
                "entries": [[str((i + j) % 3) for j in range(cols)] for i in range(rows)]}

    @pytest.mark.parametrize("side, code", [(MAX_MATRIX_SIDE, 0), (MAX_MATRIX_SIDE + 1, 2)])
    @pytest.mark.parametrize("shape", ["rows", "cols", "square"])
    def test_rank(self, tmp_path, side, code, shape):
        rows, cols = {"rows": (side, 1), "cols": (1, side), "square": (side, side)}[shape]
        path = write_json(tmp_path / "m.json", self._tropical(rows, cols))
        got, out, err = run(["rank", path])
        assert got == code
        if code == 2:
            assert out == ""
            assert err == f"error: {path}: {'cols' if shape == 'cols' else 'rows'} must be at most {MAX_MATRIX_SIDE}, got {side}\n"

    @pytest.mark.parametrize("side, code", [(MAX_MATRIX_SIDE, 0), (MAX_MATRIX_SIDE + 1, 2)])
    def test_relate(self, tmp_path, side, code):
        path = write_json(tmp_path / "m.json", self._tropical(side, side))
        got, out, err = run(["relate", "--rel", "H", path, path])
        assert got == code
        if code == 0:
            assert json.loads(out)["related"] is True
        else:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("n, code", [(MAX_MATRIX_SIDE, 0), (MAX_MATRIX_SIDE + 1, 2)])
    def test_classify(self, tmp_path, n, code):
        images = []
        for i in range(n):
            for j in range(n):
                entries = [["0"] * n for _ in range(n)]
                entries[i][j] = "1"
                images.append({"semifield": "boolean", "rows": n, "cols": n, "entries": entries})
        path = write_json(tmp_path / "map.json", {"n": n, "semifield": "boolean", "images": images})
        got, out, err = run(["classify", path])
        assert got == code
        if code == 0:
            assert json.loads(out)["transposed"] is False
        else:
            assert out == ""
            assert err == f"error: {path}: n must be at most {MAX_MATRIX_SIDE}, got {n}\n"


class TestSharedParser:
    def test_request_sequence_is_order_independent(self, tmp_path, monkeypatch):
        # one parser serves every request of the process: an argparse
        # rejection, an error and a monkeypatched suite must leave nothing
        # behind that a later request could see
        two = write_json(tmp_path / "two.json", matrix_to_json(mx.from_rows(B, [[1, 0], [1, 1]])))
        three = write_json(tmp_path / "three.json", matrix_to_json(zero_matrix(B, 3, 3)))
        fake = SuiteReport("t1", "boolean", 2, "exhaustive", False,
                           {"maps_enumerated": 0}, ({"problem": "forced"},))
        monkeypatch.setattr(cli, "run_suite", lambda name, params: fake)
        requests = [
            ["relate", "--rel", "Q", two, two],
            ["relate", "--rel", "leqL", two, two],
            ["relate", "--rel", "L", two, three],
            ["verify", "--suite", "t1"],
            ["eggbox", "--n", "4"],
        ]
        cli._build_parser.cache_clear()
        forward = [run(argv) for argv in requests]
        backward = [run(argv) for argv in reversed(requests)][::-1]
        assert cli._build_parser.cache_info().misses == 1
        assert forward == backward
        assert [code for code, _, _ in forward] == [2, 0, 2, 1, 2]
        assert "invalid choice: 'Q'" in forward[0][2]
        assert json.loads(forward[1][1])["related"] is True
        assert json.loads(forward[3][1])["passed"] is False


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
_ENTRY = {
    "boolean": st.sampled_from(["0", "1"]),
    "tropical": st.sampled_from(["-inf", "0", "1", "-2", "1/2", "-3/4"]),
    "tropical_int": st.sampled_from(["-inf", "0", "1", "-2"]),
}
_BAD_ENTRY = st.sampled_from(["2", "1/2", "2/4", "3/1", "-0", "x", "", "1e5"]) | st.text(max_size=4)


@st.composite
def _matrix_json(draw, semifield=None, rows=None, cols=None):
    sf = semifield or draw(st.sampled_from(sorted(_ENTRY)))
    rows = rows or draw(st.integers(1, 4))
    cols = cols or draw(st.integers(1, 4))
    entries = [[draw(_ENTRY[sf]) for _ in range(cols)] for _ in range(rows)]
    if draw(st.integers(0, 5)) == 0:
        entries[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = draw(_BAD_ENTRY)
    return {"semifield": sf, "rows": rows, "cols": cols, "entries": entries}


@st.composite
def _map_json(draw):
    sf = draw(st.sampled_from(sorted(_ENTRY)))
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        # a unit permutation with arbitrary coefficients: classify gets past its first check
        cells = draw(st.permutations(range(n * n)))
        images = []
        for c in cells:
            entries = [["0" if sf == "boolean" else "-inf"] * n for _ in range(n)]
            entries[c // n][c % n] = draw(_ENTRY[sf])
            images.append({"semifield": sf, "rows": n, "cols": n, "entries": entries})
    else:
        images = [draw(_matrix_json(sf, n, n)) for _ in range(n * n)]
    return {"n": n, "semifield": sf, "images": images}


@st.composite
def _request(draw):
    def doc(wellformed):  # one document in four is arbitrary JSON
        return draw(_JSON) if draw(st.integers(0, 3)) == 0 else draw(wellformed)

    command = draw(st.sampled_from(["relate", "rank", "classify"]))
    if command == "relate":
        rel = draw(st.sampled_from(cli._REL_CHOICES + ["Q"]))
        sf, n = draw(st.sampled_from(sorted(_ENTRY))), draw(st.integers(1, 4))
        a = doc(_matrix_json(sf, n, n))
        b = doc(st.just(a) | _matrix_json(sf, n, n) | _matrix_json())
        return [command, "--rel", rel], [a, b]
    if command == "rank":
        return [command], [doc(_matrix_json())]
    return [command], [doc(_map_json())]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_request())
def test_fuzzed_requests_end_cleanly_and_repeat_exactly(tmp_path_factory, request_):
    head, docs = request_
    folder = tmp_path_factory.mktemp("fuzz")
    paths = []
    for k, obj in enumerate(docs):
        path = folder / f"{k}.json"
        path.write_text(json.dumps(obj))
        paths.append(str(path))
    argv = head + paths
    first = run(argv)
    code, _, err = first
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert run(argv) == first


_WRITABLE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=20,
)


@given(_WRITABLE)
def test_format_json_is_indented_dumps(obj):
    assert cli.format_json(obj) == json.dumps(obj, indent=2) + "\n"


def test_closed_stdout_is_one_line_error():
    # the reader closes before the child writes, so every write of the
    # output meets a closed pipe
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    child = subprocess.Popen(
        [sys.executable, "-m", "greenmat.cli", "eggbox", "--n", "3", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(src)},
    )
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=60) == 2
    assert err == "error: cannot write output: [Errno 32] Broken pipe\n"
