"""CLI behavior: outputs, exit codes, determinism, strict parsing."""

import json

import pytest

from greenmat import cli
from greenmat import matrix as mx
from greenmat.linear_maps import linear_map_to_json, to_linear_map
from greenmat.matrix import matrix_from_json, matrix_to_json, monomial_identity, zero_matrix
from greenmat.semiring import Semifield
from greenmat.verify import SuiteReport

B, T = Semifield.BOOLEAN, Semifield.TROPICAL


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


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
