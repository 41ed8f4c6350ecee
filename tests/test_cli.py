import json
import math

import numpy as np
import pytest

from qcorr import OptimizerConfig, bell_state, example_separable, measure_report
from qcorr import cli
from qcorr.cli import main
from qcorr.errors import DimensionMismatch


def write_state(path, dims, matrix):
    payload = {
        "dims": list(dims),
        "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(matrix)],
    }
    path.write_text(json.dumps(payload))
    return str(path)


def negative_zeros(node) -> list:
    """Every -0.0 in a parsed JSON document."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return [z for v in node for z in negative_zeros(v)]
    return [node] if isinstance(node, float) and node == 0.0 and math.copysign(1.0, node) < 0 else []


@pytest.fixture
def bell_file(tmp_path):
    return write_state(tmp_path / "bell.json", (2, 2), bell_state().matrix)


@pytest.fixture
def separable_file(tmp_path):
    return write_state(tmp_path / "sep.json", (2, 2), example_separable(0.5).matrix)


@pytest.fixture
def product_file(tmp_path):
    rho = np.kron(np.diag([0.8, 0.2]), np.diag([0.6, 0.4]))
    return write_state(tmp_path / "prod.json", (2, 2), rho)


class TestValidate:
    def test_valid_file(self, bell_file, capsys):
        assert main(["validate", bell_file]) == 0
        out = capsys.readouterr().out
        assert "dims = [2, 2]" in out
        assert "trace = 1" in out

    def test_negative_eigenvalue_exits_3(self, tmp_path, capsys):
        path = write_state(tmp_path / "bad.json", (2, 2), np.diag([1.0, -0.2, 0.2, 0.0]))
        assert main(["validate", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "eigenvalue" in captured.err

    def test_wrong_dims_product_exits_2(self, tmp_path, capsys):
        path = write_state(tmp_path / "mismatch.json", (2, 3), np.eye(4) / 4)
        assert main(["validate", path]) == 2
        assert capsys.readouterr().out == ""

    def test_corrupted_json_exits_2_with_location(self, tmp_path, capsys):
        path = tmp_path / "corrupt.json"
        path.write_text('{"dims": [2, 2], "matrix": [[')
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("payload", ["[[1, 0], [0, 0]]", '{"dims": [2, 2]}'], ids=["array", "no-matrix"])
    def test_json_that_is_not_a_state_object_exits_2(self, tmp_path, capsys, payload):
        path = tmp_path / "payload.json"
        path.write_text(payload)
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: {path}: expected an object with 'dims' and 'matrix'\n"


class TestMeasures:
    def test_bell_values(self, bell_file, capsys):
        code = main(["measures", bell_file, "--grid", "32", "--refine", "100", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["measures"]["mutual_information"] - 2.0) < 1e-9
        assert abs(report["measures"]["discord"] - 1.0) < 1e-3
        assert len(report["warnings"]) == 2

    def test_product_file_all_zero(self, product_file, capsys):
        assert main(["measures", product_file, "--grid", "32", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        for value in report["measures"].values():
            assert abs(value) < 1e-8

    @pytest.mark.parametrize(
        "matrix", [np.diag([1.0, 0.0, 0.0, 0.0]), np.kron(np.diag([0.3, 0.7]), np.diag([1.0, 0.0]))],
        ids=["pure-00", "rho_a-x-0"],
    )
    def test_no_measure_reads_negative_zero(self, tmp_path, capsys, matrix):
        # B is pure, so J is 0 for every measurement; -1.0 * 0.0 once printed C_A = -0 bits
        path = write_state(tmp_path / "b-pure.json", (2, 2), matrix)
        assert main(["measures", path]) == 0
        out = capsys.readouterr().out
        assert "C_A = 0 bits" in out and " = -0" not in out
        assert main(["measures", path, "--json"]) == 0
        assert negative_zeros(json.loads(capsys.readouterr().out)) == []

    def test_separable_example_has_positive_discord(self, separable_file, capsys):
        assert main(["measures", separable_file, "--grid", "32"]) == 0
        out = capsys.readouterr().out
        assert "quantum discord" in out
        assert main(["measures", separable_file, "--grid", "32", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["measures"]["discord"] > 1e-3

    def test_json_round_trip_is_bit_exact(self, separable_file, capsys):
        args = ["measures", separable_file, "--grid", "32", "--refine", "100", "--json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first  # identical run, identical bytes
        parsed = json.loads(first)
        assert json.loads(json.dumps(parsed)) == parsed  # serialization is lossless
        rep = measure_report(
            example_separable(0.5), OptimizerConfig(grid_resolution=32, refine_iterations=100)
        )
        assert abs(parsed["measures"]["discord"] - rep.discord) < 1e-12
        assert abs(parsed["optimal_measurement"]["theta"] - rep.optimal_theta) < 1e-6

    def test_unsupported_dims_exit_4(self, tmp_path, capsys):
        path = write_state(tmp_path / "qutrit.json", (4,), np.eye(4) / 4)
        assert main(["measures", path]) == 4
        assert capsys.readouterr().out == ""

    def test_json_flag_does_not_leak_into_the_next_call(self, bell_file, capsys):
        assert main(["measures", bell_file, "--json"]) == 0
        json.loads(capsys.readouterr().out)
        assert main(["measures", bell_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("mutual information")
        assert "{" not in out

    def test_sha_matches_file(self, bell_file, capsys):
        import hashlib

        assert main(["measures", bell_file, "--grid", "32", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        digest = hashlib.sha256(open(bell_file, "rb").read()).hexdigest()
        assert report["input_sha256"] == digest


class TestBmapDemo:
    def test_known_matrix_and_verdict(self, capsys):
        assert main(["bmap-demo", "0.5", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        matrix = np.array([[complex(re, im) for re, im in row] for row in report["bmap"]["matrix"]])
        expected = np.array(
            [[1, 0, 0, 0.5], [0, 0, 0.5, 0], [0, 0.5, 0, 0], [0.5, 0, 0, 1]]
        )
        assert np.max(np.abs(matrix - expected)) < 1e-12
        assert np.allclose(report["bmap"]["eigenvalues"], [-0.5, 0.5, 0.5, 1.5], atol=1e-10)
        assert report["bmap"]["verdict"] == "NCP"
        assert report["insensitivity_residual"] < 1e-13

    def test_map_is_state_independent(self, capsys):
        assert main(["bmap-demo", "1.0", "--json"]) == 0
        at_one = json.loads(capsys.readouterr().out)
        assert main(["bmap-demo", "0.25", "--json"]) == 0
        at_quarter = json.loads(capsys.readouterr().out)
        assert at_one["bmap"]["matrix"] == at_quarter["bmap"]["matrix"]
        assert at_one["insensitivity_residual"] < 1e-13

    def test_out_of_range_exits_5(self, capsys):
        assert main(["bmap-demo", "1.5"]) == 5
        assert capsys.readouterr().out == ""


class TestQuantumness:
    def test_separable_file_bound_small(self, separable_file, capsys):
        assert main(["quantumness", separable_file, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["quantumness"]["upper_bound"] <= 1e-3
        assert report["quantumness"]["marginal_residual"] < 1e-4

    def test_bell_file_bound_near_one(self, bell_file, capsys):
        assert main(["quantumness", bell_file, "--restarts", "1", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["quantumness"]["upper_bound"] - 1.0) < 0.05

    def test_exact_values_from_files(self, tmp_path, bell_file, capsys):
        # read from a file, the separable example carries no witness
        separable = write_state(tmp_path / "sep.json", (2, 2), example_separable(0.4585).matrix)
        assert main(["quantumness", separable, "--restarts", "0", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["quantumness"]["upper_bound"] <= 1e-9
        assert main(["quantumness", bell_file, "--restarts", "0", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["quantumness"]["upper_bound"] - 1.0) <= 1e-8
        assert report["quantumness"]["marginal_residual"] <= 1e-12
        assert report["restarts_used"] == 2

    def test_corrupted_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("not json at all {{{")
        assert main(["quantumness", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err


class TestRejectsInvalidInput:
    @pytest.mark.parametrize("command", ["validate", "measures"])
    @pytest.mark.parametrize("all_nan", [False, True])
    def test_non_finite_entries_exit_3(self, tmp_path, capsys, command, all_nan):
        matrix = np.full((4, 4), np.nan) if all_nan else bell_state().matrix.copy()
        matrix[0, 1] = np.nan
        path = write_state(tmp_path / "nan.json", (2, 2), matrix)
        assert main([command, path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err

    def test_boolean_dims_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({"dims": [True, True, True, True], "matrix": [[[1.0, 0.0]]]}))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().out == ""

    # Each matrix matches a naive dims product: the empty product is 1, and
    # 3 * 6148914691236517206 wraps around to 2 in int64 arithmetic.
    @pytest.mark.parametrize("dims, side", [([], 1), ([3, 6148914691236517206], 2)])
    def test_empty_or_overflowing_dims_exit_2(self, tmp_path, capsys, dims, side):
        path = write_state(tmp_path / "dims.json", dims, np.eye(side) / side)
        assert main(["validate", path]) == 2
        assert capsys.readouterr().out == ""

    def test_negative_refine_exits_5(self, bell_file, capsys):
        assert main(["measures", bell_file, "--refine", "-5"]) == 5
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("cell", [{"0": 1}, [1, 0, 99], [True, False], [1], "1", None])
    def test_cell_that_is_not_a_number_pair_exits_2(self, tmp_path, capsys, cell):
        path = tmp_path / "cell.json"
        path.write_text(json.dumps({"dims": [1], "matrix": [[cell]]}))  # [[[1, 0]]] is a valid state
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "[re, im] pairs" in captured.err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_exits_5(self, bell_file, capsys, tol):
        assert main(["measures", bell_file, "--tol", tol]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "out of range" in captured.err

    @pytest.mark.parametrize(
        "argv", [["measures"], ["measures", "--grid", "4"], ["quantumness"], ["quantumness", "--terms", "3"]]
    )
    def test_three_qubits_exit_4_whatever_the_flags(self, tmp_path, capsys, argv):
        # the dims check comes before the option checks, which would exit 5 on --grid 4 and --terms 3
        path = write_state(tmp_path / "three.json", (2, 2, 2), np.eye(8) / 8)
        assert main([argv[0], path, *argv[1:]]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"unsupported dimensions: {argv[0]} requires dims (2, 2), got (2, 2, 2)\n"

    def test_any_other_package_error_exits_3(self, bell_file, capsys, monkeypatch):
        def fail(rho):
            raise DimensionMismatch("witness B marginal is off")

        monkeypatch.setattr(cli, "quantumness_upper_bound", fail)
        assert main(["quantumness", bell_file]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: witness B marginal is off\n"

    @pytest.mark.parametrize("flag", [["--restarts", "-3"], ["--seed", "-1"], ["--terms", "3"]])
    def test_quantumness_out_of_range_exits_5(self, bell_file, capsys, flag):
        assert main(["quantumness", bell_file, *flag]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "out of range" in captured.err
