import json

import numpy as np
import pytest

from prstab import Field, harmonic_frame, read_matrix, sample_gaussian_matrix, write_matrix
from prstab.cli import main
from prstab.matrixio import MatrixFormatError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestMatrixFile:
    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_round_trip_is_bit_exact(self, tmp_path, field):
        A = sample_gaussian_matrix(9, 3, field, seed=0)
        A[0, 0] = 1 / 3  # awkward decimals must survive
        path = tmp_path / "a.mat"
        write_matrix(path, A)
        assert np.array_equal(read_matrix(path), A)

    def test_header_declares_dimensions(self, tmp_path):
        path = tmp_path / "e3.mat"
        write_matrix(path, harmonic_frame(3).matrix)
        first = path.read_text().splitlines()[0]
        assert first == "# field: real, m: 3, d: 2"

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("1.0,2.0\n")
        with pytest.raises(MatrixFormatError):
            read_matrix(path)

    def test_bad_cell_reports_line(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("# field: real, m: 2, d: 2\n1.0,2.0\n1.0,oops\n")
        with pytest.raises(MatrixFormatError) as err:
            read_matrix(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_reports_line(self, tmp_path, cell):
        path = tmp_path / "bad.mat"
        path.write_text(f"# field: real, m: 2, d: 2\n1.0,2.0\n{cell},1.0\n")
        with pytest.raises(MatrixFormatError) as err:
            read_matrix(path)
        assert err.value.line == 3

    def test_wrong_row_count(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("# field: real, m: 3, d: 2\n1.0,2.0\n")
        with pytest.raises(MatrixFormatError):
            read_matrix(path)


class TestAnalyze:
    def test_harmonic_m3_exact(self, tmp_path, capsys):
        path = tmp_path / "e3.mat"
        write_matrix(path, harmonic_frame(3).matrix)
        out_json = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "analyze", "--matrix", str(path), "--method", "exact", "--json", str(out_json)
        )
        assert code == 0
        report = json.loads(out_json.read_text())
        assert report["beta"] == pytest.approx(np.sqrt(3), abs=1e-7)
        assert report["method"] == "exact_real_subset"
        assert "subset" in report["certificate"]
        assert report["bounds"]["real_md_bound"] == pytest.approx(np.sqrt(3), abs=1e-12)

    def test_identity_reports_inf(self, tmp_path, capsys):
        path = tmp_path / "id.mat"
        write_matrix(path, np.eye(2))
        code, out, _ = run_cli(capsys, "analyze", "--matrix", str(path))
        assert code == 0
        assert json.loads(out)["beta"] == "inf"

    @pytest.mark.parametrize("method", ["exact", "numeric"])
    def test_rank_one_d2_reports_inf(self, tmp_path, capsys, rank_one_8x2, method):
        path = tmp_path / "r1.mat"
        write_matrix(path, rank_one_8x2)
        code, out, _ = run_cli(capsys, "analyze", "--matrix", str(path), "--method", method)
        assert code == 0
        report = json.loads(out)
        assert report["beta"] == "inf" and report["lower"] == 0.0

    def test_exact_on_complex_exits_2(self, tmp_path, capsys):
        path = tmp_path / "c.mat"
        write_matrix(path, np.eye(2, dtype=complex))
        code, _, err = run_cli(capsys, "analyze", "--matrix", str(path), "--method", "exact")
        assert code == 2
        assert "numeric" in err

    def test_numeric_on_complex_works(self, tmp_path, capsys):
        path = tmp_path / "c.mat"
        A = sample_gaussian_matrix(6, 2, Field.COMPLEX, seed=1)
        write_matrix(path, A)
        code, out, _ = run_cli(capsys, "analyze", "--matrix", str(path), "--method", "numeric")
        assert code == 0
        report = json.loads(out)
        assert "pair" in report["certificate"]
        assert report["beta"] >= report["bounds"]["beta0"] - 1e-6
        # the 64 x 128 angle grid counts toward the evaluations
        assert report["certificate"]["pair"]["evaluations"] > 64 * 128

    def test_malformed_file_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.mat"
        path.write_text("not a matrix\n")
        code, _, err = run_cli(capsys, "analyze", "--matrix", str(path))
        assert code == 3
        assert "header" in err

    @pytest.mark.parametrize("method", ["exact", "numeric"])
    def test_non_finite_file_exits_3(self, tmp_path, capsys, method):
        path = tmp_path / "nan.mat"
        path.write_text("# field: real, m: 3, d: 2\n1.0,0.0\n0.0,nan\n0.5,0.5\n")
        out_json = tmp_path / "report.json"
        code, out, err = run_cli(
            capsys, "analyze", "--matrix", str(path), "--method", method, "--json", str(out_json)
        )
        assert code == 3
        assert err.startswith("error:") and ":3: non-finite" in err
        assert "Traceback" not in err and out == ""
        assert not out_json.exists()

    @pytest.mark.parametrize("method", ["exact", "numeric"])
    def test_overflowing_gram_exits_3(self, tmp_path, capsys, method):
        path = tmp_path / "big.mat"
        path.write_text("# field: real, m: 4, d: 3\n" + "1e200,1e200,1e200\n" * 4)
        out_json = tmp_path / "report.json"
        code, out, err = run_cli(
            capsys, "analyze", "--matrix", str(path), "--method", method, "--json", str(out_json)
        )
        assert code == 3
        assert err.startswith("error:") and "too large" in err
        assert err.count("\n") == 1 and "Traceback" not in err and out == ""
        assert not out_json.exists()

    @pytest.mark.parametrize("method", ["exact", "numeric"])
    def test_zero_restarts_exits_2(self, tmp_path, capsys, method):
        path = tmp_path / "e3.mat"
        write_matrix(path, harmonic_frame(3).matrix)
        code, out, err = run_cli(
            capsys, "analyze", "--matrix", str(path), "--method", method, "--restarts", "0"
        )
        assert code == 2 and out == ""
        assert "--restarts" in err

    def test_numeric_reports_stop_reason(self, tmp_path, capsys):
        path = tmp_path / "r.mat"
        write_matrix(path, sample_gaussian_matrix(6, 3, Field.REAL, seed=1))
        code, out, _ = run_cli(
            capsys, "analyze", "--matrix", str(path), "--method", "numeric", "--restarts", "8"
        )
        assert code == 0
        pair = json.loads(out)["certificate"]["pair"]
        # restarts that cannot catch the best state are dropped, so the
        # search converges well before its 4000-iteration budget
        assert pair["iterations"] == 84 and pair["stop_reason"] == "converged"
        assert pair["evaluations"] == 8582
        write_matrix(path, harmonic_frame(5).matrix)
        code, out, _ = run_cli(capsys, "analyze", "--matrix", str(path), "--method", "numeric")
        pair = json.loads(out)["certificate"]["pair"]
        assert (pair["stop_reason"], pair["iterations"], pair["evaluations"]) == (
            "closed_form", 0, 0
        )

    def test_missing_file_exits_3(self, capsys):
        code, _, _ = run_cli(capsys, "analyze", "--matrix", "/nonexistent/x.mat")
        assert code == 3

    def test_binary_file_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bin.mat"
        path.write_bytes(b"# field: real, m: 1, d: 1\n\xff\xfe\x00\n")
        code, _, err = run_cli(capsys, "analyze", "--matrix", str(path))
        assert code == 3
        assert err == f"error: {path}:2: not UTF-8 text: invalid start byte\n"


class TestHarmonicCommand:
    def test_m3_row_values(self, tmp_path, capsys):
        out_csv = tmp_path / "h.csv"
        code, _, _ = run_cli(capsys, "harmonic", "--m-range", "3..4", "--csv", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "m,beta_closed,beta_exact,md_lower_bound,g_max,theta_star"
        row3 = lines[1].split(",")
        assert float(row3[1]) == pytest.approx(np.sqrt(3), abs=1e-9)
        assert float(row3[2]) == pytest.approx(float(row3[1]), abs=1e-9)
        assert float(row3[3]) == pytest.approx(float(row3[1]), abs=1e-9)
        row4 = lines[2].split(",")
        assert float(row4[1]) == pytest.approx(1.8477590650225735, abs=1e-9)
        assert float(row4[1]) > float(row4[3])

    def test_beta_exact_above_enumeration_cap(self, tmp_path, capsys):
        # real d = 2 is exact for every m, so beta_exact is filled past 24 rows
        out_csv = tmp_path / "h.csv"
        code, _, _ = run_cli(capsys, "harmonic", "--m-range", "25..26", "--csv", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().splitlines()[1:]
        assert len(lines) == 2
        for line in lines:
            cells = line.split(",")
            assert float(cells[2]) == pytest.approx(float(cells[1]), rel=1e-12)

    def test_bad_range_exits_2(self, capsys):
        assert run_cli(capsys, "harmonic", "--m-range", "5..4")[0] == 2
        assert run_cli(capsys, "harmonic", "--m-range", "2..4")[0] == 2
        assert run_cli(capsys, "harmonic", "--m-range", "nope")[0] == 2

    def test_csv_under_regular_file_exits_3(self, tmp_path, capsys):
        blocker = tmp_path / "regular"
        blocker.write_text("")
        out_csv = blocker / "h.csv"
        code, _, err = run_cli(capsys, "harmonic", "--m-range", "3..5", "--csv", str(out_csv))
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out_csv) in err


class TestGaussianCommand:
    def test_determinism_and_beta0_column(self, tmp_path, capsys):
        args = [
            "gaussian", "--field", "real", "--d", "2", "--m", "20,40",
            "--trials", "2", "--seed", "42",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, *args, "--csv", str(a))[0] == 0
        assert run_cli(capsys, *args, "--csv", str(b), "--threads", "4")[0] == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == "m,trial,U_hat,L_hat,beta_hat,beta_0,excess"
        beta0 = float(lines[1].split(",")[5])
        assert beta0 == pytest.approx(np.sqrt(np.pi / (np.pi - 2)), abs=1e-12)

    def test_bad_m_list_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "gaussian", "--field", "real", "--d", "2", "--m", "40,20", "--trials", "1"
        )
        assert code == 2

    def test_single_complex_row_reports_inf(self, tmp_path, capsys):
        # one complex row cannot do phase retrieval: L_hat is roundoff, beta_hat is inf
        path = tmp_path / "g.csv"
        code, _, _ = run_cli(
            capsys, "gaussian", "--field", "complex", "--d", "2", "--m", "1", "--trials", "1",
            "--csv", str(path),
        )
        assert code == 0
        header, row = path.read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["beta_hat"] == "inf" and cells["excess"] == "inf"

    def test_complex_d2_below_four_rows_reports_zero(self, tmp_path, capsys):
        # below 4 rows no complex 2-column matrix does phase retrieval: the
        # searched L^2 sits at the kernel's roundoff and reads as L_hat = 0
        path = tmp_path / "g.csv"
        code, _, _ = run_cli(
            capsys, "gaussian", "--field", "complex", "--d", "2", "--m", "2,3",
            "--trials", "3", "--csv", str(path),
        )
        assert code == 0
        header, *rows = path.read_text().splitlines()
        assert len(rows) == 6
        for row in rows:
            cells = dict(zip(header.split(","), row.split(",")))
            assert float(cells["L_hat"]) == 0.0 and cells["beta_hat"] == "inf"


class TestKernelCommand:
    def test_rows_and_tightness(self, tmp_path, capsys):
        out_csv = tmp_path / "k.csv"
        code, out, _ = run_cli(
            capsys, "kernel", "--field", "real", "--grid", "3",
            "--mc-samples", "20000", "--seed", "1", "--csv", str(out_csv),
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "theta,closed_form,mc_estimate,mc_se,bound"
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(1.0) and float(first[4]) == pytest.approx(1.0)
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(2 / np.pi, abs=1e-12)
        assert float(last[4]) == pytest.approx(2 / np.pi, abs=1e-12)
        assert out.startswith("rows=3 flagged=")

    def test_complex_tightness(self, tmp_path, capsys):
        out_csv = tmp_path / "k.csv"
        code, _, _ = run_cli(
            capsys, "kernel", "--field", "complex", "--grid", "2",
            "--mc-samples", "20000", "--seed", "2", "--csv", str(out_csv),
        )
        assert code == 0
        last = out_csv.read_text().splitlines()[-1].split(",")
        assert float(last[1]) == pytest.approx(np.pi / 4, abs=1e-8)

    def test_arg_floors_exit_2(self, capsys):
        assert run_cli(capsys, "kernel", "--field", "real", "--grid", "1")[0] == 2
        assert run_cli(capsys, "kernel", "--field", "real", "--mc-samples", "10")[0] == 2


class TestRecoverCommand:
    def test_noiseless_all_hold(self, tmp_path, capsys):
        out_csv = tmp_path / "r.csv"
        code, out, _ = run_cli(
            capsys, "recover", "--gaussian", "40,3", "--noise", "0", "--trials", "3",
            "--seed", "5", "--csv", str(out_csv),
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "trial,residual,certified,dist,bound,holds"
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[3]) <= 1e-8
            assert cells[5] == "true"
        assert "holds_rate=1" in out

    def test_bad_delta_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "recover", "--gaussian", "40,3", "--delta", "0.2", "--trials", "1"
        )
        assert code == 2

    def test_matrix_and_gaussian_mutually_exclusive(self, capsys, tmp_path):
        path = tmp_path / "m.mat"
        write_matrix(path, np.eye(3))
        code, _, _ = run_cli(
            capsys, "recover", "--matrix", str(path), "--gaussian", "4,2", "--trials", "1"
        )
        assert code == 2
        assert run_cli(capsys, "recover", "--trials", "1")[0] == 2

    def test_matrix_input_runs(self, tmp_path, capsys):
        path = tmp_path / "m.mat"
        write_matrix(path, sample_gaussian_matrix(60, 3, Field.REAL, seed=3))
        code, _, _ = run_cli(
            capsys, "recover", "--matrix", str(path), "--noise", "0.05", "--trials", "2",
            "--seed", "1",
        )
        assert code == 0


class TestOptimizeCommand:
    def test_m3_finds_harmonic(self, tmp_path, capsys):
        out_json = tmp_path / "o.json"
        code, _, _ = run_cli(
            capsys, "optimize", "--m", "3", "--restarts", "24", "--seed", "0",
            "--json", str(out_json),
        )
        assert code == 0
        report = json.loads(out_json.read_text())
        assert report["improved"] is False
        assert report["beta_best"] == pytest.approx(np.sqrt(3), abs=1e-4)
        assert len(report["frame"]["radii"]) == 3

    def test_out_of_range_exits_2(self, capsys):
        assert run_cli(capsys, "optimize", "--m", "2")[0] == 2
        assert run_cli(capsys, "optimize", "--m", "17")[0] == 2

    def test_zero_restarts_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "optimize", "--m", "4", "--restarts", "0")
        assert code == 2
        assert "--restarts" in err
