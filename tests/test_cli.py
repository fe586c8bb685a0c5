"""End-to-end command line tests, driven through main() return codes.

Everything runs in-process: main() is called with argv lists and its
integer return value is checked against the documented exit codes.
"""

import numpy as np
import pytest

from vineshift import cli, modelfile
from vineshift.cli import main
from vineshift.dataio import Dataset, read_csv, write_csv


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared pipeline directory: train/test CSVs and a fitted model."""
    root = tmp_path_factory.mktemp("cli")
    assert run("gen", "regression", "-o", root / "train.csv",
               "-n", 200, "-d", 5, "--seed", 1) == 0
    assert run("gen", "regression", "-o", root / "test.csv",
               "-n", 60, "-d", 5, "--seed", 2) == 0
    assert run("fit", root / "train.csv", "-o", root / "model.json",
               "--truncation", 2, "--seed", 0) == 0
    return root


class TestGen:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        assert run("gen", "gaussian-copula-chain", "-o", out,
                   "-n", 50, "-d", 3, "--seed", 7) == 0
        ds = read_csv(out)
        assert ds.names == ["x0", "x1", "x2"]
        assert ds.X.shape == (50, 3)
        assert "wrote 50 rows x 3 columns" in capsys.readouterr().out

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("gen", "bimodal-copula-chain", "-o", a, "-n", 40, "--seed", 3)
        run("gen", "bimodal-copula-chain", "-o", b, "-n", 40, "--seed", 3)
        assert a.read_bytes() == b.read_bytes()

    def test_marginals_flag(self, tmp_path):
        out = tmp_path / "e.csv"
        assert run("gen", "gaussian-copula-chain", "-o", out, "-n", 200,
                   "-d", 2, "--marginals", "gauss,exp", "--seed", 0) == 0
        ds = read_csv(out)
        # exponential column is positive, gaussian one is not
        assert np.all(ds.X[:, 1] > 0) and np.any(ds.X[:, 0] < 0)

    def test_unknown_generator_exits_2(self, tmp_path, capsys):
        assert run("gen", "nope", "-o", tmp_path / "x.csv") == 2
        assert "error:" in capsys.readouterr().err


class TestFit:
    def test_report_and_reproducibility(self, tmp_path, capsys):
        train = tmp_path / "t.csv"
        run("gen", "regression", "-o", train, "-n", 150, "-d", 4, "--seed", 5)
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        assert run("fit", train, "-o", m1, "--seed", 11) == 0
        out = capsys.readouterr().out
        assert "fitted 150 rows x 4 variables, truncation 1" in out
        assert "|tau| =" in out
        assert "model written to" in out
        assert run("fit", train, "-o", m2, "--seed", 11) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_target_and_normalize_flags(self, workdir, tmp_path):
        out = tmp_path / "m.json"
        assert run("fit", workdir / "train.csv", "-o", out,
                   "--target", "x1", "--normalize", "--seed", 0) == 0
        model = modelfile.load(out)
        assert model.variable_names[model.target_index] == "x1"
        assert model.norm_mean is not None

    def test_default_target_is_last_column(self, workdir):
        model = modelfile.load(workdir / "model.json")
        assert model.variable_names[model.target_index] == "y"

    def test_missing_input_exits_2(self, tmp_path, capsys):
        assert run("fit", tmp_path / "absent.csv", "-o", tmp_path / "m.json") == 2
        assert "error:" in capsys.readouterr().err

    def test_non_numeric_cell_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n3,oops\n")
        assert run("fit", bad, "-o", tmp_path / "m.json") == 2

    def test_nan_cell_exits_2(self, tmp_path, capsys):
        train = tmp_path / "t.csv"
        run("gen", "gaussian-copula-chain", "-o", train, "-n", 60, "-d", 3, "--seed", 4)
        ds = read_csv(train)
        ds.X[3, 1] = np.nan
        write_csv(train, ds)
        assert run("fit", train, "-o", tmp_path / "m.json") == 2
        err = capsys.readouterr().err
        assert "row 5, column 'x1': non-finite value 'nan'" in err
        assert not (tmp_path / "m.json").exists()

    def test_too_few_rows_exits_3(self, tmp_path):
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("a,b\n1.0,2.0\n")
        assert run("fit", tiny, "-o", tmp_path / "m.json") == 3

    def test_invalid_setting_exits_3_with_one_line(self, workdir, tmp_path, capsys):
        # a plain ValueError must not fall through to exit 1, the rejection code
        assert run("fit", workdir / "train.csv", "-o", tmp_path / "m.json",
                   "--truncation", 0) == 3
        err = capsys.readouterr().err
        assert err == "error: truncation must be >= 1\n"
        assert not (tmp_path / "m.json").exists()

    def test_unexpected_error_exits_5_with_one_line(self, workdir, tmp_path,
                                                    capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(cli, "fit_vine", broken)
        assert run("fit", workdir / "train.csv", "-o", tmp_path / "m.json") == 5
        err = capsys.readouterr().err
        assert err == "error: internal error: ZeroDivisionError: division by zero\n"


class TestPredictEval:
    def test_predictions_csv(self, workdir, tmp_path, capsys):
        out = tmp_path / "pred.csv"
        assert run("predict", workdir / "model.json", workdir / "test.csv",
                   "-o", out, "--grid-points", 65) == 0
        assert "wrote 60 predictions" in capsys.readouterr().out
        preds = read_csv(out)
        assert preds.names == ["prediction"]
        assert preds.X.shape == (60, 1)
        assert np.all(np.isfinite(preds.X))

    def test_predictions_track_truth(self, workdir, tmp_path):
        out = tmp_path / "pred.csv"
        run("predict", workdir / "model.json", workdir / "test.csv", "-o", out)
        preds = read_csv(out).X[:, 0]
        y = read_csv(workdir / "test.csv").column("y")
        assert np.mean((y - preds) ** 2) < 0.5 * np.var(y)

    def test_log_density_column(self, workdir, tmp_path):
        out = tmp_path / "pred.csv"
        assert run("predict", workdir / "model.json", workdir / "test.csv",
                   "-o", out, "--log-density") == 0
        preds = read_csv(out)
        assert preds.names == ["prediction", "log_density"]
        ld = preds.column("log_density")
        assert np.all(np.isfinite(ld))
        # observed targets should usually sit in the bulk of the density
        assert np.median(ld) > -3.0

    def test_feature_only_rows_accepted(self, workdir, tmp_path):
        feats = read_csv(workdir / "test.csv").drop("y")
        f = tmp_path / "feat.csv"
        write_csv(f, feats)
        assert run("predict", workdir / "model.json", f,
                   "-o", tmp_path / "p.csv") == 0

    def test_log_density_without_target_exits_4(self, workdir, tmp_path):
        feats = read_csv(workdir / "test.csv").drop("y")
        f = tmp_path / "feat.csv"
        write_csv(f, feats)
        assert run("predict", workdir / "model.json", f,
                   "-o", tmp_path / "p.csv", "--log-density") == 4

    def test_missing_feature_column_exits_4(self, workdir, tmp_path):
        broken = read_csv(workdir / "test.csv").drop("x2")
        f = tmp_path / "broken.csv"
        write_csv(f, broken)
        assert run("predict", workdir / "model.json", f,
                   "-o", tmp_path / "p.csv") == 4

    def test_eval_metrics(self, workdir, capsys):
        assert run("eval", workdir / "model.json", workdir / "test.csv",
                   "--grid-points", 65) == 0
        out = capsys.readouterr().out
        nmse = float(out.split("NMSE:")[1].split()[0])
        tll = float(out.split("TLL:")[1].split()[0])
        assert 0.0 < nmse < 0.8
        assert np.isfinite(tll)


@pytest.fixture(scope="module")
def adapted(workdir, tmp_path_factory):
    root = tmp_path_factory.mktemp("adapt")
    run("gen", "regression-shifted", "-o", root / "tgt.csv",
        "-n", 120, "-d", 5, "--seed", 9)
    tgt = read_csv(root / "tgt.csv")
    write_csv(root / "labeled.csv", Dataset(tgt.names, tgt.X[:60]))
    write_csv(root / "unlabeled.csv", Dataset(tgt.names, tgt.X[60:]).drop("y"))
    rc = run("adapt", workdir / "model.json", "-o", root / "adapted.json",
             "--target-labeled", root / "labeled.csv",
             "--target-unlabeled", root / "unlabeled.csv",
             "--permutations", 100, "--seed", 0,
             "--report", root / "report.txt")
    return root, rc


class TestAdapt:
    def test_exit_and_outputs(self, adapted, capsys):
        root, rc = adapted
        assert rc == 0
        assert (root / "adapted.json").exists()
        assert (root / "report.txt").exists()

    def test_report_mentions_marginals(self, adapted):
        root, _ = adapted
        text = (root / "report.txt").read_text()
        # the generator shifts features 0 and 3 only
        assert "marginal(0)" in text and "marginal(3)" in text

    def test_adapted_model_improves_eval(self, adapted, workdir, tmp_path, capsys):
        root, _ = adapted
        run("gen", "regression-shifted", "-o", tmp_path / "shifted_test.csv",
            "-n", 80, "-d", 5, "--seed", 30)
        run("eval", workdir / "model.json", tmp_path / "shifted_test.csv",
            "--grid-points", 65)
        nmse_src = float(capsys.readouterr().out.split("NMSE:")[1].split()[0])
        run("eval", root / "adapted.json", tmp_path / "shifted_test.csv",
            "--grid-points", 65)
        nmse_adp = float(capsys.readouterr().out.split("NMSE:")[1].split()[0])
        assert nmse_adp < nmse_src

    def test_unsupervised_mode(self, adapted, workdir, tmp_path):
        root, _ = adapted
        assert run("adapt", workdir / "model.json", "-o", tmp_path / "u.json",
                   "--target-unlabeled", root / "unlabeled.csv",
                   "--mode", "unsupervised", "--permutations", 50) == 0

    def test_adapted_model_is_refused_exits_4(self, adapted, tmp_path, capsys):
        root, _ = adapted
        capsys.readouterr()
        assert run("adapt", root / "adapted.json", "-o", tmp_path / "again.json",
                   "--target-labeled", root / "labeled.csv",
                   "--target-unlabeled", root / "unlabeled.csv",
                   "--permutations", 20) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: only a source model can be adapted")
        assert err.count("\n") == 1
        assert not (tmp_path / "again.json").exists()

    def test_supervised_without_labels_exits_4(self, workdir, tmp_path, adapted):
        root, _ = adapted
        assert run("adapt", workdir / "model.json", "-o", tmp_path / "s.json",
                   "--target-unlabeled", root / "unlabeled.csv",
                   "--mode", "supervised") == 4


class TestMmdTest:
    def test_same_distribution_exits_0(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("gen", "gaussian-copula-chain", "-o", a, "-n", 120, "-d", 3, "--seed", 21)
        run("gen", "gaussian-copula-chain", "-o", b, "-n", 120, "-d", 3, "--seed", 22)
        assert run("mmd-test", a, b, "--permutations", 100, "--seed", 0) == 0
        out = capsys.readouterr().out
        assert "no significant difference" in out

    def test_shift_exits_1(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        run("gen", "gaussian-copula-chain", "-o", a, "-n", 120, "-d", 3, "--seed", 21)
        ds = read_csv(a)
        ds.X[:, 0] += 3.0
        write_csv(tmp_path / "b.csv", ds)
        assert run("mmd-test", a, tmp_path / "b.csv",
                   "--permutations", 100, "--seed", 0) == 1
        assert "distributions differ" in capsys.readouterr().out

    def test_nan_cell_exits_2_without_verdict(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("gen", "gaussian-copula-chain", "-o", a, "-n", 60, "-d", 3, "--seed", 21)
        ds = read_csv(a)
        ds.X[0, 0] = np.inf
        write_csv(b, ds)
        capsys.readouterr()
        assert run("mmd-test", a, b, "--permutations", 50, "--seed", 0) == 2
        captured = capsys.readouterr()
        assert "row 2, column 'x0': non-finite value 'inf'" in captured.err
        assert "verdict" not in captured.out

    def test_column_mismatch_exits_4(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("gen", "gaussian-copula-chain", "-o", a, "-n", 30, "-d", 3, "--seed", 0)
        run("gen", "gaussian-copula-chain", "-o", b, "-n", 30, "-d", 4, "--seed", 0)
        assert run("mmd-test", a, b) == 4


class TestDensityBench:
    def test_table_and_csv(self, tmp_path, capsys):
        csv = tmp_path / "rows.csv"
        assert run("density-bench", "--samples", 160, "--repetitions", 2,
                   "--truncation", 1, "--seed", 0, "--csv", csv) == 0
        out = capsys.readouterr().out
        for name in ("gauss-chain", "exp-chain", "bimodal-chain"):
            assert name in out
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "dataset,method,repetition,tll"
        assert len(lines) == 1 + 3 * 3 * 2  # datasets x methods x reps
