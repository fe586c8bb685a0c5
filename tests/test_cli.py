"""End-to-end command line tests, driven through main() return codes.

Everything runs in-process: main() is called with argv lists and its
integer return value is checked against the documented exit codes.
"""

import base64
import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from hypothesis import given, settings
from hypothesis import strategies as st

from vineshift import cli, modelfile
from vineshift.cli import main
from vineshift.dataio import Dataset, read_csv, write_csv
from vineshift.mmd import MmdConfig, permutation_test
from vineshift.regress import conditional_density_batch, default_grid

from model_docs import as_v1, b64, floats


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

    @pytest.mark.parametrize("generator,flags,message", [
        pytest.param("bimodal-copula-chain", ["--rho", 1.5],
                     "rho must lie in [-1, 1], got 1.5", id="rho_above_1"),
        pytest.param("gaussian-copula-chain", ["--rho", -1.01],
                     "rho must lie in [-1, 1], got -1.01", id="rho_below_minus_1"),
        pytest.param("gaussian-copula-chain", ["-d", 0],
                     "the chain needs at least one variable, got 0", id="empty_chain"),
        pytest.param("regression", ["-d", 1],
                     "regression_task needs d >= 2 (a feature and the target), got 1",
                     id="no_features"),
        pytest.param("regression", ["--noise", "nan"],
                     "noise must be finite and non-negative, got nan", id="nan_noise"),
        pytest.param("bimodal-copula-chain", ["--mix-weight", 7],
                     "mix_weight must lie in [0, 1], got 7.0", id="mix_weight_above_1"),
    ])
    def test_invalid_parameters_exit_3_with_one_line(self, tmp_path, capsys, generator,
                                                     flags, message):
        # a |rho| above 1 or a nan noise would write nan columns that
        # read_csv refuses; an empty chain used to end in an IndexError
        out = tmp_path / "g.csv"
        assert run("gen", generator, "-o", out, "-n", 20, *flags) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("generator,flags,unread", [
        pytest.param("gaussian-chain", ["--noise", 0.3, "--mix-weight", 0.2],
                     "mix_weight, noise", id="chain_noise_and_mix_weight"),
        pytest.param("regression", ["--marginals", "exp,uniform"], "marginals",
                     id="regression_marginals"),
        pytest.param("bimodal-chain", ["--marginals", "lognormal"], "marginals",
                     id="bimodal_marginals"),
        pytest.param("regression-shifted", ["--rho", 0.5, "--mix-weight", 0.5], "mix_weight",
                     id="shifted_mix_weight"),
    ])
    def test_flag_the_generator_does_not_read_exits_3(self, tmp_path, capsys, generator,
                                                       flags, unread):
        # these used to exit 0 and drop the flag
        out = tmp_path / "g.csv"
        assert run("gen", generator, "-o", out, "-n", 20, *flags) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: generator '{generator}' takes no {unread}; ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_shifted_regression_without_feature_3_exits_3(self, tmp_path, capsys, d):
        # REGRESSION_SHIFTS widens feature 3; this used to end in an IndexError (exit 5)
        out = tmp_path / "g.csv"
        assert run("gen", "regression-shifted", "-o", out, "-n", 20, "-d", d) == 3
        assert capsys.readouterr().err == \
            f"error: shift column 3 is not a feature: features are 0..{d - 2}\n"
        assert not out.exists()


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

    def test_target_and_normalize_flags(self, workdir, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert run("fit", workdir / "train.csv", "-o", out,
                   "--target", "x1", "--seed", 0) == 0
        model = modelfile.load(out)
        assert model.variable_names[model.target_index] == "x1"
        # fits are affine-equivariant, so there is no rescaling option
        with pytest.raises(SystemExit) as exc:
            run("fit", workdir / "train.csv", "-o", out, "--normalize")
        assert exc.value.code == 2
        assert "--normalize" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command, content, message", [
        ("fit", b"a,b\n1,2\n3,\xff\n", "row 3: 'utf-8' codec can't decode byte 0xff"),
        ("mmd-test", b"a,b\n1,2\n3,\xff\n", "row 3: 'utf-8' codec can't decode byte 0xff"),
        ("fit", b"a,b\n1,2\n3," + b"4" * 131073 + b"\n", "row 3: field larger than"),
        ("eval", b'{"format": "\xff"}', "not valid JSON"),
        ("eval", b"[" * 200000 + b"]" * 200000, "not valid JSON"),
        ("eval", b'{"created": ' + b"7" * 5000 + b"}", "not valid JSON")],
        ids=["non_utf8_csv", "non_utf8_csv_mmd", "oversized_cell", "non_utf8_model",
             "deeply_nested_model", "overlong_integer_model"])
    def test_unreadable_bytes_exit_2_with_one_line(self, workdir, tmp_path, capsys,
                                                   command, content, message):
        # text that is not UTF-8, a CSV cell over csv.field_size_limit(),
        # JSON nested past the recursion limit and an integer literal past
        # Python's digit limit name the file they are in
        bad = tmp_path / ("bad.json" if command == "eval" else "bad.csv")
        bad.write_bytes(content)
        args = {"fit": (bad, "-o", tmp_path / "m.json"), "mmd-test": (bad, bad),
                "eval": (bad, workdir / "test.csv")}[command]
        assert run(command, *args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: {message}") and err.count("\n") == 1
        assert not (tmp_path / "m.json").exists()

    def test_repeated_header_name_exits_2_naming_the_file(self, tmp_path, capsys):
        bad = tmp_path / "rep.csv"
        bad.write_text("a,b,a\n1,2,3\n4,5,6\n")
        assert run("fit", bad, "-o", tmp_path / "m.json") == 2
        assert capsys.readouterr().err == f"error: {bad}: name 'a' is given twice\n"
        assert not (tmp_path / "m.json").exists()

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

    def test_spread_near_the_float_limit_fits(self, tmp_path, capsys):
        # the standard deviation of values near 1e300 is taken on the column
        # scaled by a power of two, so it does not overflow: the fit writes
        # finite bandwidths, with no warning, and the file loads and scores
        X = np.random.default_rng(0).standard_normal((200, 4)) * 1e300
        write_csv(tmp_path / "big.csv", Dataset(["a", "b", "c", "d"], X))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("fit", tmp_path / "big.csv", "-o", tmp_path / "m.json") == 0
            model = modelfile.load(tmp_path / "m.json")
            assert np.isfinite(model.log_density(X)).all()
        assert capsys.readouterr().err == ""
        assert all(np.isfinite(m.bandwidth) for m in model.marginals)

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

    def test_log_density_builds_the_densities_once(self, workdir, tmp_path, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return densities(*args)

        densities = cli.conditional_densities
        monkeypatch.setattr(cli, "conditional_densities", counted)
        both, plain = tmp_path / "both.csv", tmp_path / "plain.csv"
        assert run("predict", workdir / "model.json", workdir / "test.csv",
                   "-o", both, "--log-density") == 0
        assert len(calls) == 1
        assert run("predict", workdir / "model.json", workdir / "test.csv", "-o", plain) == 0
        assert np.array_equal(read_csv(both).column("prediction"),
                              read_csv(plain).column("prediction"))

    def test_log_density_on_the_grid_and_past_it(self, workdir, tmp_path):
        # on a grid point: the log of the normalised grid density there;
        # past the grid: finite and falling, where interpolation clamped
        model = modelfile.load(workdir / "model.json")
        grid = default_grid(model, 65)
        test = read_csv(workdir / "test.csv")
        X = np.repeat(test.X[:2], 3, axis=0)
        cols = [10, 40, 64, 0, 0, 0]
        X[:, -1] = grid.points[cols]
        X[4:, -1] = grid.points[-1] + np.array([5.0, 50.0])
        f, out = tmp_path / "y.csv", tmp_path / "p.csv"
        write_csv(f, Dataset(test.names, X))
        assert run("predict", workdir / "model.json", f, "-o", out,
                   "--grid-points", 65, "--log-density") == 0
        ld = read_csv(out).column("log_density")
        dens = conditional_density_batch(model, X[:, :-1], grid)
        assert_allclose(ld[:4], np.log(dens[np.arange(4), cols[:4]]), rtol=1e-12)
        assert np.all(np.isfinite(ld)) and ld[3] > ld[4] > ld[5]

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

    def test_eval_matches_columns_by_name(self, workdir, tmp_path, capsys):
        test = read_csv(workdir / "test.csv")
        f = tmp_path / "reversed.csv"
        write_csv(f, Dataset(test.names[::-1], test.X[:, ::-1]))
        outputs = []
        for path in (workdir / "test.csv", f):
            assert run("eval", workdir / "model.json", path, "--grid-points", 65) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_extra_column_exits_4_with_one_line(self, workdir, tmp_path, capsys, command):
        test = read_csv(workdir / "test.csv")
        f = tmp_path / "extra.csv"
        write_csv(f, Dataset(test.names + ["z"], np.column_stack([test.X, test.X[:, 0]])))
        out = ["-o", tmp_path / "p.csv"] if command == "predict" else []
        assert run(command, workdir / "model.json", f, *out) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: unexpected columns ['z']") and err.count("\n") == 1

    def test_eval_metrics(self, workdir, capsys):
        assert run("eval", workdir / "model.json", workdir / "test.csv",
                   "--grid-points", 65) == 0
        out = capsys.readouterr().out
        nmse = float(out.split("NMSE:")[1].split()[0])
        tll = float(out.split("TLL:")[1].split()[0])
        assert 0.0 < nmse < 0.8
        assert np.isfinite(tll)

    @pytest.mark.parametrize("field", ["node_pair", "conditioning"])
    def test_contradictory_model_file_exits_2_with_one_line(self, workdir, tmp_path,
                                                            capsys, field):
        # a tree-2 edge naming a missing parent, or a conditioning set
        # that disagrees with its parents
        doc = modelfile.model_to_doc(modelfile.load(workdir / "model.json"))
        edge = doc["trees"][1]["edges"][0]
        edge[field] = [0, 99] if field == "node_pair" else [
            v for v in range(5) if v not in edge["conditioned"] + edge["conditioning"]][:1]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        assert run("eval", broken, workdir / "test.csv", "--grid-points", 65) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_wrong_node_count_exits_2_with_one_line(self, workdir, tmp_path, capsys):
        # tree 2 of the 5-variable model given 3 of its 4 nodes; its edges are intact
        doc = modelfile.model_to_doc(modelfile.load(workdir / "model.json"))
        doc["trees"][1]["nodes"] = doc["trees"][1]["nodes"][:3]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        assert run("predict", broken, workdir / "test.csv", "-o", tmp_path / "pred.csv") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "tree 2 has 3 nodes" in err

    @pytest.mark.parametrize("command", ["eval", "predict", "adapt"])
    @pytest.mark.parametrize("corrupt", ["nan_marginal_center", "inf_copula_center",
                                         "nan_v1_marginal_center", "bad_base64",
                                         "partial_float", "unequal_copula_centers",
                                         "list_in_v2", "string_in_v1",
                                         "three_conditioned", "one_conditioned",
                                         "fractional_target_index", "fractional_level",
                                         "fractional_node_pair", "fractional_created",
                                         "huge_integer_bandwidth", "repeated_name",
                                         "string_names"])
    def test_corrupt_model_file_exits_2_with_one_line(self, workdir, tmp_path, capsys,
                                                     command, corrupt):
        # a stored float array must decode to whole, finite float64s in the
        # form its format_version uses; an edge's conditioned list must name
        # exactly two variables; an integer field must hold a JSON integer,
        # and a float field a number a float can hold; variable_names must
        # be a list of names, none repeated (a repeated name read one CSV
        # column for both variables)
        doc = modelfile.model_to_doc(modelfile.load(workdir / "model.json"))
        edge = doc["trees"][0]["edges"][0]
        centers, z = floats(doc["marginals"][0]["centers"]), floats(edge["copula"]["z_centers"])
        if corrupt == "nan_marginal_center":
            doc["marginals"][0]["centers"] = b64(np.r_[np.nan, centers[1:]])
        elif corrupt == "inf_copula_center":
            edge["copula"]["z_centers"] = b64(np.r_[np.inf, z[1:]])
        elif corrupt == "nan_v1_marginal_center":
            # json reads NaN as a float
            doc = as_v1(doc)
            doc["marginals"][0]["centers"][0] = float("nan")
        elif corrupt == "bad_base64":
            doc["marginals"][0]["centers"] = "*" + doc["marginals"][0]["centers"][1:]
        elif corrupt == "partial_float":
            edge["copula"]["z_centers"] = base64.b64encode(z.tobytes()[:-3]).decode("ascii")
        elif corrupt == "unequal_copula_centers":
            edge["copula"]["z_centers"] = b64(z[1:])
        elif corrupt == "list_in_v2":
            edge["copula"]["z_centers"] = z.tolist()
        elif corrupt == "string_in_v1":
            doc = as_v1(doc)
            doc["marginals"][0]["centers"] = b64(centers)
        elif corrupt == "fractional_target_index":
            doc["target_index"] -= 0.1
        elif corrupt == "fractional_level":
            doc["trees"][0]["level"] = 1.5
        elif corrupt == "fractional_node_pair":
            edge["node_pair"] = [i + 0.4 for i in edge["node_pair"]]
        elif corrupt == "fractional_created":
            doc["created"] = 1.7
        elif corrupt == "huge_integer_bandwidth":
            # a JSON integer too large for a float
            doc["marginals"][0]["bandwidth"] = 10 ** 400
        elif corrupt == "repeated_name":
            doc["variable_names"][1] = doc["variable_names"][0]
        elif corrupt == "string_names":
            doc["variable_names"] = "abcdefghij"[:len(doc["variable_names"])]
        else:
            length = 3 if corrupt == "three_conditioned" else 1
            edge["conditioned"] = (edge["conditioned"] * 2)[:length]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        test = workdir / "test.csv"
        rest = {"eval": [test, "--grid-points", 65],
                "predict": [test, "--grid-points", 65, "-o", tmp_path / "pred.csv"],
                "adapt": ["-o", tmp_path / "a.json", "--target-labeled", test]}[command]
        assert run(command, broken, *rest) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if corrupt.startswith(("nan", "inf")):
            # the file is refused before a model is constructed from it
            assert "non-finite" in err
        if corrupt in ("repeated_name", "string_names"):
            assert ("is given twice" if corrupt == "repeated_name" else "list of strings") in err

    @pytest.mark.parametrize("corrupt", ["zero_std", "negative_std", "overflowing_std",
                                         "nonzero_gamma"])
    def test_refused_model_values_exit_2_with_one_line(self, workdir, tmp_path, capsys,
                                                       corrupt):
        # an earlier file's normalization block is folded into the
        # marginals, which a zero std would collapse and a huge one
        # overflow to inf (refused with no warning on stderr); kernel
        # copulas carry no off-diagonal bandwidth
        model_path = tmp_path / "m.json"
        assert run("fit", workdir / "train.csv", "-o", model_path) == 0
        doc = json.loads(model_path.read_text())
        if corrupt == "nonzero_gamma":
            doc["trees"][0]["edges"][0]["copula"]["gamma"] = 0.05
        else:
            d = len(doc["variable_names"])
            std = {"zero_std": 0.0, "negative_std": -1.0, "overflowing_std": 1e308}[corrupt]
            doc["normalization"] = {"mean": [0.0] * d, "std": [std] + [1.0] * (d - 1)}
        model_path.write_text(json.dumps(doc))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("eval", model_path, workdir / "test.csv", "--grid-points", 65) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "TLL" not in captured.out


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


@pytest.mark.parametrize("command", ["adapt", "predict", "eval"])
def test_model_without_target_exits_4_with_one_line(workdir, tmp_path, capsys, command):
    doc = json.loads((workdir / "model.json").read_text())
    doc["target_index"] = None
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    test = workdir / "test.csv"
    rest = {"adapt": ["-o", tmp_path / "a.json", "--target-labeled", test],
            "predict": [test, "-o", tmp_path / "p.csv"],
            "eval": [test]}[command]
    capsys.readouterr()
    assert run(command, model, *rest) == 4
    assert capsys.readouterr().err == \
        "error: model has no target variable; refit with --target\n"


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

    def test_reports_the_bandwidth(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("gen", "gaussian-copula-chain", "-o", a, "-n", 60, "-d", 2, "--seed", 21)
        run("gen", "gaussian-copula-chain", "-o", b, "-n", 60, "-d", 2, "--seed", 22)
        capsys.readouterr()
        run("mmd-test", a, b, "--permutations", 50, "--seed", 0)
        bw = permutation_test(read_csv(a).X, read_csv(b).X,
                              MmdConfig(permutations=50, seed=0)).bandwidth
        assert f"bandwidth:       {bw:.6g}\n" in capsys.readouterr().out

    def test_same_distribution_near_1e160_exits_0(self, tmp_path, capsys):
        # squared distances of values near 1e160 overflow unless the rows are
        # scaled first; a nan statistic would be read as a rejection
        rng = np.random.default_rng(5)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, Dataset(["x", "y"], 1e160 * rng.standard_normal((80, 2))))
        write_csv(b, Dataset(["x", "y"], 1e160 * rng.standard_normal((80, 2))))
        assert run("mmd-test", a, b, "--permutations", 100, "--seed", 0) == 0
        out = capsys.readouterr().out
        assert "nan" not in out and "no significant difference" in out

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

    def test_column_mismatch_names_both_column_lists(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("gen", "gaussian-copula-chain", "-o", a, "-n", 30, "-d", 2, "--seed", 0)
        write_csv(b, Dataset(["x0", "z"], read_csv(a).X))
        capsys.readouterr()
        assert run("mmd-test", a, b) == 4
        assert capsys.readouterr().err == \
            "error: column mismatch: ['x0', 'x1'] vs ['x0', 'z']\n"

    def test_columns_are_matched_by_name(self, tmp_path, capsys):
        # a column-reversed copy exited 4 "column mismatch"
        a, rev = tmp_path / "a.csv", tmp_path / "rev.csv"
        run("gen", "regression", "-o", a, "-n", 60, "-d", 4, "--seed", 0)
        ds = read_csv(a)
        write_csv(rev, Dataset(ds.names[::-1], ds.X[:, ::-1]))
        capsys.readouterr()
        outputs = []
        for b in (a, rev):
            assert run("mmd-test", a, b, "--permutations", 50) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "bandwidth:" in outputs[0]


def test_mmd_commands_default_to_mmd_config(workdir, adapted, tmp_path, monkeypatch):
    # the defaults of --alpha, --permutations and --seed are MmdConfig's
    configs = []
    test, adapt_vine = cli.permutation_test, cli.adapt_vine
    monkeypatch.setattr(cli, "permutation_test",
                        lambda a, b, cfg: configs.append(cfg) or test(a, b, cfg))
    monkeypatch.setattr(cli, "adapt_vine",
                        lambda model, inp: configs.append(inp.mmd_config) or adapt_vine(model, inp))
    csv = workdir / "test.csv"
    assert run("mmd-test", csv, csv) == 0
    root, _ = adapted
    assert run("adapt", workdir / "model.json", "-o", tmp_path / "adapted.json",
               "--target-labeled", root / "labeled.csv") == 0
    assert configs == [MmdConfig(), MmdConfig()]


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


class TestSourceRows:
    """adapt recovers the source rows from the marginal kernel centres."""

    @pytest.mark.parametrize("legacy", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_recovered_rows_equal_training_rows(self, tmp_path, seed, legacy):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((60, 4)) * [0.01, 1.0, 37.0, 1000.0] + [5.0, -2.0, 0.0, 1e4]
        write_csv(tmp_path / "train.csv", Dataset(["a", "b", "c", "y"], X))
        path = tmp_path / "m.json"
        assert run("fit", tmp_path / "train.csv", "-o", path) == 0
        if not legacy:
            assert np.array_equal(cli._source_dataset(modelfile.load(path)).X, X)
            return
        # an earlier file stored marginals of z = (x - mean) / std and the
        # map; its rows come back as mean + std * z, as they always did
        doc = as_v1(json.loads(path.read_text()))
        mean, std = X.mean(axis=0), X.std(axis=0)
        Z = (X - mean) / std
        for i, marg in enumerate(doc["marginals"]):
            marg["centers"] = Z[:, i].tolist()
            marg["bandwidth"] /= std[i]
        doc["normalization"] = {"mean": mean.tolist(), "std": std.tolist()}
        path.write_text(json.dumps(doc))
        rows = cli._source_dataset(modelfile.load(path)).X
        assert np.array_equal(rows, mean + std * Z)
        # mean + std * ((x - mean) / std) rounds three times: to first
        # order |error| <= eps (1.5 |x - mean| + 0.5 |x|), many ulps of
        # x itself when x is much closer to 0 than to its column mean
        bound = 2.0 * np.finfo(float).eps * (np.abs(X) + np.abs(X - mean))
        assert np.all(np.abs(rows - X) <= bound)


# Cells, lines and cuts that a corrupted CSV may hold.
CSV_TOKENS = ["nan", "inf", "-inf", "", "abc", "1e999", "5e-324", "0", "-0", "1,5",
              "3.5", "1e6", "x0", "y", '"', "\t"]
EXIT_CODES = {0, 1, 2, 3, 4, 5}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A small clean CSV and a model fitted to it."""
    root = tmp_path_factory.mktemp("fuzz")
    assert run("gen", "regression", "-o", root / "base.csv", "-n", 40, "-d", 3,
               "--seed", 3) == 0
    assert run("fit", root / "base.csv", "-o", root / "model.json", "--seed", 0) == 0
    return root


def _corrupt(text: str, edits) -> str:
    lines = text.splitlines()
    for kind, i, j, token in edits:
        if kind == "truncate":
            text = "\n".join(lines)
            lines = text[:i % (len(text) + 1)].splitlines()
        elif lines and kind == "drop_line":
            del lines[i % len(lines)]
        elif lines:
            cells = lines[i % len(lines)].split(",")
            cells[j % len(cells)] = token
            lines[i % len(lines)] = ",".join(cells)
    return "\n".join(lines) + "\n"


@given(command=st.sampled_from(["fit", "predict", "eval", "adapt", "mmd-test"]),
       edits=st.lists(st.tuples(st.sampled_from(["cell", "cell", "drop_line", "truncate"]),
                                st.integers(0, 10**6), st.integers(0, 10**6),
                                st.sampled_from(CSV_TOKENS)),
                      min_size=1, max_size=3))
@settings(max_examples=100, deadline=None)
def test_corrupted_csv_gives_documented_exit_code(fuzz_dir, command, edits):
    # every subcommand that reads a CSV returns a documented exit code and,
    # unless it succeeded or mmd-test found a difference, one error line
    base, model = fuzz_dir / "base.csv", fuzz_dir / "model.json"
    bad = fuzz_dir / "bad.csv"
    bad.write_text(_corrupt(base.read_text(), edits))
    argv = {
        "fit": ["fit", bad, "-o", fuzz_dir / "fitted.json"],
        "predict": ["predict", model, bad, "-o", fuzz_dir / "pred.csv", "--grid-points", 33],
        "eval": ["eval", model, bad, "--grid-points", 33],
        "adapt": ["adapt", model, "-o", fuzz_dir / "adapted.json",
                  "--target-labeled", bad, "--permutations", 50],
        "mmd-test": ["mmd-test", base, bad, "--permutations", 50],
    }[command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(*argv)
    assert code in EXIT_CODES
    if code == 0 or (command == "mmd-test" and code == 1):
        assert err.getvalue() == ""
        assert "nan" not in out.getvalue()
        if command == "predict":
            assert "nan" not in (fuzz_dir / "pred.csv").read_text()
    else:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
