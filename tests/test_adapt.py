import json
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vineshift import adapt
from vineshift.adapt import (MIN_REFIT, MIN_TEST, AdaptationInput,
                             AdaptationReport, FactorDecision, adapt_vine)
from vineshift.bicopula import IndependenceCopula
from vineshift.dataio import Dataset
from vineshift.errors import InsufficientDataError, SchemaError
from vineshift.mmd import MmdConfig
from vineshift.modelfile import model_to_doc
from vineshift.rvine import fit_vine
from vineshift.statcore import GaussianKernel1D
from vineshift.synth import (copula_flip_pair, gaussian_copula_chain,
                             marginal_shift_pair)

STRICT = MmdConfig(permutations=500, alpha=0.002, seed=0)


def fit_source(src, truncation=2, target_index=None):
    return fit_vine(src.X, truncation=truncation,
                    variable_names=src.names, target_index=target_index)


class TestExactCopyIsNoOp:
    def test_no_factor_flagged_and_pooled_refit_is_exact(self):
        # same distribution on both sides: nothing flags, and the
        # adapted model must equal a fresh fit on the stacked rows,
        # float for float
        rng = np.random.default_rng(0)
        src = gaussian_copula_chain(200, 4, 0.7, rng)
        tgt = gaussian_copula_chain(150, 4, 0.7, rng)
        model = fit_source(src, target_index=3)
        inp = AdaptationInput(source=src, target_labeled=tgt,
                              target_unlabeled=None, target_index=3,
                              mode="supervised",
                              mmd_config=MmdConfig(permutations=100, seed=0))
        adapted, report = adapt_vine(model, inp)
        assert report.n_changed_marginals == 0
        assert report.n_changed_copulas == 0
        assert all(d.refit_from == "pooled" for d in report.decisions)

        pooled = fit_vine(np.vstack([src.X, tgt.X]), truncation=2,
                          variable_names=src.names, target_index=3)
        for a, b in zip(adapted.marginals, pooled.marginals):
            assert np.array_equal(a.centers, b.centers)
            assert a.bandwidth == b.bandwidth
        cop_a = {e.label(): e.copula for t in adapted.trees for e in t.edges}
        cop_b = {e.label(): e.copula for t in pooled.trees for e in t.edges}
        assert set(cop_a) == set(cop_b)
        for label in cop_a:
            assert np.array_equal(cop_a[label].z_centers, cop_b[label].z_centers)
            assert np.array_equal(cop_a[label].w_centers, cop_b[label].w_centers)
            assert cop_a[label].sigma_z == cop_b[label].sigma_z
            assert cop_a[label].sigma_w == cop_b[label].sigma_w

    def test_topology_is_frozen(self):
        rng = np.random.default_rng(1)
        src = gaussian_copula_chain(300, 5, 0.6, rng)
        tgt = gaussian_copula_chain(250, 5, 0.6, rng)
        model = fit_source(src, truncation=3, target_index=4)
        adapted, _ = adapt_vine(model, AdaptationInput(
            source=src, target_labeled=tgt, target_unlabeled=None,
            target_index=4, mode="supervised",
            mmd_config=MmdConfig(permutations=60, seed=1)))
        for t_src, t_new in zip(model.trees, adapted.trees):
            assert [e.label() for e in t_src.edges] == \
                [e.label() for e in t_new.edges]
            assert [e.node_pair for e in t_src.edges] == \
                [e.node_pair for e in t_new.edges]


class TestSourceVine:
    """adapt_vine refits copulas on a copy of the source trees."""

    def shifted_inputs(self, mode):
        rng = np.random.default_rng(15)
        src, tgt = marginal_shift_pair(250, 4, 0.6, rng, shift_col=0, shift=2.0)
        lab = None if mode == "unsupervised" else Dataset(src.names, tgt.X[:60])
        unl = Dataset(src.names[:3], tgt.X[60:, :3])
        return AdaptationInput(source=src, target_labeled=lab, target_unlabeled=unl,
                               target_index=3, mode=mode,
                               mmd_config=MmdConfig(permutations=60, seed=15))

    @pytest.mark.parametrize("mode", ["supervised", "semi_supervised", "unsupervised"])
    def test_source_vine_untouched(self, mode):
        inp = self.shifted_inputs(mode)
        model = fit_source(inp.source, truncation=3, target_index=3)
        before = model_to_doc(model)
        copulas = [e.copula for t in model.trees for e in t.edges]
        adapted, report = adapt_vine(model, inp)
        assert report.n_changed_marginals >= 1
        assert all(e.copula is c for e, c in zip((e for t in model.trees for e in t.edges),
                                                 copulas, strict=True))
        assert json.dumps(model_to_doc(model), sort_keys=True) == \
            json.dumps(before, sort_keys=True)
        assert not any(a is b for ta, tb in zip(model.trees, adapted.trees)
                       for a, b in zip(ta.edges, tb.edges))

    @pytest.mark.parametrize("mode", ["semi_supervised", "unsupervised"])
    def test_independence_edge_stays_independence(self, mode):
        inp = self.shifted_inputs(mode)
        model = fit_source(inp.source, truncation=2, target_index=3)
        for tree in model.trees:
            tree.edges[0].copula = IndependenceCopula()
        adapted, _ = adapt_vine(model, inp)
        for tree in adapted.trees:
            assert isinstance(tree.edges[0].copula, IndependenceCopula)
            assert not any(isinstance(e.copula, IndependenceCopula) for e in tree.edges[1:])

    @pytest.mark.parametrize("mode, target_rows, y_rows", [
        ("semi_supervised", 60 + 190, 250 + 60), ("unsupervised", 190, 0)])
    def test_marginal_cdfs_only_where_a_test_reads_them(self, mode, target_rows, y_rows,
                                                        monkeypatch):
        # a feature's cdf is taken on the 250 source rows and every target
        # row, the target's on the source and the 60 labeled rows only, and
        # not at all when every y-edge is copied
        inp = self.shifted_inputs(mode)
        model = fit_source(inp.source, truncation=2, target_index=3)
        rows = []
        cdf = GaussianKernel1D.cdf
        monkeypatch.setattr(GaussianKernel1D, "cdf",
                            lambda self, x: rows.append(np.size(x)) or cdf(self, x))
        adapt_vine(model, inp)
        assert sum(rows) == 3 * (250 + target_rows) + y_rows


class TestShiftDetection:
    def test_marginal_shift_flags_exactly_that_marginal(self):
        rng = np.random.default_rng(2)
        src, tgt = marginal_shift_pair(400, 5, 0.6, rng, shift_col=2,
                                       shift=3.0)
        model = fit_source(src, target_index=4)
        adapted, report = adapt_vine(model, AdaptationInput(
            source=src, target_labeled=tgt, target_unlabeled=None,
            target_index=4, mode="supervised", mmd_config=STRICT))
        flagged = [d.factor_id for d in report.decisions if d.changed]
        assert flagged == ["marginal(2)"]
        dec = {d.factor_id: d for d in report.decisions}
        assert dec["marginal(2)"].refit_from == "target_only"

    def test_copula_flip_flags_edge_not_marginals(self):
        rng = np.random.default_rng(3)
        src, tgt = copula_flip_pair(400, 5, 0.6, rng, flip_link=1)
        model = fit_source(src, target_index=4)
        adapted, report = adapt_vine(model, AdaptationInput(
            source=src, target_labeled=tgt, target_unlabeled=None,
            target_index=4, mode="supervised", mmd_config=STRICT))
        flagged = [d.factor_id for d in report.decisions if d.changed]
        assert flagged == ["edge(0,1)"]

    def test_shifted_marginal_refit_matches_target_distribution(self):
        rng = np.random.default_rng(4)
        src, tgt = marginal_shift_pair(400, 4, 0.6, rng, shift_col=1,
                                       shift=3.0)
        model = fit_source(src, target_index=3)
        adapted, _ = adapt_vine(model, AdaptationInput(
            source=src, target_labeled=tgt, target_unlabeled=None,
            target_index=3, mode="supervised", mmd_config=STRICT))
        # adapted marginal 1 centers are exactly the target column
        assert np.array_equal(np.sort(adapted.marginals[1].centers),
                              np.sort(tgt.X[:, 1]))


class TestUnsupervisedMode:
    def test_never_reads_target_values(self):
        # two runs whose target y columns differ wildly must produce
        # byte-identical decisions and models
        rng = np.random.default_rng(5)
        src = gaussian_copula_chain(250, 4, 0.7, rng)
        tgt = gaussian_copula_chain(200, 4, 0.7, rng)
        model = fit_source(src, target_index=3)

        poisoned = Dataset(list(tgt.names), tgt.X.copy())
        poisoned.X[:, 3] = 1e9

        out = []
        for t in (tgt, poisoned):
            adapted, report = adapt_vine(model, AdaptationInput(
                source=src, target_labeled=t, target_unlabeled=None,
                target_index=3, mode="unsupervised",
                mmd_config=MmdConfig(permutations=60, seed=5)))
            out.append((adapted, report))
        (m1, r1), (m2, r2) = out
        assert r1.decisions == r2.decisions
        assert r1.copied_factors == r2.copied_factors
        for a, b in zip(m1.marginals, m2.marginals):
            assert np.array_equal(a.centers, b.centers)

    def test_y_factors_copied_verbatim(self):
        rng = np.random.default_rng(6)
        src = gaussian_copula_chain(250, 4, 0.7, rng)
        tgt_unl = Dataset(src.names[:3], gaussian_copula_chain(
            200, 4, 0.7, rng).X[:, :3])
        model = fit_source(src, truncation=2, target_index=3)
        adapted, report = adapt_vine(model, AdaptationInput(
            source=src, target_labeled=None, target_unlabeled=tgt_unl,
            target_index=3, mode="unsupervised",
            mmd_config=MmdConfig(permutations=60, seed=6)))
        assert "marginal(3)" in report.copied_factors
        assert adapted.marginals[3] is model.marginals[3]
        tested = {d.factor_id for d in report.decisions}
        assert not any("3" in fid.split("|")[0].replace("marginal", "")
                       for fid in tested if fid.startswith("edge("))
        # y edges are in copied_factors, with the same copula object
        src_edges = {e.label(): e for t in model.trees for e in t.edges}
        new_edges = {e.label(): e for t in adapted.trees for e in t.edges}
        for label, e in src_edges.items():
            if 3 in e.constraint:
                assert f"edge({label})" in report.copied_factors
                assert new_edges[label].copula is e.copula

    def test_unsupervised_still_refits_x_factors(self):
        rng = np.random.default_rng(7)
        src, tgt = marginal_shift_pair(400, 4, 0.6, rng, shift_col=0,
                                       shift=3.0)
        tgt_unl = Dataset(src.names[:3], tgt.X[:, :3])
        model = fit_source(src, target_index=3)
        adapted, report = adapt_vine(model, AdaptationInput(
            source=src, target_labeled=None, target_unlabeled=tgt_unl,
            target_index=3, mode="unsupervised", mmd_config=STRICT))
        flagged = [d.factor_id for d in report.decisions if d.changed]
        assert flagged == ["marginal(0)"]


class TestSmallSampleHandling:
    def test_below_min_test_is_untested(self):
        rng = np.random.default_rng(8)
        src = gaussian_copula_chain(200, 3, 0.6, rng)
        tiny = Dataset(src.names, gaussian_copula_chain(
            MIN_TEST - 1, 3, 0.6, rng).X)
        model = fit_source(src, truncation=1, target_index=2)
        adapted, report = adapt_vine(model, AdaptationInput(
            source=src, target_labeled=tiny, target_unlabeled=None,
            target_index=2, mode="supervised",
            mmd_config=MmdConfig(permutations=60, seed=8)))
        for d in report.decisions:
            assert not d.tested
            assert np.isnan(d.p_value)
            assert d.refit_from == "pooled"
        assert len(report.warnings) == len(report.decisions)

    def test_changed_but_small_falls_back_to_pooled(self):
        # 10 labeled rows: enough to test (>= MIN_TEST) but not to refit
        # (< MIN_REFIT); a strong shift must flag with fallback
        rng = np.random.default_rng(9)
        src = gaussian_copula_chain(300, 3, 0.6, rng)
        tgt = gaussian_copula_chain(10, 3, 0.6, rng)
        tgt.X[:, 1] += 25.0
        assert MIN_TEST <= tgt.n < MIN_REFIT
        model = fit_source(src, truncation=1, target_index=2)
        adapted, report = adapt_vine(model, AdaptationInput(
            source=src, target_labeled=tgt, target_unlabeled=None,
            target_index=2, mode="supervised",
            mmd_config=MmdConfig(permutations=200, seed=9)))
        dec = {d.factor_id: d for d in report.decisions}
        assert dec["marginal(1)"].changed
        assert dec["marginal(1)"].fallback
        assert dec["marginal(1)"].refit_from == "pooled"
        assert any("marginal(1)" in w for w in report.warnings)
        # the pooled refit still contains the target rows
        assert adapted.marginals[1].centers.size == 310


class TestInputValidation:
    def setup_method(self):
        rng = np.random.default_rng(10)
        self.src = gaussian_copula_chain(100, 3, 0.6, rng)
        self.tgt = gaussian_copula_chain(80, 3, 0.6, rng)
        self.model = fit_source(self.src, truncation=1, target_index=2)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            AdaptationInput(source=self.src, target_labeled=self.tgt,
                            target_unlabeled=None, target_index=2,
                            mode="weird")

    def test_supervised_needs_labels(self):
        with pytest.raises(SchemaError):
            AdaptationInput(source=self.src, target_labeled=None,
                            target_unlabeled=self.tgt, target_index=2,
                            mode="supervised")

    def test_no_target_rows(self):
        with pytest.raises(InsufficientDataError):
            adapt_vine(self.model, AdaptationInput(
                source=self.src, target_labeled=None, target_unlabeled=None,
                target_index=2, mode="unsupervised"))

    def test_unlabeled_must_not_carry_target(self):
        with pytest.raises(SchemaError):
            adapt_vine(self.model, AdaptationInput(
                source=self.src, target_labeled=self.tgt,
                target_unlabeled=self.tgt, target_index=2,
                mode="semi_supervised"))

    def test_schema_mismatch(self):
        odd = Dataset(["a", "b", "c"], self.tgt.X)
        with pytest.raises(SchemaError):
            adapt_vine(self.model, AdaptationInput(
                source=self.src, target_labeled=odd, target_unlabeled=None,
                target_index=2, mode="supervised"))

    def test_target_index_out_of_range(self):
        with pytest.raises(ValueError):
            adapt_vine(self.model, AdaptationInput(
                source=self.src, target_labeled=self.tgt,
                target_unlabeled=None, target_index=7, mode="supervised"))


    @pytest.mark.parametrize("target_index", [5, -1, 1.7])
    def test_target_that_is_not_a_variable_index(self, target_index):
        # the model's target rule; a fraction was truncated (3.7 adapted as target 3)
        with pytest.raises(ValueError, match=f"^target_index {target_index} out of range$"):
            adapt_vine(self.model, AdaptationInput(
                source=self.src, target_labeled=self.tgt,
                target_unlabeled=None, target_index=target_index, mode="supervised"))

    def test_target_index_disagreeing_with_the_model(self):
        with pytest.raises(ValueError, match="^target_index disagrees with the fitted model$"):
            adapt_vine(self.model, AdaptationInput(
                source=self.src, target_labeled=self.tgt,
                target_unlabeled=None, target_index=1, mode="supervised"))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where, message", [
        ("source", "source rows"), ("target feature", "non-finite feature values"),
        ("target y", "non-finite target values")])
    def test_non_finite_cells_are_schema_errors(self, value, where, message):
        src, tgt = self.src.X.copy(), self.tgt.X.copy()
        if where == "source":
            src[5, 0] = value
        else:
            tgt[5, 0 if where == "target feature" else 2] = value
        for mode in ("supervised", "semi_supervised"):
            inp = AdaptationInput(source=Dataset(self.src.names, src),
                                  target_labeled=Dataset(self.tgt.names, tgt),
                                  target_unlabeled=None, target_index=2, mode=mode)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SchemaError, match=message):
                    adapt_vine(self.model, inp)

    def test_unsupervised_ignores_a_non_finite_label(self):
        # unsupervised mode blanks the labels on ingest and never reads them
        tgt = self.tgt.X.copy()
        tgt[5, 2] = np.nan
        _, report = adapt_vine(self.model, AdaptationInput(
            source=self.src, target_labeled=Dataset(self.tgt.names, tgt),
            target_unlabeled=None, target_index=2, mode="unsupervised",
            mmd_config=MmdConfig(permutations=50, seed=0)))
        assert report.copied_factors == ["marginal(2)", "edge(1,2)"]


class TestOneWalk:
    """adapt_vine walks the copied trees once, over all pooled rows."""

    @pytest.mark.parametrize("mode", ["supervised", "semi_supervised", "unsupervised"])
    def test_walks_once(self, mode, monkeypatch):
        rng = np.random.default_rng(16)
        src, tgt = marginal_shift_pair(150, 4, 0.6, rng, shift_col=0, shift=2.0)
        walked, calls = adapt.walk, []
        monkeypatch.setattr(adapt, "walk", lambda *a, **k: calls.append(1) or walked(*a, **k))
        adapt_vine(fit_source(src, truncation=3, target_index=3), AdaptationInput(
            source=src, target_labeled=Dataset(src.names, tgt.X[:40]),
            target_unlabeled=Dataset(src.names[:3], tgt.X[40:, :3]), target_index=3,
            mode=mode, mmd_config=MmdConfig(permutations=50, seed=16)))
        assert len(calls) == 1


class TestReportConsistency:
    def test_counts_follow_decisions(self):
        decisions = [FactorDecision("marginal(0)", 0.01, True, "target_only"),
                     FactorDecision("marginal(1)", 0.50, False, "pooled"),
                     FactorDecision("marginal(2)", 0.02, True, "pooled", fallback=True),
                     FactorDecision("edge(0,1)", 0.03, True, "target_only"),
                     FactorDecision("edge(1,2)", 0.0, False, "pooled", tested=False)]
        report = AdaptationReport(decisions=decisions)
        assert (report.n_changed_marginals, report.n_changed_copulas) == (2, 1)
        assert AdaptationReport(decisions=[]).n_changed_marginals == 0
        assert "changed marginals: 2" in report.summary()

    def test_summary_ends_with_one_line_per_warning(self):
        report = AdaptationReport(decisions=[], warnings=["first thing", "second thing"])
        assert report.summary().splitlines()[-2:] == ["warning: first thing",
                                                      "warning: second thing"]

    def test_summary_mentions_every_factor(self):
        rng = np.random.default_rng(11)
        src = gaussian_copula_chain(150, 3, 0.6, rng)
        tgt = gaussian_copula_chain(120, 3, 0.6, rng)
        model = fit_source(src, truncation=1, target_index=2)
        _, report = adapt_vine(model, AdaptationInput(
            source=src, target_labeled=tgt, target_unlabeled=None,
            target_index=2, mode="supervised",
            mmd_config=MmdConfig(permutations=60, seed=11)))
        text = report.summary()
        for d in report.decisions:
            assert d.factor_id in text


class TestModeEquivalences:
    def test_supervised_equals_semi_without_unlabeled(self):
        rng = np.random.default_rng(13)
        src = gaussian_copula_chain(200, 3, 0.6, rng)
        tgt = gaussian_copula_chain(150, 3, 0.6, rng)
        model = fit_source(src, truncation=1, target_index=2)
        results = []
        for mode in ("supervised", "semi_supervised"):
            adapted, report = adapt_vine(model, AdaptationInput(
                source=src, target_labeled=tgt, target_unlabeled=None,
                target_index=2, mode=mode,
                mmd_config=MmdConfig(permutations=60, seed=13)))
            results.append((adapted, report))
        (m1, r1), (m2, r2) = results
        assert r1.decisions == r2.decisions
        for a, b in zip(m1.marginals, m2.marginals):
            assert np.array_equal(a.centers, b.centers)

    def test_semi_uses_unlabeled_rows_for_x_factors(self):
        rng = np.random.default_rng(14)
        src = gaussian_copula_chain(200, 3, 0.6, rng)
        tgt = gaussian_copula_chain(120, 3, 0.6, rng)
        lab = Dataset(src.names, tgt.X[:40])
        unl = Dataset(src.names[:2], tgt.X[40:, :2])
        model = fit_source(src, truncation=1, target_index=2)
        adapted, report = adapt_vine(model, AdaptationInput(
            source=src, target_labeled=lab, target_unlabeled=unl,
            target_index=2, mode="semi_supervised",
            mmd_config=MmdConfig(permutations=500, alpha=0.002, seed=14)))
        assert not any(d.changed for d in report.decisions)
        # x marginals pooled over source + all 120 target rows
        assert adapted.marginals[0].centers.size == 320
        # y marginal pooled over source + labeled rows only
        assert adapted.marginals[2].centers.size == 240
        meta = adapted.fit_metadata
        assert meta["adapted"] is True
        assert meta["n_target"] == 120
        assert meta["n_target_labeled"] == 40
