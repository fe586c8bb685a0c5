"""The traced benchmark run can still find every layer entry point.

perfbench/spans.py replaces each (owner, attribute) that its
layer_entry_points() names through owner.__dict__, so a traced method
must stay defined on the class that names it, not inherited from a base
class, and a traced function must stay a module attribute, called
through the module globals the tracer rebinds.
"""

import importlib.util
from pathlib import Path

import numpy as np

from vineshift import adapt, regress, rvine
from vineshift.dataio import Dataset
from vineshift.mmd import MmdConfig
from vineshift.synth import marginal_shift_pair

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_entry_point_is_defined_on_its_owner():
    spans = load_spans()
    for owner, attr, span, _ in spans.layer_entry_points():
        assert attr in owner.__dict__, f"{span}: {owner.__name__}.{attr} is not defined there"


def test_fit_goes_through_the_traced_tree_builders():
    # a fit that reached the tree helper without the traced wrappers
    # would report rvine.tree_build as zero seconds, which still passes
    # the benchmark's finiteness check
    spans = load_spans()
    X = np.random.default_rng(0).standard_normal((60, 5))
    with spans.installed(spans.Tracer("bindings")) as tracer:
        rvine.fit_vine(X, truncation=3, family="gaussian")
    assert tracer.counts["rvine.tree_build.calls"] == 3
    assert tracer.counts["statcore.kendall_tau.calls"] > 0
    assert tracer.counts["rvine.fit_vine.calls"] == 1


def test_adapt_runs_one_traced_mmd_test_per_tested_factor():
    # the benchmark counts the MMD tests that sit directly under
    # adapt_vine's span and requires one per tested factor
    spans = load_spans()
    src, tgt = marginal_shift_pair(120, 4, 0.6, np.random.default_rng(1), shift_col=0, shift=2.0)
    vine = rvine.fit_vine(src.X, truncation=2, variable_names=src.names, target_index=3)
    inp = adapt.AdaptationInput(source=src, target_labeled=Dataset(src.names, tgt.X[:30]),
                                target_unlabeled=Dataset(src.names[:3], tgt.X[30:, :3]),
                                target_index=3, mmd_config=MmdConfig(permutations=50, seed=0))
    with spans.installed(spans.Tracer("bindings")) as tracer:
        _, report = adapt.adapt_vine(vine, inp)
    tested = sum(d.tested for d in report.decisions)
    assert tested == 4 + 3
    assert tracer.counts["adapt.adapt_vine.calls"] == 1
    assert tracer.counts["mmd.permutation_test.calls"] == tested
    assert tracer.children("adapt.adapt_vine", "mmd.permutation_test") == tested


def test_predict_and_score_keep_their_spans_and_marginal_work():
    # the benchmark's per-layer numbers read the copula densities under
    # the two traced entry points, and count one kernel1d call per
    # marginal cdf plus one logpdf per marginal that enters the sum
    spans = load_spans()
    src, test = marginal_shift_pair(80, 4, 0.6, np.random.default_rng(2), shift_col=0, shift=0.0)
    vine = rvine.fit_vine(src.X, truncation=2, variable_names=src.names, target_index=3)
    grid = regress.YGrid(np.linspace(-3.0, 3.0, 40))
    m, g, n, d = 7, 40, 80, 4
    edges = [e for t in vine.trees for e in t.edges]
    with spans.installed(spans.Tracer("bindings")) as tracer:
        regress.predict_means(vine, test.X[:m, :3], grid)
    assert tracer.counts["regress.conditional_density_batch.calls"] == 1
    assert tracer.children("regress.conditional_density_batch", "bicopula.log_density") == \
        sum(3 in e.constraint for e in edges)
    assert tracer.counts["statcore.kernel1d.calls"] == d + 1
    assert tracer.counts["statcore.kernel1d.kernel_evals"] == (3 * m + 2 * g) * n
    with spans.installed(spans.Tracer("bindings")) as tracer:
        vine.log_density(test.X[:m])
    assert tracer.counts["rvine.log_density.calls"] == 1
    assert tracer.children("rvine.log_density", "bicopula.log_density") == len(edges)
    assert tracer.counts["statcore.kernel1d.calls"] == 2 * d
    assert tracer.counts["statcore.kernel1d.kernel_evals"] == 2 * d * m * n


def test_kernel_vines_keep_their_traced_copula_calls():
    # a vine that holds a kernel copula walks on probabilities through the
    # traced KernelCopula methods, which the benchmark's h-function spans read
    spans = load_spans()
    src, tgt = marginal_shift_pair(100, 4, 0.6, np.random.default_rng(3), shift_col=0, shift=1.0)
    grid = regress.YGrid(np.linspace(-3.0, 3.0, 40))
    inp = adapt.AdaptationInput(source=src, target_labeled=Dataset(src.names, tgt.X[:30]),
                                target_unlabeled=None, target_index=3,
                                mmd_config=MmdConfig(permutations=50, seed=0))
    stages = {
        "fit": lambda: rvine.fit_vine(src.X, truncation=2, variable_names=src.names,
                                      target_index=3),
        "score": lambda: vine.log_density(tgt.X[:10]),
        "predict": lambda: regress.predict_means(vine, tgt.X[:10, :3], grid),
        "adapt": lambda: adapt.adapt_vine(vine, inp),
    }
    for stage, run in stages.items():
        with spans.installed(spans.Tracer("bindings")) as tracer:
            result = run()
        if stage == "fit":
            vine = result
            assert not vine.on_scores
        # fit and adapt compute h-values only; score and predict also log c
        assert tracer.counts["bicopula.h.calls"] > 0, stage
        assert (tracer.counts["bicopula.log_density.calls"] > 0) == (stage in ("score", "predict"))


def test_gaussian_fit_shows_one_tau_call_per_pair_fit():
    # the walk carries normal scores, and each Gaussian pair fit still
    # calls kendall_tau once, through bicopula's own binding
    spans = load_spans()
    X = np.random.default_rng(4).standard_normal((60, 6))
    with spans.installed(spans.Tracer("bindings")) as tracer:
        vine = rvine.fit_vine(X, truncation=5, family="gaussian")
    fits = tracer.counts["bicopula.fit.calls"]
    assert vine.on_scores and fits == 5 + 4 + 3 + 2 + 1
    assert tracer.children("bicopula.fit", "statcore.kendall_tau") == fits
    assert tracer.counts["bicopula.h.calls"] == 0
