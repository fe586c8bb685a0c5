"""The benchmark's workloads: inputs, the timed pipeline and its checks.

Every workload is a closed loop in one process: each stage starts when
the previous one returns. Inputs come from `vineshift.synth` seeded
through `bench._rep_rng`/`bench._rep_seed`, so a (seed, repetition)
pair always yields the same rows. Functions are looked up on their
module at call time so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import tempfile
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from vineshift import adapt, bench, dataio, mmd, modelfile, regress, rvine, synth

GRID_POINTS = 129
# c11's bound on the density drift of a save/load round trip.
ROUND_TRIP_TOL = 1e-12
# Held-out rows re-scored by the in-memory model to check the loaded one.
ROUND_TRIP_ROWS = 50
# Factors the marginal-only shift of REGRESSION_SHIFTS must make adapt flag.
SHIFTED_FACTORS = ("marginal(0)", "marginal(3)")


class Checks:
    """Correctness gates; each failed gate counts as one failed operation."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def check(self, name: str, ok, detail: str = ""):
        self.results.append((name, bool(ok), detail))

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> list:
        return [r for r in self.results if not r[1]]


class Clock:
    """Seconds and rows per named stage of one repetition.

    With a tracer, each stage is also a span, and the memory sampler
    records the stage's peak resident set above where it started.
    """

    def __init__(self, tracer=None, memory=None):
        self.tracer = tracer
        self.memory = memory
        self.seconds: dict[str, float] = defaultdict(float)
        self.rows: dict[str, int] = defaultdict(int)
        self.peak_alloc: dict[str, int] = defaultdict(int)

    @contextmanager
    def stage(self, name: str, rows: int = 0):
        span = self.tracer.begin(f"stage.{name}") if self.tracer else None
        start = self.memory.reset() if self.memory else 0
        t0 = perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += perf_counter() - t0
            self.rows[name] += rows
            if self.memory:
                self.peak_alloc[name] = max(self.peak_alloc[name], self.memory.peak() - start)
            if span is not None:
                self.tracer.end(span)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stages: str
    make_inputs: Callable[..., dict]  # (seed, repetition, scale=1.0)
    pipeline: Callable[[dict, Clock, Path], dict]
    checks: Callable[[dict, Checks, Path], None]
    # call pattern the traced run asserts
    uses_mmd: bool
    uses_kernel_copula: bool


# -- shared stages -----------------------------------------------------------

def _save_load(model, tmp: Path, clock: Clock):
    path = tmp / "model.json"
    with clock.stage("save"):
        modelfile.save(model, path)
    with clock.stage("load"):
        loaded = modelfile.load(path)
    return loaded, path


def _check_round_trip(out: dict, checks: Checks, tmp: Path):
    """The loaded model scores like the in-memory one and re-saves byte-identically."""
    rows = out["heldout"][:ROUND_TRIP_ROWS]
    drift = float(np.max(np.abs(out["loaded"].log_density(rows)
                                - out["model"].log_density(rows))))
    checks.check("round-trip log density", drift <= ROUND_TRIP_TOL,
                 f"max drift {drift:.1e} over {rows.shape[0]} rows (limit {ROUND_TRIP_TOL:g})")
    resaved = tmp / "resaved.json"
    modelfile.save(out["loaded"], resaved)
    checks.check("re-save byte-identical",
                 resaved.read_bytes() == out["path"].read_bytes())
    checks.check("held-out log densities finite", np.all(np.isfinite(out["logp"])))


def _edges(model) -> int:
    return sum(len(t.edges) for t in model.trees)


# -- shift-adapt: bench.adaptation_experiment's repetition, stage by stage ------

# Half of c09's source and target rows (600, 500) and a third of its test
# rows (300), so that one repetition takes about 3 s and a run holds ten.
SHIFT_N_SOURCE, SHIFT_N_TARGET, SHIFT_N_TEST, SHIFT_LABELED = 300, 250, 100, 0.05
SHIFT_MMD = mmd.MmdConfig(permutations=100)
SHIFT_TRUNCATION = 2


def shift_experiment_config(seed: int) -> bench.ExperimentConfig:
    """c09's configuration at the sizes above, one repetition."""
    return bench.ExperimentConfig(seed=seed, n_samples=SHIFT_N_SOURCE, repetitions=1,
                                  truncation=SHIFT_TRUNCATION,
                                  target_labeled_fraction=SHIFT_LABELED, mmd=SHIFT_MMD)


def _shift_inputs(seed: int, rep: int, scale: float = 1.0) -> dict:
    rng = bench._rep_rng(seed, rep)
    n_src, n_tgt, n_test = (int(n * scale) for n in (SHIFT_N_SOURCE, SHIFT_N_TARGET,
                                                      SHIFT_N_TEST))
    src = synth.regression_task(n_src, rng)
    tgt = synth.regression_task(n_tgt, rng, shifts=synth.REGRESSION_SHIFTS)
    test = synth.regression_task(n_test, rng, shifts=synth.REGRESSION_SHIFTS)
    n_lab = max(int(round(SHIFT_LABELED * n_tgt)), 1)
    return {"src": src, "test": test,
            "lab": dataio.Dataset(tgt.names, tgt.X[:n_lab]),
            "unl": dataio.Dataset(tgt.names[:-1], tgt.X[n_lab:, :-1]),
            "fit_seed": bench._rep_seed(seed, rep),
            "mmd": replace(SHIFT_MMD, seed=bench._rep_seed(seed, rep, 1))}


def _predict_and_score(model, test, clock: Clock):
    y = model.target_index
    with clock.stage("grid"):
        grid = regress.default_grid(model, GRID_POINTS)
    with clock.stage("predict", rows=test.n):
        preds = regress.predict_means(model, np.delete(test.X, y, axis=1), grid)
    with clock.stage("score", rows=test.n):
        logp = model.log_density(test.X)
    return regress.nmse(preds, test.X[:, y]), logp


def _shift_pipeline(inp: dict, clock: Clock, tmp: Path) -> dict:
    src, test = inp["src"], inp["test"]
    y = src.d - 1
    with clock.stage("fit"):
        vine = rvine.fit_vine(src.X, truncation=SHIFT_TRUNCATION, variable_names=src.names,
                              target_index=y, seed=inp["fit_seed"])
    nmse = {}
    nmse["source"], logp = _predict_and_score(vine, test, clock)
    scores = [logp]
    out = {"flags": {}, "tested": 0, "changed": 0}
    for mode, labeled in (("semi_supervised", inp["lab"]), ("unsupervised", None)):
        request = adapt.AdaptationInput(source=src, target_labeled=labeled,
                                        target_unlabeled=inp["unl"], target_index=y,
                                        mode=mode, mmd_config=inp["mmd"])
        with clock.stage("adapt"):
            model, report = adapt.adapt_vine(vine, request)
        nmse[mode], logp = _predict_and_score(model, test, clock)
        scores.append(logp)
        out["flags"][mode] = tuple(d.factor_id for d in report.decisions if d.changed)
        out["tested"] += sum(d.tested for d in report.decisions)
        out["changed"] += len(out["flags"][mode])
        if mode == "semi_supervised":
            out["tll"] = float(np.mean(logp))
    # The source model: its size does not depend on which factors adapt flags.
    out["loaded"], out["path"] = _save_load(vine, tmp, clock)
    out.update(model=vine, logp=np.concatenate(scores), nmse=nmse, heldout=test.X,
               edges=_edges(vine))
    return out


def _shift_checks(out: dict, checks: Checks, tmp: Path):
    for mode, flags in out["flags"].items():
        missing = [f for f in SHIFTED_FACTORS if f not in flags]
        checks.check(f"{mode} flags the shifted marginals", not missing,
                     f"flagged {list(flags)}")
        checks.check(f"{mode} NMSE below source NMSE",
                     out["nmse"][mode] < out["nmse"]["source"],
                     f"{out['nmse'][mode]:.4f} vs {out['nmse']['source']:.4f}")
    _check_round_trip(out, checks, tmp)


def check_matches_experiment(out: dict, seed: int, checks: Checks):
    """Repetition 0 reproduces bench.adaptation_experiment, i.e. c09's workload."""
    run = bench.adaptation_experiment(shift_experiment_config(seed), n_target=SHIFT_N_TARGET,
                                      n_test=SHIFT_N_TEST, grid_points=GRID_POINTS)[0]
    ref = {"source": run.nmse_source, "semi_supervised": run.nmse_semi,
           "unsupervised": run.nmse_unsupervised}
    worst = max(abs(out["nmse"][k] - ref[k]) for k in ref)
    checks.check("NMSEs equal bench.adaptation_experiment", worst <= 1e-12,
                 f"max difference {worst:.1e}")
    checks.check("flags equal bench.adaptation_experiment",
                 (run.semi_flags, run.unsupervised_flags)
                 == (out["flags"]["semi_supervised"], out["flags"]["unsupervised"]))


# -- fit-large and gauss-deep: fit, save, load, score held-out rows -------------

def _density_workload(name, why, n, d, n_test, generate, fit_kwargs,
                      kernel_copula: bool) -> Workload:
    def make_inputs(seed: int, rep: int, scale: float = 1.0) -> dict:
        rng = bench._rep_rng(seed, rep)
        return {"train": generate(int(n * scale), d, rng),
                "test": generate(int(n_test * scale), d, rng),
                "fit_seed": bench._rep_seed(seed, rep)}

    def pipeline(inp: dict, clock: Clock, tmp: Path) -> dict:
        train, test = inp["train"], inp["test"]
        with clock.stage("fit"):
            model = rvine.fit_vine(train.X, variable_names=train.names,
                                   seed=inp["fit_seed"], **fit_kwargs(train))
        loaded, path = _save_load(model, tmp, clock)
        with clock.stage("score", rows=test.n):
            logp = loaded.log_density(test.X)
        return {"model": model, "loaded": loaded, "path": path, "logp": logp,
                "tll": float(np.mean(logp)), "heldout": test.X, "edges": _edges(model),
                "tested": 0, "changed": 0}

    return Workload(name, why, "fit -> save -> load -> score", make_inputs, pipeline,
                    _check_round_trip, uses_mmd=False, uses_kernel_copula=kernel_copula)


WORKLOADS = {w.name: w for w in (
    Workload(
        "shift-adapt",
        "c09's headline workflow at half its sample sizes; query-heavy (100x129 grid "
        "rows per target edge) and the only workload that runs mmd and regress",
        "fit -> predict+score -> adapt semi -> predict+score -> adapt unsup -> "
        "predict+score -> save -> load",
        _shift_inputs, _shift_pipeline, _shift_checks,
        uses_mmd=True, uses_kernel_copula=True),
    _density_workload(
        "fit-large",
        "training-heavy: n=1200 kernel h-functions dominate fit, where a fit-time "
        "cost bought to speed up queries shows; largest model files; no mmd, no grid",
        1200, 16, 300,
        lambda n, d, rng: synth.regression_task(n, rng, d=d),
        lambda train: {"truncation": 2, "target_index": train.d - 1},
        kernel_copula=True),
    _density_workload(
        "gauss-deep",
        "bypasses the kernel copula (Gaussian family, 29 trees, 435 edges): tau and "
        "the tree walk dominate fit, kernel marginals dominate scoring",
        600, 30, 600,
        lambda n, d, rng: synth.gaussian_copula_chain(n, d, 0.6, rng,
                                                      marginals=("gauss", "exp")),
        lambda train: {"truncation": train.d - 1, "family": "gaussian"},
        kernel_copula=False),
)}


def run_repetition(workload: Workload, inputs: dict, clock: Clock, tmp_root: Path,
                   around=nullcontext):
    """(wall seconds, pipeline outputs, checks) of one repetition.

    Only the pipeline runs inside around(); the checks run after it.
    """
    checks = Checks()
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        with around():
            t0 = perf_counter()
            out = workload.pipeline(inputs, clock, Path(tmp))
            wall = perf_counter() - t0
        out["model_bytes"] = out["path"].stat().st_size
        workload.checks(out, checks, Path(tmp))
    return wall, out, checks


def warm_up(workload: Workload, seed: int, tmp_root: Path):
    """Run every stage once at a tenth of the size, untimed and unchecked.

    First calls pay for lazy loading and fresh memory; without this they
    land in whichever stage comes first in repetition 0.
    """
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        workload.pipeline(workload.make_inputs(seed, 0, scale=0.1), Clock(), Path(tmp))
