"""Source-to-target adaptation of a fitted vine.

The engine walks the fitted factors one by one, runs a two-sample
permutation test per factor, and rebuilds each factor from whatever data
the verdict allows: target rows only when the factor changed, pooled
source+target rows otherwise. Tree topology is never relearned; target
samples are usually far too small to support structure search.

Marginals are tested first, on the raw columns. First-tree pair copulas
are then tested on pseudo-observations computed under each domain's
post-adaptation marginals, so an already-corrected covariate shift does
not masquerade as a dependence change. Deeper trees are not tested:
their copulas are refit from the pooled rows, or copied verbatim when
the mode forbids touching rows that involve the target variable. One
walk reaches every pair copula, over one stack of pooled rows: each row
with the target blanked, then the labeled rows (none if unsupervised).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .dataio import Dataset
from .errors import InsufficientDataError, SchemaError
from .mmd import MmdConfig, permutation_test
from .rvine import VineModel, VineTree, _check_target, base_samples, walk
from .statcore import GaussianKernel1D, rank_pseudo_observations

# Fewer target rows than MIN_TEST: skip the factor's test and pool quietly.
# Between the two: the test runs, but a changed verdict cannot be honored
# with a target-only refit, so the factor falls back to pooled data.
MIN_TEST = 5
MIN_REFIT = 20

MODES = ("supervised", "semi_supervised", "unsupervised")


@dataclass
class AdaptationInput:
    """Samples and settings for one adaptation run.

    target_index indexes the source model's variables under the model's
    target rule, and must be the model's own target when it has one.
    target_unlabeled carries features only; its rows join every test and
    refit that does not involve the target variable. In unsupervised
    mode any y values present in target_labeled are blanked on ingest
    and never read.
    """

    source: Dataset
    target_labeled: Dataset | None
    target_unlabeled: Dataset | None
    target_index: int
    mode: str = "semi_supervised"
    mmd_config: MmdConfig = field(default_factory=MmdConfig)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        n_lab = 0 if self.target_labeled is None else self.target_labeled.n
        if n_lab == 0 and self.mode != "unsupervised":
            raise SchemaError("no labeled target rows; use unsupervised mode")


@dataclass(frozen=True)
class FactorDecision:
    factor_id: str
    p_value: float
    changed: bool
    refit_from: str  # "target_only" or "pooled"
    tested: bool = True
    # changed but too few target rows to refit alone; pooled despite the verdict
    fallback: bool = False


@dataclass(frozen=True)
class AdaptationReport:
    decisions: list
    copied_factors: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def _n_changed(self, kind: str) -> int:
        return sum(1 for d in self.decisions if d.changed and d.factor_id.startswith(kind))

    @property
    def n_changed_marginals(self) -> int:
        return self._n_changed("marginal")

    @property
    def n_changed_copulas(self) -> int:
        return self._n_changed("edge")

    def summary(self) -> str:
        lines = [f"changed marginals: {self.n_changed_marginals}",
                 f"changed copulas:   {self.n_changed_copulas}"]
        for d in self.decisions:
            verdict = "CHANGED" if d.changed else "ok"
            if d.fallback:
                verdict += " (fallback)"
            pv = f"{d.p_value:.4f}" if d.tested else "not tested"
            lines.append(f"  {d.factor_id:<20} p={pv:<12} {verdict:<20} -> {d.refit_from}")
        for fid in self.copied_factors:
            lines.append(f"  {fid:<20} copied from source")
        for w in self.warnings:
            lines.append(f"warning: {w}")
        return "\n".join(lines)


def _factor_config(cfg: MmdConfig, factor_id: str) -> MmdConfig:
    """Per-factor test config with a seed derived by stable hashing."""
    ss = np.random.SeedSequence(entropy=cfg.seed,
                                spawn_key=(zlib.crc32(factor_id.encode("ascii")),))
    return replace(cfg, seed=int(ss.generate_state(1)[0]))


def adapt_vine(source_vine: VineModel, inp: AdaptationInput):
    """Detect changed factors and rebuild the vine for the target task.

    Returns (adapted_model, report). The adapted model keeps the source
    tree topology and variable order; only marginals and pair copulas
    are re-estimated, on a copy of the source trees, so source_vine is
    left as it was.
    """
    names = source_vine.variable_names
    d = source_vine.dim
    y = _check_target(inp.target_index, d)
    if source_vine.target_index not in (None, y):
        raise ValueError("target_index disagrees with the fitted model")
    unsup = inp.mode == "unsupervised"
    y_name = names[y]
    cfg = inp.mmd_config

    # -- ingest and align --------------------------------------------------
    Xs = inp.source.aligned(names)
    blocks = []
    lab_rows = 0
    if inp.target_labeled is not None and inp.target_labeled.n:
        T = inp.target_labeled.aligned(names, missing_ok={y_name} if unsup else ())
        if unsup:
            T[:, y] = np.nan  # audit guarantee: unsupervised never reads y
        else:
            lab_rows = T.shape[0]
        blocks.append(T)
    if inp.target_unlabeled is not None and inp.target_unlabeled.n:
        T = inp.target_unlabeled.aligned(names, missing_ok={y_name})
        if not np.all(np.isnan(T[:, y])):
            raise SchemaError("target_unlabeled must not carry the target column")
        blocks.append(T)
    if not blocks:
        raise InsufficientDataError("no target rows provided")
    Xt = np.vstack(blocks)  # labeled rows first

    if not np.isfinite(Xs).all():
        raise SchemaError("source rows contain non-finite values")
    if not np.isfinite(np.delete(Xt, y, axis=1)).all():
        raise SchemaError("target rows contain non-finite feature values")
    Xt_lab = Xt[:lab_rows]
    if not np.isfinite(Xt_lab[:, y]).all():
        raise SchemaError("labeled target rows contain non-finite target values")
    n_s, n_t = Xs.shape[0], Xt.shape[0]

    decisions: list[FactorDecision] = []
    copied: list[str] = []
    warnings_: list[str] = []

    def refit_target_only(fid: str, src: np.ndarray, tgt: np.ndarray) -> bool:
        """Test one factor and record its decision; True to refit from tgt alone.

        Too few target rows: untested, pooled. Changed: target rows only
        when there are enough of them, pooled (a fallback) otherwise.
        Not changed: pooled.
        """
        n = tgt.shape[0]
        if n < MIN_TEST:
            warnings_.append(f"{fid}: only {n} target rows (<{MIN_TEST}); "
                             "pooled without testing")
            decisions.append(FactorDecision(fid, float("nan"), False, "pooled", tested=False))
            return False
        res = permutation_test(src, tgt, _factor_config(cfg, fid))
        alone = res.rejected and n >= MIN_REFIT
        fallback = res.rejected and not alone
        if fallback:
            warnings_.append(f"{fid}: changed but only {n} target rows "
                             f"(<{MIN_REFIT}); refit from pooled data instead")
        decisions.append(FactorDecision(fid, res.p_value, res.rejected,
                                        "target_only" if alone else "pooled",
                                        fallback=fallback))
        return alone

    # -- marginals -----------------------------------------------------------
    # Each domain's rows under its post-adaptation marginals, for the
    # first-tree tests: a changed variable keeps the source fit on the
    # source side, everything else shares the new fit. The labeled rows
    # lead the target rows, so U_tgt[:lab_rows] holds them; the target
    # column is computed only where a y-edge test reads it, and not at
    # all in unsupervised mode, which copies every y-edge.
    new_marginals: list = [None] * d
    U_src, U_tgt = np.full_like(Xs, np.nan), np.full_like(Xt, np.nan)
    for i in range(d):
        fid = f"marginal({i})"
        if i == y and unsup:
            new_marginals[i] = source_vine.marginals[i]
            copied.append(fid)
            continue
        src_col = Xs[:, i]
        tgt_col = Xt_lab[:, i] if i == y else Xt[:, i]
        alone = refit_target_only(fid, src_col, tgt_col)
        m = new_marginals[i] = GaussianKernel1D.fit(
            tgt_col if alone else np.concatenate([src_col, tgt_col]))
        U_tgt[:tgt_col.size, i] = m.cdf(tgt_col)
        U_src[:, i] = (source_vine.marginals[i] if decisions[-1].changed else m).cdf(src_col)

    # -- rank pseudo-observations of the pooled rows -------------------------
    def _ranks(X: np.ndarray, keep_y: bool) -> np.ndarray:
        U = np.full_like(X, np.nan)
        for i in range(d):
            if i == y and not keep_y:
                continue
            U[:, i] = rank_pseudo_observations(X[:, i])
        return U

    # -- walk the trees ------------------------------------------------------
    # A copy of the source trees whose copulas are refit as the walk
    # reaches them. A y-edge is nan on the all-rows part of the stack and
    # reads the labeled part; in unsupervised mode y is absent altogether.
    trees = [VineTree(level=t.level, nodes=list(t.nodes), edges=[replace(e) for e in t.edges])
             for t in source_vine.trees]
    pooled = [_ranks(np.vstack([Xs, Xt]), keep_y=False)]
    if not unsup:
        pooled.append(_ranks(np.vstack([Xs, Xt_lab]), keep_y=True))
    for edge, s1, s2 in walk(trees, base_samples(np.vstack(pooled))):
        j, k = edge.conditioned
        uses_y = y in edge.constraint
        fid = f"edge({edge.label()})"
        if uses_y and unsup:
            copied.append(fid)
            continue
        part = slice(n_s + n_t, None) if uses_y else slice(n_s + n_t)
        rows = s1[part], s2[part]
        if not edge.conditioning:  # deeper trees are refit from pooled rows, untested
            tgt = U_tgt[:lab_rows] if uses_y else U_tgt
            if refit_target_only(fid, U_src[:, [j, k]], tgt[:, [j, k]]):
                T = Xt_lab if uses_y else Xt
                rows = rank_pseudo_observations(T[:, j]), rank_pseudo_observations(T[:, k])
        edge.copula = type(edge.copula).fit(*rows)

    meta = dict(source_vine.fit_metadata)
    meta.update({"adapted": True, "mode": inp.mode, "n_source": int(n_s),
                 "n_target": int(n_t), "n_target_labeled": int(lab_rows)})
    model = VineModel(
        marginals=new_marginals,
        trees=trees,
        variable_names=names,
        target_index=y,
        fit_metadata=meta,
    )
    return model, AdaptationReport(decisions, copied_factors=copied, warnings=warnings_)


__all__ = [
    "MIN_REFIT",
    "MIN_TEST",
    "AdaptationInput",
    "AdaptationReport",
    "FactorDecision",
    "adapt_vine",
]
