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
the mode forbids touching rows that involve the target variable.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .bicopula import GaussianCopula, KernelCopula
from .dataio import Dataset
from .errors import InsufficientDataError, SchemaError
from .mmd import MmdConfig, permutation_test
from .rvine import VineEdge, VineModel, VineTree, _split_conditioned
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
    n_changed_marginals: int
    n_changed_copulas: int
    copied_factors: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def __post_init__(self):
        marg = sum(1 for d in self.decisions
                   if d.changed and d.factor_id.startswith("marginal"))
        cop = sum(1 for d in self.decisions
                  if d.changed and d.factor_id.startswith("edge"))
        if (marg, cop) != (self.n_changed_marginals, self.n_changed_copulas):
            raise ValueError("changed-factor counts do not match the decision list")

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


def _report(decisions, copied, warnings_) -> AdaptationReport:
    return AdaptationReport(
        decisions=decisions,
        n_changed_marginals=sum(1 for d in decisions
                                if d.changed and d.factor_id.startswith("marginal")),
        n_changed_copulas=sum(1 for d in decisions
                              if d.changed and d.factor_id.startswith("edge")),
        copied_factors=copied,
        warnings=warnings_,
    )


def _aligned(ds: Dataset, names: list, missing_ok=frozenset()) -> np.ndarray:
    """Columns of ds rearranged to the model's order; nan where allowed absent."""
    extra = [c for c in ds.names if c not in names]
    if extra:
        raise SchemaError(f"unexpected columns {extra}; model knows {names}")
    out = np.full((ds.n, len(names)), np.nan)
    for idx, name in enumerate(names):
        if name in ds.names:
            out[:, idx] = ds.column(name)
        elif name not in missing_ok:
            raise SchemaError(f"missing column '{name}'")
    return out


def _factor_config(cfg: MmdConfig, factor_id: str) -> MmdConfig:
    """Per-factor test config with a seed derived by stable hashing."""
    ss = np.random.SeedSequence(entropy=int(cfg.seed),
                                spawn_key=(zlib.crc32(factor_id.encode("ascii")),))
    return replace(cfg, seed=int(ss.generate_state(1)[0]))


def factor_samples(vine: VineModel, data: Dataset, factor_id: str) -> np.ndarray:
    """Comparison sample for one factor of the fitted vine.

    A marginal factor yields the raw data column (n x 1); an edge factor
    yields the n x 2 matrix of conditional cdf values obtained from the
    vine's own marginals and h-functions.
    """
    X = _aligned(data, vine.variable_names)
    if factor_id.startswith("marginal(") and factor_id.endswith(")"):
        try:
            i = int(factor_id[len("marginal("):-1])
        except ValueError:
            raise ValueError(f"factor not found: {factor_id!r}") from None
        if not 0 <= i < vine.dim:
            raise ValueError(f"factor not found: {factor_id!r}")
        return X[:, [i]]
    if factor_id.startswith("edge(") and factor_id.endswith(")"):
        label = factor_id[len("edge("):-1]
        Z = vine._to_internal(X)
        U = np.column_stack([m.cdf(Z[:, i]) for i, m in enumerate(vine.marginals)])
        for edge, s1, s2 in vine._propagate(U):
            if edge.label() == label:
                return np.column_stack([s1, s2])
        raise ValueError(f"factor not found: {factor_id!r}")
    raise ValueError(f"factor not found: {factor_id!r}")


def adapt_vine(source_vine: VineModel, inp: AdaptationInput):
    """Detect changed factors and rebuild the vine for the target task.

    Returns (adapted_model, report). The adapted model keeps the source
    tree topology, normalization and variable order; only marginals and
    pair copulas are re-estimated.
    """
    names = source_vine.variable_names
    d = source_vine.dim
    y = int(inp.target_index)
    if not 0 <= y < d:
        raise ValueError(f"target_index {y} out of range for {d} variables")
    if source_vine.target_index is not None and int(source_vine.target_index) != y:
        raise ValueError("target_index disagrees with the fitted model")
    unsup = inp.mode == "unsupervised"
    y_name = names[y]
    cfg = inp.mmd_config

    # -- ingest and align --------------------------------------------------
    Xs = _aligned(inp.source, names)
    blocks = []
    lab_rows = 0
    if inp.target_labeled is not None and inp.target_labeled.n:
        T = _aligned(inp.target_labeled, names,
                     missing_ok={y_name} if unsup else frozenset())
        if unsup:
            T[:, y] = np.nan  # audit guarantee: unsupervised never reads y
        else:
            lab_rows = T.shape[0]
        blocks.append(T)
    if inp.target_unlabeled is not None and inp.target_unlabeled.n:
        T = _aligned(inp.target_unlabeled, names, missing_ok={y_name})
        if not np.all(np.isnan(T[:, y])):
            raise SchemaError("target_unlabeled must not carry the target column")
        blocks.append(T)
    if not blocks:
        raise InsufficientDataError("no target rows provided")
    Xt = np.vstack(blocks)  # labeled rows first

    if np.isnan(Xs).any():
        raise SchemaError("source rows contain non-finite values")
    if np.isnan(np.delete(Xt, y, axis=1)).any():
        raise SchemaError("target rows contain non-finite feature values")

    Zs = source_vine._to_internal(Xs)
    Zt = source_vine._to_internal(Xt)
    Zt_lab = Zt[:lab_rows]
    n_s, n_t = Zs.shape[0], Zt.shape[0]

    decisions: list[FactorDecision] = []
    copied: list[str] = []
    warnings_: list[str] = []

    # -- marginals -----------------------------------------------------------
    changed_marg = np.zeros(d, dtype=bool)
    new_marginals: list = [None] * d
    for i in range(d):
        fid = f"marginal({i})"
        if i == y and unsup:
            new_marginals[i] = source_vine.marginals[i]
            copied.append(fid)
            continue
        src_col = Zs[:, i]
        tgt_col = Zt_lab[:, i] if i == y else Zt[:, i]
        n_i = tgt_col.size
        if n_i < MIN_TEST:
            warnings_.append(f"{fid}: only {n_i} target rows (<{MIN_TEST}); "
                             "pooled without testing")
            decisions.append(FactorDecision(fid, float("nan"), False, "pooled",
                                            tested=False))
            new_marginals[i] = GaussianKernel1D.fit(np.concatenate([src_col, tgt_col]))
            continue
        res = permutation_test(src_col, tgt_col, _factor_config(cfg, fid))
        if res.rejected and n_i >= MIN_REFIT:
            decisions.append(FactorDecision(fid, res.p_value, True, "target_only"))
            changed_marg[i] = True
            new_marginals[i] = GaussianKernel1D.fit(tgt_col)
        elif res.rejected:
            warnings_.append(f"{fid}: changed but only {n_i} target rows "
                             f"(<{MIN_REFIT}); refit from pooled data instead")
            decisions.append(FactorDecision(fid, res.p_value, True, "pooled",
                                            fallback=True))
            changed_marg[i] = True
            new_marginals[i] = GaussianKernel1D.fit(np.concatenate([src_col, tgt_col]))
        else:
            decisions.append(FactorDecision(fid, res.p_value, False, "pooled"))
            new_marginals[i] = GaussianKernel1D.fit(np.concatenate([src_col, tgt_col]))

    # Post-adaptation marginal of each domain: a changed variable keeps the
    # source fit on the source side, everything else shares the new fit.
    F_src = [source_vine.marginals[i] if changed_marg[i] else new_marginals[i]
             for i in range(d)]
    F_tgt = new_marginals
    cdf_sides = {"source": (F_src, Zs), "target": (F_tgt, Zt),
                 "target_labeled": (F_tgt, Zt_lab)}
    cdf_columns: dict = {}

    def cdf_column(i: int, side: str) -> np.ndarray:
        """Column i of one side's rows under that side's marginal, computed once."""
        if (i, side) not in cdf_columns:
            F, Z = cdf_sides[side]
            cdf_columns[i, side] = F[i].cdf(Z[:, i])
        return cdf_columns[i, side]

    # -- rank pseudo-observations per refit row set -------------------------
    def _ranks(Z: np.ndarray, keep_y: bool) -> np.ndarray:
        U = np.full_like(Z, np.nan)
        for i in range(d):
            if i == y and not keep_y:
                continue
            U[:, i] = rank_pseudo_observations(Z[:, i])
        return U

    U_pool_all = _ranks(np.vstack([Zs, Zt]), keep_y=False)
    U_pool_lab = None if unsup else _ranks(np.vstack([Zs, Zt_lab]), keep_y=True)
    U_tgt_all = _ranks(Zt, keep_y=False) if n_t >= MIN_REFIT else None
    U_tgt_lab = (_ranks(Zt_lab, keep_y=True)
                 if not unsup and lab_rows >= MIN_REFIT else None)

    def _refit(cop, s1, s2):
        if isinstance(cop, KernelCopula):
            return KernelCopula.fit(s1, s2, gamma=cop.gamma)
        if isinstance(cop, GaussianCopula):
            return GaussianCopula.fit(s1, s2)
        return cop  # nothing data-driven to re-estimate

    # -- walk the trees ------------------------------------------------------
    src_trees = source_vine.trees
    trees_new: list[VineTree] = []
    cond_all: list[dict] = []
    cond_lab: list[dict] = []
    for t_idx, src_tree in enumerate(src_trees):
        last = t_idx == len(src_trees) - 1
        new_edges = []
        next_all: list[dict] = []
        next_lab: list[dict] = []
        for src_edge in src_tree.edges:
            j, k = src_edge.conditioned
            uses_y = y in src_edge.constraint
            # argument samples in the all-rows and labeled-rows streams
            if t_idx == 0:
                a1 = a2 = None
                if not uses_y:
                    a1, a2 = U_pool_all[:, j], U_pool_all[:, k]
                b1 = b2 = None
                if U_pool_lab is not None:
                    b1, b2 = U_pool_lab[:, j], U_pool_lab[:, k]
            else:
                owner = _split_conditioned(src_trees[t_idx - 1], src_edge)
                a1 = cond_all[owner[j]].get(j)
                a2 = cond_all[owner[k]].get(k)
                if a1 is None or a2 is None:
                    a1 = a2 = None
                b1 = cond_lab[owner[j]].get(j) if cond_lab else None
                b2 = cond_lab[owner[k]].get(k) if cond_lab else None
                if b1 is None or b2 is None:
                    b1 = b2 = None

            fid = f"edge({src_edge.label()})"
            if uses_y and unsup:
                new_cop = src_edge.copula
                copied.append(fid)
            elif t_idx > 0:
                # deeper trees are rebuilt from the pooled rows, untested
                s1, s2 = (b1, b2) if uses_y else (a1, a2)
                new_cop = _refit(src_edge.copula, s1, s2)
            else:
                n_e = lab_rows if uses_y else n_t
                pool = (b1, b2) if uses_y else (a1, a2)
                if n_e < MIN_TEST:
                    warnings_.append(f"{fid}: only {n_e} target rows "
                                     f"(<{MIN_TEST}); pooled without testing")
                    decisions.append(FactorDecision(fid, float("nan"), False,
                                                    "pooled", tested=False))
                    new_cop = _refit(src_edge.copula, *pool)
                else:
                    side = "target_labeled" if uses_y else "target"
                    us = np.column_stack([cdf_column(j, "source"),
                                          cdf_column(k, "source")])
                    ut = np.column_stack([cdf_column(j, side), cdf_column(k, side)])
                    res = permutation_test(us, ut, _factor_config(cfg, fid))
                    U_tgt = U_tgt_lab if uses_y else U_tgt_all
                    if res.rejected and n_e >= MIN_REFIT and U_tgt is not None:
                        decisions.append(FactorDecision(fid, res.p_value, True,
                                                        "target_only"))
                        new_cop = _refit(src_edge.copula, U_tgt[:, j], U_tgt[:, k])
                    elif res.rejected:
                        warnings_.append(f"{fid}: changed but only {n_e} target "
                                         f"rows (<{MIN_REFIT}); refit from pooled "
                                         "data instead")
                        decisions.append(FactorDecision(fid, res.p_value, True,
                                                        "pooled", fallback=True))
                        new_cop = _refit(src_edge.copula, *pool)
                    else:
                        decisions.append(FactorDecision(fid, res.p_value, False,
                                                        "pooled"))
                        new_cop = _refit(src_edge.copula, *pool)

            new_edges.append(VineEdge(conditioned=src_edge.conditioned,
                                      conditioning=src_edge.conditioning,
                                      node_pair=src_edge.node_pair,
                                      copula=new_cop,
                                      weight=src_edge.weight))
            if not last and a1 is not None:
                next_all.append({j: new_cop.cdf_u_given_v(a1, a2),
                                 k: new_cop.cdf_v_given_u(a1, a2)})
            else:
                next_all.append({})
            if not last and b1 is not None:
                next_lab.append({j: new_cop.cdf_u_given_v(b1, b2),
                                 k: new_cop.cdf_v_given_u(b1, b2)})
            else:
                next_lab.append({})
        trees_new.append(VineTree(level=src_tree.level,
                                  nodes=list(src_tree.nodes),
                                  edges=new_edges))
        cond_all, cond_lab = next_all, next_lab

    meta = dict(source_vine.fit_metadata)
    meta.update({"adapted": True, "mode": inp.mode, "n_source": int(n_s),
                 "n_target": int(n_t), "n_target_labeled": int(lab_rows)})
    model = VineModel(
        marginals=new_marginals,
        trees=trees_new,
        variable_names=list(names),
        target_index=y,
        norm_mean=None if source_vine.norm_mean is None
        else np.array(source_vine.norm_mean, dtype=float),
        norm_std=None if source_vine.norm_std is None
        else np.array(source_vine.norm_std, dtype=float),
        fit_metadata=meta,
    )
    return model, _report(decisions, copied, warnings_)


__all__ = [
    "MIN_REFIT",
    "MIN_TEST",
    "AdaptationInput",
    "AdaptationReport",
    "FactorDecision",
    "adapt_vine",
    "factor_samples",
]
