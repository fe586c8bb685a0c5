"""Regular-vine structure learning and density evaluation.

A fitted model factorizes a d-dimensional density into d marginal kernel
densities and a hierarchy of bivariate copulas indexed by the edges of
trees T_1 ... T_t (t = truncation level):

    p(x) = prod_i p_i(x_i) * prod_trees prod_edges c_{jk|D(e)}(. , .)

Tree T_1 spans the variables; its edges are chosen by a maximum spanning
tree on absolute Kendall tau weights (Prim's algorithm). Each later tree
spans the previous tree's edges, joining only pairs of edges that share
a node (proximity condition), with the set algebra

    N(e) = N(e1) | N(e2)   constraint set
    D(e) = N(e1) & N(e2)   conditioning set
    C(e) = N(e1) ^ N(e2)   conditioned pair

Copula arguments above T_1 are conditional cdfs obtained from the
h-functions of the parent edges; the copula's functional form ignores
the conditioning values (simplified-vine assumption). Edges beyond the
truncation level behave as independence copulas and are not stored.

One generator, walk, holds that recursion for fitting, scoring,
prediction and adaptation. It keeps the sample of F(v | S) in a dict
under the key (v, S): edge (j, k | D) reads (j, D) and (k, D), so every
argument is a lookup, not a search through the parent tree. The walker
yields the edge with its arguments first and computes its h-values
only when resumed, with the copula the caller then names, so a caller
can fit or replace the copula in between; it writes (j, D | {k}) and
(k, D | {j}), and only the keys a later tree reads. Once a tree is done
nothing reads its arguments again, and they are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bicopula import GaussianCopula, IndependenceCopula, KernelCopula
from .errors import DegenerateDataError, InsufficientDataError, StructureError
from .statcore import GaussianKernel1D, kendall_tau, rank_pseudo_observations


def prim_max_spanning_tree(weights: np.ndarray, valid: np.ndarray | None = None,
                           edge_key=None) -> list[tuple[int, int]]:
    """Maximum spanning tree over nodes 0..m-1 by Prim's algorithm.

    weights: symmetric (m, m) matrix. valid: optional boolean mask of
    allowed edges. Ties are broken by the smallest edge_key(i, j)
    (default: the sorted index pair), which makes the result
    deterministic for equal weights.
    """
    m = weights.shape[0]
    if edge_key is None:
        edge_key = lambda i, j: (min(i, j), max(i, j))
    in_tree = [0]
    outside = set(range(1, m))
    edges: list[tuple[int, int]] = []
    while outside:
        best = None
        for i in in_tree:
            for j in outside:
                if valid is not None and not valid[i, j]:
                    continue
                cand = (weights[i, j], edge_key(i, j), i, j)
                if best is None or cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1]):
                    best = cand
        if best is None:
            raise StructureError("candidate graph is disconnected")
        _, _, i, j = best
        edges.append((min(i, j), max(i, j)))
        in_tree.append(j)
        outside.remove(j)
    return edges


@dataclass
class VineEdge:
    """One pair-copula factor.

    conditioned: the ordered pair C(e); conditioning: D(e); node_pair:
    indices of the two nodes this edge joins in its own tree (needed to
    apply the proximity condition one level up); copula: fitted model or
    None before fitting; weight: |tau| at selection time.
    """

    conditioned: tuple[int, int]
    conditioning: frozenset
    node_pair: tuple[int, int]
    copula: object = None
    weight: float = 0.0

    def __post_init__(self):
        self.conditioned = tuple(int(v) for v in self.conditioned)
        self.conditioning = frozenset(int(i) for i in self.conditioning)
        if len(self.conditioned) != 2 or self.conditioned[0] == self.conditioned[1]:
            raise StructureError("conditioned set must contain exactly 2 variables")
        if set(self.conditioned) & self.conditioning:
            raise StructureError("conditioned and conditioning sets must be disjoint")

    @property
    def constraint(self) -> frozenset:
        return frozenset(self.conditioned) | self.conditioning

    def label(self) -> str:
        j, k = self.conditioned
        if self.conditioning:
            cond = ",".join(str(i) for i in sorted(self.conditioning))
            return f"{j},{k}|{cond}"
        return f"{j},{k}"


@dataclass
class VineTree:
    level: int
    nodes: list
    edges: list

    def __post_init__(self):
        if len(self.edges) != len(self.nodes) - 1:
            raise StructureError(
                f"tree level {self.level}: {len(self.nodes)} nodes need "
                f"{len(self.nodes) - 1} edges, got {len(self.edges)}")


def build_first_tree(pseudo: np.ndarray) -> VineTree:
    """Maximum spanning tree over variables, weighted by |kendall_tau|."""
    U = np.asarray(pseudo, dtype=float)
    n, d = U.shape
    if d < 2:
        raise ValueError("need at least 2 variables")
    if n < 2:
        raise InsufficientDataError("need at least 2 rows")
    W = np.zeros((d, d))
    for i in range(d):
        for j in range(i + 1, d):
            W[i, j] = W[j, i] = abs(kendall_tau(U[:, i], U[:, j]))
    pairs = prim_max_spanning_tree(W)
    edges = [VineEdge(conditioned=(i, j), conditioning=frozenset(),
                      node_pair=(i, j), weight=float(W[i, j]))
             for i, j in pairs]
    return VineTree(level=1, nodes=[frozenset([i]) for i in range(d)], edges=edges)


def build_next_tree(prev: VineTree, cond_samples: list[dict]) -> VineTree:
    """Build tree level prev.level+1 from conditional pseudo-observations.

    cond_samples[i][v] holds the sample of P(x_v | constraint(e_i) - v)
    for each conditioned variable v of prev.edges[i]. Candidate edges
    join prev-edges sharing a node; weights are |kendall_tau| of the two
    conditional samples identified by the constraint-set algebra.
    """
    m = len(prev.edges)
    if m < 2:
        raise ValueError("previous tree needs at least 2 edges")
    W = np.zeros((m, m))
    valid = np.zeros((m, m), dtype=bool)
    meta = {}
    for p in range(m):
        for q in range(p + 1, m):
            e1, e2 = prev.edges[p], prev.edges[q]
            if not set(e1.node_pair) & set(e2.node_pair):
                continue
            sym = e1.constraint ^ e2.constraint
            if len(sym) != 2:
                raise StructureError("node-sharing edges must differ in exactly 2 variables")
            a = next(iter(e1.constraint - e2.constraint))
            b = next(iter(e2.constraint - e1.constraint))
            if a not in cond_samples[p] or b not in cond_samples[q]:
                raise StructureError("missing conditional sample for candidate edge")
            W[p, q] = W[q, p] = abs(kendall_tau(cond_samples[p][a], cond_samples[q][b]))
            valid[p, q] = valid[q, p] = True
            meta[(p, q)] = (a, b)

    def key(i, j):
        p, q = min(i, j), max(i, j)
        a, b = meta[(p, q)]
        return tuple(sorted((a, b)))

    pairs = prim_max_spanning_tree(W, valid=valid, edge_key=key)
    edges = []
    for p, q in pairs:
        e1, e2 = prev.edges[p], prev.edges[q]
        conditioned = tuple(sorted(e1.constraint ^ e2.constraint))
        conditioning = e1.constraint & e2.constraint
        edges.append(VineEdge(conditioned=conditioned, conditioning=conditioning,
                              node_pair=(p, q), weight=float(W[p, q])))
    return VineTree(level=prev.level + 1,
                    nodes=[e.constraint for e in prev.edges],
                    edges=edges)


def walk(trees, F: dict, copula_of=None, reads=None):
    """Yield (edge, s1, s2) for every edge of trees, tree by tree.

    F maps (v, frozenset()) to the sample of variable v's cdf, or to
    None for a variable absent from the data; any edge whose arguments
    involve an absent variable yields (edge, None, None). Samples may be
    any arrays that broadcast against each other; h-values take the
    broadcast shape. On resumption after an edge, its h-values are
    computed with copula_of(edge) (default: the edge's own copula) and
    stored in F for the keys for which reads(key) is true (default: the
    keys read by trees[1:], which must then be a sequence). F is updated
    in place, so trees may be produced lazily from it.
    """
    if copula_of is None:
        copula_of = lambda e: e.copula
    if reads is None:
        reads = {(v, e.conditioning) for t in trees[1:] for e in t.edges
                 for v in e.conditioned}.__contains__
    for tree in trees:
        for edge in tree.edges:
            j, k = edge.conditioned
            D = edge.conditioning
            if (j, D) not in F or (k, D) not in F:
                raise StructureError(f"arguments of edge {edge.label()} are not "
                                     "derivable from the trees above it")
            s1, s2 = F[j, D], F[k, D]
            if s1 is None or s2 is None:
                s1 = s2 = None
            yield edge, s1, s2
            keys = [key for key in ((j, D | {k}), (k, D | {j})) if reads(key)]
            if keys and s1 is not None:
                cop = copula_of(edge)
                h = {j: cop.cdf_u_given_v, k: cop.cdf_v_given_u}
                for v, S in keys:
                    F[v, S] = h[v](s1, s2)
            else:
                F.update(dict.fromkeys(keys))
        for key in [key for key in F if len(key[1]) == tree.level - 1]:
            del F[key]


def base_samples(U: np.ndarray) -> dict:
    """walk's F for an (n, d) matrix of pseudo-observations.

    A column holding any nan marks its variable absent.
    """
    return {(i, frozenset()): None if np.isnan(col).any() else col
            for i, col in enumerate(U.T)}


def _fit_edge_copula(family: str, s1: np.ndarray, s2: np.ndarray):
    if family == "kernel":
        return KernelCopula.fit(s1, s2)
    if family == "gaussian":
        return GaussianCopula.fit(s1, s2)
    raise ValueError(f"unknown copula family '{family}'")


@dataclass
class VineModel:
    """Fitted truncated regular vine."""

    marginals: list
    trees: list
    variable_names: list
    target_index: int | None = None
    fit_metadata: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return len(self.marginals)

    @property
    def truncation(self) -> int:
        return len(self.trees)

    def log_density(self, X) -> np.ndarray | float:
        """Row-wise log density; finite for all finite inputs."""
        arr = np.asarray(X, dtype=float)
        scalar = arr.ndim == 1
        rows = np.atleast_2d(arr)
        if rows.shape[1] != self.dim:
            raise ValueError(f"expected {self.dim} columns, got {rows.shape[1]}")
        logp = np.zeros(rows.shape[0])
        F = {}
        for i, marg in enumerate(self.marginals):
            logp += marg.logpdf(rows[:, i])
            F[i, frozenset()] = marg.cdf(rows[:, i])
        for edge, s1, s2 in walk(self.trees, F):
            logp += edge.copula.log_density(s1, s2)
        return float(logp[0]) if scalar else logp

    def conditional_cdf(self, var: int, value: float, conditioning: dict | None = None) -> float:
        """P(X_var <= value | X_s = x_s for every s in conditioning).

        Evaluates the recursion P(j|S) = h of the edge (j,k|S-k) applied
        to P(j|S-k) and P(k|S-k), bottoming out at the marginal kernel
        cdf. The conditioning set must be derivable from the stored
        trees, otherwise a StructureError is raised.
        """
        cond = dict(conditioning or {})
        if var in cond:
            raise ValueError("query variable cannot appear in the conditioning set")
        base = {int(i): float(self.marginals[i].cdf(x))
                for i, x in {var: value, **cond}.items()}
        memo: dict = {}

        def rec(j: int, S: frozenset) -> float:
            if not S:
                return base[j]
            key = (j, S)
            if key in memo:
                return memo[key]
            if len(S) > len(self.trees):
                raise StructureError("conditioning set deeper than the stored trees")
            result = None
            for edge in self.trees[len(S) - 1].edges:
                a, b = edge.conditioned
                if a == j and b in S and edge.conditioning == S - {b}:
                    u = rec(j, S - {b})
                    v = rec(b, S - {b})
                    result = float(edge.copula.cdf_u_given_v(u, v))
                    break
                if b == j and a in S and edge.conditioning == S - {a}:
                    u = rec(a, S - {a})
                    v = rec(j, S - {a})
                    result = float(edge.copula.cdf_v_given_u(u, v))
                    break
            if result is None:
                raise StructureError(
                    f"conditional of {j} given {sorted(S)} is not derivable from the fitted trees")
            memo[key] = result
            return result

        return rec(int(var), frozenset(int(i) for i in cond))


def fit_vine(data, truncation: int = 1, family: str = "kernel",
             variable_names=None, target_index: int | None = None,
             seed: int | None = None) -> VineModel:
    """Fit marginals, pseudo-observations and trees T_1..truncation.

    Fitting is deterministic; seed is only recorded in the metadata so
    experiment harnesses can stamp their provenance. The fit needs no
    rescaled columns: copulas see ranks only, and the Silverman bandwidth
    of each marginal scales with its column, so a fit to a * X + b is the
    fit to X with every marginal mapped the same way.
    """
    X = np.asarray(data, dtype=float)
    if X.ndim != 2:
        raise ValueError("data must be a 2-d array")
    n, d = X.shape
    if n < 20:
        raise InsufficientDataError(f"need at least 20 rows, got {n}")
    if d < 2:
        raise ValueError("need at least 2 variables")
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    names = list(variable_names) if variable_names is not None else [f"x{i}" for i in range(d)]
    if len(names) != d:
        raise ValueError("variable_names length must match column count")
    for i in range(d):
        if np.all(X[:, i] == X[0, i]):
            raise DegenerateDataError(f"column '{names[i]}' has zero variance")

    marginals = [GaussianKernel1D.fit(X[:, i]) for i in range(d)]
    U = np.column_stack([rank_pseudo_observations(X[:, i]) for i in range(d)])

    levels = min(truncation, d - 1)
    trees = []

    def grow():
        # each tree is built from the conditional samples of the one before
        tree = build_first_tree(U)
        while True:
            trees.append(tree)
            yield tree
            if len(trees) == levels:
                return
            tree = build_next_tree(tree, [{v: F[v, e.constraint - {v}] for v in e.conditioned}
                                          for e in tree.edges])

    # conditional-cdf samples feed the next tree's tau matrix; computing
    # them for a tree nothing builds on would cost O(n^2) per edge for no
    # benefit, so the last fitted level skips them
    F = base_samples(U)
    for edge, s1, s2 in walk(grow(), F, reads=lambda key: len(key[1]) < levels):
        edge.copula = _fit_edge_copula(family, s1, s2)

    return VineModel(marginals=marginals, trees=trees, variable_names=names,
                     target_index=target_index,
                     fit_metadata={"n": int(n), "seed": seed, "truncation": int(truncation),
                                   "family": family})
