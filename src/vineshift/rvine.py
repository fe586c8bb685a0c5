"""Regular-vine structure learning and density evaluation.

A fitted model factorizes a d-dimensional density into d marginal kernel
densities and a hierarchy of bivariate copulas indexed by the edges of
trees T_1 ... T_t (t = truncation level):

    p(x) = prod_i p_i(x_i) * prod_trees prod_edges c_{jk|D(e)}(. , .)

Tree T_1 spans the variables; its edges are chosen by a maximum spanning
tree on absolute Kendall tau weights (Prim's algorithm, which takes the
tree builder's candidate list and sorts it once). Each later tree
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
prediction, adaptation and conditional cdfs. It keeps the sample of
F(v | S) in a dict under the key (v, S): edge (j, k | D) reads (j, D)
and (k, D), so every argument is a lookup, not a search through the
parent tree. Tree building reads the same dict: the candidate edge
joining nodes N_p and N_q weighs (a, D) against (b, D), where
{a, b} = N_p ^ N_q and D = N_p & N_q, and a tree's candidates are
weighed together, by kendall_tau on blocks of stacked rows. The walker
yields the edge with its arguments first and computes its h-values
only when resumed, with the copula the edge holds by then, so a caller
fits the copula in between by setting edge.copula (fit_vine tree by
tree, adapt_vine on a copy of the source trees); it writes
(j, D | {k}) and (k, D | {j}), and only the keys a later tree reads (a
fit: only those a candidate edge of the next tree reads). Once a tree
is done nothing reads its arguments again, and they are dropped.

A walk carries each F(v | S) on one scale, which follows from the copula
families in the trees. When every copula is Gaussian or independence
(SCORE_FAMILIES), it carries normal scores z = Phi^-1(F(v | S)): the
marginals give their tabulated scores, the h-function of a Gaussian
edge is linear in them, h = (z - rho w) / sqrt(1 - rho^2) (Aas et al.
2009), and log c is read on them, so no edge turns a value into a
probability and back. A conditional cdf near 1 then keeps its precision
in the upper tail. A vine that holds any kernel copula walks on
probabilities, because the kernel copula's h tables interpolate
probabilities; scores there would need tables of Phi^-1(h).
"""

from __future__ import annotations

import heapq
import itertools
import numbers
import operator
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .bicopula import GaussianCopula, IndependenceCopula, KernelCopula
from .dataio import check_names
from .errors import (DegenerateDataError, InsufficientDataError, SchemaError, StructureError,
                     require_integer)
from .statcore import (TAU_BLOCK_ENTRIES, GaussianKernel1D, kendall_tau,
                       rank_pseudo_observations, row_blocks)


def prim_max_spanning_tree(m: int, candidates) -> list[tuple[int, int]]:
    """Maximum spanning tree over nodes 0..m-1 by Prim's algorithm.

    candidates holds (weight, key, i, j) for each allowed pair i < j.
    They are sorted once by (-weight, key): the tree grows from node 0,
    each step joining by the first candidate with exactly one end in it,
    so ties in weight go to the smallest key. Returns the edges as
    (i, j) in joining order; raises StructureError if the candidates do
    not connect the nodes, and ValueError on a non-finite weight.
    """
    ranked = sorted(candidates, key=lambda c: (-c[0], c[1]))
    if not np.isfinite([c[0] for c in ranked]).all():
        raise ValueError("spanning-tree weights must be finite")
    touching = [[] for _ in range(m)]
    for rank, (_, _, i, j) in enumerate(ranked):
        touching[i].append(rank)
        touching[j].append(rank)
    # ranks of the candidates with an end in the tree, each pushed when its
    # first end joins and dropped when it surfaces with both ends inside
    in_tree, edges, heap = {0}, [], touching[0] if m else []
    while len(in_tree) < m:
        if not heap:
            raise StructureError("candidate graph is disconnected")
        _, _, i, j = ranked[heapq.heappop(heap)]
        if i in in_tree and j in in_tree:
            continue
        edges.append((i, j))
        new = j if i in in_tree else i
        in_tree.add(new)
        for rank in touching[new]:
            heapq.heappush(heap, rank)
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
        self.conditioned = tuple(map(operator.index, self.conditioned))
        self.conditioning = frozenset(map(operator.index, self.conditioning))
        self.node_pair = tuple(map(operator.index, self.node_pair))
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


def _build_tree(level: int, nodes: list, F: dict, adjacent) -> VineTree:
    """Maximum spanning tree over nodes, weighted by |kendall_tau|.

    nodes are constraint sets; adjacent(p, q) says whether nodes p < q
    may be joined. The edge joining them conditions on D = N_p & N_q
    and its weight is the tau of walk's samples F[a, D] and F[b, D] of
    the pair {a, b} = N_p ^ N_q. The candidates are collected first;
    their taus then come from kendall_tau on stacked rows, one block of
    about TAU_BLOCK_ENTRIES entries per call, so a tree's working memory
    does not grow with its number of candidates. Each candidate goes to
    prim_max_spanning_tree as (|tau|, sorted {a, b}, p, q), and Prim
    sorts that list once.
    """
    m = len(nodes)
    joined, xs, ys = [], [], []
    for p, q in itertools.combinations(range(m), 2):
        if not adjacent(p, q):
            continue
        if len(nodes[p] ^ nodes[q]) != 2:
            raise StructureError("node-sharing edges must differ in exactly 2 variables")
        (a,), (b,) = nodes[p] - nodes[q], nodes[q] - nodes[p]
        D = nodes[p] & nodes[q]
        if F.get((a, D)) is None or F.get((b, D)) is None:
            raise StructureError("missing conditional sample for candidate edge")
        joined.append((tuple(sorted((a, b))), p, q))
        xs.append(F[a, D])
        ys.append(F[b, D])
    taus = np.empty(len(joined))
    for blk in row_blocks(len(joined), np.size(xs[0]) if xs else 0, TAU_BLOCK_ENTRIES):
        taus[blk] = kendall_tau(np.stack(xs[blk]), np.stack(ys[blk]))
    candidates = [(abs(tau), pair, p, q) for (pair, p, q), tau in zip(joined, taus)]
    by_nodes = {(p, q): (w, pair) for w, pair, p, q in candidates}
    edges = []
    for p, q in prim_max_spanning_tree(m, candidates):
        w, pair = by_nodes[p, q]
        edges.append(VineEdge(conditioned=pair, conditioning=nodes[p] & nodes[q],
                              node_pair=(p, q), weight=float(w)))
    return VineTree(level=level, nodes=list(nodes), edges=edges)


def build_first_tree(pseudo: np.ndarray) -> VineTree:
    """Maximum spanning tree over variables, weighted by |kendall_tau|."""
    U = np.asarray(pseudo, dtype=float)
    n, d = U.shape
    if d < 2:
        raise ValueError("need at least 2 variables")
    if n < 2:
        raise InsufficientDataError("need at least 2 rows")
    return _build_tree(1, [frozenset([i]) for i in range(d)],
                       {(i, frozenset()): col for i, col in enumerate(U.T)},
                       lambda p, q: True)


def build_next_tree(prev: VineTree, F: dict) -> VineTree:
    """Build tree level prev.level+1 from walk's samples F after prev.

    Candidate edges join prev-edges sharing a node (proximity
    condition); F must hold the samples each candidate reads.
    """
    if len(prev.edges) < 2:
        raise ValueError("previous tree needs at least 2 edges")
    return _build_tree(prev.level + 1, [e.constraint for e in prev.edges], F,
                       lambda p, q: bool(set(prev.edges[p].node_pair)
                                         & set(prev.edges[q].node_pair)))


# Copula families with score methods: a vine of only these walks on normal
# scores; one kernel copula keeps the whole walk on probabilities.
SCORE_FAMILIES = (GaussianCopula, IndependenceCopula)


def walk(trees, F: dict, reads=None, scores: bool = False):
    """Yield (edge, s1, s2) for every edge of the sequence trees, tree by tree.

    F maps (v, frozenset()) to the sample of variable v's cdf, or to
    None for a variable absent from the data; any edge whose arguments
    involve an absent variable yields (edge, None, None). Samples are
    probabilities, or their normal scores where scores is true, as the
    caller sets it from the trees' families (VineModel.on_scores): the
    walk then computes h-values with the copulas' score methods, and
    every sample it yields and stores is a score. Samples may be any arrays
    that broadcast against each other; h-values take the broadcast
    shape, and a nan argument gives nan in its place only. On
    resumption after an edge, its h-values are computed with edge.copula
    as it stands then, so the caller may set it in between, and stored
    in F, which is updated in place, for the keys for which reads(key) is
    true (default: the keys read by trees[1:]).
    """
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
                cop = edge.copula
                h = ({j: cop.score_u_given_v, k: cop.score_v_given_u} if scores
                     else {j: cop.cdf_u_given_v, k: cop.cdf_v_given_u})
                for v, S in keys:
                    F[v, S] = h[v](s1, s2)
            else:
                F.update(dict.fromkeys(keys))
        for key in [key for key in F if len(key[1]) == tree.level - 1]:
            del F[key]


def base_samples(U: np.ndarray) -> dict:
    """walk's F for an (n, d) matrix of pseudo-observations or their normal scores.

    A column that is all nan marks its variable absent, and edges over
    it cost nothing. A partly nan column is a sample like any other: it
    pays the whole walk, every edge over it evaluated on all its rows,
    and its nan rows give nan.
    """
    return {(i, frozenset()): None if np.isnan(col).all() else col
            for i, col in enumerate(U.T)}


def _check_trees(trees: list, d: int) -> None:
    """Raise StructureError unless trees are trees 1..t of a regular vine on d variables.

    The rules are the module docstring's; tree k is stored as level k, and
    its nodes are tree k-1's edges' constraint sets in order.
    """
    if not 1 <= len(trees) <= d - 1:
        raise StructureError(f"expected between 1 and {d - 1} trees, found {len(trees)}")
    nodes, below = [frozenset([i]) for i in range(d)], None
    for lvl, tree in enumerate(trees, start=1):
        m = len(nodes)
        if tree.level != lvl:
            raise StructureError(f"tree {lvl} is stored as level {tree.level}")
        if tree.nodes != nodes:
            raise StructureError(f"tree {lvl} has {len(tree.nodes)} nodes; tree {lvl} of a "
                                 f"{d}-variable vine has {m}" if len(tree.nodes) != m else
                                 f"tree {lvl} nodes {[sorted(n) for n in tree.nodes]} "
                                 f"should be {[sorted(n) for n in nodes]}")
        part = {i: {i} for i in range(m)}  # the nodes joined to each node so far
        for e in tree.edges:
            if len(e.node_pair) != 2 or not all(0 <= i < m for i in e.node_pair):
                raise StructureError(f"tree {lvl} edge {e.label()}: node_pair "
                                     f"{list(e.node_pair)} out of range")
            p, q = e.node_pair
            if (set(e.conditioned) != nodes[p] ^ nodes[q] or e.conditioning != nodes[p] & nodes[q]
                    or below and not set(below[p].node_pair) & set(below[q].node_pair)):
                raise StructureError(f"tree {lvl} edge {e.label()} does not follow from its "
                                     f"parent edges {list(e.node_pair)}" if below else
                                     f"tree 1 edge {e.label()} does not join its two variables")
            merged = part[p] | part[q]
            part.update(dict.fromkeys(merged, merged))
        # m - 1 edges that join all m nodes form a tree
        if len(tree.edges) != m - 1 or len(part[0]) != m:
            raise StructureError(f"the edges of tree {lvl} do not form a tree")
        nodes, below = [e.constraint for e in tree.edges], tree.edges


def _check_target(target_index, d: int) -> int:
    """target_index as an int if it indexes one of d variables; ValueError otherwise."""
    if isinstance(target_index, numbers.Integral) and 0 <= target_index < d:
        return int(target_index)
    raise ValueError(f"target_index {target_index!r} out of range")


COPULA_FAMILIES = {"kernel": KernelCopula, "gaussian": GaussianCopula}


@dataclass
class VineModel:
    """Fitted truncated regular vine over named variables, one of which may be the target.

    Construction refuses one that breaks the vine rules, the names rule
    (dataio.check_names) or the target rule (None, or a variable's index).
    """

    marginals: list
    trees: list
    variable_names: list
    target_index: int | None = None
    fit_metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.variable_names = check_names(self.variable_names)
        d = len(self.variable_names)
        if len(self.marginals) != d:
            raise ValueError("marginal count does not match variable names")
        if self.target_index is not None:
            self.target_index = _check_target(self.target_index, d)
        _check_trees(self.trees, d)

    def require_target(self) -> int:
        """The target variable's index; a model without one is refused with a SchemaError."""
        if self.target_index is None:
            raise SchemaError("model has no target variable; refit with --target")
        return self.target_index

    @property
    def dim(self) -> int:
        return len(self.marginals)

    @property
    def truncation(self) -> int:
        return len(self.trees)

    @property
    def on_scores(self) -> bool:
        """Whether walks over this vine carry normal scores (see the module docstring)."""
        return all(isinstance(e.copula, SCORE_FAMILIES) for t in self.trees for e in t.edges)

    def log_density(self, X) -> np.ndarray | float:
        """Row-wise log density; finite for all finite inputs.

        A nan cell gives its row nan. Its column is data like any other,
        even when it is nan in every row, so it pays the whole walk.
        """
        arr = np.asarray(X, dtype=float)
        scalar = arr.ndim == 1
        rows = np.atleast_2d(arr)
        if rows.shape[1] != self.dim:
            raise ValueError(f"expected {self.dim} columns, got {rows.shape[1]}")
        logp = self._log_factors(rows.T)
        return float(logp[0]) if scalar else logp

    def _log_factors(self, columns, involving: int | None = None) -> np.ndarray:
        """Log marginals by index, then log pair copulas in walk order, summed.

        columns holds one array per variable, all broadcasting together.
        involving=v keeps v's marginal and the copulas whose constraint holds v.
        """
        scores = self.on_scores
        logp, F = 0.0, {}
        for i, (marg, x) in enumerate(zip(self.marginals, columns)):
            if involving in (None, i):
                logp = logp + marg.logpdf(x)
            F[i, frozenset()] = marg.score(x) if scores else marg.cdf(x)
        for edge, s1, s2 in walk(self.trees, F, scores=scores):
            if involving is None or involving in edge.constraint:
                cop = edge.copula
                logp = logp + (cop.log_density_scores if scores else cop.log_density)(s1, s2)
        return logp

    def conditional_cdf(self, var: int, value: float, conditioning: dict | None = None) -> float:
        """P(X_var <= value | X_s = x_s for every s in conditioning).

        walk's F(var | conditioning) from the marginals of the given
        variables, all others absent; on a vine that walks on normal
        scores, Phi of the score. A conditioning set the stored trees
        cannot derive raises a StructureError.
        """
        var, given = int(var), {int(i): x for i, x in (conditioning or {}).items()}
        if var in given:
            raise ValueError("query variable cannot appear in the conditioning set")
        given[var] = value
        if not all(0 <= i < self.dim for i in given):
            raise ValueError(f"variable indices must lie in 0..{self.dim - 1}")
        scores = self.on_scores
        F = {(i, frozenset()): float((m.score if scores else m.cdf)(given[i]))
             if i in given else None for i, m in enumerate(self.marginals)}
        S = frozenset(given) - {var}
        for _ in walk(self.trees[:len(S)], F, scores=scores,
                      reads=lambda key: len(key[1]) < len(S) or key == (var, S)):
            pass
        if F.get((var, S)) is None:
            raise StructureError(
                f"conditional of {var} given {sorted(S)} is not derivable from the fitted trees")
        return float(ndtr(F[var, S]) if scores else F[var, S])


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
    require_integer("truncation", truncation)
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    if family not in COPULA_FAMILIES:
        raise ValueError(f"unknown copula family '{family}'")
    names = [f"x{i}" for i in range(d)] if variable_names is None else check_names(variable_names)
    if len(names) != d:
        raise ValueError("variable_names length must match column count")
    for i in range(d):
        if not np.isfinite(X[:, i]).all():
            raise ValueError(f"column '{names[i]}' has non-finite values")
        if np.all(X[:, i] == X[0, i]):
            raise DegenerateDataError(f"column '{names[i]}' has zero variance")

    marginals = [GaussianKernel1D.fit(X[:, i]) for i in range(d)]
    U = np.column_stack([rank_pseudo_observations(X[:, i]) for i in range(d)])

    # Tree by tree: fit a tree's copulas, then build the next tree from
    # the conditional samples its walk left in F. Those feed the next
    # tree's tau matrix and nothing else; each costs O(n^2) for a kernel
    # copula. Edge (j, k | D) writes
    # (j, D | {k}), which a candidate of the next tree reads exactly when
    # the node D | {k} joins two or more edges of its tree. So the fit
    # writes only keys conditioned on such nodes, and none at the last
    # fitted level. The walk's scale follows from the family; a Gaussian
    # fit reads only the ranks of its arguments, which Phi^-1 keeps.
    levels = min(truncation, d - 1)
    scores = issubclass(COPULA_FAMILIES[family], SCORE_FAMILIES)
    F = base_samples(ndtri(U) if scores else U)
    trees = []
    for level in range(1, levels + 1):
        tree = build_first_tree(U) if level == 1 else build_next_tree(trees[-1], F)
        trees.append(tree)
        degree = Counter(i for e in tree.edges for i in e.node_pair)
        shared = {tree.nodes[i] for i, k in degree.items() if k >= 2 and level < levels}
        for edge, s1, s2 in walk([tree], F, reads=lambda key: key[1] in shared, scores=scores):
            edge.copula = COPULA_FAMILIES[family].fit(s1, s2)

    return VineModel(marginals=marginals, trees=trees, variable_names=names,
                     target_index=target_index,
                     fit_metadata={"n": int(n), "seed": seed, "truncation": int(truncation),
                                   "family": family})
