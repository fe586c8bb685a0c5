import itertools
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate
from scipy.special import ndtr, ndtri

from vineshift.errors import (DegenerateDataError, InsufficientDataError,
                              StructureError)
from vineshift import adapt, rvine
from vineshift.dataio import Dataset
from vineshift.mmd import MmdConfig
from vineshift.bicopula import GaussianCopula, IndependenceCopula, KernelCopula
from vineshift.regress import predict_means
from vineshift.rvine import (VineEdge, VineModel, VineTree, base_samples, build_first_tree,
                             build_next_tree, fit_vine,
                             prim_max_spanning_tree, walk)
from vineshift.statcore import GaussianKernel1D, kendall_tau, rank_pseudo_observations
from vineshift.synth import gaussian_copula_chain, regression_task

from spanning_trees import dense_prim


def copy_trees(trees):
    """The trees with every edge copied, so setting a copula leaves trees as they are."""
    return [VineTree(level=t.level, nodes=list(t.nodes), edges=[replace(e) for e in t.edges])
            for t in trees]


# the first tree of path_model: the path 0-1-2-3, as (conditioned, conditioning, node_pair)
PATH = [((0, 1), (), (0, 1)), ((1, 2), (), (1, 2)), ((2, 3), (), (2, 3))]


def path_model(first=PATH, second=(((0, 2), {1}, (0, 1)), ((1, 3), {2}, (1, 2)))):
    """A 4-variable VineModel built by hand, with independence copulas.

    Its trees hold the edges first and, unless second is None, second.
    """
    trees, nodes = [], [frozenset([i]) for i in range(4)]
    for level, spec in enumerate(filter(None, (first, second)), start=1):
        edges = [VineEdge(c, frozenset(D), pair, IndependenceCopula()) for c, D, pair in spec]
        trees.append(VineTree(level=level, nodes=nodes, edges=edges))
        nodes = [e.constraint for e in edges]
    return VineModel(marginals=[GaussianKernel1D(np.zeros(1), 1.0)] * 4, trees=trees,
                     variable_names=list("abcd"))


def spanning_tree_weight(weights, edges):
    return sum(weights[i, j] for i, j in edges)


def brute_force_mst(weights, valid=None):
    """Best spanning tree by enumerating all trees (Cayley, d <= 6)."""
    m = weights.shape[0]
    best = None
    all_edges = [(i, j) for i in range(m) for j in range(i + 1, m)
                 if valid is None or valid[i, j]]
    for combo in itertools.combinations(all_edges, m - 1):
        seen = {0}
        frontier = [0]
        adj = {i: [] for i in range(m)}
        for i, j in combo:
            adj[i].append(j)
            adj[j].append(i)
        while frontier:
            cur = frontier.pop()
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if len(seen) != m:
            continue
        w = spanning_tree_weight(weights, combo)
        if best is None or w > best[0]:
            best = (w, combo)
    return best


def random_samples(prev, n, rng):
    """walk's F after tree prev: a random sample for every key it writes."""
    return {(v, e.constraint - {v}): rng.random(n) for e in prev.edges for v in e.conditioned}


def per_pair_tree(nodes, F, adjacent):
    """Candidates and Prim tree from one 1-d kendall_tau call per candidate pair."""
    candidates = []
    for p, q in itertools.combinations(range(len(nodes)), 2):
        if adjacent(p, q):
            (a,), (b,) = nodes[p] - nodes[q], nodes[q] - nodes[p]
            D = nodes[p] & nodes[q]
            candidates.append((abs(kendall_tau(F[a, D], F[b, D])), tuple(sorted((a, b))), p, q))
    return candidates, prim_max_spanning_tree(len(nodes), candidates)


def dense_weights(m, candidates):
    """The (m, m) weight matrix, validity mask and key map a candidate list spells out."""
    W = np.zeros((m, m))
    valid = np.zeros((m, m), dtype=bool)
    key = {}
    for w, k, p, q in candidates:
        W[p, q] = W[q, p] = w
        valid[p, q] = valid[q, p] = True
        key[p, q] = key[q, p] = k
    return W, valid, key


def scan_prim(weights, valid=None, edge_key=None):
    """prim_max_spanning_tree as it was when it took a dense weight matrix.

    Kept unchanged as the oracle for the sorted candidate list: every
    step rescans each (in-tree, outside) cell of weights.
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


def recursive_conditional(model, var, value, conditioning=None):
    """The recursion VineModel.conditional_cdf ran before walk served it.

    Kept as the oracle for walk's arguments and for conditional_cdf: it
    searches each tree for the edge whose h-function gives F(j | S)
    instead of reading walk's keys. It runs on the model's walk scale,
    so a vine that walks on normal scores gets the score of F(j | S),
    from the marginals' scores and the copulas' score methods.
    """
    scores = model.on_scores
    cond = dict(conditioning or {})
    if var in cond:
        raise ValueError("query variable cannot appear in the conditioning set")
    base = {int(i): float((model.marginals[i].score if scores else model.marginals[i].cdf)(x))
            for i, x in {var: value, **cond}.items()}
    memo: dict = {}

    def rec(j: int, S: frozenset) -> float:
        if not S:
            return base[j]
        key = (j, S)
        if key in memo:
            return memo[key]
        if len(S) > len(model.trees):
            raise StructureError("conditioning set deeper than the stored trees")
        result = None
        for edge in model.trees[len(S) - 1].edges:
            a, b = edge.conditioned
            cop = edge.copula
            if a == j and b in S and edge.conditioning == S - {b}:
                u = rec(j, S - {b})
                v = rec(b, S - {b})
                result = float((cop.score_u_given_v if scores else cop.cdf_u_given_v)(u, v))
                break
            if b == j and a in S and edge.conditioning == S - {a}:
                u = rec(a, S - {a})
                v = rec(j, S - {a})
                result = float((cop.score_v_given_u if scores else cop.cdf_v_given_u)(u, v))
                break
        if result is None:
            raise StructureError(
                f"conditional of {j} given {sorted(S)} is not derivable from the fitted trees")
        memo[key] = result
        return result

    return rec(int(var), frozenset(int(i) for i in cond))


def recursive_conditional_cdf(model, var, value, conditioning=None):
    """The oracle's F(var | conditioning) as a probability."""
    got = recursive_conditional(model, var, value, conditioning)
    return float(ndtr(got)) if model.on_scores else got


def walk_on_scale(model, U):
    """walk over model's trees from pseudo-observations U, on the model's scale."""
    scores = model.on_scores
    return walk(model.trees, base_samples(ndtri(U) if scores else U), scores=scores)


def edge_log_density(edge, s1, s2, scores):
    cop = edge.copula
    return (cop.log_density_scores if scores else cop.log_density)(s1, s2)


class TestPrimMaxSpanningTree:
    def test_triangle(self):
        W = np.array([[0, 3, 1], [3, 0, 2], [1, 2, 0]], dtype=float)
        edges = dense_prim(W)
        assert sorted(edges) == [(0, 1), (1, 2)]

    def test_matches_enumeration_random(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            m = int(rng.integers(2, 7))
            A = rng.random((m, m))
            W = (A + A.T) / 2
            np.fill_diagonal(W, 0.0)
            edges = dense_prim(W)
            assert len(edges) == m - 1
            best_w, _ = brute_force_mst(W)
            assert_allclose(spanning_tree_weight(W, edges), best_w, rtol=1e-12)

    def test_respects_validity_mask(self):
        W = np.ones((4, 4))
        np.fill_diagonal(W, 0.0)
        valid = np.zeros((4, 4), dtype=bool)
        # only a path 0-1-2-3 is allowed
        for i, j in [(0, 1), (1, 2), (2, 3)]:
            valid[i, j] = valid[j, i] = True
        edges = dense_prim(W, valid)
        assert sorted(edges) == [(0, 1), (1, 2), (2, 3)]

    def test_disconnected_raises(self):
        W = np.ones((4, 4))
        valid = np.zeros((4, 4), dtype=bool)
        valid[0, 1] = valid[1, 0] = True
        valid[2, 3] = valid[3, 2] = True
        with pytest.raises(StructureError):
            dense_prim(W, valid)

    def test_deterministic_tie_break(self):
        W = np.ones((5, 5))
        np.fill_diagonal(W, 0.0)
        edges = dense_prim(W)
        # lexicographically smallest pairs win on equal weights: a star at 0
        assert sorted(edges) == [(0, 1), (0, 2), (0, 3), (0, 4)]

    def test_equals_scan_oracle(self):
        # weights from {0, 1, 2} so ties are common, about 30% of pairs
        # masked out, and each pair keyed by a distinct variable pair as
        # _build_tree keys it
        rng = np.random.default_rng(29)
        connected = disconnected = 0
        for _ in range(2000):
            m = int(rng.integers(2, 10))
            variable_pairs = list(itertools.combinations(range(m + 2), 2))
            order = rng.permutation(len(variable_pairs))
            candidates = [(float(rng.integers(0, 3)), variable_pairs[k], i, j)
                          for (i, j), k in zip(itertools.combinations(range(m), 2), order)
                          if rng.random() >= 0.3]
            W, valid, key = dense_weights(m, candidates)
            try:
                want = scan_prim(W, valid, edge_key=lambda i, j: key[i, j])
            except StructureError:
                disconnected += 1
                with pytest.raises(StructureError):
                    prim_max_spanning_tree(m, candidates)
                continue
            connected += 1
            assert prim_max_spanning_tree(m, candidates) == want
        assert connected >= 1000 and disconnected >= 100

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_refused(self, bad):
        with pytest.raises(ValueError, match="finite"):
            prim_max_spanning_tree(3, [(1.0, (0, 1), 0, 1), (bad, (1, 2), 1, 2)])


class TestEdgeAlgebra:
    def test_constraint_union(self):
        e = VineEdge(conditioned=(1, 4), conditioning=frozenset({3}),
                     node_pair=(0, 1))
        assert e.constraint == frozenset({1, 3, 4})
        assert e.label() == "1,4|3"

    def test_disjointness_enforced(self):
        with pytest.raises(StructureError):
            VineEdge(conditioned=(1, 2), conditioning=frozenset({2}),
                     node_pair=(0, 1))
        with pytest.raises(StructureError):
            VineEdge(conditioned=(1, 1), conditioning=frozenset(),
                     node_pair=(0, 1))

    def test_symmetric_difference_forms_new_edge(self):
        # parents {1,3} and {3,4} meet at node 3: conditioned {1,4}, given {3}
        prev = VineTree(level=1, nodes=[frozenset([i]) for i in range(5)],
                        edges=[VineEdge((1, 3), frozenset(), (1, 3)),
                               VineEdge((3, 4), frozenset(), (3, 4)),
                               VineEdge((0, 1), frozenset(), (0, 1)),
                               VineEdge((1, 2), frozenset(), (1, 2))])
        tree = build_next_tree(prev, random_samples(prev, 40, np.random.default_rng(22)))
        labels = {e.label() for e in tree.edges}
        # edge joining parents 0 and 1 must be 1,4|3
        joined = [e for e in tree.edges
                  if set(e.node_pair) == {0, 1}]
        assert len(joined) <= 1
        for e in tree.edges:
            p, q = e.node_pair
            expect_conditioned = tuple(sorted(
                prev.edges[p].constraint ^ prev.edges[q].constraint))
            expect_conditioning = prev.edges[p].constraint & prev.edges[q].constraint
            assert e.conditioned == expect_conditioned
            assert e.conditioning == expect_conditioning
        assert all("|" in lab for lab in labels)

    def test_tree_edge_count_validated(self):
        # tree 1 of 4 variables needs 3 edges
        with pytest.raises(StructureError, match="^the edges of tree 1 do not form a tree$"):
            path_model(first=PATH[:2], second=None)

    @pytest.mark.parametrize("edge", [((0, 3), {1}, (0, 1)),  # 3 is in neither parent
                                      ((0, 2), {3}, (0, 1)),  # parents meet at 1, not 3
                                      ((1, 3), {2}, (0, 1))])  # what parents 1 and 2 give
    def test_second_tree_edge_contradicting_its_parents_is_refused(self, edge):
        with pytest.raises(StructureError, match="^tree 2 edge .* does not follow from "
                                                 r"its parent edges \[0, 1\]$"):
            path_model(second=[edge, ((1, 3), {2}, (1, 2))])


class TestTreeConstruction:
    def test_first_tree_recovers_chain(self):
        # ar(1)-style chain: adjacent taus dominate, so T1 is the path
        rng = np.random.default_rng(23)
        ds = gaussian_copula_chain(2000, 5, rho=0.7, rng=rng)
        U = np.column_stack([rank_pseudo_observations(ds.X[:, i])
                             for i in range(5)])
        tree = build_first_tree(U)
        assert sorted(tuple(sorted(e.conditioned)) for e in tree.edges) == \
            [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_forced_second_tree_structure(self):
        # T1 edges {0,1},{1,2},{2,3}: T2 candidates share a T1 node, so
        # possible pairs are (01,12)->0,2|1 and (12,23)->1,3|2
        prev = VineTree(level=1, nodes=[frozenset([i]) for i in range(4)],
                        edges=[VineEdge((0, 1), frozenset(), (0, 1)),
                               VineEdge((1, 2), frozenset(), (1, 2)),
                               VineEdge((2, 3), frozenset(), (2, 3))])
        tree = build_next_tree(prev, random_samples(prev, 60, np.random.default_rng(24)))
        labels = sorted(e.label() for e in tree.edges)
        assert labels == ["0,2|1", "1,3|2"]

    def test_batched_weights_equal_per_pair_oracle(self, monkeypatch):
        # every tree of a d=8 Gaussian fit at truncation 7; tree 1's 28
        # candidate pairs at n=400 fill two blocks of stacked rows
        rng = np.random.default_rng(26)
        X = gaussian_copula_chain(400, 8, rho=0.5, rng=rng).X
        build, prim = rvine._build_tree, rvine.prim_max_spanning_tree
        seen = []

        def recording_prim(m, candidates):
            seen[-1]["candidates"] = list(candidates)
            return prim(m, candidates)

        def recording_build(level, nodes, F, adjacent):
            seen.append({"oracle": per_pair_tree(nodes, F, adjacent), "m": len(nodes)})
            seen[-1]["tree"] = build(level, nodes, F, adjacent)
            return seen[-1]["tree"]

        monkeypatch.setattr(rvine, "prim_max_spanning_tree", recording_prim)
        monkeypatch.setattr(rvine, "_build_tree", recording_build)
        model = fit_vine(X, truncation=7, family="gaussian")
        assert len(seen) == 7
        for got, tree in zip(seen, model.trees, strict=True):
            candidates, pairs = got["oracle"]
            W, valid, key = dense_weights(got["m"], candidates)
            weights, mask, _ = dense_weights(got["m"], got["candidates"])
            assert np.array_equal(weights, W)
            assert np.array_equal(mask, valid)
            assert got["tree"] is tree
            assert [e.node_pair for e in tree.edges] == pairs
            assert [e.weight for e in tree.edges] == [W[p, q] for p, q in pairs]
            assert scan_prim(W, valid, edge_key=lambda i, j: key[i, j]) == pairs

    def test_proximity_condition_blocks_nonadjacent(self):
        # parents {0,1} and {2,3} share no node: the only valid T2 edges
        # go through {1,2}
        prev = VineTree(level=1, nodes=[frozenset([i]) for i in range(4)],
                        edges=[VineEdge((0, 1), frozenset(), (0, 1)),
                               VineEdge((2, 3), frozenset(), (2, 3)),
                               VineEdge((1, 2), frozenset(), (1, 2))])
        tree = build_next_tree(prev, random_samples(prev, 30, np.random.default_rng(25)))
        for e in tree.edges:
            assert 2 in set(e.node_pair)  # parent index of {1,2}


class TestFitVine:
    def test_factor_counts(self):
        rng = np.random.default_rng(26)
        X = rng.standard_normal((120, 5))
        model = fit_vine(X, truncation=3)
        assert model.dim == 5
        assert [len(t.edges) for t in model.trees] == [4, 3, 2]
        assert all(e.copula is not None for t in model.trees for e in t.edges)

    def test_truncation_capped_at_d_minus_1(self):
        rng = np.random.default_rng(27)
        X = rng.standard_normal((80, 3))
        model = fit_vine(X, truncation=10)
        assert model.truncation == 2

    def test_input_validation(self):
        rng = np.random.default_rng(28)
        with pytest.raises(InsufficientDataError):
            fit_vine(rng.standard_normal((10, 3)))
        with pytest.raises(ValueError):
            fit_vine(rng.standard_normal((50, 1)))
        X = rng.standard_normal((50, 3))
        X[:, 1] = 2.0
        with pytest.raises(DegenerateDataError):
            fit_vine(X)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_names_its_column(self, value):
        X = np.random.default_rng(28).standard_normal((50, 3))
        X[17, 1] = value
        with pytest.raises(ValueError, match="column 'b' has non-finite values"):
            fit_vine(X, variable_names=["a", "b", "c"])

    def test_two_dim_density_integrates_to_one(self):
        rng = np.random.default_rng(29)
        z = rng.standard_normal((150, 2))
        X = np.column_stack([z[:, 0], 0.6 * z[:, 0] + 0.8 * z[:, 1]])
        model = fit_vine(X, truncation=1)
        total, _ = integrate.dblquad(
            lambda yv, xv: np.exp(model.log_density(np.array([xv, yv]))),
            -8, 8, -8, 8, epsabs=1e-6)
        assert_allclose(total, 1.0, atol=2e-3)

    @pytest.mark.parametrize("a, b, tol", [(1.0, 0.0, 0.0), (0.37, -42.0, 1e-9),
                                           (1e-15, 0.0, 1e-9), (1e3, 1e12, 1e-6)])
    def test_affine_maps_are_transparent(self, a, b, tol):
        # copulas see ranks only and each marginal's Silverman bandwidth
        # scales with its column, so the fit to a X + b is the fit to X
        # with every variable mapped the same way; at 1e12, rounding the
        # inputs alone costs 2e-7 of their spread
        rng = np.random.default_rng(30)
        X, Q = regression_task(200, rng).X, regression_task(20, rng).X
        d = X.shape[1]
        base = fit_vine(X, truncation=2, target_index=d - 1)
        moved = fit_vine(a * X + b, truncation=2, target_index=d - 1)
        assert ([[e.label() for e in t.edges] for t in moved.trees]
                == [[e.label() for e in t.edges] for t in base.trees])
        assert_allclose(moved.log_density(a * Q + b), base.log_density(Q) - d * np.log(a),
                        rtol=tol, atol=0)
        assert_allclose(predict_means(moved, a * Q[:, :-1] + b),
                        a * predict_means(base, Q[:, :-1]) + b,
                        rtol=0, atol=tol * a * X[:, -1].std())

    @pytest.mark.parametrize("k", [-990, -600, 600, 990])
    def test_power_of_two_scales_are_exact(self, k):
        # the Silverman spread is taken on a power-of-two rescaled column,
        # so no square over- or underflows at any scale the data reach
        rng = np.random.default_rng(30)
        X, Q = regression_task(200, rng).X, regression_task(20, rng).X
        base = fit_vine(X, truncation=2)
        moved = fit_vine(np.ldexp(X, k), truncation=2)
        for m, b in zip(moved.marginals, base.marginals):
            assert np.array_equal(m.centers, np.ldexp(b.centers, k))
            assert m.bandwidth == np.ldexp(b.bandwidth, k)
        assert ([[(e.label(), e.weight, e.copula.z_centers.tobytes(), e.copula.sigma_z,
                   e.copula.w_centers.tobytes(), e.copula.sigma_w) for e in t.edges]
                 for t in moved.trees]
                == [[(e.label(), e.weight, e.copula.z_centers.tobytes(), e.copula.sigma_z,
                      e.copula.w_centers.tobytes(), e.copula.sigma_w) for e in t.edges]
                    for t in base.trees])
        scored = moved.log_density(np.ldexp(Q, k))
        assert np.isfinite(scored).all()
        assert_allclose(scored, base.log_density(Q) - X.shape[1] * k * np.log(2.0),
                        rtol=1e-12)

    def test_gaussian_family(self):
        rng = np.random.default_rng(31)
        ds = gaussian_copula_chain(500, 4, rho=0.6, rng=rng)
        model = fit_vine(ds.X, truncation=2, family="gaussian")
        for t in model.trees:
            for e in t.edges:
                assert hasattr(e.copula, "rho")

    def test_unknown_family_rejected_before_any_work(self, monkeypatch):
        def no_tau(*args):
            raise AssertionError("kendall_tau ran before the family was checked")

        monkeypatch.setattr(rvine, "kendall_tau", no_tau)
        X = np.random.default_rng(49).standard_normal((40, 3))
        with pytest.raises(ValueError, match="unknown copula family"):
            fit_vine(X, family="bogus")

    @pytest.mark.parametrize("family", ["kernel", "gaussian"])
    def test_fit_computes_only_h_values_next_tree_candidates_read(self, family, monkeypatch):
        # the chain's first tree is a path, so its two leaves' keys are
        # read by no candidate of tree 2
        rng = np.random.default_rng(33)
        X = gaussian_copula_chain(150, 6, rho=0.6, rng=rng).X
        walked, written = rvine.walk, []

        def recording_walk(trees, F, reads=None, scores=False):
            def logged(key):
                if reads(key):
                    written.append(key)
                    return True
                return False
            return walked(trees, F, logged, scores)

        monkeypatch.setattr(rvine, "walk", recording_walk)
        model = fit_vine(X, truncation=4, family=family)
        read = []
        for tree in model.trees[:-1]:
            for ep, eq in itertools.combinations(tree.edges, 2):
                if set(ep.node_pair) & set(eq.node_pair):
                    D = ep.constraint & eq.constraint
                    read += [(v, D) for v in ep.constraint ^ eq.constraint]
        assert sorted(written, key=repr) == sorted(set(read), key=repr)
        assert len(set(written)) == len(written)
        assert len(written) < 2 * sum(len(t.edges) for t in model.trees[:-1])

    def test_metadata_recorded(self):
        rng = np.random.default_rng(32)
        X = rng.standard_normal((60, 3))
        model = fit_vine(X, truncation=1, seed=42)
        assert model.fit_metadata["n"] == 60
        assert model.fit_metadata["seed"] == 42
        assert model.fit_metadata["family"] == "kernel"


class TestLogDensity:
    def test_independence_fit_close_to_marginal_product(self):
        rng = np.random.default_rng(33)
        X = rng.standard_normal((800, 3))
        model = fit_vine(X, truncation=1)
        pts = rng.uniform(-1.5, 1.5, size=(40, 3))
        marg = sum(model.marginals[i].logpdf(pts[:, i]) for i in range(3))
        # independent columns: copula terms are estimator noise around 0
        diff = model.log_density(pts) - marg
        assert np.mean(np.abs(diff)) < 0.2
        assert np.max(np.abs(diff)) < 1.0

    def test_scalar_and_batch_agree(self):
        rng = np.random.default_rng(34)
        X = rng.standard_normal((60, 3))
        model = fit_vine(X, truncation=2)
        pts = rng.standard_normal((4, 3))
        batch = model.log_density(pts)
        single = [model.log_density(pts[r]) for r in range(4)]
        assert_allclose(batch, single, rtol=1e-12)

    def test_finite_everywhere(self):
        rng = np.random.default_rng(35)
        X = rng.standard_normal((70, 3))
        model = fit_vine(X, truncation=2)
        extreme = np.array([[50.0, -50.0, 0.0], [1e6, 0.0, -1e6]])
        vals = model.log_density(extreme)
        assert np.all(np.isfinite(vals))


class TestConditionalCdf:
    def test_two_dim_matches_h_function(self):
        rng = np.random.default_rng(36)
        z = rng.standard_normal((120, 2))
        X = np.column_stack([z[:, 0], 0.7 * z[:, 0] + np.sqrt(0.51) * z[:, 1]])
        model = fit_vine(X, truncation=1)
        edge = model.trees[0].edges[0]
        x0, x1 = 0.4, -0.3
        u = model.marginals[0].cdf(x0)
        v = model.marginals[1].cdf(x1)
        j, k = edge.conditioned
        if j == 0:
            expect = edge.copula.cdf_u_given_v(u, v)
        else:
            expect = edge.copula.cdf_v_given_u(v, u)
        assert_allclose(model.conditional_cdf(0, x0, {1: x1}), expect,
                        rtol=1e-12)

    def test_three_dim_matches_numeric_conditional(self):
        # P(x2 <= t | x0, x1) from the vine against direct quadrature of
        # the fitted joint density
        rng = np.random.default_rng(37)
        ds = gaussian_copula_chain(300, 3, rho=0.6, rng=rng)
        model = fit_vine(ds.X, truncation=2)
        x0, x1, t = 0.2, -0.4, 0.5

        def joint(x2):
            return np.exp(model.log_density(np.array([x0, x1, x2])))

        num, _ = integrate.quad(joint, -9, t, limit=300)
        den, _ = integrate.quad(joint, -9, 9, limit=300)
        got = model.conditional_cdf(2, t, {0: x0, 1: x1})
        assert_allclose(got, num / den, atol=5e-3)

    def test_marginal_case(self):
        rng = np.random.default_rng(38)
        X = rng.standard_normal((60, 3))
        model = fit_vine(X, truncation=2)
        assert_allclose(model.conditional_cdf(1, 0.3),
                        model.marginals[1].cdf(0.3), rtol=1e-12)

    def test_unreachable_conditioning_raises(self):
        rng = np.random.default_rng(39)
        X = rng.standard_normal((60, 4))
        model = fit_vine(X, truncation=1)  # only T1: depth-2 queries fail
        with pytest.raises(StructureError):
            model.conditional_cdf(0, 0.0, {1: 0.0, 2: 0.0})
        with pytest.raises(ValueError):
            model.conditional_cdf(0, 0.0, {0: 1.0})

    @pytest.mark.parametrize("var, cond", [(-1, {}), (3, {}), (5, {}),
                                           (0, {1: 0.1, 4: 0.0}), (0, {-1: 0.0})])
    def test_variable_index_out_of_range_raises(self, var, cond):
        X = np.random.default_rng(47).standard_normal((60, 3))
        model = fit_vine(X, truncation=2)
        with pytest.raises(ValueError, match=r"0\.\.2"):
            model.conditional_cdf(var, 0.3, cond)

    @pytest.mark.parametrize("family", ["kernel", "gaussian"])
    def test_every_query_equals_recursion(self, family):
        # all variables and conditioning sets of a d=5 vine truncated at
        # 3: derivable queries give the recursion's value exactly, the
        # others raise where it raises
        rng = np.random.default_rng(48)
        ds = gaussian_copula_chain(150, 5, rho=0.6, rng=rng)
        model = fit_vine(ds.X, truncation=3, family=family)
        x = rng.standard_normal(5)
        derived = 0
        for var in range(5):
            others = [i for i in range(5) if i != var]
            for r in range(5):
                for S in itertools.combinations(others, r):
                    cond = {i: x[i] for i in S}
                    try:
                        expect = recursive_conditional_cdf(model, var, x[var], cond)
                    except StructureError:
                        with pytest.raises(StructureError):
                            model.conditional_cdf(var, x[var], cond)
                        continue
                    assert model.conditional_cdf(var, x[var], cond) == expect
                    derived += 1
        # each marginal, and both h-directions of every edge
        assert derived == 5 + 2 * (4 + 3 + 2)


class TestWalk:
    def test_matches_fit_time_samples(self):
        rng = np.random.default_rng(40)
        ds = gaussian_copula_chain(200, 4, rho=0.6, rng=rng)
        model = fit_vine(ds.X, truncation=3)
        U = np.column_stack([rank_pseudo_observations(ds.X[:, i])
                             for i in range(4)])
        triples = list(walk(model.trees, base_samples(U)))
        assert len(triples) == sum(len(t.edges) for t in model.trees)
        for edge, s1, s2 in triples:
            assert s1.shape == (200,)
            assert np.all((s1 > 0) & (s1 < 1))
            assert np.all((s2 > 0) & (s2 < 1))

    def test_nan_column_poisons_dependent_edges(self):
        rng = np.random.default_rng(41)
        ds = gaussian_copula_chain(150, 4, rho=0.6, rng=rng)
        model = fit_vine(ds.X, truncation=3)
        U = np.column_stack([rank_pseudo_observations(ds.X[:, i])
                             for i in range(4)])
        poisoned = 2
        U[:, poisoned] = np.nan
        for edge, s1, s2 in walk(model.trees, base_samples(U)):
            if poisoned in edge.constraint:
                assert s1 is None and s2 is None
            else:
                assert s1 is not None
                assert np.all(np.isfinite(s1))

    @pytest.mark.parametrize("family", ["kernel", "gaussian"])
    def test_partly_nan_column_poisons_only_its_rows(self, family):
        # a column with some nan rows is a sample, not an absent variable:
        # the edges over it are nan on exactly those rows, and every other
        # row is bit-equal to a walk without the nan rows
        rng = np.random.default_rng(47)
        ds = gaussian_copula_chain(150, 5, rho=0.6, rng=rng)
        model = fit_vine(ds.X, truncation=3, family=family)
        U = np.column_stack([rank_pseudo_observations(ds.X[:, i]) for i in range(5)])
        poisoned, rows = 2, np.zeros(150, dtype=bool)
        rows[[0, 41, 42, 149]] = True
        P = U.copy()
        P[rows, poisoned] = np.nan
        walked = list(walk_on_scale(model, P))
        reference = list(walk_on_scale(model, U[~rows]))
        assert len(walked) == len(reference) == 4 + 3 + 2
        for (edge, s1, s2), (_, r1, r2) in zip(walked, reference):
            nan_rows = np.isnan(s1) | np.isnan(s2)
            assert np.array_equal(nan_rows, rows if poisoned in edge.constraint
                                  else np.zeros(150, dtype=bool))
            assert np.array_equal(s1[~rows], r1) and np.array_equal(s2[~rows], r2)
            scores = model.on_scores
            assert np.array_equal(edge_log_density(edge, s1, s2, scores)[~rows],
                                  edge_log_density(edge, r1, r2, scores))

    def test_copula_substitution(self):
        # replacing a T1 copula changes the samples fed to its children
        rng = np.random.default_rng(42)
        ds = gaussian_copula_chain(150, 3, rho=0.7, rng=rng)
        model = fit_vine(ds.X, truncation=2)
        U = np.column_stack([rank_pseudo_observations(ds.X[:, i])
                             for i in range(3)])
        swapped = copy_trees(model.trees)
        swapped[0].edges[0].copula = IndependenceCopula()
        base = list(walk(model.trees, base_samples(U)))
        alt = list(walk(swapped, base_samples(U)))
        # T1 arguments identical, T2 arguments must differ
        assert_allclose(alt[0][1], base[0][1])
        changed = any(not np.allclose(a[1], b[1])
                      for a, b in zip(alt[2:], base[2:]))
        assert changed

    @pytest.mark.parametrize("rescaled", [False, True])
    @pytest.mark.parametrize("family", ["kernel", "gaussian"])
    def test_arguments_match_conditional_cdf(self, family, rescaled):
        # each argument is F(x_v | x_D), which the oracle evaluates by its
        # own recursion; conditional_cdf reads the same keys of walk
        rng = np.random.default_rng(43)
        scale, shift = (37.0, 1e4) if rescaled else (1.0, 0.0)
        ds = gaussian_copula_chain(150, 5, rho=0.6, rng=rng)
        model = fit_vine(ds.X * scale + shift, truncation=3, family=family)
        X = gaussian_copula_chain(4, 5, rho=0.6, rng=rng).X * scale + shift
        scores = model.on_scores
        assert scores == (family == "gaussian")
        F = {(i, frozenset()): (m.score if scores else m.cdf)(X[:, i])
             for i, m in enumerate(model.marginals)}
        seen = 0
        for edge, s1, s2 in walk(model.trees, F, scores=scores):
            D = edge.conditioning
            for v, sample in zip(edge.conditioned, (s1, s2)):
                expect = [recursive_conditional(model, v, x[v], {i: x[i] for i in D})
                          for x in X]
                assert_allclose(sample, expect, rtol=1e-12)
                assert [model.conditional_cdf(v, x[v], {i: x[i] for i in D}) for x in X] == \
                    [recursive_conditional_cdf(model, v, x[v], {i: x[i] for i in D}) for x in X]
            seen += 1
        assert seen == 4 + 3 + 2

    def test_underivable_arguments_raise(self):
        # 0,3|1 would need F(3 | 1), but no first-tree edge joins 1 and 3
        first = VineTree(level=1, nodes=[frozenset([i]) for i in range(4)],
                         edges=[VineEdge((0, 1), frozenset(), (0, 1), IndependenceCopula()),
                                VineEdge((1, 2), frozenset(), (1, 2), IndependenceCopula()),
                                VineEdge((2, 3), frozenset(), (2, 3), IndependenceCopula())])
        second = VineTree(level=2, nodes=[e.constraint for e in first.edges],
                          edges=[VineEdge((0, 2), frozenset({1}), (0, 1), IndependenceCopula()),
                                 VineEdge((0, 3), frozenset({1}), (0, 2), IndependenceCopula())])
        U = np.random.default_rng(44).random((30, 4))
        with pytest.raises(StructureError):
            list(walk([first, second], base_samples(U)))

    def test_one_h_value_per_key_read_later(self):
        rng = np.random.default_rng(45)
        ds = gaussian_copula_chain(120, 5, rho=0.6, rng=rng)
        model = fit_vine(ds.X, truncation=3)
        computed = []

        class Counting:
            def __init__(self, edge):
                self.edge, self.copula = edge, edge.copula

            def cdf_u_given_v(self, u, v):
                j, k = self.edge.conditioned
                computed.append((j, self.edge.conditioning | {k}))
                return self.copula.cdf_u_given_v(u, v)

            def cdf_v_given_u(self, u, v):
                j, k = self.edge.conditioned
                computed.append((k, self.edge.conditioning | {j}))
                return self.copula.cdf_v_given_u(u, v)

        U = np.column_stack([rank_pseudo_observations(ds.X[:, i]) for i in range(5)])
        counted = copy_trees(model.trees)
        for tree in counted:
            for edge in tree.edges:
                edge.copula = Counting(edge)
        list(walk(counted, base_samples(U)))
        reads = [(v, e.conditioning) for t in model.trees[1:] for e in t.edges
                 for v in e.conditioned]
        assert sorted(computed, key=repr) == sorted(reads, key=repr)
        assert len(set(reads)) == len(reads)

    def test_tree_arguments_are_dropped_once_walked(self):
        rng = np.random.default_rng(46)
        ds = gaussian_copula_chain(80, 4, rho=0.6, rng=rng)
        model = fit_vine(ds.X, truncation=3, family="gaussian")
        U = np.column_stack([rank_pseudo_observations(ds.X[:, i]) for i in range(4)])
        F = {(i, frozenset()): U[:, i] for i in range(4)}
        levels = []
        for edge, _, _ in walk(model.trees, F):
            levels.append({len(S) for _, S in F})
            assert len(edge.conditioning) in levels[-1]
        # while a tree is walked only its own and the next level are held,
        # and nothing is left once the last tree is done
        assert all(held <= {lvl, lvl + 1} for held, lvl in
                   zip(levels, [0] * 3 + [1] * 2 + [2]))
        assert F == {}


def gaussian_three(r01=0.6, r12=0.7, r02_1=0.5):
    """A hand-built Gaussian vine on 3 standard-normal marginals, and its correlation matrix.

    A kernel marginal with one centre at 0 and bandwidth 1 is Phi, so
    its normal score at x is x.
    """
    nodes = [frozenset([i]) for i in range(3)]
    first = [VineEdge((0, 1), frozenset(), (0, 1), GaussianCopula(r01)),
             VineEdge((1, 2), frozenset(), (1, 2), GaussianCopula(r12))]
    second = [VineEdge((0, 2), frozenset([1]), (0, 1), GaussianCopula(r02_1))]
    trees = [VineTree(1, nodes, first), VineTree(2, [e.constraint for e in first], second)]
    model = VineModel([GaussianKernel1D([0.0], 1.0) for _ in range(3)], trees, list("abc"))
    r02 = r02_1 * np.sqrt((1 - r01**2) * (1 - r12**2)) + r01 * r12
    return model, np.array([[1.0, r01, r02], [r01, 1.0, r12], [r02, r12, 1.0]])


class TestNormalScoreWalk:
    """A vine of Gaussian and independence copulas walks on normal scores."""

    def test_the_scale_follows_the_families(self):
        X = gaussian_copula_chain(60, 3, 0.5, np.random.default_rng(80)).X
        gauss, kernel = fit_vine(X, truncation=2, family="gaussian"), fit_vine(X, truncation=2)
        assert gauss.on_scores and not kernel.on_scores
        gauss.trees[1].edges[0].copula = IndependenceCopula()
        assert gauss.on_scores
        gauss.trees[0].edges[0].copula = kernel.trees[0].edges[0].copula
        assert not gauss.on_scores
        assert path_model().on_scores

    def test_far_tail_log_density_is_the_trivariate_normal_copula(self):
        # scores out to +-6.2 travel through the walk without becoming
        # probabilities; walked as probabilities, a cdf near 1 loses up to
        # 2e-7 of log c on this grid (2.8e-8 at (4.5, 5.5, 6.2))
        model, R = gaussian_three()
        grid = np.array([-6.2, -5.5, -4.5, -2.0, 0.0, 1.0, 4.5, 5.5, 6.2])
        Z = np.array(list(itertools.product(grid, repeat=3)))
        # keep the points whose conditional scores stay inside the clip
        h01 = (Z[:, 0] - 0.6 * Z[:, 1]) / np.sqrt(1 - 0.36)
        h21 = (Z[:, 2] - 0.7 * Z[:, 1]) / np.sqrt(1 - 0.49)
        Z = Z[(np.abs(h01) < 6.3) & (np.abs(h21) < 6.3)]
        assert len(Z) > 200 and [4.5, 5.5, 6.2] in Z.tolist() and [-4.5, -5.5, -6.2] in Z.tolist()
        marginals = sum(m.logpdf(Z[:, i]) for i, m in enumerate(model.marginals))
        copula = model.log_density(Z) - marginals
        quad = np.einsum("ri,ij,rj->r", Z, np.linalg.inv(R) - np.eye(3), Z)
        expect = -0.5 * np.log(np.linalg.det(R)) - 0.5 * quad
        assert np.abs(copula - expect).max() <= 1e-12

    def test_far_tail_conditional_cdf_keeps_the_upper_tail(self):
        # F(2 | 0, 1) near 1 is Phi of the exact score, not a rounded probability
        model, R = gaussian_three()
        x = np.array([4.5, 5.5, 6.2])
        S = R[2, :2] @ np.linalg.inv(R[:2, :2])
        mean, var = S @ x[:2], R[2, 2] - S @ R[:2, 2]
        got = model.conditional_cdf(2, x[2], {0: x[0], 1: x[1]})
        assert_allclose(got, ndtr((x[2] - mean) / np.sqrt(var)), rtol=1e-14)
        assert_allclose(model.conditional_cdf(2, -x[2], {0: -x[0], 1: -x[1]}),
                        ndtr((-x[2] + mean) / np.sqrt(var)), rtol=1e-12)

    def test_walks_on_scores_and_on_probabilities_agree(self):
        # the same Gaussian vine walked both ways: every argument is Phi of
        # its score, and the log copula densities agree in the body
        rng = np.random.default_rng(81)
        ds = gaussian_copula_chain(200, 5, rho=0.6, rng=rng)
        model = fit_vine(ds.X, truncation=4, family="gaussian")
        U = np.column_stack([rank_pseudo_observations(c) for c in ds.X.T])
        on_scores = list(walk(model.trees, base_samples(ndtri(U)), scores=True))
        on_probabilities = list(walk(model.trees, base_samples(U)))
        assert len(on_scores) == len(on_probabilities) == 4 + 3 + 2 + 1
        for (edge, z1, z2), (_, u1, u2) in zip(on_scores, on_probabilities):
            assert_allclose(ndtr(z1), u1, rtol=1e-12)
            assert_allclose(ndtr(z2), u2, rtol=1e-12)
            assert_allclose(edge.copula.log_density_scores(z1, z2),
                            edge.copula.log_density(u1, u2), rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("family", ["kernel", "gaussian"])
    def test_fit_score_and_adapt_walk_on_the_scale_of_their_family(self, family, monkeypatch):
        X = gaussian_copula_chain(80, 4, 0.6, np.random.default_rng(82)).X
        walked, scales = rvine.walk, []

        def recorded(trees, F, reads=None, scores=False):
            scales.append(scores)
            return walked(trees, F, reads, scores)

        monkeypatch.setattr(rvine, "walk", recorded)
        monkeypatch.setattr(adapt, "walk", recorded)
        names = ["a", "b", "c", "y"]
        model = fit_vine(X, truncation=3, family=family, variable_names=names, target_index=3)
        model.log_density(X[:5])
        model.conditional_cdf(0, 0.1, {1: 0.2})
        adapted, _ = adapt.adapt_vine(model, adapt.AdaptationInput(
            source=Dataset(names, X), target_labeled=Dataset(names, X[:30] + 0.5),
            target_unlabeled=None, target_index=3, mmd_config=MmdConfig(permutations=50)))
        assert adapted.on_scores == model.on_scores == (family == "gaussian")
        assert scales == [family == "gaussian"] * 6


class TestGuards:
    """Refused arguments of the fit, the tree builders and the density."""

    def test_log_density_refuses_a_wrong_column_count(self):
        model = fit_vine(gaussian_copula_chain(40, 3, 0.5, np.random.default_rng(0)).X)
        with pytest.raises(ValueError, match="^expected 3 columns, got 4$"):
            model.log_density(np.zeros((2, 4)))

    def test_fit_refuses_1d_data(self):
        with pytest.raises(ValueError, match="^data must be a 2-d array$"):
            fit_vine(np.arange(30.0))

    @pytest.mark.parametrize("target_index", [5, -1, 1.7])
    def test_fit_refuses_a_target_that_is_not_a_variable_index(self, target_index):
        X = gaussian_copula_chain(40, 3, 0.5, np.random.default_rng(0)).X
        with pytest.raises(ValueError, match=f"^target_index {target_index} out of range$"):
            fit_vine(X, target_index=target_index)

    def test_fit_refuses_a_wrong_number_of_names(self):
        X = gaussian_copula_chain(40, 3, 0.5, np.random.default_rng(0)).X
        with pytest.raises(ValueError, match="^variable_names length must match column count$"):
            fit_vine(X, variable_names=["a", "b"])

    @pytest.mark.parametrize("names, message", [
        (["a", "b", "a"], "^name 'a' is given twice$"),
        ("xyz", "^names must be a list of strings, got 'xyz'$")])
    def test_fit_refuses_names_that_break_the_names_rule(self, names, message):
        X = gaussian_copula_chain(40, 3, 0.5, np.random.default_rng(0)).X
        with pytest.raises(ValueError, match=message):
            fit_vine(X, variable_names=names)

    def test_fit_refuses_a_fractional_truncation(self):
        X = gaussian_copula_chain(40, 3, 0.5, np.random.default_rng(0)).X
        with pytest.raises(ValueError, match="^truncation must be an integer, got 1.5$"):
            fit_vine(X, truncation=1.5)

    def test_first_tree_needs_two_variables_and_two_rows(self):
        with pytest.raises(ValueError, match="^need at least 2 variables$"):
            build_first_tree(np.full((5, 1), 0.5))
        with pytest.raises(InsufficientDataError, match="^need at least 2 rows$"):
            build_first_tree(np.full((1, 3), 0.5))

    def test_next_tree_needs_two_edges(self):
        U = np.column_stack([rank_pseudo_observations(c) for c in
                             gaussian_copula_chain(30, 2, 0.5, np.random.default_rng(0)).X.T])
        tree = build_first_tree(U)
        assert len(tree.edges) == 1
        with pytest.raises(ValueError, match="^previous tree needs at least 2 edges$"):
            build_next_tree(tree, {})
