import base64
import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vineshift.adapt import MODES, AdaptationInput, adapt_vine
from vineshift.bicopula import IndependenceCopula
from vineshift.dataio import Dataset
from vineshift.errors import ParseError
from vineshift.modelfile import (FORMAT, FORMAT_VERSION, load, model_from_doc,
                                 model_to_doc, save)
from vineshift.mmd import MmdConfig
from vineshift.rvine import fit_vine
from vineshift.synth import gaussian_copula_chain

from model_docs import as_v1, b64, floats

# A normalized kernel fit (24 rows, 3 variables, truncation 2) saved by the
# version-1 writer while kernel copulas still had an off-diagonal bandwidth
# parameter and fits could z-score their columns: each copula carries
# "gamma": 0.0, and the marginals are of z-scores, with the map stored as a
# "normalization" block.
EARLIER_FILE = Path(__file__).resolve().parent / "data" / "kernel_model_v1.json"
# The first re-save of EARLIER_FILE: format version 2, normalization folded.
V2_FILE = EARLIER_FILE.with_name("kernel_model_v2.json")


def sample_model(seed=70, family="kernel", truncation=3, scale=1.0, shift=0.0):
    rng = np.random.default_rng(seed)
    ds = gaussian_copula_chain(120, 4, 0.6, rng)
    return fit_vine(ds.X * scale + shift, truncation=truncation, family=family,
                    variable_names=ds.names, target_index=3, seed=seed)


class TestRoundTrip:
    @pytest.mark.parametrize("rescaled", [False, True])
    @pytest.mark.parametrize("family", ["kernel", "gaussian"])
    def test_density_preserved_exactly(self, tmp_path, rescaled, family):
        # rescaled: columns of spread 37 about 1e4, so centres are far from 0
        scale, shift = (37.0, 1e4) if rescaled else (1.0, 0.0)
        model = sample_model(family=family, scale=scale, shift=shift)
        path = tmp_path / "m.json"
        save(model, path)
        back = load(path)
        rng = np.random.default_rng(71)
        pts = rng.standard_normal((10, 4)) * scale + shift
        assert_allclose(back.log_density(pts), model.log_density(pts),
                        rtol=0, atol=1e-12)
        x, cond = 0.2 * scale + shift, {1: 0.1 * scale + shift, 2: -0.5 * scale + shift}
        assert_allclose(back.conditional_cdf(3, x, cond), model.conditional_cdf(3, x, cond),
                        rtol=0, atol=1e-12)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        model = sample_model()
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save(model, p1)
        save(load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_independence_edge_round_trips(self, tmp_path):
        model = sample_model()
        model.trees[1].edges[0].copula = IndependenceCopula()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save(model, p1)
        assert json.loads(p1.read_text())["trees"][1]["edges"][0]["copula"] == \
            {"family": "independence"}
        back = load(p1)
        assert isinstance(back.trees[1].edges[0].copula, IndependenceCopula)
        save(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_earlier_file_loads_and_resaves_byte_identically(self, tmp_path):
        # the loaded model is the stored model of the z-scores
        # z = (x - mean) / std, mapped back to x: log p(x) = log p_z(z) - sum(log std)
        text = EARLIER_FILE.read_text()
        assert text.count('"gamma": 0.0') == 3
        doc = json.loads(text)
        mean, std = (np.array(doc["normalization"][k]) for k in ("mean", "std"))
        oracle = model_from_doc({**doc, "normalization": None})
        model = load(EARLIER_FILE)
        # z-scores as spread as the stored ones; further out, h-values round
        # to within a few ulps of 1, where log c moves by 1e-8 per ulp
        pts = mean + std * np.random.default_rng(74).standard_normal((200, 3))
        assert_allclose(model.log_density(pts),
                        oracle.log_density((pts - mean) / std) - np.log(std).sum(),
                        rtol=1e-10)
        # the first save writes the folded marginals; from then on
        # load -> save is a fixed point
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save(model, first)
        save(load(first), second)
        assert json.loads(first.read_text())["normalization"] is None
        assert second.read_bytes() == first.read_bytes()

    def test_earlier_file_resaves_as_the_v2_fixture(self, tmp_path):
        path = tmp_path / "m.json"
        save(load(EARLIER_FILE), path)
        assert path.read_bytes() == V2_FILE.read_bytes()

    def test_v2_fixture_is_a_fixed_point(self, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save(load(V2_FILE), first)
        save(load(first), second)
        assert first.read_bytes() == V2_FILE.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("family", ["kernel", "gaussian"])
    def test_v1_and_v2_documents_load_the_same_bits(self, family):
        doc = model_to_doc(sample_model(family=family))
        v1, v2 = model_from_doc(as_v1(doc)), model_from_doc(doc)
        for a, b in zip(v1.marginals, v2.marginals):
            assert np.array_equal(a.centers, b.centers)
        pts = np.random.default_rng(75).standard_normal((50, 4))
        assert np.array_equal(v1.log_density(pts), v2.log_density(pts))
        # a version-1 document re-saves as version 2
        assert model_to_doc(v1) == doc

    @pytest.mark.parametrize("truncation", [1, 2, 3])
    @pytest.mark.parametrize("family", ["kernel", "gaussian"])
    def test_every_fitted_and_adapted_model_loads(self, tmp_path, family, truncation):
        # each model fit_vine and adapt_vine return is a valid vine, so load
        # accepts the file save writes and reads back the same document
        rng = np.random.default_rng(76)
        src, tgt = gaussian_copula_chain(120, 4, 0.6, rng), gaussian_copula_chain(90, 4, 0.2, rng)
        model = fit_vine(src.X, truncation=truncation, family=family,
                         variable_names=src.names, target_index=3)
        models = [model] + [adapt_vine(model, AdaptationInput(
            source=src,
            target_labeled=None if mode == "unsupervised" else Dataset(src.names, tgt.X[:40]),
            target_unlabeled=Dataset(src.names[:3], tgt.X[40:, :3]), target_index=3,
            mode=mode, mmd_config=MmdConfig(permutations=50, seed=76)))[0] for mode in MODES]
        path = tmp_path / "m.json"
        for m in models:
            save(m, path)
            assert model_to_doc(load(path)) == model_to_doc(m)

    def test_same_fit_same_bytes(self, tmp_path):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save(sample_model(seed=72), p1)
        save(sample_model(seed=72), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_structure_preserved(self, tmp_path):
        model = sample_model()
        path = tmp_path / "m.json"
        save(model, path)
        back = load(path)
        assert back.variable_names == model.variable_names
        assert back.target_index == model.target_index
        for ta, tb in zip(model.trees, back.trees):
            assert [e.label() for e in ta.edges] == [e.label() for e in tb.edges]
            assert [e.node_pair for e in ta.edges] == \
                [e.node_pair for e in tb.edges]
            assert_allclose([e.weight for e in ta.edges],
                            [e.weight for e in tb.edges], rtol=1e-15)

    def test_metadata_preserved(self, tmp_path):
        model = sample_model(seed=73)
        path = tmp_path / "m.json"
        save(model, path)
        back = load(path)
        assert back.fit_metadata["n"] == model.fit_metadata["n"]
        assert back.fit_metadata["seed"] == 73
        assert back.fit_metadata["family"] == "kernel"


class TestDocumentShape:
    def test_header_fields(self):
        doc = model_to_doc(sample_model())
        assert doc["format"] == FORMAT
        assert doc["format_version"] == FORMAT_VERSION
        assert "created" in doc
        assert len(doc["marginals"]) == 4
        assert len(doc["trees"]) == 3

    def test_json_serializable_with_sorted_keys(self, tmp_path):
        model = sample_model()
        path = tmp_path / "m.json"
        save(model, path)
        text = path.read_text()
        doc = json.loads(text)
        assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == text


class TestValidation:
    def make_doc(self):
        return model_to_doc(sample_model())

    def test_wrong_format_tag(self):
        doc = self.make_doc()
        doc["format"] = "something-else"
        with pytest.raises(ParseError):
            model_from_doc(doc)

    def test_unsupported_version(self):
        doc = self.make_doc()
        doc["format_version"] = 999
        with pytest.raises(ParseError):
            model_from_doc(doc)

    def test_missing_key(self):
        doc = self.make_doc()
        del doc["marginals"]
        with pytest.raises(ParseError):
            model_from_doc(doc)

    def test_unknown_copula_family(self):
        doc = self.make_doc()
        doc["trees"][0]["edges"][0]["copula"]["family"] = "cauchy"
        with pytest.raises(ParseError):
            model_from_doc(doc)

    def test_marginal_count_mismatch(self):
        doc = self.make_doc()
        doc["marginals"] = doc["marginals"][:2]
        with pytest.raises(ParseError):
            model_from_doc(doc)

    def test_edge_count_mismatch(self):
        doc = self.make_doc()
        doc["trees"][0]["edges"] = doc["trees"][0]["edges"][:1]
        with pytest.raises(ParseError):
            model_from_doc(doc)

    def test_zero_trees_rejected(self):
        doc = self.make_doc()
        doc["trees"] = []
        with pytest.raises(ParseError, match="^expected between 1 and 3 trees, found 0$"):
            model_from_doc(doc)

    def test_stored_level_must_match_the_position(self):
        # it said "tree 1 is inconsistent with 4 variables"
        doc = self.make_doc()
        doc["trees"][0]["level"] = 2
        with pytest.raises(ParseError, match="^tree 1 is stored as level 2$"):
            model_from_doc(doc)

    def test_unknown_copula_type_is_not_saved(self, tmp_path):
        model = sample_model(truncation=1)
        model.trees[0].edges[0].copula = object()
        with pytest.raises(TypeError, match="^cannot serialize copula of type object$"):
            save(model, tmp_path / "m.json")
        assert not (tmp_path / "m.json").exists()

    def test_target_index_out_of_range(self):
        doc = self.make_doc()
        doc["target_index"] = 11
        with pytest.raises(ParseError):
            model_from_doc(doc)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        with pytest.raises(ParseError):
            load(path)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
    @pytest.mark.parametrize("field", ["marginal_center", "copula_center"])
    def test_non_finite_number_rejected(self, tmp_path, token, field):
        # json reads NaN, Infinity and overflowing literals as floats; a
        # version-1 file holds its float arrays as such numbers
        doc = as_v1(self.make_doc())
        if field == "marginal_center":
            doc["marginals"][0]["centers"][0] = 12345.5
        else:
            doc["trees"][0]["edges"][0]["copula"]["z_centers"][0] = 12345.5
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc).replace("12345.5", token))
        with pytest.raises(ParseError, match="non-finite"):
            load(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["marginal_center", "copula_center"])
    def test_non_finite_array_rejected(self, tmp_path, value, field):
        doc = self.make_doc()
        holder, key = ((doc["marginals"][1], "centers") if field == "marginal_center"
                       else (doc["trees"][1]["edges"][0]["copula"], "w_centers"))
        values = floats(holder[key]).copy()
        values[-1] = value
        holder[key] = b64(values)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="non-finite"):
            load(path)

    @pytest.mark.parametrize("corrupt, message", [
        ("bad_character", "not base64"),
        ("not_ascii", "not base64"),
        ("cut_padding", "not base64"),
        ("partial_float", "not a whole number of float64s"),
        ("unequal_lengths", "equal length"),
        ("list_in_v2", "base64 string, not a list"),
        ("string_in_v1", "list of numbers, not a str")])
    def test_malformed_array_rejected(self, tmp_path, corrupt, message):
        doc = self.make_doc()
        marg, cop = doc["marginals"][0], doc["trees"][0]["edges"][0]["copula"]
        z = floats(cop["z_centers"])
        if corrupt == "bad_character":
            marg["centers"] = "!" + marg["centers"][1:]
        elif corrupt == "not_ascii":
            marg["centers"] = "\u00e9" + marg["centers"][1:]
        elif corrupt == "cut_padding":
            marg["centers"] = b64(floats(marg["centers"])[:1]).rstrip("=")
        elif corrupt == "partial_float":
            cop["z_centers"] = base64.b64encode(z.tobytes()[:-3]).decode("ascii")
        elif corrupt == "unequal_lengths":
            cop["z_centers"] = b64(z[:-1])
        elif corrupt == "list_in_v2":
            marg["centers"] = floats(marg["centers"]).tolist()
        else:
            doc = as_v1(doc)
            doc["trees"][0]["edges"][0]["copula"]["z_centers"] = b64(z)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=message):
            load(path)

    @pytest.mark.parametrize("field", ["marginal_center", "copula_center", "bandwidth"])
    def test_save_refuses_non_finite_values(self, tmp_path, field):
        # load would refuse the file, so save writes none
        model = sample_model()
        if field == "marginal_center":
            model.marginals[2].centers[0] = np.nan
        elif field == "copula_center":
            model.trees[0].edges[1].copula.z_centers[3] = np.inf
        else:
            object.__setattr__(model.marginals[0], "bandwidth", np.nan)
        path = tmp_path / "model.json"
        with pytest.raises(ValueError):
            save(model, path)
        assert not path.exists()

    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("length", [1, 3])
    def test_conditioned_must_hold_two_variables(self, level, length):
        doc = self.make_doc()
        edge = doc["trees"][level]["edges"][0]
        edge["conditioned"] = (edge["conditioned"] * 2)[:length]
        with pytest.raises(ParseError, match="exactly 2 variables"):
            model_from_doc(doc)

    def test_negative_bandwidth_rejected(self):
        doc = self.make_doc()
        doc["marginals"][0]["bandwidth"] = -1.0
        with pytest.raises(ParseError):
            model_from_doc(doc)

    def test_node_pair_out_of_range_rejected(self):
        doc = self.make_doc()
        doc["trees"][1]["edges"][0]["node_pair"] = [0, 99]
        with pytest.raises(ParseError, match="out of range"):
            model_from_doc(doc)

    def test_conditioning_contradicting_parents_rejected(self):
        doc = self.make_doc()
        edge = doc["trees"][1]["edges"][0]
        outside = sorted(set(range(4)) - set(edge["conditioned"]) - set(edge["conditioning"]))
        edge["conditioning"] = outside[:1]
        with pytest.raises(ParseError, match="parent edges"):
            model_from_doc(doc)

    def test_first_tree_edge_must_join_its_variables(self):
        doc = self.make_doc()
        edge = doc["trees"][0]["edges"][0]
        edge["node_pair"] = [v for v in range(4) if v not in edge["conditioned"]]
        with pytest.raises(ParseError, match="tree 1"):
            model_from_doc(doc)

    @pytest.mark.parametrize("level, nodes", [
        (0, [[0], [1], [3], [2]]),  # tree 1's nodes are the variables in order
        (0, [[0], [1], [2], [3, 4]]),
        (1, [[7, 9], [0], [2, 3, 5]]),  # a deeper tree's are the edges' constraint sets
        (2, [[0, 1, 2]] * 2)])
    def test_nodes_contradicting_edges_rejected(self, level, nodes):
        doc = self.make_doc()
        doc["trees"][level]["nodes"] = nodes
        with pytest.raises(ParseError, match=f"tree {level + 1} nodes"):
            model_from_doc(doc)

    @pytest.mark.parametrize("level, count", [(0, 3), (1, 4), (2, 1)])
    def test_wrong_node_count_blames_the_nodes(self, level, count):
        # a 4-variable vine: tree 1 has 4 nodes, tree 2 has 3, tree 3 has 2
        doc = self.make_doc()
        doc["trees"][level]["nodes"] = (doc["trees"][level]["nodes"] * 2)[:count]
        with pytest.raises(ParseError, match=f"tree {level + 1} has {count} nodes; tree "
                                             f"{level + 1} of a 4-variable vine has {4 - level}"):
            model_from_doc(doc)

    def test_deeper_nodes_follow_edge_order(self):
        doc = self.make_doc()
        nodes = doc["trees"][1]["nodes"]
        nodes[0], nodes[1] = nodes[1], nodes[0]
        with pytest.raises(ParseError, match="tree 2 nodes"):
            model_from_doc(doc)

    @pytest.mark.parametrize("level", [0, 1])
    def test_repeated_edge_rejected(self, level):
        # n - 1 edges with one repeated leave a node out of the last tree
        doc = model_to_doc(sample_model(truncation=level + 1))
        edges = doc["trees"][level]["edges"]
        edges[1] = json.loads(json.dumps(edges[0]))
        with pytest.raises(ParseError, match="do not form a tree"):
            model_from_doc(doc)

    @pytest.mark.parametrize("std", [0.0, -1.0])
    def test_non_positive_normalization_std_rejected(self, std):
        doc = self.make_doc()
        doc["normalization"] = {"mean": [0.0] * 4, "std": [std, 1.0, 1.0, 1.0]}
        with pytest.raises(ParseError, match="std must be positive"):
            model_from_doc(doc)

    @pytest.mark.parametrize("block", [{"mean": [0.0] * 3, "std": [1.0] * 3},
                                       {"mean": [0.0] * 4, "std": [1.0] * 5},
                                       {"mean": [[0.0] * 4], "std": [[1.0] * 4]},
                                       {"mean": [0.0] * 4}, [0.0, 1.0]])
    def test_malformed_normalization_rejected(self, block):
        doc = self.make_doc()
        doc["normalization"] = block
        with pytest.raises(ParseError):
            model_from_doc(doc)


class TestKernelGamma:
    """Kernel copulas have a diagonal bandwidth matrix: the stored gamma is 0."""

    @pytest.mark.parametrize("gamma", [0.05, -0.05, 1e-300])
    def test_nonzero_gamma_rejected(self, tmp_path, gamma):
        doc = model_to_doc(sample_model())
        doc["trees"][1]["edges"][0]["copula"]["gamma"] = gamma
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="gamma must be 0"):
            load(path)

    def test_missing_gamma_rejected(self):
        doc = model_to_doc(sample_model())
        del doc["trees"][0]["edges"][0]["copula"]["gamma"]
        with pytest.raises(ParseError):
            model_from_doc(doc)
