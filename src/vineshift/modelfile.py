"""Versioned JSON persistence for fitted vine models.

The document is deterministic: keys are sorted, each float array (a
marginal's centers, a kernel copula's z_centers and w_centers) is one
base64 string (RFC 4648) of its little-endian IEEE-754 binary64 bytes,
so its bits survive by construction, scalars carry Python's shortest
round-trip repr, and the creation timestamp is preserved on every
subsequent save, so save -> load -> save is byte-identical. A stored
array decodes as np.frombuffer(base64.b64decode(s), "<f8"). A fresh
model is stamped from SOURCE_DATE_EPOCH when set and 0 otherwise;
wall-clock time would break the rule that equal seeds produce equal
files. Kernel models store their support points, so size is O(n d).
Every model is written in the units of its data, with a null
"normalization"; a file that carries a normalization block loads with
it folded into the marginals.

Format version 1 wrote each float array as a JSON list of numbers. It
is still read, and its first re-save is version 2. A non-finite value
is refused by save and by load alike. This module only decodes: the vine
rules, the names rule (strings, none repeated) and the target rule are
VineModel's, and load reports its refusal as a ParseError.
"""

from __future__ import annotations

import base64
import json
import math
import operator
import os

import numpy as np

from .bicopula import GaussianCopula, IndependenceCopula, KernelCopula
from .errors import ParseError, StructureError
from .rvine import VineEdge, VineModel, VineTree
from .statcore import GaussianKernel1D

FORMAT = "vineshift-model"
FORMAT_VERSION = 2
# Version 1 stored float arrays as JSON lists; version 2 as base64 strings.
ARRAY_FORM = {1: list, 2: str}


def _encode(a, what: str) -> str:
    """A float array as base64 of its little-endian binary64 bytes."""
    arr = np.asarray(a, dtype="<f8").ravel()
    if not np.isfinite(arr).all():
        raise ValueError(f"cannot save {what}: it holds a non-finite value")
    return base64.b64encode(arr.tobytes()).decode("ascii")


def _decode(value, version: int, what: str) -> np.ndarray:
    """A stored float array, in the form its file's format_version uses."""
    form = ARRAY_FORM[version]
    if not isinstance(value, form):
        stored = "a list of numbers" if form is list else "a base64 string"
        raise ParseError(f"{what}: a format_version {version} file stores each float "
                         f"array as {stored}, not a {type(value).__name__}")
    if form is list:
        arr = np.asarray(value, dtype=float)
    else:
        try:
            raw = base64.b64decode(value, validate=True)
        except ValueError as exc:  # binascii.Error, or text that is not ASCII
            raise ParseError(f"{what}: not base64 ({exc})") from None
        if len(raw) % 8:
            raise ParseError(f"{what}: {len(raw)} bytes is not a whole number of float64s")
        arr = np.frombuffer(raw, dtype="<f8")
    if not np.isfinite(arr).all():
        raise ParseError(f"{what}: non-finite number in model file")
    return arr


def _copula_doc(cop, label: str) -> dict:
    if isinstance(cop, KernelCopula):
        return {"family": "kernel",
                "z_centers": _encode(cop.z_centers, f"edge {label} z_centers"),
                "w_centers": _encode(cop.w_centers, f"edge {label} w_centers"),
                "sigma_z": float(cop.sigma_z),
                "sigma_w": float(cop.sigma_w),
                "gamma": 0.0}
    if isinstance(cop, GaussianCopula):
        return {"family": "gaussian", "rho": float(cop.rho)}
    if isinstance(cop, IndependenceCopula):
        return {"family": "independence"}
    raise TypeError(f"cannot serialize copula of type {type(cop).__name__}")


def _copula_from(doc: dict, version: int, where: str):
    fam = doc.get("family")
    if fam == "kernel":
        # the bandwidth matrix is diagonal; the key stays for re-saves
        if float(doc["gamma"]) != 0.0:
            raise ParseError(f"kernel copula gamma must be 0, got {doc['gamma']!r}")
        return KernelCopula(_decode(doc["z_centers"], version, f"{where} z_centers"),
                            _decode(doc["w_centers"], version, f"{where} w_centers"),
                            float(doc["sigma_z"]), float(doc["sigma_w"]))
    if fam == "gaussian":
        return GaussianCopula(float(doc["rho"]))
    if fam == "independence":
        return IndependenceCopula()
    raise ParseError(f"unknown copula family {fam!r}")


def model_to_doc(model: VineModel) -> dict:
    meta = dict(model.fit_metadata)
    created = meta.pop("created", None)
    if created is None:
        created = int(os.environ.get("SOURCE_DATE_EPOCH", "0"))
    return {
        "format": FORMAT,
        "format_version": FORMAT_VERSION,
        "created": int(created),
        "variable_names": model.variable_names,
        "target_index": model.target_index,
        # always null; the key keeps re-saves of earlier raw fits byte-identical
        "normalization": None,
        "fit_metadata": meta,
        "marginals": [{"centers": _encode(m.centers, f"marginal {name!r} centers"),
                       "bandwidth": float(m.bandwidth)}
                      for name, m in zip(model.variable_names, model.marginals)],
        "trees": [
            {"level": int(t.level),
             "nodes": [sorted(int(v) for v in node) for node in t.nodes],
             "edges": [{"conditioned": list(e.conditioned),
                        "conditioning": sorted(e.conditioning),
                        "node_pair": list(e.node_pair),
                        "weight": float(e.weight),
                        "copula": _copula_doc(e.copula, e.label())}
                       for e in t.edges]}
            for t in model.trees],
    }


def _fold_normalization(marginals: list, mean: np.ndarray, std: np.ndarray) -> list:
    """Marginals in data units from marginals of z-scores and their map.

    Earlier fits could z-score their columns and store the map as a
    normalization block {mean, std}. x = mean + std * z turns a kernel
    with centres c and bandwidth h into one with centres mean + std * c
    and bandwidth std * h; copulas see only cdf values and stay as they are.
    """
    d = len(marginals)
    if mean.shape != (d,) or std.shape != (d,):
        raise ParseError("normalization vectors do not match variable count")
    if not np.all(std > 0.0):
        raise ParseError("normalization std must be positive")
    with np.errstate(over="ignore"):
        folded = [(m + s * k.centers, s * k.bandwidth) for m, s, k in zip(mean, std, marginals)]
    if not all(np.isfinite(c).all() and np.isfinite(h) for c, h in folded):
        raise ParseError("normalization overflows the marginal centres or bandwidths")
    return [GaussianKernel1D(c, h) for c, h in folded]


def model_from_doc(doc) -> VineModel:
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise ParseError("not a vineshift model file")
    version = doc.get("format_version")
    if version not in ARRAY_FORM:
        raise ParseError(f"unsupported format_version {version!r}")
    try:
        names = doc["variable_names"]
        marginals = [GaussianKernel1D(_decode(m["centers"], version, f"marginal {i} centers"),
                                      float(m["bandwidth"]))
                     for i, m in enumerate(doc["marginals"])]
        trees = []
        for lvl, t in enumerate(doc["trees"], start=1):
            edges = [VineEdge(e["conditioned"], e["conditioning"], e["node_pair"],
                              _copula_from(e["copula"], version, f"tree {lvl} edge {j}"),
                              float(e["weight"]))
                     for j, e in enumerate(t["edges"])]
            trees.append(VineTree(level=operator.index(t["level"]),
                                  nodes=[frozenset(map(operator.index, v)) for v in t["nodes"]],
                                  edges=edges))
        norm = doc.get("normalization")
        if norm is not None:
            norm = [np.asarray(norm[k], dtype=float) for k in ("mean", "std")]
        meta = dict(doc.get("fit_metadata") or {})
        meta["created"] = operator.index(doc["created"])
    except (KeyError, TypeError, ValueError, OverflowError, StructureError) as exc:
        raise ParseError(f"malformed model file: {exc}") from None
    try:
        model = VineModel(marginals=marginals, trees=trees, variable_names=names,
                          target_index=doc.get("target_index"), fit_metadata=meta)
    except (ValueError, StructureError) as exc:
        raise ParseError(str(exc)) from None
    if norm is not None:
        model.marginals = _fold_normalization(model.marginals, *norm)
    return model


def save(model: VineModel, path) -> None:
    """Write model to path; a model holding a nan or inf is refused with a ValueError."""
    text = json.dumps(model_to_doc(model), sort_keys=True, indent=2, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _finite_float(text: str) -> float:
    """A JSON number as a float; NaN, Infinity and overflowing literals are refused."""
    value = float(text)
    if not math.isfinite(value):
        raise ParseError(f"non-finite number {text} in model file")
    return value


def load(path) -> VineModel:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)
    except ParseError:
        raise
    except (ValueError, RecursionError) as exc:  # also not UTF-8, or nested too deep
        raise ParseError(f"{path}: not valid JSON ({exc})") from None
    return model_from_doc(doc)


__all__ = ["FORMAT", "FORMAT_VERSION", "load", "model_from_doc", "model_to_doc", "save"]
