"""Model documents in both stored forms, for tests that corrupt or downgrade them.

Format version 2 stores each float array as base64 of its little-endian
binary64 bytes; version 1 stored it as a JSON list of numbers.
"""

import base64
import json

import numpy as np


def b64(values) -> str:
    """values as a version-2 float array; nan and inf are encoded as given."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def floats(text: str) -> np.ndarray:
    """A version-2 float array decoded."""
    return np.frombuffer(base64.b64decode(text), "<f8")


def as_v1(doc: dict) -> dict:
    """A copy of a version-2 document as the version-1 writer wrote it."""
    doc = json.loads(json.dumps(doc))
    doc["format_version"] = 1
    for marg in doc["marginals"]:
        marg["centers"] = floats(marg["centers"]).tolist()
    for tree in doc["trees"]:
        for edge in tree["edges"]:
            cop = edge["copula"]
            for key in ("z_centers", "w_centers"):
                if key in cop:
                    cop[key] = floats(cop[key]).tolist()
    return doc
