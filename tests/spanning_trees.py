"""Dense weight matrices as prim_max_spanning_tree candidate lists, for tests."""

import itertools

from vineshift.rvine import prim_max_spanning_tree


def dense_prim(W, valid=None):
    """Prim over every pair i < j that valid allows (default: all), keyed by (i, j)."""
    m = W.shape[0]
    return prim_max_spanning_tree(m, [(W[i, j], (i, j), i, j)
                                      for i, j in itertools.combinations(range(m), 2)
                                      if valid is None or valid[i, j]])
