"""Reductions over a short trailing axis, written as loops over its columns.

Belief, observation and vertex axes have only X or Y entries (2 or 3 on
every fixture), while the leading axis holds thousands of rows.  numpy
reduces along the short axis row by row, which costs several times more
than X full-length vector operations on the columns.  Both helpers add
the columns left to right, which is the order numpy's ``sum(axis=1)``
uses on rows shorter than 8, so results are bit-identical there; from
width 8 up numpy's sum is unrolled and the last bit can differ.
"""

from __future__ import annotations

import numpy as np


def row_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1)`` for a 2-D array, accumulated column by column."""
    total = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        total += a[:, j]
    return total


def sampling_table(probs: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, ending in exactly 1.0.

    A valid distribution may sum to 1 only within ``ROW_SUM_TOL``, so its
    cumulative row can end below 1 and a draw above that end would make
    ``inverse_cdf`` return one index past the last category.  Draws lie
    in [0, 1), so a last entry of 1.0 is never exceeded; no draw at or
    below the old last entry maps anywhere else.
    """
    cum = np.cumsum(probs, axis=-1)
    cum[..., -1] = 1.0
    return cum


def inverse_cdf(draw: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """Inverse-CDF samples: ``(draw[:, None] > cum).sum(axis=1)`` as intp.

    ``cum`` holds one cumulative distribution per draw, shaped (n, k), or
    a single one of shape (k,) shared by every draw.  Build it with
    ``sampling_table`` to keep every sample below k.
    """
    idx = np.zeros(draw.shape, dtype=np.intp)
    for j in range(cum.shape[-1]):
        idx += draw > cum[..., j]
    return idx
