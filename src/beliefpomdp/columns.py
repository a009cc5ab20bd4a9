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


def inverse_cdf(draw: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """Inverse-CDF samples: ``(draw[:, None] > cum).sum(axis=1)`` as intp.

    ``cum`` holds one cumulative distribution per draw, shaped (n, k), or
    a single one of shape (k,) shared by every draw.
    """
    idx = np.zeros(draw.shape, dtype=np.intp)
    for j in range(cum.shape[-1]):
        idx += draw > cum[..., j]
    return idx
