"""Column-wise short-axis reductions against numpy's row-wise forms."""

import numpy as np
import pytest

from beliefpomdp.columns import inverse_cdf, row_sum, sampling_table

WIDTHS = [1, 2, 3, 5, 7, 8, 9, 12]


@pytest.mark.parametrize("width", WIDTHS)
def test_row_sum_matches_numpy(width, rng):
    a = rng.random((20_000, width))
    a[rng.random(a.shape) < 0.2] = 0.0
    if width < 8:  # numpy adds rows shorter than 8 left to right
        np.testing.assert_array_equal(row_sum(a), a.sum(axis=1))
    else:  # from width 8 numpy unrolls the row sum
        np.testing.assert_allclose(row_sum(a), a.sum(axis=1), rtol=1e-15, atol=0)


def test_row_sum_leaves_its_input_alone(rng):
    a = rng.random((10, 3))
    before = a.copy()
    row_sum(a)
    np.testing.assert_array_equal(a, before)


@pytest.mark.parametrize("width", WIDTHS)
def test_inverse_cdf_counts_every_column(width, rng):
    # unnormalized rows make the last column decide some draws
    cum = np.cumsum(rng.random((20_000, width)) / width, axis=1)
    draw = rng.random(20_000)
    expected = (draw[:, None] > cum).sum(axis=1)
    got = inverse_cdf(draw, cum)
    assert got.dtype == np.intp
    np.testing.assert_array_equal(got, expected)
    assert np.any(got == width)


def test_inverse_cdf_shares_one_distribution(rng):
    cum = np.cumsum([0.2, 0.5, 0.3])
    draw = rng.random(5_000)
    np.testing.assert_array_equal(
        inverse_cdf(draw, cum), (draw[:, None] > cum[None, :]).sum(axis=1)
    )


def test_sampling_table_keeps_the_largest_draw_in_range():
    # a row summing to 1 within ROW_SUM_TOL ends below the largest draw
    draw = np.array([1.0 - 2.0**-53])
    probs = np.array([0.5, 0.5 - 5e-13])
    assert inverse_cdf(draw, np.cumsum(probs)).tolist() == [2]  # past the last category
    table = sampling_table(probs)
    assert table.tolist() == [0.5, 1.0]
    assert inverse_cdf(draw, table).tolist() == [1]
    rows = sampling_table(np.array([probs, probs[::-1]]))
    assert inverse_cdf(np.repeat(draw, 2), rows).tolist() == [1, 1]


def test_sampling_table_moves_no_draw_below_the_old_last_entry(rng):
    probs = rng.dirichlet(np.ones(4), size=5_000) * (1.0 - 4e-13)
    cum = np.cumsum(probs, axis=1)
    draw = rng.random(5_000) * cum[:, -1]
    np.testing.assert_array_equal(inverse_cdf(draw, sampling_table(probs)), inverse_cdf(draw, cum))
    np.testing.assert_array_equal(sampling_table(probs)[:, :-1], cum[:, :-1])
