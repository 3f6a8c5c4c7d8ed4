"""The domination kernel against two references that share no code with it.

:func:`repro.rtm.operating_points.pareto_mask` ANDs one (n x n) comparison
per column into its no-worse matrix.  It must equal, on any matrix:

* ``naive_domination`` from ``tests/reference_kernels.py``, the definition
  written out in pure Python: O(n^2 * k);
* :func:`broadcast_domination`, the (n x n x k) broadcast the kernel
  replaced, kept verbatim.

The matrices are drawn from a small pool of values, so ties and duplicate
rows are common, and the pool holds both zeros, both infinities and nan.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rtm.operating_points import pareto_mask
from tests.reference_kernels import naive_domination

#: Values a cell can hold: a few finite levels, both zeros, inf and nan.
POOL = (-1.5, -0.0, 0.0, 0.5, 1.0, 2.0, math.inf, -math.inf, math.nan)


def broadcast_domination(matrix: np.ndarray) -> np.ndarray:
    """The kernel's previous body, reducing one (n x n x k) array."""
    count = len(matrix)
    if count < 2:
        return np.zeros(count, dtype=bool)
    no_worse = (matrix[None, :, :] <= matrix[:, None, :]).all(axis=2)
    return (no_worse & ~no_worse.T).any(axis=1)


@st.composite
def matrices(draw) -> np.ndarray:
    rows = draw(st.integers(0, 40))
    columns = draw(st.integers(0, 5))
    cells = draw(st.lists(st.sampled_from(POOL), min_size=rows * columns, max_size=rows * columns))
    return np.array(cells, dtype=float).reshape(rows, columns)


class TestParetoMaskOracle:
    @settings(max_examples=400, deadline=None)
    @given(matrix=matrices())
    def test_matches_the_naive_definition(self, matrix):
        assert pareto_mask(matrix).tolist() == naive_domination(matrix.tolist())

    @settings(max_examples=400, deadline=None)
    @given(matrix=matrices())
    def test_matches_the_broadcast_reference(self, matrix):
        assert pareto_mask(matrix).tolist() == broadcast_domination(matrix).tolist()

    @pytest.mark.parametrize("rows", [2, 7, 2049])
    def test_zero_columns_dominate_nothing(self, rows):
        # On no columns every row is no worse than every other, and strictly
        # better than none.
        assert pareto_mask(np.empty((rows, 0))).tolist() == [False] * rows

    def test_row_fallback_matches_the_broadcast_reference(self):
        # Above 2048 rows the kernel takes its row-at-a-time path.
        rng = np.random.default_rng(2049)
        matrix = rng.choice(np.array(POOL), size=(2049, 4))
        mask = pareto_mask(matrix)
        assert mask.tolist() == broadcast_domination(matrix).tolist()
        assert 0 < mask.sum() < len(matrix)
