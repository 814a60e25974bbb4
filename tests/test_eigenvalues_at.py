"""``Spectrum.eigenvalues_at`` reads several weights by one partition and
must give the floats that ``eigenvalue(n)`` gives one at a time, inside
tie blocks, for repeated and negative indices, and raise like it."""

import numpy as np
import pytest

from conftest import make_params
from korobov.spectra import top_eigenvalues


@pytest.mark.parametrize(
    "params",
    [make_params(0.5, (1, 1), (1, 1)), make_params(0.6, (1, 1.3, 1.7), (1, 1.2, 1.5))],
)
def test_many_reads_equal_single_reads(params):
    spectrum = top_eigenvalues(params, 400)
    rng = np.random.default_rng(3)
    for _ in range(20):
        ns = [int(n) for n in rng.integers(-400, 400, size=int(rng.integers(1, 12)))]
        assert spectrum.eigenvalues_at(ns) == [spectrum.eigenvalue(n) for n in ns]
    every = list(range(400))
    assert spectrum.eigenvalues_at(every) == list(spectrum.eigenvalues)
    assert spectrum.eigenvalues_at([]) == []


def test_out_of_range_reads_raise():
    spectrum = top_eigenvalues(make_params(0.5, (1, 1), (1, 1)), 10)
    with pytest.raises(IndexError):
        spectrum.eigenvalues_at([3, 10])
    with pytest.raises(IndexError):
        spectrum.eigenvalues_at([-11])
