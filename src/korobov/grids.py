"""Regular product grids, their dual lattices, and aliasing.

A grid with per-coordinate mesh sizes m_1..m_s consists of the n = prod
m_j points (k_1/m_1, ..., k_s/m_s).  Its dual lattice is the set of
frequencies divisible coordinatewise by the mesh sizes; sampling a
Fourier coefficient on the grid returns the sum of true coefficients
over a dual-lattice coset, which is the single identity everything in
the standard-information analysis rests on: :func:`aliased_coefficients`
samples the coefficient, :func:`dual_coset_sum` sums the coset directly,
and :meth:`RegularGrid.coset_keys` labels the cosets for the oracle.

Function values on a grid are computed by sum factorisation, one
coordinate at a time, and held as one array of n complex values: at most
16 MB at the cap of 10**6 points.  Points themselves are never
materialized; the sampled character sums stream them in blocks of at
most 2**16 phase entries (points times frequencies), whatever |A| is, so
their transient memory does not grow with the number of coefficients.
A grid over the cap raises :class:`CapExceeded` with its true n, before
any allocation, where grid values are formed: every sampling call
(:func:`sample_mean`, :func:`aliased_coefficients`, ``integrate``,
``apply_algorithm`` ...) goes through that one check, as through the
check that the grid has the space's dimension.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ._series import nonzero_mass
from .errors import CapExceeded, InvalidParameterError
from .params import KorobovParams, a_values, b_values
from .space import FourierPolynomial
from .space import evaluate_many  # noqa: F401  (wrapped by name in bench/tracer.py)

__all__ = [
    "DEFAULT_GRID_CAP",
    "RegularGrid",
    "sample_mean",
    "aliased_coefficients",
    "dual_coset_sum",
    "dual_weight_sum",
]

DEFAULT_GRID_CAP = 10**6
_BLOCK_ENTRIES = 2**16


@dataclass(frozen=True)
class RegularGrid:
    """Product grid with mesh sizes m_1..m_s; n = prod m_j points.

    Each size is an integer (numpy integers included, bools not) of at
    least 1; anything else raises rather than being rounded."""

    mesh: tuple[int, ...]

    def __post_init__(self):
        mesh = tuple(self.mesh)
        if not mesh or not all(
            isinstance(m, numbers.Integral) and not isinstance(m, bool) and m >= 1 for m in mesh
        ):
            raise InvalidParameterError(
                "term_undefined", f"mesh sizes must be positive integers, got {self.mesh!r}"
            )
        object.__setattr__(self, "mesh", tuple(int(m) for m in mesh))

    @property
    def s(self) -> int:
        return len(self.mesh)

    @property
    def n(self) -> int:
        return math.prod(self.mesh)

    def coset_keys(self, members: np.ndarray) -> np.ndarray:
        """Dual-lattice coset keys of the rows of ``members`` (int64[n, s]):
        the residues modulo min(m_j, 2 R_j + 1), R_j = max |h_j| over them.

        A side m >= 2R + 1 maps [-R, R] one to one, non-negatives first, as
        2R + 1 does: rows share a key exactly when they share a coset, keys
        sort as the plain residues mod m do, and every side fits int64."""
        reach = np.abs(members).max(axis=0, initial=0).tolist()
        sides = [min(m, 2 * r + 1) for m, r in zip(self.mesh, reach)]
        return members % np.array(sides, dtype=np.int64)


def _require_dimension(grid: RegularGrid, s: int) -> None:
    if grid.s != s:
        raise InvalidParameterError(
            "term_undefined", f"grid dimension {grid.s} does not match space dimension {s}"
        )


def _point_blocks(grid: RegularGrid, rows: int) -> Iterator[np.ndarray]:
    """Row-major points as (<=rows, s) float arrays, decoded from linear
    indices so the full grid never lives in memory."""
    mesh = np.array(grid.mesh, dtype=np.int64)
    strides = np.ones(grid.s, dtype=np.int64)
    for j in range(grid.s - 2, -1, -1):
        strides[j] = strides[j + 1] * mesh[j + 1]
    n = grid.n
    for start in range(0, n, rows):
        idx = np.arange(start, min(start + rows, n), dtype=np.int64)
        ks = (idx[:, None] // strides[None, :]) % mesh[None, :]
        yield ks.astype(float) / mesh.astype(float)[None, :]


def _phase_table(residues: np.ndarray, m: int) -> np.ndarray:
    """e^{2 pi i (r k mod m)/m} for each residue r (rows) and k < m
    (columns), indexed in exact integer arithmetic."""
    k = np.arange(m, dtype=np.int64)
    roots = np.exp(2j * np.pi * k / m)
    return roots[(residues[:, None] * k[None, :]) % m]


def _row_chunks(depth: np.ndarray, mesh: tuple[int, ...], budget: int) -> Iterator[tuple[int, int]]:
    """Consecutive ranges [lo, hi) of the sorted support whose contraction
    keeps every phase table and partial sum within ``budget`` entries.

    Contracting coordinate j of a range with P_L distinct frequency
    prefixes of length L holds a phase table of P_j x m_j entries and
    partial sums of P_{j-1} x (m_j * ... * m_s) entries, the last of them
    the n values.  Row i starts a new length-L prefix when
    ``depth[i] < L``; a single row always fits a budget of n.
    """
    lengths = range(1, len(mesh) + 1)
    counts = [np.cumsum(depth < L) for L in lengths]
    caps = [budget // max(mesh[L - 1], math.prod(mesh[L:])) for L in lengths]
    lo = 0
    while lo < depth.size:
        # rows lo..hi-1 hold 1 + c[hi - 1] - c[lo] prefixes of each length
        hi = min(int(np.searchsorted(c, c[lo] + cap - 1, "right")) for c, cap in zip(counts, caps))
        yield lo, hi
        lo = hi


def _contract(
    residues: np.ndarray, coeffs: np.ndarray, depth: np.ndarray, mesh: tuple[int, ...]
) -> np.ndarray:
    """Values at all grid points, row-major, of the sum over sorted rows
    of coeffs * e^{2 pi i h.k/m}, with h given by its residues mod mesh
    and ``depth`` as in :func:`_grid_values` (-1 for the first row).

    The last coordinate is contracted first: at coordinate j the partial
    sums of all rows sharing a prefix h_1..h_{j-1} are combined by one
    matmul with their phase table, so each row still enters on its own.
    The last contraction, over the empty prefix, yields the values.
    """
    rows = np.arange(depth.size)
    partial = coeffs[:, None]
    for j in reversed(range(len(mesh))):
        phases = _phase_table(residues[rows, j], mesh[j])
        starts = np.flatnonzero(depth[rows] < j)
        out = np.empty((starts.size, mesh[j], partial.shape[1]), dtype=complex)
        for g, (lo, hi) in enumerate(zip(starts, [*starts[1:], rows.size])):
            np.matmul(phases[lo:hi].T, partial[lo:hi], out=out[g])
        partial = out.reshape(starts.size, -1)
        rows = rows[starts]
    return partial[0]


def _grid_values(grid: RegularGrid, f: FourierPolynomial) -> np.ndarray:
    """f at all n grid points in row-major order, by sum factorisation.

    Every frequency of f enters with its own coefficient; coefficients
    are never folded into coset sums first.  The support is contracted in
    consecutive chunks, so besides the n values at most a few n-sized
    arrays are alive, whatever |supp f|.  A grid of another dimension than
    f's space raises rather than dropping coordinates.
    """
    _require_dimension(grid, f.params.s)
    if grid.n > DEFAULT_GRID_CAP:
        raise CapExceeded("grid size", DEFAULT_GRID_CAP, needed=grid.n)
    keys = sorted(f.coefficients)
    if not keys:
        return np.zeros(grid.n, dtype=complex)
    mesh = grid.mesh
    residues = np.array([[hj % m for hj, m in zip(h, mesh)] for h in keys], dtype=np.int64)
    coeffs = np.array([f.coefficients[h] for h in keys], dtype=complex)
    # depth[i]: first coordinate where row i differs from row i - 1 (-1 for row 0)
    depth = np.array(
        [-1] + [next(j for j, (u, v) in enumerate(zip(g, h)) if u != v) for g, h in zip(keys, keys[1:])]
    )
    parts = (
        _contract(residues[lo:hi], coeffs[lo:hi], np.r_[-1, depth[lo + 1 : hi]], mesh)
        for lo, hi in _row_chunks(depth, mesh, grid.n)
    )
    values = next(parts)
    for part in parts:
        values += part
    return values


def sample_mean(grid: RegularGrid, f: FourierPolynomial) -> complex:
    """(1/n) sum_k f(x_k): the mean of f's n values on the grid."""
    return complex(_grid_values(grid, f).mean())


def aliased_coefficients(
    grid: RegularGrid, f: FourierPolynomial, hs: Sequence[Sequence[int]]
) -> np.ndarray:
    """Sampled Fourier coefficients (1/n) sum_k f(x_k) e^{-2 pi i h.x_k}
    for every h in ``hs``, computed by actually summing over the grid.

    The points are taken in blocks of at most 2**16 phase entries (one
    point per block when |hs| exceeds that), so besides the n values
    and the output the transient memory stays a few budget-sized arrays,
    whatever |hs|.  Every h must have the grid's dimension.
    """
    if any(len(h) != grid.s for h in hs):
        raise InvalidParameterError(
            "term_undefined", f"every frequency must have length {grid.s}, the grid's dimension"
        )
    values = _grid_values(grid, f)
    H = np.asarray(hs, dtype=float).reshape(len(hs), grid.s)
    out = np.zeros(len(hs), dtype=complex)
    start = 0
    for pts in _point_blocks(grid, max(1, _BLOCK_ENTRIES // max(1, len(hs)))):
        phases = np.exp(-2j * np.pi * (pts @ H.T))
        out += values[start : start + len(pts)] @ phases
        start += len(pts)
    return out / grid.n


def dual_coset_sum(grid: RegularGrid, f: FourierPolynomial, h: Sequence[int]) -> complex:
    """sum of f's coefficients over {g : g congruent to h mod mesh}.

    Pure support arithmetic; no sampling.  For finitely supported f it
    equals the sampled coefficient at h from :func:`aliased_coefficients`:
    it is the aliasing identity's independent side.  Residues use
    mathematical mod so negative components land in canonical cosets.
    """
    if len(h) != grid.s:
        raise InvalidParameterError(
            "term_undefined", f"frequency has length {len(h)}, expected {grid.s}"
        )
    target = tuple(int(hj) % m for hj, m in zip(h, grid.mesh))
    total = 0j
    for g, c in f.coefficients.items():
        if tuple(gj % m for gj, m in zip(g, grid.mesh)) == target:
            total += c
    return total


def dual_weight_sum(params: KorobovParams, grid: RegularGrid, tol: float = 1e-14) -> float:
    """Sum over the nonzero dual lattice of the halved-exponent weights
    omega**(sum_j a_j * (|l_j|/2)**b_j).

    The dual point l = m*k has the halved exponent of k under the weights
    a_j*(m_j/2)**b_j, so this is the upper end of their
    :func:`nonzero_mass`: certified, within about ``tol`` above the sum,
    and accurate also far below one.
    """
    _require_dimension(grid, params.s)
    bv = b_values(params)
    halved = [a * (m / 2.0) ** b for a, b, m in zip(a_values(params), bv, grid.mesh)]
    return nonzero_mass(params.omega, halved, bv, tol).hi
