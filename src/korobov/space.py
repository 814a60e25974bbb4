"""The reproducing-kernel space itself: kernel, elements, norms.

Space elements are handled as finitely supported Fourier polynomials,
maps from frequency vectors to complex coefficients, built in memory:
no subcommand reads one from a config.  The Hilbert-space
inner product divides coefficient products by the frequency weight, so
the normalized basis function at h is exp(2*pi*i*h.x) * weight(h)**0.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._series import _factor_tol, nonzero_mass, weight_terms
from .errors import InvalidParameterError
from .index_set import IndexSet, weight_exponent
from .params import KorobovParams, a_values, b_values

__all__ = [
    "FourierPolynomial",
    "kernel_eval",
    "kernel_diagonal",
    "evaluate",
    "evaluate_many",
    "norm",
    "inner",
    "random_unit_ball",
    "basis_function",
    "l2_norm",
]


@dataclass(frozen=True, eq=False)
class FourierPolynomial:
    """Finitely supported element: frequency vector -> complex coefficient.

    Treat instances as immutable; the coefficient map is normalized to
    int tuples at construction and never mutated afterwards.
    """

    params: KorobovParams
    coefficients: Mapping[tuple[int, ...], complex]

    def __post_init__(self):
        normalized: dict[tuple[int, ...], complex] = {}
        for h, c in self.coefficients.items():
            key = tuple(int(v) for v in h)
            if len(key) != self.params.s:
                raise InvalidParameterError(
                    "term_undefined",
                    f"frequency {key} has length {len(key)}, expected {self.params.s}",
                )
            normalized[key] = complex(c)
        object.__setattr__(self, "coefficients", normalized)

    @property
    def support(self) -> list[tuple[int, ...]]:
        return list(self.coefficients.keys())

    def coefficient(self, h: Sequence[int]) -> complex:
        return self.coefficients.get(tuple(int(v) for v in h), 0j)

    def restrict(self, keep) -> "FourierPolynomial":
        """Keep only frequencies for which ``keep(h)`` is true."""
        return FourierPolynomial(
            self.params, {h: c for h, c in self.coefficients.items() if keep(h)}
        )

    def mean(self) -> complex:
        """Exact integral over the unit cube: the coefficient at 0."""
        return self.coefficients.get((0,) * self.params.s, 0j)

    def __add__(self, other: "FourierPolynomial") -> "FourierPolynomial":
        if not isinstance(other, FourierPolynomial):
            return NotImplemented
        if other.params != self.params:
            raise InvalidParameterError("term_undefined", "operands from different spaces")
        merged = dict(self.coefficients)
        for h, c in other.coefficients.items():
            merged[h] = merged.get(h, 0j) + c
        return FourierPolynomial(self.params, merged)

    def __sub__(self, other: "FourierPolynomial") -> "FourierPolynomial":
        if not isinstance(other, FourierPolynomial):
            return NotImplemented
        return self + (other * -1.0)

    def __mul__(self, scalar) -> "FourierPolynomial":
        return FourierPolynomial(
            self.params, {h: c * complex(scalar) for h, c in self.coefficients.items()}
        )

    __rmul__ = __mul__


def _support_arrays(f: FourierPolynomial) -> tuple[np.ndarray, np.ndarray]:
    items = sorted(f.coefficients.items())
    if not items:
        s = f.params.s
        return np.zeros((0, s), dtype=float), np.zeros(0, dtype=complex)
    freqs = np.array([h for h, _ in items], dtype=float)
    coeffs = np.array([c for _, c in items], dtype=complex)
    return freqs, coeffs


def evaluate_many(f: FourierPolynomial, points: np.ndarray) -> np.ndarray:
    """Evaluate f at an (n, s) array of points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float)) % 1.0
    if pts.shape[1] != f.params.s:
        raise InvalidParameterError(
            "term_undefined", f"points have dimension {pts.shape[1]}, expected {f.params.s}"
        )
    freqs, coeffs = _support_arrays(f)
    if freqs.shape[0] == 0:
        return np.zeros(pts.shape[0], dtype=complex)
    return np.exp(2j * np.pi * (pts @ freqs.T)) @ coeffs


def evaluate(f: FourierPolynomial, x: Sequence[float]) -> complex:
    """f(x) as the finite sum of its Fourier terms."""
    return complex(evaluate_many(f, np.asarray(x, dtype=float).reshape(1, -1))[0])


def l2_norm(f: FourierPolynomial) -> float:
    """L2 norm over the cube: (sum |c_h|^2)**0.5 by orthonormality of the
    Fourier modes."""
    return math.sqrt(sum(abs(c) ** 2 for c in f.coefficients.values()))


def norm(f: FourierPolynomial) -> float:
    """Space norm: (sum |c_h|^2 / weight(h))**0.5."""
    log_inv = f.params.log_inv_omega
    total = 0.0
    for h, c in f.coefficients.items():
        mag = abs(c)
        if mag == 0.0:
            continue
        try:
            total += mag * mag * math.exp(weight_exponent(f.params, h) * log_inv)
        except OverflowError:
            return math.inf
    return math.sqrt(total)


def inner(f: FourierPolynomial, g: FourierPolynomial) -> complex:
    """Space inner product sum_h c_f(h) * conj(c_g(h)) / weight(h)."""
    if f.params != g.params:
        raise InvalidParameterError("term_undefined", "inner product across different spaces")
    log_inv = f.params.log_inv_omega
    small, large = (f, g) if len(f.coefficients) <= len(g.coefficients) else (g, f)
    total = 0j
    for h, c in small.coefficients.items():
        d = large.coefficients.get(h)
        if d is None:
            continue
        try:
            w_inv = math.exp(weight_exponent(f.params, h) * log_inv)
        except OverflowError:
            w_inv = math.inf
        if small is f:
            total += c * d.conjugate() * w_inv
        else:
            total += d * c.conjugate() * w_inv
    return total


def basis_function(params: KorobovParams, h: Sequence[int]) -> FourierPolynomial:
    """The unit-norm element supported on a single frequency."""
    e = weight_exponent(params, h)
    return FourierPolynomial(params, {tuple(int(v) for v in h): math.exp(-0.5 * e * params.log_inv_omega)})


def random_unit_ball(
    params: KorobovParams, support: IndexSet | Iterable[Sequence[int]], seed: int
) -> FourierPolynomial:
    """Random element of exact unit norm supported on the given set.

    Coefficients are complex Gaussians scaled by weight(h)**0.5 and then
    normalized in coefficient space, so no inverse weight is ever formed.
    Deterministic in ``seed``.
    """
    members = support.members if isinstance(support, IndexSet) else [tuple(h) for h in support]
    if not members:
        raise InvalidParameterError("term_undefined", "empty support")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(len(members)) + 1j * rng.standard_normal(len(members))
    raw /= np.linalg.norm(raw)
    log_w = -params.log_inv_omega
    coeffs = {}
    for h, g in zip(members, raw):
        half_weight = math.exp(0.5 * weight_exponent(params, h) * log_w)
        coeffs[tuple(int(v) for v in h)] = complex(g) * half_weight
    return FourierPolynomial(params, coeffs)


def kernel_diagonal(params: KorobovParams, tol: float = 1e-14) -> float:
    """K(x, x) = prod_j (1 + 2*sum_{h>=1} omega**(a_j*h**b_j)), x-free: one
    plus the upper end of :func:`nonzero_mass`, rounded up, so within about
    tol above it."""
    mass = nonzero_mass(params.omega, a_values(params), b_values(params), tol).hi
    return math.nextafter(1.0 + mass, math.inf)


def kernel_eval(
    params: KorobovParams,
    x: Sequence[float],
    y: Sequence[float],
    tol: float = 1e-12,
) -> float:
    """Reproducing kernel K(x, y), real by symmetry of the weights.

    Evaluates the product over coordinates of
    1 + 2*sum_{h>=1} omega**(a_j*h**b_j) * cos(2*pi*h*(x_j - y_j)),
    truncating each factor once its certified geometric tail contributes
    less than ``tol`` to the product.  Points are taken mod 1.
    """
    xv = np.asarray(x, dtype=float).reshape(-1) % 1.0
    yv = np.asarray(y, dtype=float).reshape(-1) % 1.0
    if xv.shape[0] != params.s or yv.shape[0] != params.s:
        raise InvalidParameterError("term_undefined", "point dimension mismatch")
    av, bv = a_values(params), b_values(params)

    # factors are below their ceilings, so the per-factor errors add up to at most tol
    per_factor = _factor_tol(params.omega, av, bv, tol)
    product = 1.0
    for a, b, delta in zip(av, bv, (xv - yv).tolist()):
        terms, _, _ = weight_terms(params.omega, a, b, per_factor)
        h = np.arange(1.0, terms.size + 1.0)
        product *= 1.0 + 2.0 * math.fsum((terms * np.cos(2.0 * np.pi * h * delta)).tolist())
    return product
