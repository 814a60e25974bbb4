"""Parameters of the weighted space of one-periodic functions on [0,1]^s.

The space is built from a base omega in (0,1) and two weight sequences
a_1 <= a_2 <= ... and b_1, b_2, ... with every term >= 1.  The weight of
a frequency vector h is omega**sum_j(a_j * |h_j|**b_j), so everything in
this package is governed by how fast those exponents grow.

Sequences are closed-form families rather than raw arrays: limits, growth
rates and sums of reciprocals (which decide the tractability verdicts)
are tail properties that no finite array can determine.  Explicit lists
are supported but must declare a tail rule before any tail-dependent
question is answered.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .errors import ConfigError, InvalidParameterError, UndecidableTail

__all__ = [
    "SequenceFamily",
    "ConstantFamily",
    "PowerFamily",
    "GeometricFamily",
    "ExponentialFamily",
    "ExplicitFamily",
    "KorobovParams",
    "Interval",
    "validate",
    "family_from_config",
    "family_to_config",
    "params_from_config",
    "params_to_config",
    "load_params",
]

INFINITE = math.inf
_U = 2.0**-53  # unit roundoff of float64


@dataclass(frozen=True)
class Interval:
    """Closed interval certifying a real quantity: lo <= value <= hi."""

    lo: float
    hi: float

    @staticmethod
    def exact(value: float) -> "Interval":
        return Interval(value, value)

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.lo)

    def reciprocal(self) -> "Interval":
        if self.is_infinite:
            return Interval(0.0, 0.0)
        return Interval(1.0 / self.hi, 1.0 / self.lo)


def _outward(lo: float, hi: float) -> Interval:
    """Interval(lo, hi) with both ends moved one ulp outward, which covers
    the rounding of the last operation that formed each."""
    return Interval(math.nextafter(lo, -INFINITE), math.nextafter(hi, INFINITE))


class SequenceFamily:
    """A closed-form sequence j -> term(j), j = 1, 2, ...

    Subclasses provide the term rule plus the three tail facts used by
    the tractability analysis: the limit, the exponential growth rate
    liminf_j log(term_j)/j, and the sum of reciprocals as a certified
    interval.
    """

    kind: str = "abstract"

    def term(self, j: int) -> float:
        raise NotImplementedError

    def limit(self) -> float:
        """lim_j term_j (inf allowed)."""
        raise NotImplementedError

    def log_growth(self) -> float:
        """liminf_j log(term_j)/j (0 for sub-exponential families)."""
        raise NotImplementedError

    def reciprocal_sum(self, start: int = 1) -> Interval:
        """sum_{j>=start} 1/term_j, bracketed; Interval(inf, inf) when
        divergent."""
        raise NotImplementedError

    def min_term_overall(self) -> float:
        """inf_j term_j over the whole infinite sequence."""
        raise NotImplementedError

    def is_nondecreasing(self) -> bool:
        """True when term_j <= term_{j+1} for all j (the whole tail)."""
        raise NotImplementedError

    def sup_index_below(self, x: float) -> float:
        """sup{j >= 1 : term_j < x} for a nondecreasing family.

        Returns 0 when even term_1 >= x, ``math.inf`` when every term
        stays below x, and raises :class:`UndecidableTail` when the
        answer depends on an undeclared explicit tail.
        """
        raise NotImplementedError

    def _require_index(self, j: int) -> None:
        if not isinstance(j, int) or j < 1:
            raise InvalidParameterError(
                "term_undefined", f"sequence index must be a positive integer, got {j!r}"
            )


@dataclass(frozen=True)
class ConstantFamily(SequenceFamily):
    """term_j = c."""

    c: float
    kind = "constant"

    def term(self, j: int) -> float:
        self._require_index(j)
        return self.c

    def limit(self) -> float:
        return self.c

    def log_growth(self) -> float:
        return 0.0

    def reciprocal_sum(self, start: int = 1) -> Interval:
        return Interval(INFINITE, INFINITE)

    def min_term_overall(self) -> float:
        return self.c

    def is_nondecreasing(self) -> bool:
        return True

    def sup_index_below(self, x: float) -> float:
        return INFINITE if self.c < x else 0


@dataclass(frozen=True)
class PowerFamily(SequenceFamily):
    """term_j = c * j**k, k >= 0."""

    c: float
    k: float
    kind = "power"

    def term(self, j: int) -> float:
        self._require_index(j)
        try:
            return self.c * float(j) ** self.k
        except OverflowError:
            return INFINITE

    def limit(self) -> float:
        if self.k > 0:
            return INFINITE
        if self.k == 0:
            return self.c
        return 0.0

    def log_growth(self) -> float:
        # log(c j^k)/j -> 0 for any fixed k.
        return 0.0

    def reciprocal_sum(self, start: int = 1) -> Interval:
        if self.k <= 1:
            return Interval(INFINITE, INFINITE)
        # Partial sum plus integral bracket for the tail:
        # int_{N+1}^inf t^-k dt <= sum_{j>N} j^-k <= int_N^inf t^-k dt.
        n_partial = max(start, 100_000)
        with np.errstate(over="ignore"):
            terms = 1.0 / (self.c * np.arange(start, n_partial + 1, dtype=float) ** self.k)
        partial = math.fsum(terms.tolist())
        tail_hi = n_partial ** (1.0 - self.k) / (self.c * (self.k - 1.0))
        tail_lo = (n_partial + 1.0) ** (1.0 - self.k) / (self.c * (self.k - 1.0))
        # Each term carries at most four roundings (power, product,
        # quotient) and fsum one more; a tail end's power j**(1-k) is off by
        # |(1-k) log j| units from the rounded exponent, plus four roundings.
        tail_err = (abs((1.0 - self.k) * math.log(n_partial + 1.0)) + 8.0) * _U * tail_hi
        err = 8.0 * _U * partial + tail_err
        return _outward(partial + tail_lo - err, partial + tail_hi + err)

    def min_term_overall(self) -> float:
        return self.c if self.k >= 0 else 0.0

    def is_nondecreasing(self) -> bool:
        return self.k >= 0

    def sup_index_below(self, x: float) -> float:
        if self.k < 0:
            raise InvalidParameterError(
                "a_nonmonotone", "decreasing power family has no sup index"
            )
        if self.k == 0:
            return INFINITE if self.c < x else 0
        if not (self.c < x):
            return 0
        return _adjusted_max_index(self.term, (x / self.c) ** (1.0 / self.k), x)


@dataclass(frozen=True)
class GeometricFamily(SequenceFamily):
    """term_j = c * r**j, r >= 1 for nondecreasing use."""

    c: float
    r: float
    kind = "geometric"

    def term(self, j: int) -> float:
        self._require_index(j)
        try:
            return self.c * self.r**j
        except OverflowError:
            return INFINITE

    def limit(self) -> float:
        if self.r > 1:
            return INFINITE
        if self.r == 1:
            return self.c
        return 0.0

    def log_growth(self) -> float:
        return math.log(self.r) if self.r >= 1 else -INFINITE

    def reciprocal_sum(self, start: int = 1) -> Interval:
        if self.r <= 1:
            return Interval(INFINITE, INFINITE)
        # sum_{j>=start} r^-j = r^(1-start)/(r-1)
        value = self.r ** (1 - start) / (self.c * (self.r - 1.0))
        return Interval.exact(value)

    def min_term_overall(self) -> float:
        return self.c * self.r if self.r >= 1 else 0.0

    def is_nondecreasing(self) -> bool:
        return self.r >= 1

    def sup_index_below(self, x: float) -> float:
        if self.r < 1:
            raise InvalidParameterError(
                "a_nonmonotone", "decreasing geometric family has no sup index"
            )
        if self.r == 1:
            return INFINITE if self.c < x else 0
        if not (self.term(1) < x):
            return 0
        guess = (math.log(x) - math.log(self.c)) / math.log(self.r)
        return _adjusted_max_index(self.term, guess, x)


@dataclass(frozen=True)
class ExponentialFamily(SequenceFamily):
    """term_j = c * exp(alpha * j), alpha >= 0 for nondecreasing use."""

    c: float
    alpha: float
    kind = "exponential"

    def term(self, j: int) -> float:
        self._require_index(j)
        try:
            return self.c * math.exp(self.alpha * j)
        except OverflowError:
            return INFINITE

    def limit(self) -> float:
        if self.alpha > 0:
            return INFINITE
        if self.alpha == 0:
            return self.c
        return 0.0

    def log_growth(self) -> float:
        return self.alpha

    def reciprocal_sum(self, start: int = 1) -> Interval:
        if self.alpha <= 0:
            return Interval(INFINITE, INFINITE)
        q = math.exp(-self.alpha)
        value = q**start / (self.c * (1.0 - q))
        return Interval.exact(value)

    def min_term_overall(self) -> float:
        return self.term(1) if self.alpha >= 0 else 0.0

    def is_nondecreasing(self) -> bool:
        return self.alpha >= 0

    def sup_index_below(self, x: float) -> float:
        if self.alpha < 0:
            raise InvalidParameterError(
                "a_nonmonotone", "decreasing exponential family has no sup index"
            )
        if self.alpha == 0:
            return INFINITE if self.c < x else 0
        if not (self.term(1) < x):
            return 0
        guess = (math.log(x) - math.log(self.c)) / self.alpha
        return _adjusted_max_index(self.term, guess, x)


TailRule = Union[SequenceFamily, str, None]


@dataclass(frozen=True)
class ExplicitFamily(SequenceFamily):
    """Finite list of leading terms plus a tail rule.

    ``tail`` is either ``"repeat"`` (last value repeated forever),
    another family evaluated at the absolute index j for j > len(values),
    or None.  With tail None every tail-dependent question raises
    :class:`UndecidableTail`.
    """

    values: tuple[float, ...]
    tail: TailRule = None
    kind = "explicit"

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not self.values:
            raise InvalidParameterError("term_undefined", "explicit family needs at least one value")
        if isinstance(self.tail, str) and self.tail != "repeat":
            raise InvalidParameterError(
                "term_undefined", f"unknown tail rule {self.tail!r}; use 'repeat', a family, or None"
            )

    def term(self, j: int) -> float:
        self._require_index(j)
        if j <= len(self.values):
            return self.values[j - 1]
        if self.tail == "repeat":
            return self.values[-1]
        if isinstance(self.tail, SequenceFamily):
            return self.tail.term(j)
        raise UndecidableTail(
            f"term {j} of an explicit family with {len(self.values)} values and no tail rule"
        )

    def limit(self) -> float:
        if self.tail == "repeat":
            return self.values[-1]
        if isinstance(self.tail, SequenceFamily):
            return self.tail.limit()
        raise UndecidableTail("limit of an explicit family without a tail rule")

    def log_growth(self) -> float:
        # A finite prefix never moves a liminf.
        if self.tail == "repeat":
            return 0.0
        if isinstance(self.tail, SequenceFamily):
            return self.tail.log_growth()
        raise UndecidableTail("growth rate of an explicit family without a tail rule")

    def reciprocal_sum(self, start: int = 1) -> Interval:
        # each reciprocal is rounded once and fsum rounds once more
        head = math.fsum(1.0 / v for v in self.values[start - 1 :])
        err = 2.0 * _U * head
        tail_start = max(start, len(self.values) + 1)
        if self.tail == "repeat":
            return Interval(INFINITE, INFINITE)
        if isinstance(self.tail, SequenceFamily):
            tail = self.tail.reciprocal_sum(tail_start)
            if tail.is_infinite:
                return tail
            return _outward(head - err + tail.lo, head + err + tail.hi)
        raise UndecidableTail("reciprocal sum of an explicit family without a tail rule")

    def min_term_overall(self) -> float:
        head = min(self.values)
        if self.tail == "repeat":
            return head
        if isinstance(self.tail, SequenceFamily):
            return min(head, self.tail.min_term_overall())
        raise UndecidableTail("minimum of an explicit family without a tail rule")

    def is_nondecreasing(self) -> bool:
        if any(u > v for u, v in zip(self.values, self.values[1:])):
            return False
        if self.tail == "repeat":
            return True
        if isinstance(self.tail, SequenceFamily):
            seam = self.tail.term(len(self.values) + 1)
            return self.values[-1] <= seam and self.tail.is_nondecreasing()
        raise UndecidableTail("monotonicity of an explicit family without a tail rule")

    def sup_index_below(self, x: float) -> float:
        # Scan the listed values first; only consult the tail when every
        # listed term stays below x.
        best = 0
        for j, v in enumerate(self.values, start=1):
            if v < x:
                best = j
        if best < len(self.values):
            return best
        if self.tail == "repeat":
            return INFINITE if self.values[-1] < x else best
        if isinstance(self.tail, SequenceFamily):
            seam = len(self.values) + 1
            if not (self.tail.term(seam) < x):
                return best
            rest = self.tail.sup_index_below(x)
            return rest if math.isinf(rest) else max(best, int(rest))
        raise UndecidableTail(
            f"sup index for x={x} depends on the undeclared tail of an explicit family"
        )


def _adjusted_max_index(term, guess: float, x: float) -> int:
    """Largest j >= 1 with term(j) < x, starting from a float guess.

    The guess comes from inverting the closed form; the final answer is
    settled by direct strict comparisons so rounding in the inversion
    cannot shift the boundary.
    """
    j = max(1, int(math.floor(guess)))
    while term(j + 1) < x:
        j += 1
    while j >= 1 and not (term(j) < x):
        j -= 1
    return j


# ---------------------------------------------------------------------------
# Space parameters


@dataclass(frozen=True)
class KorobovParams:
    """omega in (0,1), weight families a (nondecreasing) and b, dimension s."""

    omega: float
    a: SequenceFamily
    b: SequenceFamily
    s: int

    def a_term(self, j: int) -> float:
        return self.a.term(j)

    def b_term(self, j: int) -> float:
        return self.b.term(j)

    @property
    def log_inv_omega(self) -> float:
        return -math.log(self.omega)


@lru_cache(maxsize=1024)
def a_values(params: KorobovParams) -> tuple[float, ...]:
    return tuple(params.a.term(j) for j in range(1, params.s + 1))


@lru_cache(maxsize=1024)
def b_values(params: KorobovParams) -> tuple[float, ...]:
    return tuple(params.b.term(j) for j in range(1, params.s + 1))


def validate(params: KorobovParams) -> KorobovParams:
    """Check every invariant over j = 1..s and return the params unchanged.

    Raises :class:`InvalidParameterError` with a distinct code per
    violation.  Monotonicity of a is checked term by term, exactly.
    """
    if not (0.0 < params.omega < 1.0):
        raise InvalidParameterError(
            "omega_out_of_range", f"omega must lie in (0,1), got {params.omega}"
        )
    if not isinstance(params.s, int) or params.s < 1:
        raise InvalidParameterError(
            "dimension_not_positive", f"dimension must be a positive integer, got {params.s!r}"
        )
    prev = None
    for j in range(1, params.s + 1):
        aj = params.a.term(j)
        if not aj >= 1.0:
            raise InvalidParameterError("a_below_one", f"a_{j} = {aj} < 1")
        if prev is not None and aj < prev:
            raise InvalidParameterError(
                "a_nonmonotone", f"a_{j} = {aj} < a_{j-1} = {prev}"
            )
        prev = aj
    for j in range(1, params.s + 1):
        bj = params.b.term(j)
        if not bj >= 1.0:
            raise InvalidParameterError("b_below_one", f"b_{j} = {bj} < 1")
    return params


# ---------------------------------------------------------------------------
# Config (de)serialization.  The on-disk format is JSON, e.g.
#   {"omega": 0.5, "s": 4,
#    "a": {"family": "geometric", "c": 1, "r": 3},
#    "b": {"family": "power", "c": 1, "k": 2}}


def _need(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required key")
    return obj[key]


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    return float(value)


def family_from_config(obj, path: str = "") -> SequenceFamily:
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object describing a family, got {obj!r}")
    kind = _need(obj, "family", path)
    sub = lambda key: f"{path}.{key}" if path else key
    if kind == "constant":
        return ConstantFamily(_as_number(_need(obj, "c", path), sub("c")))
    if kind == "power":
        return PowerFamily(
            _as_number(_need(obj, "c", path), sub("c")),
            _as_number(_need(obj, "k", path), sub("k")),
        )
    if kind == "geometric":
        return GeometricFamily(
            _as_number(_need(obj, "c", path), sub("c")),
            _as_number(_need(obj, "r", path), sub("r")),
        )
    if kind == "exponential":
        return ExponentialFamily(
            _as_number(_need(obj, "c", path), sub("c")),
            _as_number(_need(obj, "alpha", path), sub("alpha")),
        )
    if kind == "explicit":
        raw = _need(obj, "values", path)
        if not isinstance(raw, list) or not raw:
            raise ConfigError(sub("values"), "expected a nonempty list of numbers")
        values = tuple(_as_number(v, f"{sub('values')}[{i}]") for i, v in enumerate(raw))
        tail_obj = obj.get("tail")
        tail: TailRule
        if tail_obj is None:
            tail = None
        elif tail_obj == "repeat":
            tail = "repeat"
        elif isinstance(tail_obj, dict):
            tail = family_from_config(tail_obj, sub("tail"))
        else:
            raise ConfigError(sub("tail"), f"expected 'repeat', a family object, or null, got {tail_obj!r}")
        return ExplicitFamily(values, tail)
    raise ConfigError(sub("family"), f"unknown family kind {kind!r}")


def family_to_config(family: SequenceFamily) -> dict:
    if isinstance(family, ConstantFamily):
        return {"family": "constant", "c": family.c}
    if isinstance(family, PowerFamily):
        return {"family": "power", "c": family.c, "k": family.k}
    if isinstance(family, GeometricFamily):
        return {"family": "geometric", "c": family.c, "r": family.r}
    if isinstance(family, ExponentialFamily):
        return {"family": "exponential", "c": family.c, "alpha": family.alpha}
    if isinstance(family, ExplicitFamily):
        tail = family.tail
        if isinstance(tail, SequenceFamily):
            tail = family_to_config(tail)
        return {"family": "explicit", "values": list(family.values), "tail": tail}
    raise TypeError(f"not a serializable family: {family!r}")


def params_from_config(obj, path: str = "") -> KorobovParams:
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object with omega/s/a/b, got {obj!r}")
    sub = lambda key: f"{path}.{key}" if path else key
    omega = _as_number(_need(obj, "omega", path), sub("omega"))
    s_raw = _need(obj, "s", path)
    if isinstance(s_raw, bool) or not isinstance(s_raw, int):
        raise ConfigError(sub("s"), f"expected an integer dimension, got {s_raw!r}")
    a = family_from_config(_need(obj, "a", path), sub("a"))
    b = family_from_config(_need(obj, "b", path), sub("b"))
    try:
        return validate(KorobovParams(omega=omega, a=a, b=b, s=s_raw))
    except InvalidParameterError as exc:
        raise ConfigError(path or "<params>", str(exc)) from exc


def params_to_config(params: KorobovParams) -> dict:
    return {
        "omega": params.omega,
        "s": params.s,
        "a": family_to_config(params.a),
        "b": family_to_config(params.b),
    }


def load_params(path) -> KorobovParams:
    """Read and validate a JSON params file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    return params_from_config(obj)
