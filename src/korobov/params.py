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
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
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
    "params_from_config",
    "load_params",
]

INFINITE = math.inf
_U = 2.0**-53  # unit roundoff of float64
_FLOAT_MAX = sys.float_info.max
_LN2 = math.log(2.0)


def _require_positive_int(value, what: str, code: str = "term_undefined") -> None:
    """Raise unless value is a Python int of at least 1; bool is never an integer."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise InvalidParameterError(code, f"{what} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class Interval:
    """Closed interval certifying a real quantity: lo <= value <= hi."""

    lo: float
    hi: float

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


def _enclose(num: int, den: int) -> Interval:
    """The tightest float interval containing num/den."""
    num, den = (num, den) if den > 0 else (-num, -den)
    f = num / den  # integer true division rounds correctly
    fn, fd = f.as_integer_ratio()
    return Interval(math.nextafter(f, -INFINITE) if fn * den > num * fd else f,
                    math.nextafter(f, INFINITE) if fn * den < num * fd else f)


class SequenceFamily:
    """A closed-form sequence j -> term(j), j = 1, 2, ...

    Subclasses provide the term rule plus the three tail facts used by
    the tractability analysis: the limit, the exponential growth rate
    liminf_j log(term_j)/j, and the sum of reciprocals as a certified
    interval.

    Every closed form is monotone.  ``_trend()`` has the sign of its
    growth and ``_index_guess(x)`` solves it for j at term = x; from these
    two hooks the limit (inf, term_1 or 0 by the sign), the minimum
    (term_1, or 0 when decreasing), monotonicity and the sup index are
    derived here once.  :class:`ExplicitFamily` answers from its values
    and tail instead.
    """

    kind: str = "abstract"

    def term(self, j: int) -> float:
        raise NotImplementedError

    def log_growth(self) -> float:
        """liminf_j log(term_j)/j (0 for sub-exponential families)."""
        raise NotImplementedError

    def reciprocal_sum(self, start: int = 1) -> Interval:
        """sum_{j>=start} 1/term_j, bracketed; Interval(inf, inf) when
        divergent."""
        raise NotImplementedError

    def _trend(self) -> float:
        """A number with the sign of term_{j+1} - term_j, the same for all j."""
        raise NotImplementedError

    def _index_guess(self, x: float) -> float:
        """The real j at which the closed form equals x (increasing
        families); an int when it lies past the float range."""
        raise NotImplementedError

    def limit(self) -> float:
        """lim_j term_j (inf allowed)."""
        trend = self._trend()
        if trend > 0:
            return INFINITE
        return self.term(1) if trend == 0 else 0.0

    def min_term_overall(self, start: int = 1) -> float:
        """inf_{j >= start} term_j, over the whole infinite tail."""
        return self.term(start) if self._trend() >= 0 else 0.0

    def is_nondecreasing(self, start: int = 1) -> bool:
        """True when term_j <= term_{j+1} for all j >= start."""
        return self._trend() >= 0

    def sup_index_below(self, x: float) -> float:
        """sup{j >= 1 : term_j < x} for a nondecreasing family.

        Returns 0 when even term_1 >= x, ``math.inf`` when every term
        stays below x, and raises :class:`UndecidableTail` when the
        answer depends on an undeclared explicit tail.
        """
        trend = self._trend()
        if trend < 0:
            raise InvalidParameterError(
                "a_nonmonotone", f"decreasing {self.kind} family has no sup index"
            )
        if not (self.term(1) < x):
            return 0
        if trend == 0 or x == INFINITE:  # every true term is finite
            return INFINITE
        try:
            guess = self._index_guess(x)
        except OverflowError:
            guess = INFINITE
        return _adjusted_max_index(self.term, guess, x)


@dataclass(frozen=True)
class ConstantFamily(SequenceFamily):
    """term_j = c."""

    c: float
    kind = "constant"

    def term(self, j: int) -> float:
        _require_positive_int(j, "sequence index")
        return self.c

    def log_growth(self) -> float:
        return 0.0

    def reciprocal_sum(self, start: int = 1) -> Interval:
        return Interval(INFINITE, INFINITE)

    def _trend(self) -> float:
        return 0.0


@dataclass(frozen=True)
class PowerFamily(SequenceFamily):
    """term_j = c * j**k, k >= 0."""

    c: float
    k: float
    kind = "power"

    def term(self, j: int) -> float:
        """c * float(j)**k wherever that is finite.  Where j or j**k is
        past the float range, the term is formed in log space (math.log
        takes ints of any size), so it is inf only when c * j**k is."""
        _require_positive_int(j, "sequence index")
        try:
            return self.c * float(j) ** self.k
        except OverflowError:
            return _exp_past_floats(self.c, self.k, math.log(j))

    def log_growth(self) -> float:
        # log(c j^k)/j -> 0 for any fixed k.
        return 0.0

    def reciprocal_sum(self, start: int = 1) -> Interval:
        if self.k <= 1:
            return Interval(INFINITE, INFINITE)
        # Partial sum plus integral bracket for the tail:
        # int_{N+1}^inf t^-k dt <= sum_{j>N} j^-k <= int_N^inf t^-k dt.
        # fsum is exactly rounded: fed in blocks, it sums what one array would
        n_partial = max(start, 100_000)
        with np.errstate(over="ignore"):
            firsts = range(start, n_partial + 1, 4096)
            blocks = (np.arange(j, min(j + 4096, n_partial + 1), dtype=float) for j in firsts)
            partial = math.fsum(chain.from_iterable((1.0 / (self.c * js**self.k)).tolist() for js in blocks))
        tail_hi = n_partial ** (1.0 - self.k) / (self.c * (self.k - 1.0))
        tail_lo = (n_partial + 1.0) ** (1.0 - self.k) / (self.c * (self.k - 1.0))
        # Each term carries at most four roundings (power, product,
        # quotient) and fsum one more; a tail end's power j**(1-k) is off by
        # |(1-k) log j| units from the rounded exponent, plus four roundings.
        tail_err = (abs((1.0 - self.k) * math.log(n_partial + 1.0)) + 8.0) * _U * tail_hi
        err = 8.0 * _U * partial + tail_err
        return _outward(partial + tail_lo - err, partial + tail_hi + err)

    def _trend(self) -> float:
        return self.k

    def _index_guess(self, x: float) -> float | int:
        try:
            guess = (x / self.c) ** (1.0 / self.k)
        except OverflowError:
            guess = INFINITE
        if guess < _FLOAT_MAX:
            return guess
        # past the float range: an integer built from the logarithm
        return _int_exp((math.log(x) - math.log(self.c)) / self.k)


@dataclass(frozen=True)
class GeometricFamily(SequenceFamily):
    """term_j = c * r**j, r >= 1 for nondecreasing use."""

    c: float
    r: float
    kind = "geometric"

    def term(self, j: int) -> float:
        _require_positive_int(j, "sequence index")
        try:
            return self.c * self.r**j
        except OverflowError:  # r**j past the float range; c * r**j may not be
            return _exp_past_floats(self.c, math.log(self.r), j)

    def log_growth(self) -> float:
        return math.log(self.r) if self.r >= 1 else -INFINITE

    def reciprocal_sum(self, start: int = 1) -> Interval:
        if self.r <= 1:
            return Interval(INFINITE, INFINITE)
        # sum_{j>=start} r^-j / c = r^(1-start)/(c (r-1)), in exact integers
        (p, q), (cp, cq) = self.r.as_integer_ratio(), self.c.as_integer_ratio()
        return _enclose(q**start * cq, p ** (start - 1) * cp * (p - q))

    def _trend(self) -> float:
        return self.r - 1.0

    def _index_guess(self, x: float) -> float:
        return (math.log(x) - math.log(self.c)) / math.log(self.r)


@dataclass(frozen=True)
class ExponentialFamily(SequenceFamily):
    """term_j = c * exp(alpha * j), alpha >= 0 for nondecreasing use."""

    c: float
    alpha: float
    kind = "exponential"

    def term(self, j: int) -> float:
        _require_positive_int(j, "sequence index")
        try:
            return self.c * math.exp(self.alpha * j)
        except OverflowError:  # exp(alpha j) past the float range; c exp(alpha j) may not be
            return _exp_past_floats(self.c, self.alpha, j)

    def log_growth(self) -> float:
        return self.alpha

    def reciprocal_sum(self, start: int = 1) -> Interval:
        if self.alpha <= 0:
            return Interval(INFINITE, INFINITE)
        q = math.exp(-self.alpha)
        value = q**start / (self.c * (1.0 - q))
        # q within 2 u moves q**start by 2 start u and 1 - q by 2 u q/(1 - q);
        # a power, a difference, a product and a quotient add 5 u
        err = ((2.0 * start + 8.0) + 2.0 * q / (1.0 - q)) * _U * value
        return _outward(value - err, value + err)

    def _trend(self) -> float:
        return self.alpha

    def _index_guess(self, x: float) -> float:
        return (math.log(x) - math.log(self.c)) / self.alpha


TailRule = Union[SequenceFamily, str, None]


@dataclass(frozen=True)
class ExplicitFamily(SequenceFamily):
    """Finite list of leading terms plus a tail rule.

    ``tail`` is either ``"repeat"`` (last value repeated forever),
    another family evaluated at the absolute index j for j > len(values),
    or None.  ``"repeat"`` is read as the constant tail
    ``ConstantFamily(values[-1])``, so every question has two parts: the
    listed values, then the tail family.  With tail None every
    tail-dependent question raises :class:`UndecidableTail`.
    """

    values: tuple[float, ...]
    tail: TailRule = None
    kind = "explicit"

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not self.values:
            raise InvalidParameterError("term_undefined", "explicit family needs at least one value")
        if not (self.tail is None or isinstance(self.tail, SequenceFamily) or self.tail == "repeat"):
            raise InvalidParameterError(
                "term_undefined", f"unknown tail rule {self.tail!r}; use 'repeat', a family, or None"
            )

    def _tail_family(self, undecidable: str) -> SequenceFamily:
        """The family that continues the values; without a tail rule,
        UndecidableTail(undecidable)."""
        if self.tail is None:
            raise UndecidableTail(undecidable)
        if self.tail == "repeat":
            return ConstantFamily(self.values[-1])
        return self.tail

    def term(self, j: int) -> float:
        _require_positive_int(j, "sequence index")
        if j <= len(self.values):
            return self.values[j - 1]
        return self._tail_family(
            f"term {j} of an explicit family with {len(self.values)} values and no tail rule"
        ).term(j)

    def limit(self) -> float:
        return self._tail_family("limit of an explicit family without a tail rule").limit()

    def log_growth(self) -> float:
        # A finite prefix never moves a liminf.
        return self._tail_family("growth rate of an explicit family without a tail rule").log_growth()

    def reciprocal_sum(self, start: int = 1) -> Interval:
        # each reciprocal is rounded once and fsum rounds once more
        head = math.fsum(1.0 / v for v in self.values[start - 1 :])
        err = 2.0 * _U * head
        tail = self._tail_family("reciprocal sum of an explicit family without a tail rule")
        rest = tail.reciprocal_sum(max(start, len(self.values) + 1))
        if rest.is_infinite:
            return rest
        return _outward(head - err + rest.lo, head + err + rest.hi)

    # The tail is only read at indices past the listed values, so it is
    # asked about those indices alone.

    def min_term_overall(self, start: int = 1) -> float:
        tail = self._tail_family("minimum of an explicit family without a tail rule")
        rest = tail.min_term_overall(max(start, len(self.values) + 1))
        return min([*self.values[start - 1 :], rest])

    def is_nondecreasing(self, start: int = 1) -> bool:
        head = self.values[start - 1 :]
        if any(u > v for u, v in zip(head, head[1:])):
            return False
        tail = self._tail_family("monotonicity of an explicit family without a tail rule")
        first = len(self.values) + 1
        if head and not head[-1] <= tail.term(first):
            return False
        return tail.is_nondecreasing(max(start, first))

    def sup_index_below(self, x: float) -> float:
        # Scan the listed values first; only consult the tail when every
        # listed term stays below x.
        best = 0
        for j, v in enumerate(self.values, start=1):
            if v < x:
                best = j
        if best < len(self.values):
            return best
        tail = self._tail_family(
            f"sup index for x={x} depends on the undeclared tail of an explicit family"
        )
        if not (tail.term(best + 1) < x):
            return best
        rest = tail.sup_index_below(x)
        return rest if rest == INFINITE else max(best, int(rest))  # an int may be past the float range


def _exp_past_floats(c: float, rate: float, t) -> float:
    """c * e**(rate * t) in log space, for a term whose float form overflowed:
    c at rate 0; past the float range, inf at a positive rate, else 0.0."""
    if rate == 0.0:
        return c
    try:
        return math.exp(math.log(c) + rate * t)
    except OverflowError:
        return INFINITE if rate > 0.0 else 0.0


def _int_exp(log_j: float) -> int:
    """An integer near e**log_j, for log_j past the float range: a
    float's leading bits, shifted."""
    shift = int(log_j / _LN2) - 60
    return int(math.exp(log_j - shift * _LN2)) << shift


def _adjusted_max_index(term, guess: float | int, x: float) -> int:
    """Largest j >= 1 with term(j) < x (0 when none), for a nondecreasing
    term, from any guess.

    The guess comes from inverting the closed form; the answer is settled
    by direct strict comparisons, so rounding in the inversion cannot
    shift the boundary.  The search starts just below the guess, 2**-20
    of it and one below (an exact real root j of term(j) = x is not the
    answer), on a multiple of a power of two ``unit`` near guess >> 40 (1
    below 2**40).  It steps up by doubling and then bisects, so every
    index it visits is a multiple of ``unit`` until the bracket is
    narrower.  Past 2**53 a term depends on j only through j rounded to a
    float, so it steps only where that rounding does: at a multiple of a
    large power of two, or one past it.  Testing each visited index's
    neighbour on the other side therefore ends the search after a few
    dozen terms instead of one per bit of j.  A guess that is inf or nan,
    or that lands above the answer, starts from 0.
    """
    lo, unit = 0, 1
    if -INFINITE < guess < INFINITE:  # false for inf and nan
        g = int(guess)
        unit = 1 << max(0, g.bit_length() - 40)
        lo = (g - (g >> 20) - 1) // unit * unit
        if lo < 1 or not term(lo) < x:
            lo, unit = 0, 1
    hi, step = lo + unit, 2 * unit
    while term(hi) < x:
        lo, hi, step = hi, hi + step, 2 * step
    while hi - lo > 1:  # term(lo) < x (or lo = 0) and term(hi) >= x
        mid = (lo + hi) // 2
        if term(mid) < x:
            if mid + 1 == hi or not term(mid + 1) < x:
                return mid
            lo = mid
        else:
            if mid - 1 == lo or term(mid - 1) < x:
                return mid - 1
            hi = mid
    return lo


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
    _require_positive_int(params.s, "dimension", "dimension_not_positive")
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


def _number(value, path: str, above: float = -INFINITE, below: float = INFINITE, integer: bool = False):
    """A finite config number strictly between ``above`` and ``below``, as
    a float, or as an int when ``integer``; else ConfigError at ``path``."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ConfigError(path, f"expected {'an integer' if integer else 'a number'}, got {value!r}")
    if not (above < value < below and abs(value) <= _FLOAT_MAX):
        raise ConfigError(path, f"expected a finite value in ({above:g}, {below:g}), got {value!r}")
    return value if integer else float(value)


# kind -> (class, its fields in config order)
_KINDS = {
    "constant": (ConstantFamily, ("c",)),
    "power": (PowerFamily, ("c", "k")),
    "geometric": (GeometricFamily, ("c", "r")),
    "exponential": (ExponentialFamily, ("c", "alpha")),
    "explicit": (ExplicitFamily, ("values", "tail")),
}


def family_from_config(obj, path: str = "") -> SequenceFamily:
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object describing a family, got {obj!r}")
    kind = _need(obj, "family", path)
    sub = lambda key: f"{path}.{key}" if path else key
    if not (isinstance(kind, str) and kind in _KINDS):
        raise ConfigError(sub("family"), f"unknown family kind {kind!r}")
    cls, fields = _KINDS[kind]
    if cls is not ExplicitFamily:
        return cls(*(_number(_need(obj, key, path), sub(key)) for key in fields))
    raw = _need(obj, "values", path)
    if not isinstance(raw, list) or not raw:
        raise ConfigError(sub("values"), "expected a nonempty list of numbers")
    values = tuple(_number(v, f"{sub('values')}[{i}]") for i, v in enumerate(raw))
    tail = obj.get("tail")
    try:
        return ExplicitFamily(values, family_from_config(tail, sub("tail")) if isinstance(tail, dict) else tail)
    except InvalidParameterError as exc:  # the values are valid, so the tail rule is not
        raise ConfigError(sub("tail"), f"expected 'repeat', a family object, or null, got {tail!r}") from exc


def params_from_config(obj, path: str = "") -> KorobovParams:
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object with omega/s/a/b, got {obj!r}")
    sub = lambda key: f"{path}.{key}" if path else key
    omega = _number(_need(obj, "omega", path), sub("omega"))
    s_raw = _need(obj, "s", path)
    if isinstance(s_raw, bool) or not isinstance(s_raw, int):
        raise ConfigError(sub("s"), f"expected an integer dimension, got {s_raw!r}")
    a = family_from_config(_need(obj, "a", path), sub("a"))
    b = family_from_config(_need(obj, "b", path), sub("b"))
    try:
        return validate(KorobovParams(omega=omega, a=a, b=b, s=s_raw))
    except InvalidParameterError as exc:
        raise ConfigError(path or "<params>", str(exc)) from exc


def _read_json(path):
    """The JSON value in the file at path; ConfigError when the file
    cannot be read or does not parse."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc


def load_params(path) -> KorobovParams:
    """Read and validate a JSON params file."""
    return params_from_config(_read_json(path))
