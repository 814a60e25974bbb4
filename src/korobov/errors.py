"""Exception types shared across the package."""

from __future__ import annotations


class KorobovError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(KorobovError, ValueError):
    """A space parameter violates its constraints.

    ``code`` is a stable machine-readable identifier, one of:
    ``omega_out_of_range``, ``dimension_not_positive``, ``a_below_one``,
    ``b_below_one``, ``a_nonmonotone``, ``term_undefined``.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class ConfigError(KorobovError, ValueError):
    """A configuration object failed to parse.

    ``path`` locates the offending entry (dotted keys, e.g. ``"a.r"``)
    and ``reason`` says what was wrong with it.
    """

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path or '<root>'}: {reason}")
        self.path = path
        self.reason = reason


class CapExceeded(KorobovError, RuntimeError):
    """A size cap would be exceeded; raised before the oversized object
    is built.

    ``limit`` is the cap and ``needed`` the true size: the grid size n
    (``grids``, ``mesh_for_accuracy``), the count of an index set or a
    dual-lattice window, or the largest dual-lattice coset.
    """

    def __init__(self, what: str, limit: int, needed: int):
        super().__init__(f"{what} exceeds cap {limit} (needed {needed})")
        self.what = what
        self.limit = limit
        self.needed = needed


class UndecidableTail(KorobovError):
    """A quantity depends on terms of an explicit sequence beyond its data
    and no tail rule was declared.  Callers either refuse or report the
    affected result as unknown; they never guess."""
