"""Dimensions and sequence indices are Python ints of at least 1.

A bool is never an integer here, as for mesh sizes, config integers and
spectrum ranks.  A dimension must be a Python int also because it is
stored as given: ``2**np.int64(64)`` is 0, which would switch the small-n
lower bound on for every n.  Each site keeps its own error code.
"""

import numpy as np
import pytest

from korobov import analyze, count_growth_bound, validate
from korobov.errors import InvalidParameterError
from korobov.params import ConstantFamily, ExponentialFamily, KorobovParams, PowerFamily

REJECTED = [True, False, np.int64(2), 2.0, 0, -1]
ONE = ConstantFamily(1.0)
GROWING = ExponentialFamily(1.0, 1.0)  # a_j = e**j >= exp(0.5 j)


def space(s):
    return KorobovParams(omega=0.5, a=GROWING, b=ONE, s=s)


SITES = {
    "validate": (lambda v: validate(space(v)), "dimension_not_positive"),
    "analyze": (lambda v: analyze(GROWING, ONE, v), "dimension_not_positive"),
    "term": (lambda v: PowerFamily(1.0, 2.0).term(v), "term_undefined"),
    "count_growth_bound": (lambda v: count_growth_bound(validate(space(3)), 10.0, 0.5, v), "term_undefined"),
}


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("value", REJECTED, ids=repr)
def test_non_int_or_nonpositive_raises_with_the_site_code(site, value):
    call, code = SITES[site]
    with pytest.raises(InvalidParameterError) as info:
        call(value)
    assert info.value.code == code
    assert f"must be a positive integer, got {value!r}" in str(info.value)


@pytest.mark.parametrize("site", SITES)
def test_a_python_int_passes(site):
    SITES[site][0](2)
