import json
import math

import pytest

from korobov.errors import ConfigError, InvalidParameterError, UndecidableTail
from korobov.params import (
    ConstantFamily,
    ExplicitFamily,
    ExponentialFamily,
    GeometricFamily,
    KorobovParams,
    PowerFamily,
    family_from_config,
    load_params,
    params_from_config,
    validate,
)


def test_term_closed_forms():
    assert GeometricFamily(1, 3).term(2) == 9
    assert ConstantFamily(1).term(10) == 1
    assert ExponentialFamily(1, 2).term(3) == pytest.approx(math.exp(6), rel=1e-15)
    assert PowerFamily(2, 2).term(3) == 18


def test_term_rejects_index_zero():
    for fam in (ConstantFamily(1), PowerFamily(1, 1), GeometricFamily(1, 2)):
        with pytest.raises(InvalidParameterError):
            fam.term(0)


def test_explicit_tail_rules():
    repeat = ExplicitFamily((1, 3), "repeat")
    assert repeat.term(2) == 3
    assert repeat.term(100) == 3

    cont = ExplicitFamily((1, 3, 9), GeometricFamily(1 / 3, 3))
    assert cont.term(3) == 9
    assert cont.term(4) == pytest.approx(27.0)

    bare = ExplicitFamily((1, 3))
    assert bare.term(2) == 3
    with pytest.raises(UndecidableTail):
        bare.term(3)
    with pytest.raises(UndecidableTail):
        bare.limit()


def test_validate_accepts_basic():
    p = KorobovParams(0.5, ConstantFamily(1), ConstantFamily(1), 3)
    assert validate(p) is p


@pytest.mark.parametrize(
    "params,code",
    [
        (KorobovParams(1.0, ConstantFamily(1), ConstantFamily(1), 2), "omega_out_of_range"),
        (KorobovParams(0.0, ConstantFamily(1), ConstantFamily(1), 2), "omega_out_of_range"),
        (KorobovParams(0.5, ConstantFamily(0.5), ConstantFamily(1), 2), "a_below_one"),
        (KorobovParams(0.5, ConstantFamily(1), ConstantFamily(0.9), 2), "b_below_one"),
        (KorobovParams(0.5, ExplicitFamily((2, 1), "repeat"), ConstantFamily(1), 2), "a_nonmonotone"),
        (KorobovParams(0.5, ConstantFamily(1), ConstantFamily(1), 0), "dimension_not_positive"),
    ],
)
def test_validate_error_codes(params, code):
    with pytest.raises(InvalidParameterError) as err:
        validate(params)
    assert err.value.code == code


def test_validate_checks_only_first_s_terms():
    # the violation sits at j = 3, beyond s = 2
    p = KorobovParams(0.5, ExplicitFamily((1, 2, 1.5), "repeat"), ConstantFamily(1), 2)
    assert validate(p) is p
    with pytest.raises(InvalidParameterError):
        validate(KorobovParams(0.5, ExplicitFamily((1, 2, 1.5), "repeat"), ConstantFamily(1), 3))


def test_sup_index_below():
    geo = GeometricFamily(1, 2)  # 2, 4, 8, ...
    assert geo.sup_index_below(5) == 2
    assert geo.sup_index_below(2) == 0  # strict: 2 < 2 fails
    assert ConstantFamily(1).sup_index_below(2) == math.inf
    tri = ExplicitFamily((1, 3, 9), GeometricFamily(1 / 3, 3))
    assert tri.sup_index_below(3) == 1  # strict inequality
    assert tri.sup_index_below(10) == 3
    assert tri.sup_index_below(30) == 4
    with pytest.raises(UndecidableTail):
        ExplicitFamily((1, 3)).sup_index_below(100)


@pytest.mark.parametrize(
    "config, family",
    [
        ({"family": "constant", "c": 2.5}, ConstantFamily(2.5)),
        ({"family": "power", "c": 1.5, "k": 2}, PowerFamily(1.5, 2.0)),
        ({"family": "geometric", "c": 1, "r": 3.0}, GeometricFamily(1.0, 3.0)),
        ({"family": "exponential", "c": 1.25, "alpha": 0.75}, ExponentialFamily(1.25, 0.75)),
        ({"family": "explicit", "values": [1, 2.5, 2.5], "tail": "repeat"}, ExplicitFamily((1.0, 2.5, 2.5), "repeat")),
        (
            {"family": "explicit", "values": [1, 3], "tail": {"family": "geometric", "c": 0.75, "r": 2}},
            ExplicitFamily((1.0, 3.0), GeometricFamily(0.75, 2.0)),
        ),
        ({"family": "explicit", "values": [1, 3]}, ExplicitFamily((1.0, 3.0), None)),
    ],
)
def test_family_from_config_reads_every_kind(config, family):
    rebuilt = family_from_config(json.loads(json.dumps(config)))
    horizon = 10_000 if not isinstance(family, ExplicitFamily) or family.tail is not None else 2
    for j in range(1, horizon + 1):
        assert rebuilt.term(j) == family.term(j)


def test_params_from_config_and_errors(tmp_path):
    p = validate(
        KorobovParams(0.5, GeometricFamily(1, 3), PowerFamily(1, 2), 4)
    )
    obj = {"omega": 0.5, "s": 4, "a": {"family": "geometric", "c": 1, "r": 3}, "b": {"family": "power", "c": 1, "k": 2}}
    assert params_from_config(obj) == p

    path = tmp_path / "params.json"
    path.write_text(json.dumps(obj))
    assert load_params(path) == p

    with pytest.raises(ConfigError) as err:
        params_from_config({"omega": 0.5, "s": 2, "a": {"family": "geometric", "c": 1}, "b": obj["b"]})
    assert "a.r" in str(err.value)

    with pytest.raises(ConfigError):
        params_from_config({"omega": 2.0, "s": 2, "a": obj["a"], "b": obj["b"]})

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_params(bad)


def test_generated_invariants_random(rng):
    from conftest import random_instance

    for _ in range(25):
        params, _ = random_instance(rng)
        for j in range(1, params.s + 1):
            assert params.a_term(j) >= 1.0
            assert params.b_term(j) >= 1.0
            if j < params.s:
                assert params.a_term(j) <= params.a_term(j + 1)
