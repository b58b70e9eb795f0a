"""The conftest guard fails a ``pytest.approx`` whose default ``abs`` would
override its ``rel`` bound, and lets every binding call through."""

import math

import numpy as np
import pytest


@pytest.mark.parametrize("expected, rel", [
    (3.24e-3, 1e-10), (1e-7, None), (8.3, 1e-14), ([1.0, 1e-9], 1e-6),
    ({"a": 1.0, "b": -2e-13}, 0.5), (np.array([0.5, 3e-8]), 1e-5), (1e-9j, 1e-4),
])
def test_a_rel_bound_the_default_abs_overrides_fails(expected, rel):
    with pytest.raises(pytest.fail.Exception, match="passes no abs"):
        pytest.approx(expected, rel=rel)


@pytest.mark.parametrize("expected, kwargs", [
    (3.24e-3, {"rel": 1e-10, "abs": 0.0}), (1e-30, {"abs": 1e-40}), (1.0, {}),
    (0.0, {"rel": 1e-15}), ([0.0, 1.0, math.nan], {"rel": 1e-12, "nan_ok": True}),
    (math.inf, {"rel": 1e-20}), ({"kind": "minimum", "m": 2.0}, {"rel": 1e-12}), (True, {}),
])
def test_a_binding_bound_passes_through(expected, kwargs):
    assert expected == pytest.approx(expected, **kwargs)


def test_abs_zero_binds_where_the_default_did_not():
    assert 3.24e-3 * (1 + 1e-10) == pytest.approx(3.24e-3, rel=1e-9, abs=0.0)
    assert 3.24e-3 * (1 + 1e-10) != pytest.approx(3.24e-3, rel=1e-12, abs=0.0)
