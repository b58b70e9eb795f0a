"""Every tolerance binds: ``pytest.approx`` adds ``abs = 1e-12`` unless an
``abs`` is given, so a ``rel`` bound on an expected value below 1e-12 / rel
never binds.  Inside ``tests/`` a call that passes no ``abs`` while
``rel * |expected| < 1e-12`` for some nonzero expected entry fails the test;
give it ``abs=0.0``, or an explicit ``abs`` where an absolute bound is meant.
"""

import builtins
import numbers

import numpy as np
import pytest

_approx = pytest.approx
DEFAULT_ABS = 1e-12
DEFAULT_REL = 1e-6


def _entries(expected):
    """The numbers in expected: a scalar, a mapping's values, or a sequence's or array's items."""
    if isinstance(expected, dict):
        for value in expected.values():
            yield from _entries(value)
    elif isinstance(expected, np.ndarray):
        yield from _entries(expected.tolist())
    elif isinstance(expected, (list, tuple)):
        for value in expected:
            yield from _entries(value)
    elif isinstance(expected, numbers.Number) and not isinstance(expected, bool):
        yield expected


def guarded_approx(expected, rel=None, abs=None, nan_ok=False):
    if abs is None:
        bound = DEFAULT_REL if rel is None else rel
        for value in _entries(expected):
            if value and bound * builtins.abs(value) < DEFAULT_ABS:
                pytest.fail(f"pytest.approx({expected!r}, rel={rel!r}) passes no abs, and the "
                            f"default abs={DEFAULT_ABS} overrides rel at {value!r}: give abs=0.0, "
                            "or an explicit abs with its reason", pytrace=False)
    return _approx(expected, rel=rel, abs=abs, nan_ok=nan_ok)


@pytest.fixture(autouse=True, scope="module")
def _binding_tolerances():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pytest, "approx", guarded_approx)
        yield
