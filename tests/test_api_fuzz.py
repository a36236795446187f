"""Fuzzed public calls: type-confused arguments meet a MaccError or a normal return."""

import inspect

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import macc

FUZZ = settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# Values of the wrong type or at the edge of a range for most parameters.
POOL = [None, 1.5, True, "x", -1, 0, 2, (), [[1]]]

CALLABLES = [
    name for name in macc.__all__
    if callable(obj := getattr(macc, name))
    and not (isinstance(obj, type) and issubclass(obj, BaseException))
]


def positional_arity(fn) -> tuple[int, int]:
    """How many positional arguments fn needs at least and takes at most."""
    params = [p for p in inspect.signature(fn).parameters.values()
              if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    return sum(p.default is p.empty for p in params), len(params)


@pytest.mark.parametrize("name", CALLABLES)
@FUZZ
@given(data=st.data())
def test_public_calls_raise_only_macc_errors(name, data):
    fn = getattr(macc, name)
    least, most = positional_arity(fn)
    n = data.draw(st.integers(least, most), label="arity")
    args = data.draw(st.lists(st.sampled_from(POOL), min_size=n, max_size=n), label="args")
    try:
        fn(*args)
    except macc.MaccError:
        pass
