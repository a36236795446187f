"""Fuzzed public calls: type-confused arguments meet a MaccError or a normal return."""

import dataclasses
import inspect
from functools import cached_property

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


def built_objects() -> dict:
    """One small instance of each class whose methods a user calls on built values."""
    scheme = macc.build_scheme(macc.mn_pda(2, 1), 4, 3)
    library = macc.library_for_scheme(scheme, packet_bytes=2, seed=0)
    batch = macc.compressed_deliver(library, scheme, (1, 2, 3, 4))
    log = macc.deliver(library, scheme, (1, 2, 3, 4))
    return {obj.__class__.__name__: obj for obj in (macc.field(8), library, batch, log, scheme)}


BUILT = built_objects()
MEMBERS = [
    (kind, name) for kind, obj in BUILT.items() for name, attr in vars(type(obj)).items()
    if not name.startswith("_")
    and (inspect.isfunction(attr) or isinstance(attr, (property, cached_property)))
]


def positional_arity(fn) -> tuple[int, int]:
    """How many positional arguments fn needs at least and takes at most."""
    params = [p for p in inspect.signature(fn).parameters.values()
              if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    return sum(p.default is p.empty for p in params), len(params)


def fuzz_call(fn, data):
    """Call fn with a drawn number of positional arguments drawn from POOL."""
    least, most = positional_arity(fn)
    n = data.draw(st.integers(least, most), label="arity")
    args = data.draw(st.lists(st.sampled_from(POOL), min_size=n, max_size=n), label="args")
    try:
        fn(*args)
    except macc.MaccError:
        pass


@pytest.mark.parametrize("name", CALLABLES)
@FUZZ
@given(data=st.data())
def test_public_calls_raise_only_macc_errors(name, data):
    fuzz_call(getattr(macc, name), data)


@pytest.mark.parametrize("kind, name", MEMBERS)
@FUZZ
@given(data=st.data())
def test_public_members_raise_only_macc_errors(kind, name, data):
    """A method called with drawn arguments, or a property read, on the built
    object or on a copy of it with drawn values in some of its fields."""
    obj = BUILT[kind]
    if dataclasses.is_dataclass(obj):
        fields = [f.name for f in dataclasses.fields(obj) if f.init]
        changed = data.draw(st.lists(st.sampled_from(fields), unique=True), label="fields")
        try:
            obj = dataclasses.replace(obj, **{f: data.draw(st.sampled_from(POOL)) for f in changed})
        except macc.MaccError:
            return
    if inspect.isfunction(getattr(type(obj), name)):
        fuzz_call(getattr(obj, name), data)
        return
    try:
        getattr(obj, name)
    except macc.MaccError:
        pass
