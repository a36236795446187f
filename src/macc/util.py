"""Small shared helpers, the input guards among them."""

from fractions import Fraction
from itertools import repeat
from math import comb

import numpy as np

from .errors import DimensionMismatch, OutOfRange


def is_int(v) -> bool:
    """True for an int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def is_tuple_of(v, n: int) -> bool:
    """True for a tuple of n items."""
    return isinstance(v, tuple) and len(v) == n


def require_ints(error=OutOfRange, **values) -> None:
    """Raise error naming the first of values that is not an int (bools excluded)."""
    for name, v in values.items():
        if not is_int(v):
            raise error(f"{name}={v!r} is not an integer")


def require_type(value, kind: type, name: str, error=DimensionMismatch) -> None:
    """Raise error unless value is an instance of kind."""
    if not isinstance(value, kind):
        raise error(f"{name} is a {type(value).__name__}, not a {kind.__name__}")


def converted(kind: type, value, name: str, error):
    """kind(value), or error when kind rejects value: a tuple of no iterable,
    a Fraction of no rational number."""
    try:
        return kind(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as e:
        raise error(f"{name}={value!r} cannot be read as a {kind.__name__}") from e


def packet_ints(packets: np.ndarray) -> map:
    """Iterator of a uint8 array's last-axis packets as big-endian ints; a V view keeps trailing zeros."""
    raw = np.ascontiguousarray(packets).view(f"V{packets.shape[-1]}").ravel().tolist()
    return map(int.from_bytes, raw, repeat("big"))


def join_packets(values, size: int) -> bytes:
    """The ints' size-byte big-endian forms, joined in order: the inverse of packet_ints."""
    return b"".join(map(int.to_bytes, values, repeat(size), repeat("big")))


def mod1(x: int, a: int) -> int:
    """1-based modulus: result lies in [1, a], with mod1(a, a) == a."""
    return (x - 1) % a + 1


def comb0(n: int, r: int) -> int:
    """Binomial coefficient extended with C(n, r) = 0 outside 0 <= r <= n."""
    if r < 0 or n < 0 or r > n:
        return 0
    return comb(n, r)


def frac_str(x: Fraction) -> str:
    """Render a Fraction as 'num/den' (den kept even when 1, for stable parsing)."""
    return f"{x.numerator}/{x.denominator}"


def float12(x: Fraction) -> str:
    """Decimal rendering with 12 significant digits, for CSV output."""
    return f"{float(x):.12g}"
