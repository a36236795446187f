"""Small shared helpers."""

from fractions import Fraction
from math import comb


def is_int(v) -> bool:
    """True for an int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


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
