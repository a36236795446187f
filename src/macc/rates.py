"""Load formulas, the fixed-placement converse, and envelope machinery.

Everything is exact: memory ratios and loads are Fractions end to end.
Floats only appear when a table is rendered to CSV. A hull segment's line
is held as integers, and envelope_eval finds a point's segment by
bisection. A comparison table walks each curve's segments once and fills a
segment's whole run of grid rows at a time, mapping Fraction over a range
of numerators; the converse is computed once per corner.
"""

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import ceil, comb, gcd

from .errors import DuplicateRatio, EmptyInput, OutOfRange
from .util import comb0, converted, require_ints, require_type

SCHEME_KEYS = ("hkd", "rk", "sr", "t1")
MAX_TERMS = 1 << 20  # the most corners, r_sr sum terms, table cells or binomial bits one call computes


def _check_terms(n: int, what: str) -> None:
    if n > MAX_TERMS:
        raise OutOfRange(f"{n} {what} exceed the {MAX_TERMS} cap")


def _check_corners(k: int, l: int, sr: bool) -> None:
    """The corners t = 0..K // L and, with sr, r_sr's terms over them, about (K - tL)/2 at t."""
    tmax = k // l
    _check_terms(tmax + 1, "corners")
    if sr:
        _check_terms((tmax + 1) * (2 * k - l * tmax) // 4, "r_sr terms")


def _check_binomial(n: int, r: int) -> None:
    """Refuse C(n, r), 0 <= r <= n, past MAX_TERMS bits: it is below n ** min(r, n - r)."""
    _check_terms(min(r, n - r) * n.bit_length(), "binomial bits")


def _check_kl(k: int, l: int) -> None:
    require_ints(k=k, l=l)
    if k < 1 or l < 1:
        raise OutOfRange(f"k={k}, l={l} must be >= 1")


def _check_klt(k: int, l: int, t: int, span: int = 1, low: int = 0) -> None:
    """Check k and l, then t in [low, K // (span * L)]."""
    _check_kl(k, l)
    require_ints(t=t)
    t_max = k // (span * l)
    if not (low <= t <= t_max):
        raise OutOfRange(f"t={t} outside [{low}, {t_max}]")


def r_mn(k: int, t: int) -> Fraction:
    """Shared-link baseline load at memory point t/K."""
    require_ints(k=k, t=t)
    if k < 1:
        raise OutOfRange(f"k={k} must be >= 1")
    if not (0 <= t <= k):
        raise OutOfRange(f"t={t} outside [0, {k}]")
    return Fraction(k - t, t + 1)


def r_hkd(k: int, l: int, t: int) -> Fraction:
    """Reduction-to-shared-link scheme; branch depends on whether l | k."""
    _check_kl(k, l)
    if k % l == 0:
        _check_klt(k, l, t)
        return Fraction(k - t * l, t + 1)
    _check_klt(k, l, t, 2)
    return Fraction(k - t, t + 1)


def r_rk(k: int, l: int, t: int) -> Fraction:
    """MDS-precoded scheme."""
    _check_klt(k, l, t)
    return Fraction((k - t * l) ** 2, k)


def r_sr(k: int, l: int, t: int) -> Fraction:
    """Low-subpacketization scheme. Its three branches on r = K - tL are one
    sum over h = ceil(r/2) + 1..r plus, for odd r, a head term, which at
    r = 1 is 1/K alone."""
    _check_klt(k, l, t)
    r = k - t * l
    first = (r + 3) // 2
    _check_terms(r + 1 - first, "r_sr terms")
    head = Fraction(1, ceil(Fraction(2 * t * l, r + 1)) + 1) if r % 2 else Fraction(0)
    return head + sum((Fraction(2, 1 + ceil(Fraction(t * l, h))) for h in range(first, r + 1)), Fraction(0))


def r_t1(k: int, l: int, t: int) -> Fraction:
    """Cyclic-transform scheme at corner t."""
    _check_klt(k, l, t)
    return Fraction(k - t * l, t + 1)


def f_t1(k: int, l: int, t: int) -> int:
    """Subpacketization of the cyclic-transform scheme at corner t."""
    _check_klt(k, l, t)
    n = k - t * (l - 1)
    _check_binomial(n, t)
    return k * comb(n, t)


def r_t3(q: int) -> Fraction:
    """Partition-family load; independent of m and l."""
    require_ints(q=q)
    if q < 2:
        raise OutOfRange(f"q={q} must be >= 2")
    return Fraction(q - 1)


def r_cor1(k: int, l: int, t: int) -> Fraction:
    """Compressed load of the binomial instantiation on its validity window."""
    require_ints(k=k, l=l, t=t)
    if not (t * l + 1 < k < t * l + l):
        raise OutOfRange(f"need tL+1 < K < tL+L, got K={k}, L={l}, t={t}")
    return Fraction((k - t * l) ** 2, k)


def r_cor2(q: int, l: int) -> Fraction:
    """Compressed load of the partition instantiation when l >= q."""
    require_ints(q=q, l=l)
    if q < 2:
        raise OutOfRange(f"q={q} must be >= 2")
    if l < q:
        raise OutOfRange(f"need l >= q, got l={l}, q={q}")
    return Fraction(2 * (q - 1) ** 2, q + l - 1)


@dataclass(frozen=True)
class ConverseInstance:
    k: int
    l: int
    t: int
    x: Fraction  # memory ratio t/K
    bound: Fraction


def converse_bound(k: int, l: int, t: int) -> Fraction:
    """Lower bound on the optimal load under the gap-constrained placement."""
    _check_klt(k, l, t, low=1)
    # One coarse count for its four binomials, each C(n, r) with n <= K and r <= t + 1,
    # not _check_binomial on each: a conv column sums this same count over its corners.
    _check_terms((t + 1) * k.bit_length(), "binomial bits")
    x = t * l - t + 1
    num = (
        comb0(k - l - x, t - 1)
        + (k - l - 1) * comb0(k - l - x + 1, t)
        - comb0(k - l - x, t + 1)
    )
    return Fraction(num, k * comb0(k - x, t - 1))


def converse_instance(k: int, l: int, t: int) -> ConverseInstance:
    bound = converse_bound(k, l, t)
    return ConverseInstance(k=k, l=l, t=t, x=Fraction(t, k), bound=bound)


def count_sq(k: int, l: int, t: int, q: int) -> int:
    """Closed-form count of gap-constrained t-subsets used by the converse."""
    _check_kl(k, l)
    require_ints(t=t, q=q)
    if not (1 <= t <= k // l):
        raise OutOfRange(f"t={t} outside [1, {k // l}]")
    if not (t * l <= q <= k):
        raise OutOfRange(f"q={q} outside [tL, K] = [{t * l}, {k}]")
    x = t * l - t + 1
    _check_binomial(q - x, t - 1)
    return comb0(q - x, t - 1) * q // t


@dataclass(frozen=True)
class LoadPoint:
    ratio: Fraction
    load: Fraction


@dataclass(frozen=True)
class LoadCurve:
    """Lower convex envelope; points are the hull vertices, ratio ascending."""

    points: tuple[LoadPoint, ...]


def envelope(points) -> LoadCurve:
    """Lower convex hull of exact corner points (distinct ratios required)."""
    pts = [_corner(p) for p in converted(tuple, points, "corner points", OutOfRange)]
    if not pts:
        raise EmptyInput("no corner points")
    pts.sort(key=lambda p: (p.ratio, p.load))
    for a, b in zip(pts, pts[1:]):
        if a.ratio == b.ratio:
            raise DuplicateRatio(f"duplicate memory ratio {a.ratio}")
    hull: list[LoadPoint] = []
    for p in pts:
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            cross = (a.ratio - o.ratio) * (p.load - o.load) - (a.load - o.load) * (
                p.ratio - o.ratio
            )
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return LoadCurve(points=tuple(hull))


def _corner(p) -> LoadPoint:
    """A corner point given as a LoadPoint or a (ratio, load) pair."""
    if isinstance(p, LoadPoint):
        return p
    pair = converted(tuple, p, "corner point", OutOfRange)
    if len(pair) != 2:
        raise OutOfRange(f"corner point {p!r} is not a (ratio, load) pair")
    return LoadPoint(*(converted(Fraction, v, "corner value", OutOfRange) for v in pair))


def envelope_eval(curve: LoadCurve, x) -> Fraction:
    """Interpolate on the hull; flat beyond the last corner, error below the first."""
    require_type(curve, LoadCurve, "curve")
    x = converted(Fraction, x, "x", OutOfRange)
    pts = curve.points
    if x < pts[0].ratio:
        raise OutOfRange(f"x={x} below the first corner {pts[0].ratio}")
    i = bisect_right(pts, x, key=lambda p: p.ratio)  # the first corner past x
    if i == len(pts):
        return pts[-1].load
    p, q, d = _line(pts[i - 1], pts[i])
    return Fraction(p * x.numerator + q * x.denominator, d * x.denominator)


def _line(a: LoadPoint, b: LoadPoint) -> tuple[int, int, int]:
    """The line through a and b as coprime integers (p, q, d), d > 0:
    load = (p*x + q) / d."""
    (an, ad), (bn, bd) = a.ratio.as_integer_ratio(), b.ratio.as_integer_ratio()
    (un, ud), (vn, vd) = a.load.as_integer_ratio(), b.load.as_integer_ratio()
    # (x_b - x_a) load = (y_b - y_a) x + y_a x_b - y_b x_a, times ad bd ud vd
    p, q = (vn * ud - un * vd) * ad * bd, un * vd * bn * ad - vn * ud * an * bd
    d = (bn * ad - an * bd) * ud * vd
    g = gcd(p, q, d)
    return p // g, q // g, d // g


def scheme_points(k: int, l: int, scheme: str) -> tuple[LoadPoint, ...]:
    """Corner points of a named scheme over memory ratios x = t/K.

    The zero-load corner (1/l, 0) belongs to hkd, sr and t1; rk stops at its
    last integer corner.
    """
    _check_kl(k, l)
    if scheme not in SCHEME_KEYS:
        raise OutOfRange(f"unknown scheme {scheme!r}, know {SCHEME_KEYS}")
    _check_corners(k, l, scheme == "sr")
    load = dict(zip(SCHEME_KEYS, (r_hkd, r_rk, r_sr, r_t1)))[scheme]
    tmax = k // (2 * l) if scheme == "hkd" and k % l else k // l  # hkd's branch without L | K
    pts = [LoadPoint(Fraction(t, k), load(k, l, t)) for t in range(tmax + 1)]
    if scheme != "rk" and pts[-1].ratio != Fraction(1, l):  # else t = K/L already loads 0 there
        pts.append(LoadPoint(Fraction(1, l), Fraction(0)))
    return tuple(pts)


def scheme_curve(k: int, l: int, scheme: str) -> LoadCurve:
    """The envelope of scheme_points, cached for known names; any other name,
    unhashable ones included, goes to scheme_points, which rejects it."""
    _check_kl(k, l)
    if scheme in SCHEME_KEYS:
        return _cached_curve(k, l, scheme)
    return envelope(scheme_points(k, l, scheme))


@lru_cache(maxsize=256, typed=True)
def _cached_curve(k: int, l: int, scheme: str) -> LoadCurve:
    return envelope(scheme_points(k, l, scheme))


def converse_step(k: int, l: int, x) -> Fraction:
    """Conservative step bound at ratio x: the corner bound at t = ceil(xK).

    Valid because the optimum is non-increasing in memory; zero beyond the
    last corner where this converse says nothing.
    """
    x = Fraction(x)
    if x < 0:
        raise OutOfRange(f"x={x} negative")
    t = max(1, ceil(x * k))
    if t > k // l:
        return Fraction(0)
    return converse_bound(k, l, t)


def comparison_table(k: int, l: int, schemes, step) -> tuple[list[str], list[list]]:
    """Grid of envelope loads from x = 0 to 1/l inclusive; exact Fractions.

    Returns (header, rows); each row is [x, load_1, load_2, ...].
    """
    require_ints(k=k, l=l)
    if l < 1:  # k < 1 is left to the curves: the converse alone reads 0 there
        raise OutOfRange(f"k={k}, l={l} must be >= 1")
    schemes = converted(tuple, schemes, "schemes", OutOfRange)
    step = converted(Fraction, step, "step", OutOfRange)
    if step <= 0:
        raise OutOfRange(f"step={step} must be positive")
    num, den = step.numerator, step.denominator
    n = (den - 1) // (num * l) + 1  # grid rows x = i * step below top, then top itself
    _check_terms((n + 1) * (len(schemes) + 1), "table cells")
    _check_corners(max(k, 0), l, "sr" in schemes)
    curves = {name: scheme_curve(k, l, name) for name in schemes if name != "conv"}
    top = Fraction(1, l)
    xs = [*map(Fraction, range(0, n * num, num), repeat(den)), top]
    columns = {
        name: _column(curve, num, den, n) + [envelope_eval(curve, top)]
        for name, curve in curves.items()
    }
    if "conv" in schemes:
        ts = [max(1, -(-i * num * k // den)) for i in range(n)] + [max(1, -(-k // l))]  # ceil(xK)
        firsts = dict(zip(ts, xs))  # each distinct t at its first x, and its bound's binomial bits
        _check_terms(sum(t + 1 for t in firsts) * k.bit_length(), "binomial bits")
        bounds = {t: converse_step(k, l, x) for t, x in firsts.items()}
        columns["conv"] = [bounds[t] for t in ts]
    rows = zip(xs, *map(columns.get, schemes), strict=True)
    return ["m_over_n", *schemes], [list(row) for row in rows]


def _column(curve: LoadCurve, num: int, den: int, n: int) -> list[Fraction]:
    """envelope_eval at x = i * num / den for i in range(n), for a curve whose
    first corner is at 0: each hull segment fills, in one map of Fraction over
    a range of numerators, the rows from the last one filled up to its end."""
    pts, col = curve.points, []
    for a, b in zip(pts, pts[1:]):
        end = min(n, -(-b.ratio.numerator * den // (b.ratio.denominator * num)))
        p, q, d = _line(a, b)
        step = p * num  # never 0: a named curve's least load is at its last corner alone
        col += map(Fraction, range(step * len(col) + q * den, step * end + q * den, step), repeat(d * den))
    return col + [pts[-1].load] * (n - len(col))


def gap_checks(k: int, l: int) -> dict:
    """Report-style comparison of the older schemes against the transform.

    Nothing here asserts; strictness is recorded per point together with the
    hypothesis that licenses it (tests assert on the proven regions only).
    """
    _check_kl(k, l)
    _check_corners(k, l, True)
    tmax = k // l
    report: dict = {"k": k, "l": l}

    if k % l != 0 and tmax >= 1:
        t0 = k // (2 * l)
        rhs = Fraction(k - t0, k - l * t0)
        hkd_curve = scheme_curve(k, l, "hkd")
        t1_curve = scheme_curve(k, l, "t1")
        xs = [Fraction(t, k) for t in range(t0 + 1, tmax + 1)]
        probes = sorted(set(xs) | {(a + b) / 2 for a, b in zip([Fraction(t0, k)] + xs, xs + [Fraction(1, l)])})
        entries = []
        for x in probes:
            num = envelope_eval(hkd_curve, x)
            den = envelope_eval(t1_curve, x)
            ratio = num / den if den else None
            entries.append(
                {"x": x, "ratio": ratio, "strict": ratio is not None and ratio > rhs}
            )
        boundary = envelope_eval(hkd_curve, Fraction(t0, k)) / envelope_eval(
            t1_curve, Fraction(t0, k)
        )
        report["hkd"] = {
            "applicable": True,
            "t0": t0,
            "rhs": rhs,
            "entries": entries,
            "equality_at_boundary": boundary == rhs,
            "all_strict_inside": all(e["strict"] for e in entries),
        }
    else:
        report["hkd"] = {"applicable": False}

    t1s = [r_t1(k, l, t) for t in range(1, tmax + 1)]
    rk_entries = []
    for t, t1 in enumerate(t1s, start=1):
        rk = r_rk(k, l, t)
        rk_entries.append(
            {"t": t, "t1": t1, "rk": rk, "hypothesis": k > (t + 1) * l, "strict": t1 < rk}
        )
    report["rk"] = {
        "entries": rk_entries,
        "all_strict_on_hypothesis": all(
            e["strict"] for e in rk_entries if e["hypothesis"]
        ),
    }

    sr_entries = []
    for t, t1 in enumerate(t1s, start=1):
        proven = Fraction(t, 2) * (1 - Fraction(t * l, k)) >= 1
        sr = r_sr(k, l, t)
        sr_entries.append(
            {"t": t, "t1": t1, "sr": sr, "proven_region": proven, "strict": t1 < sr}
        )
    report["sr"] = {
        "entries": sr_entries,
        "all_strict_on_proven_region": all(
            e["strict"] for e in sr_entries if e["proven_region"]
        ),
    }
    return report
