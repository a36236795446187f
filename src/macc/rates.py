"""Load formulas, the fixed-placement converse, and envelope machinery.

Everything is exact: memory ratios and loads are Fractions end to end.
Floats only appear when a table is rendered to CSV.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb

from .errors import EmptyInput, OutOfRange
from .util import comb0

SCHEME_KEYS = ("hkd", "rk", "sr", "t1")


def _check_klt(k: int, l: int, t: int, t_max: int) -> None:
    if k < 1 or l < 1:
        raise OutOfRange(f"k={k}, l={l} must be >= 1")
    if not (0 <= t <= t_max):
        raise OutOfRange(f"t={t} outside [0, {t_max}]")


def r_mn(k: int, t: int) -> Fraction:
    """Shared-link baseline load at memory point t/K."""
    if k < 1:
        raise OutOfRange(f"k={k} must be >= 1")
    if not (0 <= t <= k):
        raise OutOfRange(f"t={t} outside [0, {k}]")
    return Fraction(k - t, t + 1)


def r_hkd(k: int, l: int, t: int) -> Fraction:
    """Reduction-to-shared-link scheme; branch depends on whether l | k."""
    if k % l == 0:
        _check_klt(k, l, t, k // l)
        return Fraction(k - t * l, t + 1)
    _check_klt(k, l, t, k // (2 * l))
    return Fraction(k - t, t + 1)


def r_rk(k: int, l: int, t: int) -> Fraction:
    """MDS-precoded scheme."""
    _check_klt(k, l, t, k // l)
    return Fraction((k - t * l) ** 2, k)


def r_sr(k: int, l: int, t: int) -> Fraction:
    """Low-subpacketization scheme; three branches on K - tL."""
    _check_klt(k, l, t, k // l)
    r = k - t * l
    if r == 1:
        return Fraction(1, k)
    if r % 2 == 0:
        return sum(
            (Fraction(2, 1 + ceil(Fraction(t * l, h))) for h in range((r + 2) // 2, r + 1)),
            Fraction(0),
        )
    head = Fraction(1, ceil(Fraction(2 * t * l, r + 1)) + 1)
    return head + sum(
        (Fraction(2, 1 + ceil(Fraction(t * l, h))) for h in range((r + 3) // 2, r + 1)),
        Fraction(0),
    )


def r_t1(k: int, l: int, t: int) -> Fraction:
    """Cyclic-transform scheme at corner t."""
    _check_klt(k, l, t, k // l)
    return Fraction(k - t * l, t + 1)


def f_t1(k: int, l: int, t: int) -> int:
    """Subpacketization of the cyclic-transform scheme at corner t."""
    _check_klt(k, l, t, k // l)
    return k * comb(k - t * (l - 1), t)


def r_t3(q: int) -> Fraction:
    """Partition-family load; independent of m and l."""
    if q < 2:
        raise OutOfRange(f"q={q} must be >= 2")
    return Fraction(q - 1)


def r_cor1(k: int, l: int, t: int) -> Fraction:
    """Compressed load of the binomial instantiation on its validity window."""
    if not (t * l + 1 < k < t * l + l):
        raise OutOfRange(f"need tL+1 < K < tL+L, got K={k}, L={l}, t={t}")
    return Fraction((k - t * l) ** 2, k)


def r_cor2(q: int, l: int) -> Fraction:
    """Compressed load of the partition instantiation when l >= q."""
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

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "l": self.l,
            "t": self.t,
            "x": f"{self.x.numerator}/{self.x.denominator}",
            "bound": f"{self.bound.numerator}/{self.bound.denominator}",
        }


def converse_bound(k: int, l: int, t: int) -> Fraction:
    """Lower bound on the optimal load under the gap-constrained placement."""
    if k < 1 or l < 1:
        raise OutOfRange(f"k={k}, l={l} must be >= 1")
    if not (1 <= t <= k // l):
        raise OutOfRange(f"t={t} outside [1, {k // l}]")
    x = t * l - t + 1
    num = (
        comb0(k - l - x, t - 1)
        + (k - l - 1) * comb0(k - l - x + 1, t)
        - comb0(k - l - x, t + 1)
    )
    den = k * comb0(k - x, t - 1)
    assert den > 0, (k, l, t)
    return Fraction(num, den)


def converse_instance(k: int, l: int, t: int) -> ConverseInstance:
    return ConverseInstance(k=k, l=l, t=t, x=Fraction(t, k), bound=converse_bound(k, l, t))


def count_sq(k: int, l: int, t: int, q: int) -> int:
    """Closed-form count of gap-constrained t-subsets used by the converse."""
    if not (1 <= t <= k // l):
        raise OutOfRange(f"t={t} outside [1, {k // l}]")
    if not (t * l <= q <= k):
        raise OutOfRange(f"q={q} outside [tL, K] = [{t * l}, {k}]")
    x = t * l - t + 1
    val = Fraction(comb0(q - x, t - 1) * q, t)
    assert val.denominator == 1, (k, l, t, q, val)
    return int(val)


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
    pts = [p if isinstance(p, LoadPoint) else LoadPoint(Fraction(p[0]), Fraction(p[1])) for p in points]
    if not pts:
        raise EmptyInput("no corner points")
    pts.sort(key=lambda p: (p.ratio, p.load))
    for a, b in zip(pts, pts[1:]):
        if a.ratio == b.ratio:
            raise ValueError(f"duplicate memory ratio {a.ratio}")
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


def envelope_eval(curve: LoadCurve, x) -> Fraction:
    """Interpolate on the hull; flat beyond the last corner, error below the first."""
    x = Fraction(x)
    pts = curve.points
    if x < pts[0].ratio:
        raise OutOfRange(f"x={x} below the first corner {pts[0].ratio}")
    if x >= pts[-1].ratio:
        return pts[-1].load
    for a, b in zip(pts, pts[1:]):
        if a.ratio <= x <= b.ratio:
            w = (x - a.ratio) / (b.ratio - a.ratio)
            return a.load + w * (b.load - a.load)
    raise AssertionError("unreachable")


def scheme_points(k: int, l: int, scheme: str) -> tuple[LoadPoint, ...]:
    """Corner points of a named scheme over memory ratios x = t/K.

    The zero-load corner (1/l, 0) belongs to hkd, sr and t1; rk stops at its
    last integer corner.
    """
    if k < 1 or l < 1:
        raise OutOfRange(f"k={k}, l={l} must be >= 1")
    tmax = k // l
    pts: list[LoadPoint] = []
    if scheme == "hkd":
        if k % l == 0:
            pts = [LoadPoint(Fraction(t, k), r_hkd(k, l, t)) for t in range(tmax + 1)]
        else:
            pts = [
                LoadPoint(Fraction(t, k), r_hkd(k, l, t))
                for t in range(k // (2 * l) + 1)
            ]
        pts.append(LoadPoint(Fraction(1, l), Fraction(0)))
    elif scheme == "rk":
        pts = [LoadPoint(Fraction(t, k), r_rk(k, l, t)) for t in range(tmax + 1)]
    elif scheme == "sr":
        pts = [LoadPoint(Fraction(t, k), r_sr(k, l, t)) for t in range(tmax + 1)]
        pts.append(LoadPoint(Fraction(1, l), Fraction(0)))
    elif scheme == "t1":
        pts = [LoadPoint(Fraction(t, k), r_t1(k, l, t)) for t in range(tmax + 1)]
        pts.append(LoadPoint(Fraction(1, l), Fraction(0)))
    else:
        raise OutOfRange(f"unknown scheme {scheme!r}, know {SCHEME_KEYS}")
    dedup: dict[Fraction, Fraction] = {}
    for p in pts:
        if p.ratio not in dedup or p.load < dedup[p.ratio]:
            dedup[p.ratio] = p.load
    return tuple(LoadPoint(r, dedup[r]) for r in sorted(dedup))


def scheme_curve(k: int, l: int, scheme: str) -> LoadCurve:
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
    step = Fraction(step)
    if step <= 0:
        raise OutOfRange(f"step={step} must be positive")
    curves = {}
    for name in schemes:
        if name == "conv":
            continue
        curves[name] = scheme_curve(k, l, name)
    header = ["m_over_n"] + list(schemes)
    rows = []
    x = Fraction(0)
    top = Fraction(1, l)
    while True:
        row = [x]
        for name in schemes:
            if name == "conv":
                row.append(converse_step(k, l, x))
            else:
                row.append(envelope_eval(curves[name], x))
        rows.append(row)
        if x >= top:
            break
        x = min(x + step, top)
    return header, rows


def gap_checks(k: int, l: int) -> dict:
    """Report-style comparison of the older schemes against the transform.

    Nothing here asserts; strictness is recorded per point together with the
    hypothesis that licenses it (tests assert on the proven regions only).
    """
    if k < 1 or l < 1:
        raise OutOfRange(f"k={k}, l={l} must be >= 1")
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

    rk_entries = []
    for t in range(1, tmax + 1):
        rk_entries.append(
            {
                "t": t,
                "t1": r_t1(k, l, t),
                "rk": r_rk(k, l, t),
                "hypothesis": k > (t + 1) * l,
                "strict": r_t1(k, l, t) < r_rk(k, l, t),
            }
        )
    report["rk"] = {
        "entries": rk_entries,
        "all_strict_on_hypothesis": all(
            e["strict"] for e in rk_entries if e["hypothesis"]
        ),
    }

    sr_entries = []
    for t in range(1, tmax + 1):
        proven = Fraction(t, 2) * (1 - Fraction(t * l, k)) >= 1
        sr_entries.append(
            {
                "t": t,
                "t1": r_t1(k, l, t),
                "sr": r_sr(k, l, t),
                "proven_region": proven,
                "strict": r_t1(k, l, t) < r_sr(k, l, t),
            }
        )
    report["sr"] = {
        "entries": sr_entries,
        "all_strict_on_proven_region": all(
            e["strict"] for e in sr_entries if e["proven_region"]
        ),
    }
    return report
