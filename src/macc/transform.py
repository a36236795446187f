"""Lift a shared-link array to a cyclic multiaccess scheme.

K cache nodes serve K cache-less users; user k reads nodes k..k+L-1
cyclically. Round 1 arrays are built from the base array in three steps
(node placement, user retrieve, user delivery); rounds 2..K are cyclic
column shifts of round 1 and are never materialized in files.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .errors import (
    C3ViolationInQ,
    C4Violation,
    ConditionViolation,
    DimensionMismatch,
    OutOfRange,
    ParseError,
    RowCountMismatch,
    UndecodablePacket,
)
from .pda import (
    STAR,
    Pda,
    check_c4,
    check_c5,
    constituents,
    parse_pda,
    serialize_pda,
    star_profile,
)
from .util import mod1

SCHEME_FORMAT = "macc-scheme-v1"


@dataclass(frozen=True)
class MultiaccessParams:
    """Instance parameters; k_prime is pinned to k - t*(l - 1)."""

    k: int
    l: int
    t: int
    n: int
    k_prime: int

    def __post_init__(self):
        if self.k < 1 or self.l < 1:
            raise OutOfRange(f"k={self.k}, l={self.l} must be >= 1")
        if self.t < 0 or self.t * self.l > self.k:
            raise OutOfRange(f"t={self.t} outside [0, {self.k // self.l}]")
        if self.k_prime != self.k - self.t * (self.l - 1):
            raise OutOfRange(
                f"k_prime={self.k_prime} != k - t(l-1) = {self.k - self.t * (self.l - 1)}"
            )
        if self.n < self.k:
            raise OutOfRange(f"need at least as many files as users, n={self.n} < k={self.k}")

    def as_dict(self) -> dict:
        return {"k": self.k, "l": self.l, "t": self.t, "n": self.n, "k_prime": self.k_prime}


def _shift_grid(grid, g: int):
    """Column c of round g is column mod1(c - (g - 1), K) of round 1."""
    k = len(grid[0])
    return tuple(
        tuple(row[mod1(c - (g - 1), k) - 1] for c in range(1, k + 1)) for row in grid
    )


@dataclass(frozen=True)
class NodePlacementArray:
    """Star grid over nodes: True where the node caches the row."""

    round: int
    grid: tuple[tuple[bool, ...], ...]

    @property
    def star_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(c for c, v in enumerate(row, start=1) if v) for row in self.grid
        )


@dataclass(frozen=True)
class UserRetrieveArray:
    """Star grid over users: True where the user can fetch the row."""

    round: int
    grid: tuple[tuple[bool, ...], ...]

    @property
    def star_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(c for c, v in enumerate(row, start=1) if v) for row in self.grid
        )

    @property
    def null_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(c for c, v in enumerate(row, start=1) if not v) for row in self.grid
        )


@dataclass(frozen=True)
class UserDeliveryArray:
    """Delivery grid over users: STAR where retrievable, else a message id."""

    round: int
    grid: tuple[tuple[int, ...], ...]


def node_placement(p: Pda, k: int, l: int) -> NodePlacementArray:
    """Spread the h-th star of each row forward by h(l-1) node positions."""
    if k < 1 or l < 1:
        raise OutOfRange(f"k={k}, l={l} must be >= 1")
    if not check_c4(p):
        raise C4Violation("base array must have a uniform per-row star count")
    prof = star_profile(p)
    if p.cols + prof.t * (l - 1) != k:
        raise DimensionMismatch(
            f"array has {p.cols} columns, need k - t(l-1) = {k - prof.t * (l - 1)}"
        )
    grid = []
    for stars in prof.star_sets:
        cols = [a + h * (l - 1) for h, a in enumerate(stars, start=1)]
        assert all(1 <= c <= k for c in cols), cols
        row = [False] * k
        for c in cols:
            row[c - 1] = True
        grid.append(tuple(row))
    return NodePlacementArray(round=1, grid=tuple(grid))


def shift_round(base, g: int):
    """Round-g version of a round-1 array by cyclic column shift."""
    if base.round != 1:
        raise OutOfRange("shift_round expects the round-1 array")
    k = len(base.grid[0])
    if not (1 <= g <= k):
        raise OutOfRange(f"round g={g} outside [1, {k}]")
    if g == 1:
        return base
    return type(base)(round=g, grid=_shift_grid(base.grid, g))


def user_retrieve(c: NodePlacementArray, l: int) -> UserRetrieveArray:
    """Mark, per user, the rows present in any of its l consecutive nodes."""
    if c.round != 1:
        raise OutOfRange("user_retrieve expects the round-1 placement")
    if l < 1:
        raise OutOfRange(f"l={l} must be >= 1")
    k = len(c.grid[0])
    grid = []
    for row in c.grid:
        stars = [i + 1 for i, v in enumerate(row) if v]
        cover = set()
        for s in stars:
            assert s - l + 1 >= 1, (s, l)
            cover.update(range(s - l + 1, s + 1))
        grid.append(tuple(u in cover for u in range(1, k + 1)))
        assert sum(grid[-1]) == l * len(stars), "retrieve windows must not overlap"
    return UserRetrieveArray(round=1, grid=tuple(grid))


def _c3_violation(grid) -> tuple | None:
    """First crossing violation among equal integers of a star/int grid."""
    pos = constituents(grid)
    for v in sorted(pos):
        for (r1, c1), (r2, c2) in combinations(pos[v], 2):
            if (
                r1 == r2
                or c1 == c2
                or grid[r1 - 1][c2 - 1] != STAR
                or grid[r2 - 1][c1 - 1] != STAR
            ):
                return ((r1, c1), (r2, c2))
    return None


def delivery_fill_maps(p: Pda, u: UserRetrieveArray) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per row, the (filled user column, source array column) pairs in order.

    The h-th null column of a user-retrieve row receives the h-th integer of
    the corresponding base-array row.
    """
    if p.rows != len(u.grid):
        raise RowCountMismatch(f"{p.rows} base rows vs {len(u.grid)} retrieve rows")
    maps = []
    for j in range(p.rows):
        nulls = [c for c, v in enumerate(u.grid[j], start=1) if not v]
        srcs = [c for c, v in enumerate(p.entries[j], start=1) if v != STAR]
        if len(nulls) != len(srcs):
            raise DimensionMismatch(
                f"row {j + 1}: {len(nulls)} nulls vs {len(srcs)} integers"
            )
        maps.append(tuple(zip(nulls, srcs)))
    return tuple(maps)


def user_delivery(p: Pda, u: UserRetrieveArray) -> UserDeliveryArray:
    """Fill the null cells of the retrieve grid with the base-array integers.

    The result must satisfy the crossing condition; a failure means the base
    array lacked the multiaccess crossing property.
    """
    if u.round != 1:
        raise OutOfRange("user_delivery expects the round-1 retrieve array")
    maps = delivery_fill_maps(p, u)
    grid = []
    for j, row in enumerate(u.grid):
        out = [STAR if v else 0 for v in row]
        for fill_col, src_col in maps[j]:
            out[fill_col - 1] = p.entries[j][src_col - 1]
        grid.append(tuple(out))
    bad = _c3_violation(grid)
    if bad is not None:
        raise C3ViolationInQ(f"equal integers clash at {bad[0]} and {bad[1]}")
    return UserDeliveryArray(round=1, grid=tuple(grid))


# How a user rebuilds one row outside its view: the integer s of the message
# that carries it, the other cells (row, column) of s, whose packets it XORs
# out, and the 1-based row of the first of them outside the view (None when
# the user sees them all).
PlanStep = tuple[int, tuple[tuple[int, int], ...], int | None]


@dataclass(frozen=True)
class DeliveryPlan:
    """Round-1 delivery index that serves every round by offset arithmetic.

    Round g is round 1 with its columns shifted cyclically by g - 1: round-1
    column c is column mod1(c + g - 1, K) of round g, and user u reads round
    g through round-1 column mod1(u - (g - 1), K). Rows and columns are
    0-based here.

    cells[s]: the round-1 cells (row, column) holding integer s, row-major.
    views[c]: the rows a user at round-1 column c reads from its nodes.
    recipes[c][j]: None when row j is in views[c], else its PlanStep.
    """

    cells: dict[int, tuple[tuple[int, int], ...]]
    views: tuple[frozenset[int], ...]
    recipes: tuple[tuple[PlanStep | None, ...], ...]


def _delivery_plan(scheme: "Scheme") -> DeliveryPlan:
    """Index the round-1 arrays; a row outside a view must carry an integer."""
    q1 = scheme.delivery.grid
    cells = {
        s: tuple((j - 1, c - 1) for j, c in group)
        for s, group in constituents(q1).items()
    }
    views = tuple(
        frozenset(j for j, row in enumerate(scheme.retrieve.grid) if row[c])
        for c in range(scheme.params.k)
    )
    recipes = []
    for c, view in enumerate(views):
        steps: list[PlanStep | None] = []
        for j, row in enumerate(q1):
            if j in view:
                steps.append(None)
                continue
            s = row[c]
            if s == STAR:
                raise UndecodablePacket(
                    f"row {j + 1} of user column {c + 1} is outside the view "
                    "but carries no integer"
                )
            peers = tuple(cell for cell in cells[s] if cell != (j, c))
            outside = next((jj + 1 for jj, _ in peers if jj not in view), None)
            steps.append((s, peers, outside))
        recipes.append(tuple(steps))
    return DeliveryPlan(cells=cells, views=views, recipes=tuple(recipes))


@dataclass(frozen=True)
class Scheme:
    """A built multiaccess instance: base array plus the round-1 arrays.

    Rounds 2..K are never stored. `c`, `u` and `q` build a shifted copy of a
    round-1 array on request; delivery and decoding instead read `plan`, a
    round-1 index built on first use and cached on the instance. The plan is
    not a field, so equality and the JSON form see only the arrays.
    """

    params: MultiaccessParams
    pda: Pda
    placement: NodePlacementArray
    retrieve: UserRetrieveArray
    delivery: UserDeliveryArray

    def c(self, g: int) -> NodePlacementArray:
        return shift_round(self.placement, g)

    def u(self, g: int) -> UserRetrieveArray:
        return shift_round(self.retrieve, g)

    def q(self, g: int) -> UserDeliveryArray:
        return shift_round(self.delivery, g)

    @cached_property
    def plan(self) -> DeliveryPlan:
        """Raises UndecodablePacket when a row outside a view has no integer."""
        return _delivery_plan(self)

    @property
    def subpacketization(self) -> int:
        return self.params.k * self.pda.rows

    @property
    def load(self) -> Fraction:
        return Fraction(self.pda.s, self.pda.rows)

    @property
    def memory_ratio(self) -> Fraction:
        return Fraction(self.pda.z * self.pda.cols, self.params.k * self.pda.rows)


def build_scheme(p: Pda, k: int, l: int, n: int | None = None) -> Scheme:
    """Assemble the scheme after checking both regularity conditions."""
    if not check_c4(p):
        raise ConditionViolation("C4", "per-row star count is not uniform K'Z/F'")
    if not check_c5(p, l):
        raise ConditionViolation("C5", f"crossing condition fails at access degree {l}")
    prof = star_profile(p)
    params = MultiaccessParams(
        k=k, l=l, t=prof.t, n=k if n is None else n, k_prime=p.cols
    )
    c1 = node_placement(p, k, l)
    u1 = user_retrieve(c1, l)
    q1 = user_delivery(p, u1)
    return Scheme(params=params, pda=p, placement=c1, retrieve=u1, delivery=q1)


def _star_rows_text(grid) -> list[str]:
    return ["".join("*" if v else "." for v in row) for row in grid]


def _delivery_rows_text(grid) -> list[str]:
    return [" ".join("*" if v == STAR else str(v) for v in row) for row in grid]


def scheme_to_json(scheme: Scheme, include_arrays: bool = False) -> str:
    """Serialize with the base array inline; only round-1 arrays are stored."""
    doc: dict = {
        "format": SCHEME_FORMAT,
        "params": scheme.params.as_dict(),
        "pda": {"inline": serialize_pda(scheme.pda)},
    }
    if include_arrays:
        doc["arrays"] = {
            "node_placement": _star_rows_text(scheme.placement.grid),
            "user_retrieve": _star_rows_text(scheme.retrieve.grid),
            "user_delivery": _delivery_rows_text(scheme.delivery.grid),
        }
    return json.dumps(doc, indent=2) + "\n"


def scheme_from_json(text: str, read_file=None) -> Scheme:
    """Rebuild a scheme from its descriptor; arrays are recomputed and, when
    present in the document, cross-checked against the rebuilt ones."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad scheme JSON: {e}") from e
    if doc.get("format") != SCHEME_FORMAT:
        raise ParseError(f"unknown scheme format {doc.get('format')!r}")
    try:
        pref = doc["pda"]
        params = doc["params"]
        k, l, n = params["k"], params["l"], params["n"]
    except (KeyError, TypeError) as e:
        raise ParseError(f"scheme descriptor missing field: {e}") from e
    for name, v in (("k", k), ("l", l), ("n", n)):
        if isinstance(v, bool) or not isinstance(v, int):
            raise ParseError(f"scheme parameter {name}={v!r} is not an integer")
    if "inline" in pref:
        ptext = pref["inline"]
    elif "path" in pref:
        if read_file is None:
            raise ParseError("scheme references an external array file but no reader given")
        ptext = read_file(pref["path"])
    else:
        raise ParseError("pda section needs 'inline' or 'path'")
    scheme = build_scheme(parse_pda(ptext), k, l, n)
    arrays = doc.get("arrays")
    if arrays:
        want = {
            "node_placement": _star_rows_text(scheme.placement.grid),
            "user_retrieve": _star_rows_text(scheme.retrieve.grid),
            "user_delivery": _delivery_rows_text(scheme.delivery.grid),
        }
        for name, rows in want.items():
            if name in arrays and list(arrays[name]) != rows:
                raise ParseError(f"stored {name} array disagrees with the rebuilt one")
    return scheme
