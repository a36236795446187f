"""Lift a shared-link array to a cyclic multiaccess scheme.

K cache nodes serve K cache-less users; user k reads nodes k..k+L-1
cyclically. Round 1 comes from the base array by star expansion: each star
of a base row becomes L cells (L-1 uncached nodes, then the caching node)
and each integer stays one cell. So the round-1 delivery array is the base
array with every star widened to L stars, and C5 is the crossing rule C3 on
it (`check_c5`). Rounds 2..K are cyclic column shifts of round 1 and are
never materialized in files.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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
    constituents,
    crossing_violations,
    missing_values,
    parse_pda,
    serialize_pda,
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
class RoundArray:
    """One round's F' x K grid, columns indexing nodes or users.

    Placement grids are True where the node caches the row, retrieve grids
    True where the user can fetch it; delivery grids hold STAR where the row
    is retrievable, else the integer of the message that carries it.
    """

    round: int
    grid: tuple[tuple, ...]

    @property
    def star_sets(self) -> tuple[tuple[int, ...], ...]:
        """Per row, the columns of its True cells (placement and retrieve grids)."""
        return tuple(
            tuple(c for c, v in enumerate(row, start=1) if v) for row in self.grid
        )


def _expand(p: Pda, star_cells: tuple, integer_cell) -> tuple[tuple, ...]:
    """The base rows with each star widened to star_cells and each integer v
    replaced by the one cell integer_cell(v)."""
    return tuple(
        tuple(x for v in row for x in (star_cells if v == STAR else (integer_cell(v),)))
        for row in p.entries
    )


def node_placement(p: Pda, k: int, l: int) -> RoundArray:
    """Widen each base star to l-1 uncached nodes and then one cached node."""
    if k < 1 or l < 1:
        raise OutOfRange(f"k={k}, l={l} must be >= 1")
    if not check_c4(p):
        raise C4Violation("base array must have a uniform per-row star count")
    t = p.z * p.cols // p.rows
    if p.cols + t * (l - 1) != k:
        raise DimensionMismatch(
            f"array has {p.cols} columns, need k - t(l-1) = {k - t * (l - 1)}"
        )
    return RoundArray(round=1, grid=_expand(p, (False,) * (l - 1) + (True,), lambda v: False))


def check_c5(p: Pda, l: int) -> bool:
    """C5: the lift at access degree l keeps the crossing rule.

    True when the round-1 delivery array of the lift, the base array with
    every star widened to l stars, has no crossing violation. At l = 1 this
    is the plain crossing condition C3.
    """
    if l < 1:
        raise OutOfRange(f"access degree l={l} must be >= 1")
    if not check_c4(p):
        raise C4Violation("uniform per-row star count required before this check")
    return not crossing_violations(_expand(p, (STAR,) * l, lambda v: v))


def shift_round(base, g: int):
    """Round-g version of a round-1 array by cyclic column shift."""
    if base.round != 1:
        raise OutOfRange("shift_round expects the round-1 array")
    if not base.grid:
        raise DimensionMismatch("shift_round needs a grid with at least one row")
    k = len(base.grid[0])
    if not (1 <= g <= k):
        raise OutOfRange(f"round g={g} outside [1, {k}]")
    if g == 1:
        return base
    return type(base)(round=g, grid=_shift_grid(base.grid, g))


def user_retrieve(c: RoundArray, l: int) -> RoundArray:
    """Mark, per user, the rows present in any of its l consecutive nodes.

    Raises OutOfRange for a cached node in the first l-1 columns and
    DimensionMismatch for an empty grid or when two windows of one row
    overlap.
    """
    if c.round != 1:
        raise OutOfRange("user_retrieve expects the round-1 placement")
    if l < 1:
        raise OutOfRange(f"l={l} must be >= 1")
    if not c.grid:
        raise DimensionMismatch("user_retrieve needs a placement with at least one row")
    k = len(c.grid[0])
    grid = []
    for j, row in enumerate(c.grid, start=1):
        stars = [i + 1 for i, v in enumerate(row) if v]
        cover = set()
        for s in stars:
            if s < l:
                raise OutOfRange(f"row {j}: cached node {s} sits before column l={l}")
            cover.update(range(s - l + 1, s + 1))
        if len(cover) != l * len(stars):
            raise DimensionMismatch(f"row {j}: retrieve windows of nodes {stars} overlap")
        grid.append(tuple(u in cover for u in range(1, k + 1)))
    return RoundArray(round=1, grid=tuple(grid))


def delivery_fill_maps(p: Pda, u: RoundArray) -> tuple[tuple[tuple[int, int], ...], ...]:
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


def user_delivery(p: Pda, u: RoundArray) -> RoundArray:
    """Fill the null cells of the retrieve grid with the base-array integers.

    Raises C3ViolationInQ (condition C5) when the result breaks the
    crossing rule.
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
    bad = crossing_violations(grid)
    if bad:
        raise C3ViolationInQ(f"equal integers clash at {bad[0][0]} and {bad[0][1]}")
    return RoundArray(round=1, grid=tuple(grid))


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
    placement: RoundArray
    retrieve: RoundArray
    delivery: RoundArray

    def c(self, g: int) -> RoundArray:
        return shift_round(self.placement, g)

    def u(self, g: int) -> RoundArray:
        return shift_round(self.retrieve, g)

    def q(self, g: int) -> RoundArray:
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
    """Lift p to K nodes at access degree l.

    Raises ConditionViolation naming the failed condition: "C2" when an
    integer of [1, S] never occurs, "C4" (C4Violation) from node_placement
    and "C5" (C3ViolationInQ) from user_delivery; OutOfRange when k, l and
    n do not fit the array.
    """
    missing = missing_values(p)
    if missing:
        raise ConditionViolation("C2", f"integer {missing[0]} of [1, {p.s}] never occurs")
    params = MultiaccessParams(
        k=k, l=l, t=p.z * p.cols // p.rows, n=k if n is None else n, k_prime=p.cols
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
