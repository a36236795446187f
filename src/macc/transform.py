"""Lift a shared-link array to a cyclic multiaccess scheme.

K cache nodes serve K cache-less users; user k reads nodes k..k+L-1
cyclically. Both round-1 grids are star expansions of the base array: each
star of a base row becomes L cells and each integer stays one cell. In the
placement grid the L cells are L-1 uncached nodes, then the caching node; in
the delivery grid they are L stars, the L users that reach that node, and
the integer cells keep their values. A user's view is the delivery grid's
stars. The lift scatters the base array's integer cells, from the index the
`Pda` keeps, into the delivery grid; the placement grid is never built, and
the JSON form renders it from the base rows. `check_c5` and `Scheme` test
C5, the crossing rule C3 on the delivery grid, on the moved cells, and
`Scheme.plan` lays the same cells out as read-only index arrays; no per-row
recipe is stored. A `Scheme` stores only its inputs (base array, K, L, N),
its params and the lift's cells, so nothing stored can disagree with the
array or break C5. Rounds 2..K are cyclic column shifts of round 1, reached
by offset arithmetic; `Scheme.q` builds a round's grid as tuples only for
`make_case` and `round_grid` in perfbench/.
"""

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial

import numpy as np

from .errors import (
    C3ViolationInQ,
    C4Violation,
    ConditionViolation,
    OutOfRange,
    ParseError,
)
from .pda import (
    STAR,
    Pda,
    _absent,
    _clashes,
    _read_canonical,
    check_c4,
    parse_pda,
    serialize_pda,
)
from .util import is_int, require_ints, require_type

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
        require_ints(k=self.k, l=self.l, t=self.t, n=self.n, k_prime=self.k_prime)
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


@dataclass(frozen=True)
class RoundArray:
    """One round's F' x K delivery grid as tuples, columns indexing users:
    STAR where the user can fetch the row, else the integer of the message
    that carries it. Only Scheme.q builds one, on request; no library path
    reads it."""

    round: int
    grid: tuple[tuple, ...]


def _lift(p: Pda, l: int):
    """The delivery array of a C4 array at access degree l and its
    _integer_cells, from the base array's kept index. Base cell (r, c) goes to column
    c + (l - 1)(stars before c in row r), where a star widens to l cells as
    the module docstring says; the lift keeps each row's order, so the base
    cells' sort order is the lift's."""
    star = p.array == STAR
    at = np.arange(p.cols) + (l - 1) * np.cumsum(star, axis=1)  # stars before c at an integer
    rows, cols, values = p._cells
    cols = at[rows, cols]
    delivery = np.zeros((p.rows, p.cols + (l - 1) * int(star[0].sum())), np.int64)
    delivery[rows, cols] = values
    return delivery, (rows, cols, values)


def check_degree(l: int) -> None:
    """Raise OutOfRange unless the access degree l is an integer >= 1."""
    require_ints(l=l)
    if l < 1:
        raise OutOfRange(f"access degree l={l} must be >= 1")


def check_c5(p: Pda, l: int) -> bool:
    """C5: the lift at access degree l keeps the crossing rule.

    True when the round-1 delivery array of the lift, the base array with
    every star widened to l stars, has no crossing violation. At l = 1 this
    is the plain crossing condition C3.

    It lifts at min(l, K' + 1), so its cost does not grow with l: with
    M = l - 1, base cell (r2, c2) with b2 stars before it lands in column
    c2 + M b2, inside the block of a star of row r1 at column c with h stars
    before it when M(h - b2) <= c2 - c <= M(h - b2 + 1). Once M >= K' > |c2 - c|
    that holds exactly when h = b2 and c2 >= c, or h = b2 - 1 and c2 <= c, so
    the order of (stars before, column) decides every crossing test and C5 at
    any l > K' is C5 at K' + 1.
    """
    check_degree(l)
    if not check_c4(p):
        raise C4Violation("uniform per-row star count required before this check")
    return not _clashes(*_lift(p, min(l, p.cols + 1)))


@dataclass(frozen=True, eq=False)
class DeliveryPlan:
    """Round-1 delivery index that serves every round by offset arithmetic.

    Round g is round 1 with its columns shifted cyclically by g - 1: round-1
    column c is column mod1(c + g - 1, K) of round g, and user u reads round
    g through round-1 column mod1(u - (g - 1), K). Rows and columns are
    0-based here, and every field is a read-only array.

    views: the (F', K) star mask of the delivery grid; views[j, c] is True
    when a user at round-1 column c reads row j from its nodes.

    A list of cell groups is laid out as a rows and a columns intp array of
    shape (longest group, groups), group i in column i; a shorter group is
    padded with cell (0, 0), which a boolean array of that shape marks.
    cell_rows, cell_cols, cell_pad: the cells of s = 1..S, s in column s - 1,
    each group row-major.
    miss_cols, miss_rows, miss_ints: every row outside a view, column by
    column, and the 0-based integer s - 1 of the message that carries it.
    peer_rows, peer_cols, peer_pad: the peer cells of each missing row, the
    other cells of its integer, whose packets a user XORs out of the message.
    C5 puts every peer inside the user's view. No per-row recipe is stored:
    these arrays are the whole of it.
    """

    views: np.ndarray
    cell_rows: np.ndarray
    cell_cols: np.ndarray
    cell_pad: np.ndarray
    miss_cols: np.ndarray
    miss_rows: np.ndarray
    miss_ints: np.ndarray
    peer_rows: np.ndarray
    peer_cols: np.ndarray
    peer_pad: np.ndarray


def _delivery_plan(shape: tuple[int, int], index) -> DeliveryPlan:
    """Index the (F', K) round-1 delivery grid from the lift's integer cells,
    sorted by value and row-major within a value; a view is a column's stars."""
    rows, cols, values = index
    group = values - 1
    counts = np.bincount(group)
    place = np.arange(group.size) - (np.cumsum(counts) - counts)[group]
    size = (counts.max(initial=0), counts.size)
    cell_rows, cell_cols = np.zeros(size, np.intp), np.zeros(size, np.intp)
    cell_pad = np.ones(size, bool)
    cell_rows[place, group], cell_cols[place, group], cell_pad[place, group] = rows, cols, False
    views = np.ones(shape, bool)
    views[rows, cols] = False
    i = np.lexsort((rows, cols))  # the integer cells, column by column
    miss_ints = group[i]
    others = np.arange(max(size[0] - 1, 0))[:, None]
    others = others + (others >= place[i])  # each group's places but the missing cell's own
    arrays = dict(
        views=views, cell_rows=cell_rows, cell_cols=cell_cols, cell_pad=cell_pad,
        miss_cols=cols[i], miss_rows=rows[i], miss_ints=miss_ints,
        peer_rows=cell_rows[others, miss_ints], peer_cols=cell_cols[others, miss_ints],
        peer_pad=cell_pad[others, miss_ints],
    )
    for a in arrays.values():
        a.flags.writeable = False
    return DeliveryPlan(**arrays)


@dataclass(frozen=True)
class Scheme:
    """The lift of base array pda to k nodes at access degree l, n files.

    Only the inputs are stored and compared; n defaults to k. Building the
    scheme runs the checks of the lift, so every Scheme, however made
    (constructor, build_scheme or dataclasses.replace), satisfies C2, C4 and
    C5. It raises OutOfRange, first of all, when k, l or a given n is not an
    int, DimensionMismatch when pda is not a Pda, and OutOfRange when k or l
    is below 1. It then raises ConditionViolation naming the failed
    condition: "C2" when an integer of [1, S] is absent from the array (and
    so from any lift), "C4" (C4Violation) when rows differ in star count,
    and, after the check of K against the array, lifts it and raises "C5"
    (C3ViolationInQ) when the delivery grid breaks the crossing rule.

    Only params and the lift's integer cells are set here; no grid is
    stored. C2 and the lift read the base array's index of its integer
    cells, which the Pda keeps, so validate_pda, check_c5 and the build of
    one array index it once. Delivery and decoding read `plan`, a round-1
    DeliveryPlan of read-only arrays (views, the star mask; no recipe) built
    from the lift's cells alone, which it replaces on first use. `q(g)`
    builds round g's grid by one re-lift and `delivery` is q(1), both kept
    for perfbench/'s make_case and round_grid. Other modules keep what they
    derive from the scheme in `_tables`, also built on first use.
    """

    pda: Pda
    k: int
    l: int
    n: int | None = None
    params: MultiaccessParams = field(init=False, repr=False, compare=False)
    _cells: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p, k, l = self.pda, self.k, self.l
        require_ints(k=k, l=l, n=k if self.n is None else self.n)
        require_type(p, Pda, "scheme base array")
        if k < 1 or l < 1:
            raise OutOfRange(f"k={k}, l={l} must be >= 1")
        missing = _absent(p._cells[2], p.s)
        if missing:
            raise ConditionViolation("C2", f"integer {missing[0]} of [1, {p.s}] never occurs")
        if not check_c4(p):
            raise C4Violation("base array must have a uniform per-row star count")
        put = partial(object.__setattr__, self)
        if self.n is None:
            put("n", k)
        t = p.z * p.cols // p.rows
        put("params", MultiaccessParams(k=k, l=l, t=t, n=self.n, k_prime=p.cols))
        delivery, cells = _lift(p, min(l, k))  # l > K only if starless
        bad = _clashes(delivery, cells)
        if bad:
            raise C3ViolationInQ(f"equal integers clash at {bad[0][0]} and {bad[0][1]}")
        put("_cells", cells)

    def q(self, g: int) -> RoundArray:
        """Round g's delivery grid, built on request by one re-lift: round 1
        with its columns shifted right by g - 1."""
        k = self.params.k
        if not (is_int(g) and 1 <= g <= k):
            raise OutOfRange(f"round g={g!r} outside [1, {k}]")
        delivery = _lift(self.pda, min(self.l, k))[0]
        return RoundArray(round=g, grid=tuple(map(tuple, np.roll(delivery, g - 1, 1).tolist())))

    @property
    def delivery(self) -> RoundArray:
        """The round-1 delivery grid, q(1)."""
        return self.q(1)

    @cached_property
    def plan(self) -> DeliveryPlan:
        plan = _delivery_plan((self.pda.rows, self.params.k), self._cells)
        object.__setattr__(self, "_cells", None)
        return plan

    @cached_property
    def _tables(self) -> dict:
        """Tables derived from the scheme by other modules, each under its
        maker's key and kept like plan; a dataclasses.replace copy starts empty."""
        return {}

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
    """Lift p to K nodes at access degree l; raises as Scheme does."""
    return Scheme(p, k, l, n)


def _arrays_text(scheme: Scheme, pda_text: str) -> dict[str, list[str]]:
    """The round-1 grids as text rows, keyed as in the JSON form: the base
    rows of pda_text, serialize_pda's form, and of the star marks, with each
    star widened as the lift widens it."""
    p = scheme.pda
    l = min(scheme.l, scheme.params.k)  # l > K only if starless, where no star widens
    marks = np.full((p.rows, p.cols + 1), b"\n")  # a row of marks per line
    marks[:, :-1] = np.where(p.array == STAR, b"*", b".")
    marks = marks.tobytes().decode()
    return {
        "node_placement": marks.replace("*", "." * (l - 1) + "*").splitlines(),
        "user_retrieve": marks.replace("*", "*" * l).splitlines(),
        "user_delivery": pda_text.split("\n", 1)[1].replace("*", " ".join("*" * l)).splitlines(),
    }


def scheme_to_json(scheme: Scheme, include_arrays: bool = False) -> str:
    """Serialize with the base array inline; only round-1 arrays are stored."""
    require_type(scheme, Scheme, "scheme")
    text = serialize_pda(scheme.pda)
    doc = {"format": SCHEME_FORMAT, "params": scheme.params.as_dict(), "pda": {"inline": text}}
    if include_arrays:
        doc["arrays"] = _arrays_text(scheme, text)
    return json.dumps(doc, indent=2) + "\n"


def scheme_from_json(text: str, read_file=None) -> Scheme:
    """Rebuild a scheme from its descriptor; arrays are recomputed and, when
    present in the document, cross-checked against the rebuilt ones."""
    require_type(text, str, "scheme text", ParseError)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad scheme JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ParseError("scheme descriptor must be a JSON object")
    if doc.get("format") != SCHEME_FORMAT:
        raise ParseError(f"unknown scheme format {doc.get('format')!r}")
    for name in ("pda", "params", "arrays"):
        if name in doc and not isinstance(doc[name], dict):
            raise ParseError(f"scheme section {name!r} must be an object")
    try:
        pref, params = doc["pda"], doc["params"]
        k, l, n = params["k"], params["l"], params["n"]
    except KeyError as e:
        raise ParseError(f"scheme descriptor missing field: {e}") from e
    require_ints(ParseError, k=k, l=l, n=n)
    source = next((key for key in ("inline", "path") if key in pref), None)
    if source is None:
        raise ParseError("pda section needs 'inline' or 'path'")
    if not isinstance(pref[source], str):
        raise ParseError(f"pda {source} must be a string")
    if source == "inline":
        ptext = pref["inline"]
    elif read_file is None:
        raise ParseError("scheme references an external array file but no reader given")
    else:
        ptext = read_file(pref["path"])
    p = _read_canonical(ptext) if isinstance(ptext, str) else None  # None unless canonical
    scheme = build_scheme(parse_pda(ptext) if p is None else p, k, l, n)
    arrays = doc.get("arrays")
    if arrays:  # canonical text is the rendering they are compared with
        rendered = serialize_pda(scheme.pda) if p is None else ptext
        for name, rows in _arrays_text(scheme, rendered).items():
            stored = arrays.get(name, rows)
            if not isinstance(stored, list):
                raise ParseError(f"stored {name} array must be a list of rows")
            if stored != rows:
                raise ParseError(f"stored {name} array disagrees with the rebuilt one")
    return scheme
