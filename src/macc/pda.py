"""Placement delivery arrays: the core grid type and its regularity checks.

An array has F' rows and K' columns; every cell is either a star or an
integer from [1, S]. Stars mark cached rows, equal integers mark cells that
share one multicast message. All public coordinates and column/row indices
are 1-based; storage is 0-based. The checks read `Pda.array`: C1 and C4 are
star counts per column and row. C2 and C3 read one index of the integer
cells sorted by value: C2 its distinct values, and C3 (and C5, on the
lifted array) one vectorised test of the pairs of equal integers.
"""

from contextlib import suppress
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import C4Violation, MalformedPda, OutOfRange, ParseError
from .util import is_tuple_of, require_ints, require_type

STAR = 0  # cell value reserved for stars; integers use [1, S]
MAX_LISTED = 1 << 24  # the most absent integers an exhaustive C2 report lists


@dataclass(frozen=True)
class Pda:
    """Immutable F' x K' array over {star} u [1, S] with declared Z and S.

    Building one checks the cells once, in bulk, and keeps them as `array`,
    a read-only int64 array; a cell beyond int64 is a MalformedPda."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]
    z: int
    s: int
    array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        require_ints(MalformedPda, rows=self.rows, cols=self.cols, z=self.z, s=self.s)
        if self.rows < 1 or self.cols < 1:
            raise MalformedPda(f"need at least one row and column, got {self.rows}x{self.cols}")
        if not (0 <= self.z <= self.rows):
            raise MalformedPda(f"Z={self.z} outside [0, {self.rows}]")
        if self.s < 0:
            raise MalformedPda(f"S={self.s} negative")
        if not is_tuple_of(self.entries, self.rows):
            raise MalformedPda(f"entries are not a tuple of {self.rows} rows")
        shaped = all(is_tuple_of(row, self.cols) for row in self.entries)
        cells = list(chain.from_iterable(self.entries)) if shaped else []
        a = None
        if shaped and set(map(type, cells)) <= {int}:
            with suppress(OverflowError):
                a = np.array(cells, np.int64).reshape(self.rows, self.cols)
        if a is None or a.min() < 0 or int(a.max()) > self.s:
            for r, row in enumerate(self.entries, start=1):  # name the first fault
                if not is_tuple_of(row, self.cols):
                    raise MalformedPda(f"row {r} is not a tuple of {self.cols} cells")
                for v in row:
                    if type(v) is not int or not 0 <= v <= self.s:
                        raise MalformedPda(f"cell value {v!r} outside star/[1, {self.s}]")
            raise MalformedPda(f"cell value {max(cells)} beyond int64")
        a.flags.writeable = False
        object.__setattr__(self, "array", a)

    def at(self, row: int, col: int) -> int:
        """Cell at 1-based (row, col); STAR or an integer in [1, S]."""
        return self.entries[row - 1][col - 1]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the three defining conditions with counterexamples.

    Counterexample shapes (all 1-based):
      c1: (col, star_count)        column whose star count differs from Z
      c2: (value,)                 integer in [1, S] that never occurs
      c3: ((r1, c1), (r2, c2))     equal-integer pair violating the crossing rule
    Only the first counterexample per condition is kept unless the report was
    built exhaustively.
    """

    c1_ok: bool
    c2_ok: bool
    c3_ok: bool
    c1_counterexamples: tuple = ()
    c2_counterexamples: tuple = ()
    c3_counterexamples: tuple = ()
    exhaustive: bool = False

    @property
    def ok(self) -> bool:
        return self.c1_ok and self.c2_ok and self.c3_ok


def _integer_cells(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of a's integer cells, stably sorted by value
    from row-major order, so each value's cells stay row-major."""
    pos = np.flatnonzero(a)
    values = a.ravel()[pos]
    order = np.argsort(values, kind="stable")
    return *np.divmod(pos[order], a.shape[1]), values[order]


def _clashes(a: np.ndarray, cells, exhaustive: bool = False) -> list[tuple]:
    """Cell pairs ((r1, c1), (r2, c2)), 1-based, of equal integers of grid a
    that break the crossing rule, given _integer_cells(a).

    Equal integers must sit in distinct rows and columns with stars at
    (r1, c2) and (r2, c1). The star test alone covers distinctness: a shared
    row or column puts the integer itself at a crossing. Sorted cells i and
    i + d of one value pair up, for d = 1, 2, ... while a value has d + 1
    cells, and the clashes are listed by (i, i + d): by ascending integer,
    then row-major. Only the first is returned unless exhaustive; short of
    exhaustive, only cells before the first clash found are paired further."""
    rows, cols, values = cells
    found, end = [], len(values)
    for d in range(1, len(values)):
        i = np.flatnonzero(values[:min(end, len(values) - d)] == values[d:d + end])
        if not i.size:
            break
        bad = i[(a[rows[i], cols[i + d]] != STAR) | (a[rows[i + d], cols[i]] != STAR)]
        if bad.size:
            found.append((bad, bad + d))
            if not exhaustive:
                end = int(bad[0])
    if not found:
        return []
    i, j = (np.concatenate(x) for x in zip(*found))
    order = np.lexsort((j, i))[: None if exhaustive else 1]
    i, j = i[order], j[order]
    ends = np.stack([rows[i], cols[i], rows[j], cols[j]], axis=1) + 1
    return [((r1, c1), (r2, c2)) for r1, c1, r2, c2 in ends.tolist()]


def _absent(values: np.ndarray, s: int, exhaustive: bool = False) -> list[int]:
    """Integers of [1, S] that no cell holds, given the sorted values of an
    array's integer cells (_integer_cells); C2 holds when there are none. A
    lift keeps every integer cell, so this is also C2 of any lift.

    Only the least is listed unless exhaustive, at a cost bounded by the cell
    count, whatever S: n cells hold at most n integers, so one of [1, n + 1]
    is absent when S > n. An exhaustive list of more than MAX_LISTED integers
    raises OutOfRange instead of being built."""
    missing = s - int(np.count_nonzero(np.diff(values, prepend=STAR)))
    if exhaustive and missing > MAX_LISTED:
        raise OutOfRange(f"S={s} leaves {missing} integers absent, more than the "
                         f"{MAX_LISTED} an exhaustive report lists")
    top = s if exhaustive else min(s, values.size + 1)
    held = np.zeros(top + 1, bool)
    held[values[values <= top]] = True
    absent = np.flatnonzero(~held[1:]) + 1
    return absent.tolist() if exhaustive else absent[:1].tolist()


def validate_pda(p: Pda, exhaustive: bool = False) -> ValidationReport:
    """Check the three defining conditions and report counterexamples; C2
    and C3 read one index of the integer cells. An exhaustive report raises
    OutOfRange when C2 would list more than MAX_LISTED integers."""
    require_type(p, Pda, "validate_pda's array")
    a = p.array
    stars = (a == STAR).sum(axis=0).tolist()
    c1 = [(c, n) for c, n in enumerate(stars, start=1) if n != p.z]
    if not exhaustive:
        c1 = c1[:1]
    cells = _integer_cells(a)
    c2 = [(v,) for v in _absent(cells[2], p.s, exhaustive)]
    c3 = _clashes(a, cells, exhaustive)

    return ValidationReport(
        c1_ok=not c1,
        c2_ok=not c2,
        c3_ok=not c3,
        c1_counterexamples=tuple(c1),
        c2_counterexamples=tuple(c2),
        c3_counterexamples=tuple(c3),
        exhaustive=exhaustive,
    )


@dataclass(frozen=True)
class StarProfile:
    """Per-row star columns plus their index-wise extremes.

    star_sets[j] lists the starred columns of row j+1 in ascending order;
    every row carries the same count t. a[h]/b[h] are the minimum/maximum
    h-th starred column over all rows (1-based h in [1, t]).
    """

    star_sets: tuple[tuple[int, ...], ...]
    t: int
    a: tuple[int, ...]
    b: tuple[int, ...]


def star_profile(p: Pda) -> StarProfile:
    """Extract the uniform star layout; rows must agree on the star count,
    else C4Violation."""
    require_type(p, Pda, "star_profile's array")
    star = p.array == STAR
    counts = star.sum(axis=1)
    if counts.min() != counts.max():
        raise C4Violation(f"row star counts differ: {sorted(set(counts.tolist()))}")
    t = int(counts[0])
    cols = np.nonzero(star)[1].reshape(p.rows, t) + 1  # row-major, so each row ascends
    sets = tuple(map(tuple, cols.tolist()))
    a, b = tuple(cols.min(axis=0).tolist()), tuple(cols.max(axis=0).tolist())
    return StarProfile(star_sets=sets, t=t, a=a, b=b)


def check_c4(p: Pda) -> bool:
    """True when K'Z/F' is an integer and every row has exactly that many stars."""
    require_type(p, Pda, "check_c4's array")
    if (p.cols * p.z) % p.rows != 0:
        return False
    t = (p.cols * p.z) // p.rows
    return bool(((p.array == STAR).sum(axis=1) == t).all())


def serialize_pda(p: Pda) -> str:
    """Render the canonical text form: 'K' F' Z S' header then F' token rows."""
    require_type(p, Pda, "serialize_pda's array")
    values = np.sort(p.array, axis=None)
    used = values[np.diff(values, prepend=-1) != 0]  # a token per value held: any S is cheap
    tokens = np.array(["*" if v == STAR else str(v) for v in used.tolist()], dtype=object)
    lines = [f"{p.cols} {p.rows} {p.z} {p.s}"]
    lines += [" ".join(row) for row in tokens[np.searchsorted(used, p.array)].tolist()]
    return "\n".join(lines) + "\n"


def parse_pda_with_map(text: str) -> tuple[Pda, dict[int, int] | None]:
    """Parse the text form; gapped integer alphabets are renumbered.

    Returns the array and, when renumbering happened, the old->new value map
    (ascending order preserving). Raises ParseError on malformed input.
    """
    require_type(text, str, "array text", ParseError)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty input")
    head = lines[0].split()
    if len(head) != 4:
        raise ParseError(f"header needs 4 integers (K' F' Z S), got {lines[0]!r}")
    try:
        cols, rows, z, s = (int(x) for x in head)
    except ValueError as e:
        raise ParseError(f"bad header {lines[0]!r}") from e
    body = lines[1:]
    if len(body) != rows:
        raise ParseError(f"expected {rows} data rows, found {len(body)}")

    split = [ln.split() for ln in body]
    short = next((i for i, toks in enumerate(split) if len(toks) != cols), rows)
    tokens = list(chain.from_iterable(split[:short]))  # the rows before the first short one
    values = {"*": STAR}
    for tok in dict.fromkeys(tokens):  # each distinct token once, in order of first appearance
        if tok in values:
            continue
        try:
            values[tok] = int(tok)
        except ValueError as e:
            raise ParseError(f"row {tokens.index(tok) // cols + 1}: bad token {tok!r}") from e
        if not (1 <= values[tok] <= s):
            raise ParseError(
                f"row {tokens.index(tok) // cols + 1}: value {values[tok]} outside [1, {s}]"
            )
    if short < rows:
        raise ParseError(f"row {short + 1} has {len(split[short])} tokens, expected {cols}")

    used = sorted(set(values.values()) - {STAR})
    relabel = None
    if used != list(range(1, len(used) + 1)) or s != len(used):
        relabel = {old: new for new, old in enumerate(used, start=1)}
        values = {tok: relabel.get(v, STAR) for tok, v in values.items()}
        s = len(used)
    grid = zip(*[map(values.__getitem__, tokens)] * cols)  # the rows, cols cells each
    try:
        p = Pda(rows=rows, cols=cols, entries=tuple(grid), z=z, s=s)
    except MalformedPda as e:
        raise ParseError(f"inconsistent header {lines[0]!r}: {e}") from e
    return p, relabel


def parse_pda(text: str) -> Pda:
    """Parse the text form, discarding any renumbering record."""
    return parse_pda_with_map(text)[0]
