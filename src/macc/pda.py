"""Placement delivery arrays: the core grid type and its regularity checks.

An array has F' rows and K' columns; every cell is either a star or an
integer from [1, S]. Stars mark cached rows, equal integers mark cells that
share one multicast message. All public coordinates and column/row indices
are 1-based; storage is 0-based. The checks read `Pda.array`: C1 and C4 are
star counts per column and row. C2 and C3 read the index of the integer
cells sorted by value that a Pda builds on first use and keeps: C2 and
serialize_pda its distinct values, and C3 (and C5, on the lifted array) one
vectorised test of the pairs of equal integers. Canonical text, the form
serialize_pda writes, is read in bulk; any other text token by token.
"""

from contextlib import suppress
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import C4Violation, MalformedPda, OutOfRange, ParseError
from .util import is_tuple_of, require_ints, require_type

STAR = 0  # cell value reserved for stars; integers use [1, S]
MAX_LISTED = 1 << 24  # the most absent integers an exhaustive C2 report lists
_TOKEN_CHARS = str.maketrans("", "", "0123456789* \n")  # all the body of canonical text holds


@dataclass(frozen=True)
class Pda:
    """Immutable F' x K' array over {star} u [1, S] with declared Z and S.

    Building one checks the cells once, in bulk, and keeps them as `array`,
    a read-only int64 array; a cell beyond int64 is a MalformedPda. The
    producers in this package hand over an int64 array they built through
    the private `Pda._of`, which runs the same bulk checks on it and reads
    `entries` off it, so no cell is rebuilt from tuples."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]
    z: int
    s: int
    array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_header(self.rows, self.cols, self.z, self.s)
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

    @classmethod
    def _of(cls, a: np.ndarray, z: int, s: int) -> "Pda":
        """The Pda of the 2-d int64 array a, which the caller gives up: the
        constructor's bulk checks, then a made read-only and entries read off it."""
        if not (isinstance(a, np.ndarray) and a.dtype == np.int64 and a.ndim == 2):
            raise MalformedPda("cells are not a 2-d int64 array")
        _check_header(*a.shape, z, s)
        low, high = int(a.min()), int(a.max())
        if low < 0 or high > s:
            raise MalformedPda(f"cell value {low if low < 0 else high} outside star/[1, {s}]")
        a.flags.writeable = False
        p = object.__new__(cls)
        vars(p).update(rows=a.shape[0], cols=a.shape[1], entries=tuple(map(tuple, a.tolist())),
                       z=z, s=s, array=a)
        return p

    def at(self, row: int, col: int) -> int:
        """Cell at 1-based (row, col); STAR or an integer in [1, S]."""
        return self.entries[row - 1][col - 1]

    @cached_property
    def _cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """_integer_cells(array), built on first use and kept like array."""
        return _integer_cells(self.array)


def _check_header(rows: int, cols: int, z: int, s: int) -> None:
    """Raise MalformedPda unless F' = rows and K' = cols are at least 1, Z
    lies in [0, F'] and S >= 0, all ints."""
    require_ints(MalformedPda, rows=rows, cols=cols, z=z, s=s)
    if rows < 1 or cols < 1:
        raise MalformedPda(f"need at least one row and column, got {rows}x{cols}")
    if not (0 <= z <= rows):
        raise MalformedPda(f"Z={z} outside [0, {rows}]")
    if s < 0:
        raise MalformedPda(f"S={s} negative")


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
    index = *np.divmod(pos[order], a.shape[1]), values[order]
    for x in index:
        x.flags.writeable = False
    return index


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
    flat, at_row = a.ravel(), rows * a.shape[1]  # cell (r, c) is flat[r * K' + c]
    found, end = [], len(values)
    for d in range(1, len(values)):
        i = np.flatnonzero(values[:min(end, len(values) - d)] == values[d:d + end])
        if not i.size:
            break
        j = i + d  # a crossing holds an integer when either of its cells does
        bad = i[(flat[at_row[i] + cols[j]] | flat[at_row[j] + cols[i]]) != STAR]
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
    if exhaustive:
        missing = s - int(np.count_nonzero(np.diff(values, prepend=STAR)))
        if missing > MAX_LISTED:
            raise OutOfRange(f"S={s} leaves {missing} integers absent, more than the "
                             f"{MAX_LISTED} an exhaustive report lists")
    top = s if exhaustive else min(s, values.size + 1)
    held = np.zeros(top + 1, bool)
    held[values[values <= top]] = True
    absent = np.flatnonzero(~held[1:]) + 1
    return absent.tolist() if exhaustive else absent[:1].tolist()


def validate_pda(p: Pda, exhaustive: bool = False) -> ValidationReport:
    """Check the three defining conditions and report counterexamples; C2
    and C3 read the index of the integer cells that p keeps. An exhaustive
    report raises OutOfRange when C2 would list more than MAX_LISTED integers."""
    require_type(p, Pda, "validate_pda's array")
    stars = (p.array == STAR).sum(axis=0).tolist()
    c1 = [(c, n) for c, n in enumerate(stars, start=1) if n != p.z][: None if exhaustive else 1]
    c2 = [(v,) for v in _absent(p._cells[2], p.s, exhaustive)]
    c3 = _clashes(p.array, p._cells, exhaustive)
    return ValidationReport(not c1, not c2, not c3, tuple(c1), tuple(c2), tuple(c3), exhaustive)


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
    t, rem = divmod(p.cols * p.z, p.rows)
    return not rem and bool(((p.array == STAR).sum(axis=1) == t).all())


def serialize_pda(p: Pda) -> str:
    """Render the canonical text form: 'K' F' Z S' header then F' token rows."""
    require_type(p, Pda, "serialize_pda's array")
    values = p._cells[2]
    used = values[np.diff(values, prepend=STAR) != 0]  # a token per value held: any S is cheap
    tokens = np.array(["*", *map(str, used.tolist())], dtype=object)
    at = p.array if used.size == p.s else np.searchsorted(used, p.array, "right")  # a cell's rank
    return "\n".join([f"{p.cols} {p.rows} {p.z} {p.s}", *map(" ".join, tokens[at].tolist()), ""])


def _read_canonical(text: str) -> Pda | None:
    """The Pda whose serialize_pda rendering is text and whose integers are
    exactly 1..S, or None; one bulk conversion of the body, then the
    rendering compared byte for byte. Raises and warns on no input."""
    head, _, body = text.partition("\n")
    if body.translate(_TOKEN_CHARS):  # a character canonical text never holds
        return None
    try:  # a header that is no 4 ints, or a body of another size, is a ValueError
        cols, rows, z, s = map(int, head.split(" "))
        cells = np.fromstring(body.replace("*", "0"), np.int64, sep=" ")  # saturates past int64
        p = Pda._of(cells.reshape(rows, cols), z, s)
    except (ValueError, MalformedPda):
        return None
    return p if not _absent(p._cells[2], s) and serialize_pda(p) == text else None


def parse_pda_with_map(text: str) -> tuple[Pda, dict[int, int] | None]:
    """Parse the text form; gapped integer alphabets are renumbered.

    Returns the array and, when renumbering happened, the old->new value map
    (ascending order preserving). Raises ParseError on malformed input.
    Canonical text, serialize_pda's rendering of an array that holds every
    integer of [1, S], is read in one bulk conversion; any other text goes
    through the per-token reader, which renumbers and names the first fault.
    """
    require_type(text, str, "array text", ParseError)
    p = _read_canonical(text)
    if p is not None:
        return p, None
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
    cells = np.fromiter(map(values.__getitem__, tokens), np.int64, len(tokens))
    try:
        _check_header(rows, cols, z, s)  # before the reshape, which a negative K' breaks
        p = Pda._of(cells.reshape(rows, cols), z, s)
    except MalformedPda as e:
        raise ParseError(f"inconsistent header {lines[0]!r}: {e}") from e
    return p, relabel


def parse_pda(text: str) -> Pda:
    """Parse the text form, discarding any renumbering record."""
    return parse_pda_with_map(text)[0]
