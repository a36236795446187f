"""The array-backed checks, lift and text against the walks in tests/oracles.py.

Arrays are drawn at random, taken from the stock families, or taken from
them with one corruption: a cell rewritten, a star moved to another cell, or
the integers spread over a gapped alphabet. Results are compared by repr, so
a value of another type (a numpy integer for an int) fails even where ==
would hold; raised errors are compared by type and text.
"""

import random
import tracemalloc
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import c4_arrays
from macc import (STAR, MaccError, ParseError, Pda, build_scheme, check_c4, check_c5, mn_pda,
                  parse_pda_with_map, partition_pda, serialize_pda, validate_pda)
from macc.pda import _read_canonical
from macc.transform import _arrays_text, scheme_from_json, scheme_to_json
from oracles import (
    arrays_text_by_grids,
    build_scheme_by_steps,
    check_c4_by_rows,
    check_c5_by_walk,
    json_placement,
    parse_pda_by_cells,
    plan_of_grid,
    plan_record,
    scheme_to_json_by_dumps,
    serialize_pda_by_cells,
    validate_pda_by_walk,
    view_sets,
)

STOCK = [mn_pda(kp, t) for kp in range(1, 7) for t in range(kp + 1)]
STOCK += [partition_pda(m, q)[0] for m in (2, 3) for q in (2, 3)]
STOCK += [Pda(rows=2, cols=2, entries=((STAR, 2), (1, STAR)), z=1, s=2)]  # 2 is met before 1


def outcome(fn, *args):
    """repr of what fn returned, or the type and text of what it raised."""
    try:
        return repr(fn(*args))
    except Exception as e:  # noqa: BLE001 - the comparison is the point
        return type(e), str(e)


@st.composite
def any_arrays(draw):
    """Arrays of any shape with stars anywhere and any declared Z."""
    rows, cols, s = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(0, 9))
    entries = tuple(tuple(draw(st.integers(0, s)) for _ in range(cols)) for _ in range(rows))
    return Pda(rows=rows, cols=cols, entries=entries, z=draw(st.integers(0, rows)), s=s)


@st.composite
def corrupted(draw):
    """A stock array with one cell rewritten, one star moved to another cell,
    or its integers v spread to v * step over [1, S * step + extra]."""
    p = draw(st.sampled_from(STOCK))
    grid = [list(row) for row in p.entries]
    cells = [(r, c) for r in range(p.rows) for c in range(p.cols)]
    stars = [(r, c) for r, c in cells if grid[r][c] == STAR]
    kind = draw(st.sampled_from(["cell", "star", "gaps"] if stars else ["cell", "gaps"]))
    s = p.s
    if kind == "cell":
        r, c = draw(st.sampled_from(cells))
        grid[r][c] = draw(st.integers(0, s))
    elif kind == "star":
        (r1, c1), (r2, c2) = draw(st.sampled_from(stars)), draw(st.sampled_from(cells))
        grid[r1][c1], grid[r2][c2] = grid[r2][c2], STAR
    else:
        step = draw(st.integers(2, 3))
        s = s * step + draw(st.integers(0, 2))
        grid = [[v * step for v in row] for row in grid]
    return Pda(rows=p.rows, cols=p.cols, entries=tuple(map(tuple, grid)), z=p.z, s=s)


ARRAYS = st.one_of(any_arrays(), corrupted(), c4_arrays(), st.sampled_from(STOCK))


def test_stock_arrays_check_as_the_walks_do():
    for p in STOCK:
        for exhaustive in (False, True):
            assert outcome(validate_pda, p, exhaustive) == outcome(validate_pda_by_walk, p, exhaustive)
        assert check_c4(p) is check_c4_by_rows(p)
        for l in range(1, p.cols + 6):
            assert outcome(check_c5, p, l) == outcome(check_c5_by_walk, p, l), (p, l)


@settings(max_examples=300, deadline=None)
@given(p=ARRAYS)
def test_drawn_arrays_check_as_the_walks_do(p):
    """validate_pda's reports, exhaustive lists and their order included,
    check_c4 and check_c5 at every l up to K' + 5."""
    for exhaustive in (False, True):
        assert outcome(validate_pda, p, exhaustive) == outcome(validate_pda_by_walk, p, exhaustive)
    assert check_c4(p) is check_c4_by_rows(p)
    for l in range(1, p.cols + 6):
        assert outcome(check_c5, p, l) == outcome(check_c5_by_walk, p, l), l


def test_c5_past_k_prime_plus_one_matches_the_whole_lift():
    """check_c5 lifts at most to l = K' + 1; on C4 arrays of more rows and
    columns than drawn above, the whole lift at every l up to K' + 5 agrees."""
    rng = random.Random(18)
    checked = 0
    for _ in range(400):
        cols = rng.randint(2, 7)
        t = rng.randint(1, cols - 1)
        rows = rng.choice([r for r in range(1, 13) if r * t % cols == 0] or [cols])
        s = rng.randint(1, rows * (cols - t))
        grid = [[STAR if c in stars else rng.randint(1, s) for c in range(cols)]
                for stars in (set(rng.sample(range(cols), t)) for _ in range(rows))]
        p = Pda(rows=rows, cols=cols, entries=tuple(map(tuple, grid)), z=rows * t // cols, s=s)
        for l in range(1, cols + 6):
            assert check_c5(p, l) == check_c5_by_walk(p, l), (p, l)
            checked += 1
    assert checked > 2000


def test_check_c5_costs_the_same_at_any_l():
    tracemalloc.start()
    try:
        assert check_c5(mn_pda(4, 2), 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_first_clash_costs_little_on_a_clashing_array():
    """One integer in every cell clashes at its first pair; pairing cells at
    every offset would hold millions of clashes."""
    p = Pda(rows=60, cols=60, entries=((1,) * 60,) * 60, z=0, s=1)
    tracemalloc.start()
    try:
        report = validate_pda(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.c3_counterexamples == (((1, 1), (1, 2)),)
    assert peak < 2**20


def test_starless_arrays_lift_and_render_at_any_l():
    p = Pda(rows=2, cols=3, entries=((1, 2, 3), (4, 5, 6)), z=0, s=6)
    for l in (1, 2, 10**6, 2**70):
        scheme = build_scheme(p, 3, l)
        assert scheme.delivery.grid == p.entries
        assert scheme_from_json(scheme_to_json(scheme, include_arrays=True)) == scheme
        assert check_c5(p, l)


def scheme_view(p, k, l):
    """What a built scheme shows of its lift: params, both grids, the plan's
    views and index arrays, and the JSON form's text rows."""
    scheme = build_scheme(p, k, l)
    text = {name: rows.split("\n") for name, rows in _arrays_text(scheme, serialize_pda(p)).items()}
    return (scheme.params, json_placement(scheme), scheme.delivery.grid,
            view_sets(scheme.plan.views), plan_record(scheme.plan), text)


def scheme_view_by_steps(p, k, l):
    """The same from the step-by-step lift, its plan by a walk of its
    delivery grid and its text cell by cell."""
    params, c1, q1 = build_scheme_by_steps(p, k, l)
    walk = plan_of_grid(q1.grid)
    return (params, c1.grid, q1.grid, walk.views, plan_record(walk),
            arrays_text_by_grids(c1.grid, q1.grid))


@settings(max_examples=200, deadline=None)
@given(p=ARRAYS, l=st.integers(1, 4), extra=st.booleans())
def test_drawn_schemes_lift_and_render_as_the_steps_do(p, l, extra):
    k = p.cols + p.z * p.cols // p.rows * (l - 1) + extra
    assert outcome(scheme_view, p, k, l) == outcome(scheme_view_by_steps, p, k, l)


def test_stock_schemes_lift_and_render_as_the_steps_do():
    built = 0
    for p in STOCK:
        for l in range(1, 5):
            k = p.cols + p.z * p.cols // p.rows * (l - 1)
            got = outcome(scheme_view, p, k, l)
            assert got == outcome(scheme_view_by_steps, p, k, l), (p, k, l)
            built += isinstance(got, str)
    assert built > len(STOCK)


def json_matches_dumps(p, k, l, n):
    """scheme_to_json against json.dumps over the split rows, with and without
    arrays, when p lifts to k nodes at access degree l; False when it does not."""
    try:
        scheme = build_scheme(p, k, l, n)
    except MaccError:
        return False
    for arrays in (False, True):
        assert scheme_to_json(scheme, arrays) == scheme_to_json_by_dumps(scheme, arrays), arrays
    return True


@settings(max_examples=200, deadline=None)
@given(p=ARRAYS, l=st.integers(1, 5), extra=st.integers(0, 3), spare=st.integers(0, 3))
def test_drawn_schemes_write_the_bytes_json_dumps_writes(p, l, extra, spare):
    k = p.cols + p.z * p.cols // p.rows * (l - 1) + extra
    json_matches_dumps(p, k, l, k + spare)


def test_partition_schemes_write_the_bytes_json_dumps_writes():
    for m, q in [(2, 2), (2, 4), (3, 3), (3, 4), (4, 2), (4, 3)]:
        p = partition_pda(m, q)[0]
        for l in range(1, 5):
            assert json_matches_dumps(p, p.cols + p.z * p.cols // p.rows * (l - 1), l, None), (m, q, l)


# Tokens that parse_pda must read or refuse exactly as a token-by-token read does.
ODD_TOKENS = ["*", "x", "0", "05", "+3", "-1", "1_0", "3.0", "**", "99", "1e2", "\u0663"]


@settings(max_examples=200, deadline=None)
@given(p=ARRAYS, data=st.data())
def test_text_form_reads_and_writes_as_cell_by_cell(p, data):
    """serialize_pda against the cell-by-cell writer, and parse_pda_with_map,
    its renumbering map included, against the token-by-token reader on the
    written text with some tokens replaced."""
    text = serialize_pda(p)
    assert text == serialize_pda_by_cells(p)
    lines = text.splitlines()
    head, body = lines[0], [ln.split() for ln in lines[1:]]
    for _ in range(data.draw(st.integers(0, 3))):
        row = data.draw(st.integers(0, len(body) - 1))
        col = data.draw(st.integers(0, len(body[row]) - 1))
        body[row][col] = data.draw(st.sampled_from(ODD_TOKENS + body[row]))
    text = "\n".join([head] + [" ".join(toks) for toks in body]) + "\n"
    assert outcome(parse_pda_with_map, text) == outcome(parse_pda_by_cells, text)


def test_gapped_arrays_of_s_cells_render_cell_by_cell():
    """Arrays with an absent integer and as many integer cells as S, so a
    token table indexed by value would fit them by size alone."""
    for entries in (((2, 3, 3),), ((1, 1, 3),), ((3, 3, 3),), ((STAR, 2), (3, 3))):
        p = Pda(rows=len(entries), cols=len(entries[0]), entries=entries, z=0, s=3)
        assert serialize_pda(p) == serialize_pda_by_cells(p)


def header_set(text, **fields):
    """text with the named header fields (cols, rows, z, s) rewritten."""
    head, _, body = text.partition("\n")
    values = dict(zip(("cols", "rows", "z", "s"), head.split(" ")))
    values.update({name: str(v) for name, v in fields.items()})
    return " ".join(values.values()) + "\n" + body


def header_moved(text, name, by):
    """text with the header field called name moved by the int by."""
    head = dict(zip(("cols", "rows", "z", "s"), map(int, text.split("\n", 1)[0].split(" "))))
    return header_set(text, **{name: head[name] + by})


def gapped_text(text):
    """text with every integer tripled and S tripled to match."""
    head, _, body = text.partition("\n")
    body = "\n".join(" ".join(tok if tok == "*" else str(3 * int(tok)) for tok in line.split(" "))
                     for line in body.split("\n")[:-1]) + "\n"
    return header_moved(head + "\n" + body, "s", 2 * int(head.split(" ")[3]))


# Rewrites of canonical text, each on one side of the bulk reader's check or the other.
REWRITES = {
    "canonical": lambda t: t,
    "double spaces": lambda t: t.replace(" ", "  "),
    "tabs": lambda t: t.replace(" ", "\t"),
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "blank lines": lambda t: t.replace("\n", "\n\n", 1) + " \n",
    "no final newline": lambda t: t[:-1],
    "leading zero in the header": lambda t: "0" + t,
    "gapped alphabet": gapped_text,
    "short alphabet": lambda t: header_moved(t, "s", 1),
    "one row too many": lambda t: header_moved(t, "rows", 1),
    "one row too few": lambda t: header_moved(t, "rows", -1),
    "one column too many": lambda t: header_moved(t, "cols", 1),
    "one column too few": lambda t: header_moved(t, "cols", -1),
    "minus one rows": lambda t: header_set(t, rows=-1),
    "huge row count": lambda t: header_set(t, rows=10**30),
    "rows times columns past int64": lambda t: header_set(t, rows=2**62, cols=4),
    "huge S": lambda t: header_set(t, s=2**70),
    "huge Z": lambda t: header_set(t, z=10**30),
    "header past int's digit limit": lambda t: header_set(t, s="9" * 5000),
}


def read_quietly(text):
    """_read_canonical(text), failing on any warning it gives."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _read_canonical(text)


@settings(max_examples=300, deadline=None)
@given(p=ARRAYS, rewrite=st.sampled_from(sorted(REWRITES)))
def test_text_form_reads_in_bulk_only_when_canonical(p, rewrite):
    """parse_pda_with_map, its renumbering map and its errors included,
    against the token-by-token reader on canonical text and on rewrites of
    it on either side of the bulk reader's check. The bulk reader raises and
    warns on none of them, and accepts a text exactly when the text is the
    rendering of the array read from it with no renumbering."""
    text = REWRITES[rewrite](serialize_pda(p))
    assert outcome(parse_pda_with_map, text) == outcome(parse_pda_by_cells, text), rewrite
    bulk = read_quietly(text)
    try:
        q, relabel = parse_pda_by_cells(text)
    except ParseError:
        assert bulk is None
        return
    canonical = relabel is None and serialize_pda(q) == text
    assert (bulk is not None) == canonical, rewrite
    assert bulk is None or repr(bulk) == repr(q)
    if rewrite == "canonical" and not validate_pda(p).c2_ok:
        assert bulk is None and relabel is not None  # an absent integer renumbers


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet="0123456789* \n\t\r-+x\u0663", max_size=40))
def test_any_text_reads_as_token_by_token(text):
    """Short texts over the characters of the text form and a few others."""
    assert outcome(parse_pda_with_map, text) == outcome(parse_pda_by_cells, text)
    read_quietly(text)
