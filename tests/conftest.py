import pytest
from hypothesis import strategies as st

from macc import STAR, Pda, build_scheme, mn_pda

# Hand-built 5x5 array with Z=2, S=14 that passes C1-C4 but breaks the
# window-crossing condition at access degree 2: the integer 1 sits at
# (1,3) and (2,1), and the shifted column 5 of the first occurrence lands
# outside row 2's retrieve window {3,4,6,7}.
PNEG_ROWS = (
    (0, 0, 1, 2, 3),
    (1, 4, 0, 5, 0),
    (0, 6, 7, 0, 8),
    (9, 0, 0, 10, 11),
    (12, 13, 14, 0, 0),
)


@pytest.fixture(scope="session")
def pneg() -> Pda:
    return Pda(rows=5, cols=5, entries=PNEG_ROWS, z=2, s=14)


@pytest.fixture(scope="session")
def scheme832():
    """The worked (K, L, t) = (8, 3, 2) instance built from the 4x6 array."""
    return build_scheme(mn_pda(4, 2), 8, 3)


def ragged_pda() -> Pda:
    """mn_pda(4, 2) with its first cell of integer 1 relabelled S + 1: the
    integers then fill 2, 3, 3, 3 and 1 cells."""
    p = mn_pda(4, 2)
    rows = [list(row) for row in p.entries]
    r, c = next((r, c) for r, row in enumerate(rows) for c, v in enumerate(row) if v == 1)
    rows[r][c] = p.s + 1
    return Pda(rows=p.rows, cols=p.cols, entries=tuple(map(tuple, rows)), z=p.z, s=p.s + 1)


@st.composite
def c4_arrays(draw):
    """Small arrays with t stars in every row, Z = tF'/K' an integer, and
    their integers renumbered to [1, S] so that C2 holds."""
    cols = draw(st.integers(1, 5))
    t = draw(st.integers(0, cols))
    rows = draw(st.integers(1, 6).filter(lambda r: r * t % cols == 0))
    values = st.integers(1, draw(st.integers(1, 12)))
    grid = []
    for _ in range(rows):
        stars = draw(st.sets(st.integers(0, cols - 1), min_size=t, max_size=t))
        grid.append([STAR if c in stars else draw(values) for c in range(cols)])
    rank = {v: i for i, v in enumerate(sorted({v for row in grid for v in row} - {STAR}), 1)}
    entries = tuple(tuple(rank.get(v, STAR) for v in row) for row in grid)
    return Pda(rows=rows, cols=cols, entries=entries, z=rows * t // cols, s=len(rank))
