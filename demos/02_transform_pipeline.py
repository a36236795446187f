"""Lift the 6x4 array to the worked K=8, L=3 multiaccess instance.

Prints the round-1 and round-2 node placement, user retrieve and user
delivery grids, then the fill maps that route base-array integers into the
delivery nulls. The scheme stores no grid: the demo reads the three
round-1 grids from the rows of the scheme's JSON form, whose cells are "*"
for a star and "." or an integer otherwise. A user retrieves exactly the
delivery grid's stars, and round g is round 1 shifted cyclically by g - 1
columns. The simulator builds none of these round-g grids: it reads the
round-1 delivery plan and reaches round g by offset arithmetic. This demo
shifts its round-2 grids itself.
"""

import json

from macc import STAR, build_scheme, mn_pda, scheme_to_json


def render(grid):
    return "\n".join("  " + " ".join(row) for row in grid)


def shifted(grid, g):
    """Round g of a round-1 grid: every row rotated right by g - 1 columns."""
    cut = len(grid[0]) - g + 1
    return [row[cut:] + row[:cut] for row in grid]


def main():
    p = mn_pda(4, 2)
    scheme = build_scheme(p, 8, 3)
    print(f"base array: K'={p.cols} F'={p.rows}, lifted to K={scheme.params.k} L={scheme.params.l}")
    print(f"subpacketization F = {scheme.subpacketization}, "
          f"load = {scheme.load}, memory ratio = {scheme.memory_ratio}\n")

    arrays = json.loads(scheme_to_json(scheme, include_arrays=True))["arrays"]
    placement, retrieve = arrays["node_placement"], arrays["user_retrieve"]
    delivery = [row.split() for row in arrays["user_delivery"]]
    for g in (1, 2):
        print(f"node placement, round {g} (columns are cache nodes):")
        print(render(shifted(placement, g)))
        print(f"user retrieve, round {g} (columns are users, window {scheme.params.l}):")
        print(render(shifted(retrieve, g)))
        print(f"user delivery, round {g}:")
        print(render(shifted(delivery, g)))
        print()

    # The h-th null of a retrieve row, the h-th integer cell of its delivery
    # row, receives the h-th integer of the base row.
    print("fill maps (null user column <- base array column), row by row:")
    for j, (row, base) in enumerate(zip(delivery, p.entries), start=1):
        nulls = [c for c, v in enumerate(row, start=1) if v != "*"]
        srcs = [c for c, v in enumerate(base, start=1) if v != STAR]
        pretty = ", ".join(f"{dst} <- {src}" for dst, src in zip(nulls, srcs))
        print(f"  row {j}: {pretty}")


if __name__ == "__main__":
    main()
