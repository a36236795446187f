"""Lift the 6x4 array to the worked K=8, L=3 multiaccess instance.

Prints the round-1 and round-2 node placement, user retrieve and user
delivery grids, then the fill maps that route base-array integers into the
delivery nulls. The full stack of K delivery grids is what the simulator
replays round by round.
"""

from macc import STAR, build_scheme, mn_pda


def render_bool(grid):
    return "\n".join("  " + " ".join("*" if v else "." for v in row) for row in grid)


def render_ints(grid):
    return "\n".join(
        "  " + " ".join("*" if v == 0 else str(v) for v in row) for row in grid
    )


def main():
    p = mn_pda(4, 2)
    scheme = build_scheme(p, 8, 3)
    print(f"base array: K'={p.cols} F'={p.rows}, lifted to K={scheme.params.k} L={scheme.params.l}")
    print(f"subpacketization F = {scheme.subpacketization}, "
          f"load = {scheme.load}, memory ratio = {scheme.memory_ratio}\n")

    for g in (1, 2):
        print(f"node placement, round {g} (columns are cache nodes):")
        print(render_bool(scheme.c(g).grid))
        print(f"user retrieve, round {g} (columns are users, window {scheme.params.l}):")
        print(render_bool(scheme.u(g).grid))
        print(f"user delivery, round {g}:")
        print(render_ints(scheme.q(g).grid))
        print()

    # The h-th null of a retrieve row receives the h-th integer of the base row.
    print("fill maps (null user column <- base array column), row by row:")
    for j, (retrieve, base) in enumerate(zip(scheme.retrieve.grid, p.entries), start=1):
        nulls = [c for c, v in enumerate(retrieve, start=1) if not v]
        srcs = [c for c, v in enumerate(base, start=1) if v != STAR]
        pretty = ", ".join(f"{dst} <- {src}" for dst, src in zip(nulls, srcs))
        print(f"  row {j}: {pretty}")


if __name__ == "__main__":
    main()
