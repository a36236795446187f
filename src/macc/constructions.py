"""Stock array constructions: the binomial family and the partition family."""

from dataclasses import dataclass
from itertools import combinations, product
from math import comb

from .errors import BadSubset, OutOfRange
from .pda import STAR, Pda
from .util import converted, is_int, mod1, require_ints


def lex_rank(subset: tuple[int, ...], n: int) -> int:
    """1-based rank of a strictly increasing subset of [1, n] in lex order.

    Rank is taken among all subsets of the same size; the empty subset has
    rank 1.
    """
    require_ints(n=n)
    sub = converted(tuple, subset, "subset", BadSubset)
    r = len(sub)
    if any(not (is_int(x) and 1 <= x <= n) for x in sub):
        raise BadSubset(f"{sub} leaves the ground set [1, {n}]")
    if any(sub[i] >= sub[i + 1] for i in range(r - 1)):
        raise BadSubset(f"{sub} is not strictly increasing")
    rank = 1
    prev = 0
    for i, x in enumerate(sub):
        for y in range(prev + 1, x):
            rank += comb(n - y, r - i - 1)
        prev = x
    return rank


def lex_unrank(rank: int, size: int, n: int) -> tuple[int, ...]:
    """Inverse of lex_rank: the rank-th size-subset of [1, n]."""
    require_ints(rank=rank, size=size, n=n)
    if size < 0 or size > n:
        raise BadSubset(f"size {size} outside [0, {n}]")
    if not (1 <= rank <= comb(n, size)):
        raise OutOfRange(f"rank {rank} outside [1, {comb(n, size)}]")
    out = []
    rank -= 1
    x = 1
    for i in range(size):
        while True:
            block = comb(n - x, size - i - 1)
            if rank < block:
                break
            rank -= block
            x += 1
        out.append(x)
        x += 1
    return tuple(out)


@dataclass(frozen=True)
class MnParams:
    """Binomial family parameters. The usual regime is 1 <= t < k_prime; the
    degenerate rows t = 0 (single broadcast row) and t = k_prime (all stars)
    are accepted too."""

    k_prime: int
    t: int

    def __post_init__(self):
        require_ints(k_prime=self.k_prime, t=self.t)
        if self.k_prime < 1:
            raise OutOfRange(f"k_prime={self.k_prime} must be >= 1")
        if not (0 <= self.t <= self.k_prime):
            raise OutOfRange(f"t={self.t} outside [0, {self.k_prime}]")

    def as_dict(self) -> dict:
        return {"family": "mn", "k_prime": self.k_prime, "t": self.t}


def mn_pda(k_prime: int, t: int) -> Pda:
    """Binomial array: rows are the t-subsets of [1, k_prime] in lex order.

    Row T carries a star in every column of T; column k outside T carries the
    lex rank of T u {k} among the (t+1)-subsets.
    """
    MnParams(k_prime, t)  # range check
    ground = range(1, k_prime + 1)
    rank = {sub: r for r, sub in enumerate(combinations(ground, t + 1), 1)}
    rows = list(combinations(ground, t))
    grid = []
    for tt in rows:
        row = []
        i = 0  # members of tt below k
        for k in ground:
            if i < t and tt[i] == k:
                row.append(STAR)
                i += 1
            else:
                row.append(rank[tt[:i] + (k,) + tt[i:]])
        grid.append(tuple(row))
    z = comb(k_prime - 1, t - 1) if t >= 1 else 0
    return Pda(
        rows=len(rows),
        cols=k_prime,
        entries=tuple(grid),
        z=z,
        s=comb(k_prime, t + 1),
    )


@dataclass(frozen=True)
class PartitionParams:
    """Partition family parameters; m >= 2 keeps the column star count integral."""

    m: int
    q: int

    def __post_init__(self):
        require_ints(m=self.m, q=self.q)
        if self.m < 2:
            raise OutOfRange(f"m={self.m} must be >= 2")
        if self.q < 2:
            raise OutOfRange(f"q={self.q} must be >= 2")

    def as_dict(self) -> dict:
        return {"family": "partition", "m": self.m, "q": self.q}


def partition_pda(m: int, q: int) -> tuple[Pda, tuple[tuple[int, ...], ...]]:
    """Partition array over checksum vectors, plus its integer label map.

    Rows are the vectors (f_1, ..., f_m) in [q]^m whose last coordinate
    equals the 1-based modular sum of the free ones, ordered lexicographically
    by the free coordinates. Column (delta, b) is flattened to (delta-1)q + b.
    A cell is a star when f_delta = b; otherwise it stands for the off-row
    vector e obtained by substituting b at position delta. Off-row vectors are
    numbered [1, S] by first appearance in row-major order; labels[s-1] is the
    vector behind integer s.
    """
    PartitionParams(m, q)  # range check
    rows = []
    for free in product(range(1, q + 1), repeat=m - 1):
        rows.append(free + (mod1(sum(free), q),))
    numbering: dict[tuple[int, ...], int] = {}
    labels: list[tuple[int, ...]] = []
    grid = []
    for f in rows:
        row = []
        for delta in range(1, m + 1):
            for b in range(1, q + 1):
                if f[delta - 1] == b:
                    row.append(STAR)
                    continue
                e = f[: delta - 1] + (b,) + f[delta:]
                if e not in numbering:
                    numbering[e] = len(numbering) + 1
                    labels.append(e)
                row.append(numbering[e])
        grid.append(tuple(row))
    pda = Pda(
        rows=q ** (m - 1),
        cols=m * q,
        entries=tuple(grid),
        z=q ** (m - 2),
        s=(q - 1) * q ** (m - 1),
    )
    return pda, tuple(labels)
