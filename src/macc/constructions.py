"""Stock array constructions: the binomial family and the partition family."""

from dataclasses import dataclass
from itertools import chain, combinations
from math import comb

import numpy as np

from .errors import OutOfRange
from .pda import Pda
from .util import require_ints

MAX_CELLS = 1 << 24  # the most cells a construction builds; each bounds its count in ints first


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
    lex rank of T u {k} among the (t+1)-subsets. So each (t+1)-subset U, of
    rank r, puts r in the row of U minus its i-th member, at the column of
    that member, for every i.
    """
    MnParams(k_prime, t)  # range check
    # C(K', r) rises with r up to K'/2: an r past the cap's bit length is past the cap
    least = comb(k_prime, min(t, k_prime - t, MAX_CELLS.bit_length())) * k_prime
    if least > MAX_CELLS:
        raise OutOfRange(f"mn_pda({k_prime}, {t}) has at least {least} cells, past the {MAX_CELLS}-cell cap")
    n, rows = k_prime, comb(k_prime, t)
    ups = np.fromiter(chain.from_iterable(combinations(range(n), t + 1)), np.intp)
    ups = ups.reshape(-1, t + 1)  # 0-based, in lex order
    # The 0-based lex rank of a t-subset x_0 < ... < x_{t-1} of [0, n) is
    # C(n, t) - 1 - sum_h C(n - 1 - x_h, t - h).
    binom = np.array([[comb(x, h) for h in range(t + 1)] for x in range(n)], np.int64)
    a, ranks = np.zeros((rows, n), np.int64), np.arange(1, len(ups) + 1)
    for i in range(t + 1):
        rest = np.delete(ups, i, axis=1)
        a[rows - 1 - binom[n - 1 - rest, t - np.arange(t)].sum(axis=1), ups[:, i]] = ranks
    z = comb(k_prime - 1, t - 1) if t >= 1 else 0
    return Pda._of(a, z, len(ups))


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
    least = q ** min(m - 1, MAX_CELLS.bit_length()) * m * q  # as q >= 2, exact below the cap
    if least > MAX_CELLS:
        raise OutOfRange(f"partition_pda({m}, {q}) has at least {least} cells, past the {MAX_CELLS}-cell cap")
    # Vectors are 1-based; a vector's key is its 0-based digits read base q.
    free = np.indices((q,) * (m - 1)).reshape(m - 1, -1).T + 1  # lex order
    f = np.column_stack([free, (free.sum(axis=1) - 1) % q + 1])
    place = q ** np.arange(m - 1, -1, -1)
    col = np.arange(m * q)
    delta, b = col // q, col % q + 1  # column (delta, b), 0-based delta
    star = f[:, delta] == b
    keys = ((f - 1) @ place)[:, None] + (b - f[:, delta]) * place[delta]
    found, first, inverse = np.unique(keys[~star], return_index=True, return_inverse=True)
    order = np.argsort(first)  # the found vectors by first appearance, row-major
    a = np.zeros(star.shape, np.int64)
    a[~star] = np.argsort(order)[inverse] + 1
    labels = found[order, None] // place % q + 1
    return Pda._of(a, q ** (m - 2), (q - 1) * q ** (m - 1)), tuple(map(tuple, labels.tolist()))
