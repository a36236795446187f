"""Table-based arithmetic in GF(2^w) plus the Cauchy coding matrix.

Log/antilog tables are built once per width from the classic primitive
polynomials; the antilog table is doubled so scalar products skip the modular
reduction. Vectors and matrices are numpy uint32 arrays of field elements.
"""

from functools import lru_cache

import numpy as np

from .errors import FieldTooSmall, OutOfRange, SingularSystem

PRIMITIVE_POLY = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    8: 0b100011101,          # x^8 + x^4 + x^3 + x^2 + 1
    16: 0b10001000000001011,  # x^16 + x^12 + x^3 + x + 1
}


class GF:
    """GF(2^width) with log/antilog tables and vectorized row operations."""

    def __init__(self, width: int):
        if width not in PRIMITIVE_POLY:
            raise OutOfRange(f"unsupported field width {width}, know {sorted(PRIMITIVE_POLY)}")
        self.width = width
        self.order = 1 << width
        n = self.order - 1
        exp = np.zeros(2 * n, dtype=np.uint32)
        log = np.zeros(self.order, dtype=np.uint32)
        x = 1
        for i in range(n):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & self.order:
                x ^= PRIMITIVE_POLY[width]
        # the generator must have full period, otherwise the poly is not primitive
        assert x == 1, f"polynomial for width {width} is not primitive"
        exp[n:] = exp[:n]
        self._exp = exp
        self._log = log

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self._exp[int(self._log[a]) + int(self._log[b])])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("no inverse of 0")
        return int(self._exp[self.order - 1 - int(self._log[a])])

    def _outer(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Outer product table u[i]*v[j] with zero masking."""
        prod = self._exp[self._log[u][:, None] + self._log[v][None, :]]
        prod[(u == 0)[:, None] | (v == 0)[None, :]] = 0
        return prod

    def scale_row(self, v: np.ndarray, s: int) -> np.ndarray:
        if s == 0:
            return np.zeros_like(v)
        out = self._exp[self._log[v] + self._log[s]]
        out[v == 0] = 0
        return out

    def matmul(self, a: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Matrix product over the field; a is (m, k), x is (k, n)."""
        assert a.shape[1] == x.shape[0], (a.shape, x.shape)
        out = np.zeros((a.shape[0], x.shape[1]), dtype=np.uint32)
        for i in range(a.shape[0]):
            out[i] = np.bitwise_xor.reduce(self._mulrows(a[i], x), axis=0)
        return out

    def _mulrows(self, coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Rows of x scaled elementwise by coeffs (coeffs[j] * x[j, :])."""
        out = self._exp[self._log[coeffs][:, None] + self._log[x]]
        out[(coeffs == 0)[:, None] | (x == 0)] = 0
        return out

    def solve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Solve a @ x = b by Gauss-Jordan elimination; a must be square."""
        a = np.array(a, dtype=np.uint32, copy=True)
        b = np.array(b, dtype=np.uint32, copy=True)
        n = a.shape[0]
        assert a.shape == (n, n) and b.shape[0] == n, (a.shape, b.shape)
        for col in range(n):
            hits = np.nonzero(a[col:, col])[0]
            if hits.size == 0:
                raise SingularSystem(f"no pivot in column {col + 1}")
            piv = col + int(hits[0])
            if piv != col:
                a[[col, piv]] = a[[piv, col]]
                b[[col, piv]] = b[[piv, col]]
            s = self.inv(int(a[col, col]))
            a[col] = self.scale_row(a[col], s)
            b[col] = self.scale_row(b[col], s)
            rows = np.nonzero(a[:, col])[0]
            rows = rows[rows != col]
            if rows.size:
                f = a[rows, col]
                a[rows] ^= self._outer(f, a[col])
                b[rows] ^= self._outer(f, b[col])
        return b

    def is_invertible(self, a: np.ndarray) -> bool:
        try:
            self.solve(a, np.eye(a.shape[0], dtype=np.uint32))
            return True
        except SingularSystem:
            return False


@lru_cache(maxsize=None)
def field(width: int) -> GF:
    """Shared GF instance per width (table build is not free for 2^16)."""
    return GF(width)


def cauchy_matrix(m1: int, m2: int, gf: GF) -> np.ndarray:
    """m1 x m2 Cauchy matrix over gf; every square submatrix is invertible.

    Row labels are the first m1 field elements, column labels the next m2;
    entry (i, j) is 1/(x_i + y_j). Needs m1 + m2 distinct elements.
    """
    if m1 < 1 or m2 < 1 or m1 > m2:
        raise OutOfRange(f"need 1 <= m1 <= m2, got m1={m1} m2={m2}")
    if m1 + m2 > gf.order:
        raise FieldTooSmall(f"m1+m2={m1 + m2} exceeds field order {gf.order}")
    # x_i + y_j = i ^ (m1 + j) is never 0, so the inverse is exp[-log]
    sums = np.arange(m1, dtype=np.uint32)[:, None] ^ np.arange(m1, m1 + m2, dtype=np.uint32)
    return gf._exp[gf.order - 1 - gf._log[sums]]


def packet_to_symbols(x: int, packet_bytes: int, width: int) -> list[int]:
    """Split a packet integer (big-endian packet_bytes) into field symbols."""
    sw = width // 8 if width >= 8 else 1
    assert packet_bytes % sw == 0, (packet_bytes, width)
    raw = x.to_bytes(packet_bytes, "big")
    if width < 8:
        # sub-byte fields are only used for small demo matrices, one symbol per byte
        assert all(b < (1 << width) for b in raw), "byte exceeds field order"
        return list(raw)
    return [int.from_bytes(raw[i:i + sw], "big") for i in range(0, packet_bytes, sw)]


def symbols_to_packet(symbols, packet_bytes: int, width: int) -> int:
    """Inverse of packet_to_symbols."""
    sw = width // 8 if width >= 8 else 1
    raw = b"".join(int(s).to_bytes(sw, "big") for s in symbols)
    assert len(raw) == packet_bytes, (len(raw), packet_bytes)
    return int.from_bytes(raw, "big")
