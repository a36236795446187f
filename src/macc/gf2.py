"""Table-based arithmetic in GF(2^w) plus the Cauchy coding matrix.

Log/antilog tables are built once per width from the classic primitive
polynomials. With n = 2^w - 1, the antilog table covers every sum of two
nonzero logs, 0..2n-2, and ends in one zero entry at 2n-1. The log of 0 is
that index, a sentinel: any sum with it lands at or past the end, and the
gathers clip to the last entry. So a product is exp[log a + log b] for every
a and b, zero included, with no reduction and no mask. The antilog table
holds the narrowest unsigned type that fits the field; vectors and matrices
are numpy uint32 arrays of field elements.
"""

from array import array
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, FieldTooSmall, OutOfRange, SingularSystem

PRIMITIVE_POLY = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    8: 0b100011101,          # x^8 + x^4 + x^3 + x^2 + 1
    16: 0b10001000000001011,  # x^16 + x^12 + x^3 + x + 1
}

# Elements per step of matmul and of the log-sums, so that the temporaries
# of one step stay near 64 KB; larger steps saved no time and raised peak RSS.
_STEP_ELEMENTS = 1 << 14


class GF:
    """GF(2^width) with log/antilog tables and vectorized row operations."""

    def __init__(self, width: int):
        if width not in PRIMITIVE_POLY:
            raise OutOfRange(f"unsupported field width {width}, know {sorted(PRIMITIVE_POLY)}")
        self.width = width
        self.order = 1 << width
        n = self.order - 1
        powers = array("I")
        x = 1
        for _ in range(n):
            powers.append(x)
            x <<= 1
            if x & self.order:
                x ^= PRIMITIVE_POLY[width]
        # the generator must have full period, otherwise the poly is not primitive
        assert x == 1, f"polynomial for width {width} is not primitive"
        self.zero_log = 2 * n - 1
        exp = np.zeros(2 * n, dtype=np.uint8 if width <= 8 else np.uint16)
        exp[:n] = np.frombuffer(powers, dtype=np.uint32)
        exp[n:self.zero_log] = exp[:n - 1]
        log = np.full(self.order, self.zero_log, dtype=np.int32)
        log[exp[:n]] = np.arange(n, dtype=np.int32)
        self._exp = exp
        self._log = log

    def _antilog(self, logs):
        """exp at each log-sum; sums reaching the zero sentinel clip to the last entry, 0."""
        return self._exp.take(logs, mode="clip")

    def _check_elements(self, *operands) -> None:
        """Raise OutOfRange unless every operand holds only elements of the field.

        The log table is indexed by raw values: a negative one would wrap
        around to a wrong answer, one past the table would raise IndexError.
        """
        for x in operands:
            if isinstance(x, (int, np.integer)):
                lo = hi = x
            else:
                x = np.asarray(x)
                if not x.size:
                    continue
                lo, hi = x.min(), x.max()
            if lo < 0 or hi >= self.order:
                raise OutOfRange(f"element outside GF(2^{self.width})")

    def mul(self, a: int, b: int) -> int:
        self._check_elements(a, b)
        return int(self._antilog(self._log[a] + self._log[b]))

    def inv(self, a: int) -> int:
        self._check_elements(a)
        if a == 0:
            raise ZeroDivisionError("no inverse of 0")
        return int(self._exp[self.order - 1 - self._log[a]])

    def _outer(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Outer product table u[i]*v[j]."""
        return self._antilog(self._log[u][:, None] + self._log[v][None, :])

    def scale_row(self, v: np.ndarray, s: int) -> np.ndarray:
        self._check_elements(v, s)
        return self._antilog(self._log[v] + self._log[s])

    def matmul(self, a: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Matrix product over the field; a is (m, k), x is (k, n).

        For each inner index j, the products a[:, j] * x[j, :] are one gather
        XORed into the output. Rows of a go in blocks of _STEP_ELEMENTS // n,
        which bounds the temporaries of one step.
        """
        if a.ndim != 2 or x.ndim != 2 or a.shape[1] != x.shape[0]:
            raise DimensionMismatch(f"cannot multiply {a.shape} by {x.shape}")
        self._check_elements(a, x)
        m, k = a.shape
        out = np.zeros((m, x.shape[1]), dtype=self._exp.dtype)
        lx = self._log[x]
        block = max(1, _STEP_ELEMENTS // max(1, x.shape[1]))
        for i in range(0, m, block):
            la = self._log[a[i:i + block].T][:, :, None]
            acc = out[i:i + block]
            for j in range(k):
                acc ^= self._antilog(la[j] + lx[j])
        return out.astype(np.uint32)

    def solve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Solve a @ x = b by Gauss-Jordan elimination; a must be square."""
        a = np.array(a, dtype=np.uint32, copy=True)
        b = np.array(b, dtype=np.uint32, copy=True)
        n = a.shape[0]
        if a.shape != (n, n) or b.shape[:1] != (n,):
            raise DimensionMismatch(f"cannot solve {a.shape} against {b.shape}")
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

    def _log_sums(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """sum_k log(a_i + b_k) per i, a block of rows at a time."""
        out = np.empty(len(a), dtype=np.int64)
        step = max(1, _STEP_ELEMENTS // max(1, len(b)))
        for i in range(0, len(a), step):
            out[i:i + step] = self._log[a[i:i + step, None] ^ b].sum(axis=1, dtype=np.int64)
        return out

    def cauchy_inverse(self, m1: int, cols, rows=None) -> np.ndarray:
        """Rows of the inverse of cauchy_matrix(m1, m2, self)[:, cols], in closed form.

        cols names m1 distinct columns; row r of the inverse recovers the
        unknown of column cols[r], and rows picks which r to return (all by
        default). With row labels x_i = i and column labels y = m1 + cols,
        entry (r, i) is

            prod_k (x_i + y_k) * prod_k (x_k + y_r)
            / ((x_i + y_r) * prod_{k != i} (x_i + x_k) * prod_{k != r} (y_r + y_k))

        (Schechter 1959; signs vanish in characteristic 2), evaluated as a
        sum of logs. Each product over k != i is the full log-sum less the
        diagonal term, which is log 0, the sentinel.
        """
        cols = [int(c) for c in cols]
        if m1 < 1 or len(cols) != m1:
            raise DimensionMismatch(f"cols must name m1={m1} >= 1 columns, got {len(cols)}")
        if min(cols) < 0 or len(set(cols)) != m1:
            raise OutOfRange("cauchy_inverse needs distinct nonnegative column indices")
        if m1 + max(cols) >= self.order:
            raise FieldTooSmall(f"column label {m1 + max(cols)} exceeds field order {self.order}")
        r = range(m1) if rows is None else [int(i) for i in rows]
        if any(not 0 <= i < m1 for i in r):
            raise OutOfRange(f"inverse rows must lie in [0, {m1})")
        x = np.arange(m1, dtype=np.int32)
        y = m1 + np.array(cols, dtype=np.int32)
        yr = y[list(r)]
        num_i = self._log_sums(x, y) - self._log_sums(x, x) + self.zero_log
        num_r = self._log_sums(yr, x) - self._log_sums(yr, y) + self.zero_log
        logs = num_r[:, None] + num_i - self._log[yr[:, None] ^ x]
        return self._exp[logs % (self.order - 1)].astype(np.uint32)


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
    return gf._exp[gf.order - 1 - gf._log[sums]].astype(np.uint32)


def _symbol_bytes(width: int, packet_bytes: int) -> int:
    """Bytes per symbol; sub-byte fields take one symbol per byte."""
    if width not in PRIMITIVE_POLY:
        raise OutOfRange(f"unsupported field width {width}, know {sorted(PRIMITIVE_POLY)}")
    sw = width // 8 if width >= 8 else 1
    if packet_bytes < 1 or packet_bytes % sw:
        raise DimensionMismatch(
            f"packet_bytes={packet_bytes} is not a positive multiple of {sw}-byte symbols"
        )
    return sw


def _check_sub_byte_range(symbols, width: int) -> None:
    """Byte-wide symbols fit fields of 8 or 16 bits; smaller fields need a check."""
    if width < 8 and any(not 0 <= s < 1 << width for s in symbols):
        raise OutOfRange(f"symbol outside GF(2^{width})")


def packet_to_symbols(x: int, packet_bytes: int, width: int) -> list[int]:
    """Split a packet integer (big-endian packet_bytes) into field symbols."""
    sw = _symbol_bytes(width, packet_bytes)
    try:
        raw = x.to_bytes(packet_bytes, "big")
    except OverflowError as e:
        raise OutOfRange(f"packet does not fit {packet_bytes} bytes") from e
    symbols = [int.from_bytes(raw[i:i + sw], "big") for i in range(0, packet_bytes, sw)]
    _check_sub_byte_range(symbols, width)
    return symbols


def symbols_to_packet(symbols, packet_bytes: int, width: int) -> int:
    """Inverse of packet_to_symbols."""
    sw = _symbol_bytes(width, packet_bytes)
    if len(symbols) * sw != packet_bytes:
        raise DimensionMismatch(f"{len(symbols)} symbols do not fill {packet_bytes} bytes")
    _check_sub_byte_range(symbols, width)
    try:
        raw = b"".join(int(s).to_bytes(sw, "big") for s in symbols)
    except OverflowError as e:
        raise OutOfRange(f"symbol outside GF(2^{width})") from e
    return int.from_bytes(raw, "big")


def _symbol_dtype(sw: int) -> np.dtype:
    return np.dtype(">u2" if sw == 2 else np.uint8)


def packets_to_symbols(packets, packet_bytes: int, width: int) -> np.ndarray:
    """packet_to_symbols for many packets at once: one uint32 row per packet."""
    sw = _symbol_bytes(width, packet_bytes)
    packets = list(packets)
    try:
        raw = b"".join(p.to_bytes(packet_bytes, "big") for p in packets)
    except (AttributeError, OverflowError) as e:
        raise OutOfRange(f"packet is not an integer of {packet_bytes} bytes") from e
    symbols = np.frombuffer(raw, dtype=_symbol_dtype(sw)).astype(np.uint32)
    if width < 8 and symbols.size and int(symbols.max()) >> width:
        raise OutOfRange(f"symbol outside GF(2^{width})")
    return symbols.reshape(len(packets), packet_bytes // sw)


def symbols_to_packets(symbols: np.ndarray, packet_bytes: int, width: int) -> list[int]:
    """Inverse of packets_to_symbols: one packet integer per row."""
    sw = _symbol_bytes(width, packet_bytes)
    symbols = np.asarray(symbols)
    if symbols.ndim != 2 or symbols.shape[1] * sw != packet_bytes:
        raise DimensionMismatch(f"symbol rows of shape {symbols.shape} do not fill {packet_bytes} bytes")
    if symbols.size and (symbols.min() < 0 or int(symbols.max()) >> width):
        raise OutOfRange(f"symbol outside GF(2^{width})")
    raw = symbols.astype(_symbol_dtype(sw)).tobytes()
    return [int.from_bytes(raw[i:i + packet_bytes], "big") for i in range(0, len(raw), packet_bytes)]
