"""Table-based arithmetic in GF(2^w) plus the Cauchy coding matrix.

Log/antilog tables are built once per width from the classic primitive
polynomials. With n = 2^w - 1, the antilog table covers every sum of two
nonzero logs, 0..2n-2, and ends in one zero entry at 2n-1. The log of 0 is
that index, a sentinel: any sum with it lands at or past the end, and the
gathers clip to the last entry. So a product is exp[log a + log b] for every
a and b, zero included, with no reduction and no mask. The antilog table
holds GF.dtype, the narrowest unsigned type that fits the field, and so do
the symbols bytes_to_symbols reads; vectors and matrices, and the symbols of
packet ints, are numpy uint32 arrays of field elements.

Packets split into big-endian 8- or 16-bit symbols, so only GF(2^8) and
GF(2^16) carry packets; the narrower fields have arithmetic only.
"""

from array import array
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, FieldTooSmall, OutOfRange, SingularSystem
from .util import converted, is_int, packet_ints, require_ints, require_type

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
        require_ints(width=width)
        if width not in PRIMITIVE_POLY:
            raise OutOfRange(f"unsupported field width {width}, know {sorted(PRIMITIVE_POLY)}")
        self.width = width
        self.order = 1 << width
        self.dtype = np.dtype(np.uint8 if width <= 8 else np.uint16)  # the narrowest that fits
        n = self.order - 1
        powers = array("I")
        x = 1
        for _ in range(n):
            powers.append(x)
            x <<= 1
            if x & self.order:
                x ^= PRIMITIVE_POLY[width]
        self.zero_log = 2 * n - 1
        exp = np.zeros(2 * n, dtype=self.dtype)
        exp[:n] = np.frombuffer(powers, dtype=np.uint32)
        exp[n:self.zero_log] = exp[:n - 1]
        log = np.full(self.order, self.zero_log, dtype=np.int32)
        log[exp[:n]] = np.arange(n, dtype=np.int32)
        # the generator has full period, so the poly is primitive, only if
        # every nonzero element is one of its powers
        if (log[1:] == self.zero_log).any():
            raise OutOfRange(f"polynomial for width {width} is not primitive")
        self._exp = exp
        self._log = log

    def _antilog(self, logs):
        """exp at each log-sum; sums reaching the zero sentinel clip to the last entry, 0."""
        return self._exp.take(logs, mode="clip")

    def _integers(self, x) -> np.ndarray:
        """x, an int or an integer array, as an array; OutOfRange for anything else."""
        try:
            arr = np.asarray(x)
        except ValueError as e:  # a ragged nesting of lists
            raise OutOfRange(f"a ragged operand holds no GF(2^{self.width}) elements") from e
        if arr.dtype.kind not in "iu":
            raise OutOfRange(f"an operand of {arr.dtype} holds no GF(2^{self.width}) elements")
        return arr

    def _elements(self, x) -> np.ndarray:
        """x, an int or an integer array, as an array of field elements.

        Raises OutOfRange for anything else: the log table is indexed by raw
        values, so a negative one would wrap around to a wrong answer, and
        one past the table, a float or a string would raise a TypeError or
        an IndexError. An unsigned type no wider than the field is not scanned.
        """
        arr = self._integers(x)
        if arr.dtype.kind == "u" and arr.dtype.itemsize * 8 <= self.width:
            return arr
        if arr.size and (arr.min() < 0 or arr.max() >= self.order):
            raise OutOfRange(f"element outside GF(2^{self.width})")
        return arr

    def _log_operand(self, a_logs) -> np.ndarray:
        """a_logs as an integer array of logs, each below 2^w - 1 or the
        sentinel; OutOfRange for anything else, as for _elements."""
        arr = self._integers(a_logs)
        if arr.size and (arr.min() < 0 or ((arr >= self.order - 1) & (arr != self.zero_log)).any()):
            raise OutOfRange(f"a log outside GF(2^{self.width})'s logs")
        return arr

    def _element(self, a) -> int:
        """a as one field element; OutOfRange for anything but an int in the field."""
        if not ((is_int(a) or isinstance(a, np.integer)) and 0 <= a < self.order):
            raise OutOfRange(f"{a!r} is not an element of GF(2^{self.width})")
        return int(a)

    def mul(self, a: int, b: int) -> int:
        a, b = self._element(a), self._element(b)
        return int(self._antilog(self._log[a] + self._log[b]))

    def inv(self, a: int) -> int:
        a = self._element(a)
        if a == 0:
            raise SingularSystem("0 has no inverse")
        return int(self._exp[self.order - 1 - self._log[a]])

    def _outer(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Outer product table u[i]*v[j]."""
        return self._antilog(self._log[u][:, None] + self._log[v][None, :])

    def scale_row(self, v: np.ndarray, s: int) -> np.ndarray:
        v, s = self._elements(v), self._element(s)
        return self._antilog(self._log[v] + self._log[s])

    def matmul(self, a: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Matrix product over the field; a is (m, k), x is (k, n).

        For each inner index j, the products a[:, j] * x[j, :] are one gather
        XORed into the output. Rows of a go in blocks of _STEP_ELEMENTS // n,
        which bounds the temporaries of one step.
        """
        a, x = self._elements(a), self._elements(x)
        if a.ndim != 2 or x.ndim != 2 or a.shape[1] != x.shape[0]:
            raise DimensionMismatch(f"cannot multiply {a.shape} by {x.shape}")
        m, k = a.shape
        out = np.zeros((m, x.shape[1]), dtype=self.dtype)
        lx = self._log.take(x)
        block = max(1, _STEP_ELEMENTS // max(1, x.shape[1]))
        for i in range(0, m, block):
            la = self._log[a[i:i + block].T][:, :, None]
            acc = out[i:i + block]
            for j in range(k):
                acc ^= self._antilog(la[j] + lx[j])
        return out.astype(np.uint32)

    def logs(self, a) -> np.ndarray:
        """The logs of field elements a, 0's being the sentinel: the form in
        which dot_logs takes its matrix."""
        return self._log.take(self._elements(a))

    def dot_logs(self, a_logs, x) -> np.ndarray:
        """Each row of a matrix a times its own vectors of x: out[i] =
        sum_j a[i, j] * x[j, i] for a (m, k) given by its logs and x of shape
        (k, m, n), so m rows cost m*k*n products however many rows a full
        matmul would take. The checked public form of _dot_logs, the one
        kernel, which the coded decode calls itself on operands it built in
        the field, having taken x's logs once per seen row.
        """
        a_logs, x = self._log_operand(a_logs), self._elements(x)
        if a_logs.ndim != 2 or x.ndim != 3 or x.shape[:2] != a_logs.shape[::-1]:
            raise DimensionMismatch(f"cannot take rows of {a_logs.shape} against {x.shape}")
        return self._dot_logs(a_logs, self._log.take(x)).astype(np.uint32)

    def _dot_logs(self, a_logs: np.ndarray, x_logs: np.ndarray) -> np.ndarray:
        """dot_logs of checked operands, x as logs: one add, gather and XOR-reduce over k."""
        return np.bitwise_xor.reduce(self._antilog(a_logs.T[:, :, None] + x_logs), axis=0)

    def solve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Solve a @ x = b by Gauss-Jordan elimination; a must be square."""
        a = self._elements(a).astype(np.uint32)
        b = self._elements(b).astype(np.uint32)
        n = a.shape[0] if a.ndim else 0
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

    def _log_sums(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """sum_k log(a_i + b_k) per i, a block of rows at a time."""
        out = np.empty(len(a), dtype=np.int64)
        step = max(1, _STEP_ELEMENTS // max(1, len(b)))
        for i in range(0, len(a), step):
            out[i:i + step] = self._log[a[i:i + step, None] ^ b].sum(axis=1, dtype=np.int64)
        return out

    def cauchy_inverse(self, m1: int, cols, rows=None) -> np.ndarray:
        """The inverse of cauchy_matrix(m1, m2, self)[rows][:, cols], in closed form.

        rows names distinct rows of the m1 (all of them by default) and cols
        as many distinct columns; row r of the inverse recovers the unknown
        of column cols[r]. With row labels x = rows and column labels
        y = m1 + cols, entry (r, i) is

            prod_k (x_i + y_k) * prod_k (x_k + y_r)
            / ((x_i + y_r) * prod_{k != i} (x_i + x_k) * prod_{k != r} (y_r + y_k))

        (Schechter 1959; signs vanish in characteristic 2), evaluated as a
        sum of logs. Each product over k != i is the full log-sum less the
        diagonal term, which is log 0, the sentinel.
        """
        require_ints(m1=m1)
        cols = _labels(cols, "cols")
        rows = list(range(m1)) if rows is None else _labels(rows, "rows")
        n = len(cols)
        if n < 1 or len(rows) != n:
            raise DimensionMismatch(f"need as many rows as columns, at least one; got {len(rows)} and {n}")
        if min(cols) < 0 or len(set(cols)) != n:
            raise OutOfRange("cauchy_inverse needs distinct nonnegative column indices")
        if min(rows) < 0 or max(rows) >= m1 or len(set(rows)) != n:
            raise OutOfRange(f"cauchy_inverse needs distinct row indices in [0, {m1})")
        if m1 + max(cols) >= self.order:
            raise FieldTooSmall(f"column label {m1 + max(cols)} exceeds field order {self.order}")
        x = np.array(rows, dtype=np.int32)
        y = m1 + np.array(cols, dtype=np.int32)
        num_i = self._log_sums(x, y) - self._log_sums(x, x) + self.zero_log
        num_r = self._log_sums(y, x) - self._log_sums(y, y) + self.zero_log
        logs = num_r[:, None] + num_i - self._log[y[:, None] ^ x]
        return self._exp[logs % (self.order - 1)].astype(np.uint32)


def _labels(values, name: str) -> list[int]:
    """values as a list of ints; OutOfRange for no iterable or a non-integer entry."""
    values = converted(list, values, name, OutOfRange)
    if not all(is_int(v) or isinstance(v, np.integer) for v in values):
        raise OutOfRange(f"{name}={values!r} holds a non-integer")
    return [int(v) for v in values]


def field(width: int) -> GF:
    """Shared GF instance per width (table build is not free for 2^16)."""
    require_ints(width=width)
    return _field(width)


@lru_cache(maxsize=None)
def _field(width: int) -> GF:
    return GF(width)


def cauchy_matrix(m1: int, m2: int, gf: GF) -> np.ndarray:
    """m1 x m2 Cauchy matrix over gf; every square submatrix is invertible.

    Row labels are the first m1 field elements, column labels the next m2;
    entry (i, j) is 1/(x_i + y_j). Needs m1 + m2 distinct elements.
    """
    require_ints(m1=m1, m2=m2)
    require_type(gf, GF, "gf")
    if m1 < 1 or m2 < 1 or m1 > m2:
        raise OutOfRange(f"need 1 <= m1 <= m2, got m1={m1} m2={m2}")
    if m1 + m2 > gf.order:
        raise FieldTooSmall(f"m1+m2={m1 + m2} exceeds field order {gf.order}")
    # x_i + y_j = i ^ (m1 + j) is never 0, so the inverse is exp[-log]
    sums = np.arange(m1, dtype=np.uint32)[:, None] ^ np.arange(m1, m1 + m2, dtype=np.uint32)
    return gf._exp[gf.order - 1 - gf._log[sums]].astype(np.uint32)


def _symbol_bytes(width: int, packet_bytes: int) -> int:
    """Bytes per symbol: packets split into 8- or 16-bit symbols only."""
    require_ints(packet_bytes=packet_bytes)
    if width not in (8, 16):
        raise OutOfRange(f"packets split into 8- or 16-bit symbols, not {width}-bit")
    sw = width // 8
    if packet_bytes < 1 or packet_bytes % sw:
        raise DimensionMismatch(
            f"packet_bytes={packet_bytes} is not a positive multiple of {sw}-byte symbols"
        )
    return sw


def packet_to_symbols(x: int, packet_bytes: int, width: int) -> list[int]:
    """Split a packet integer (big-endian packet_bytes) into field symbols."""
    return packets_to_symbols([x], packet_bytes, width)[0].tolist()


def symbols_to_packet(symbols, packet_bytes: int, width: int) -> int:
    """Inverse of packet_to_symbols."""
    return symbols_to_packets([symbols], packet_bytes, width)[0]


def bytes_to_symbols(packets: np.ndarray, width: int) -> np.ndarray:
    """uint8 packets, bytes on the last axis, as big-endian symbols: a new uint8
    or uint16 array, GF.dtype, with width/8 times fewer entries on that axis."""
    _symbol_bytes(width, packets.shape[-1])
    narrow = field(width).dtype
    return np.ascontiguousarray(packets).view(narrow.newbyteorder(">")).astype(narrow)


def symbols_to_bytes(symbols: np.ndarray, width: int) -> np.ndarray:
    """Inverse of bytes_to_symbols for symbols already in the field."""
    return symbols.astype(field(width).dtype.newbyteorder(">"), order="C").view(np.uint8)


def packets_to_symbols(packets, packet_bytes: int, width: int) -> np.ndarray:
    """Split many packet integers into symbols at once: one uint32 row per packet."""
    sw = _symbol_bytes(width, packet_bytes)
    packets = converted(list, packets, "packets", OutOfRange)
    try:
        raw = b"".join(p.to_bytes(packet_bytes, "big") for p in packets)
    except (AttributeError, OverflowError) as e:
        raise OutOfRange(f"packet lies outside the {packet_bytes}-byte integers") from e
    symbols = np.frombuffer(raw, field(width).dtype.newbyteorder(">"))
    return symbols.reshape(len(packets), packet_bytes // sw).astype(np.uint32)


def symbols_to_packets(symbols: np.ndarray, packet_bytes: int, width: int) -> list[int]:
    """Inverse of packets_to_symbols: one packet integer per row."""
    sw = _symbol_bytes(width, packet_bytes)
    symbols = np.asarray(symbols)
    if symbols.ndim != 2 or symbols.shape[1] * sw != packet_bytes:
        raise DimensionMismatch(f"symbol rows of shape {symbols.shape} do not fill {packet_bytes} bytes")
    if symbols.size and (symbols.min() < 0 or int(symbols.max()) >> width):
        raise OutOfRange(f"symbol outside GF(2^{width})")
    return packet_ints(symbols_to_bytes(symbols, width).tobytes(), packet_bytes)
