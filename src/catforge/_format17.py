"""format(v, ".17g") for whole blocks of float64 values, byte for byte.

cells(values) returns one row of ASCII bytes per value, its text and a
comma, with NULs where the row is left empty; csv_lines(prefix, blocks)
streams such rows as CSV lines, each pass's NULs dropped at once.  The 17
significant digits are exact.  With e10 = floor(log10|v|) and k = 16 - e10,
|v| 10^k is formed as a double-double: Dekker's two-product of |v| and the
double nearest 10^k (Veltkamp splits; numpy has no fused multiply-add), plus
|v| times that double's remainder, from a table whose pairs hold 10^k within
2^-106 relative (T. J. Dekker, Numer. Math. 18, 224 (1971)).  The integer
part is exact and the fraction is off by less than 1e-13, so rounding to
the integer n is decided exactly.  A log10 one decade off (floor(|v| 10^k)
outside [10^16, 10^17)) is redone, and a rounding up to 10^17 moves the
exponent.  Values whose fraction lies within 1e-6 of one half (exact ties
such as 1 + 2^-17 round half to even), nan, infinities and |v| outside
[1e-282, 1e300) go to format() one at a time.

A row is four little-endian 64-bit words, its text in one piece, so that
the NULs between two cells are one run (the compaction pays per run): word
0 ends with the sign, the "0.000" of 1e-4 <= |v| < 1 and the leading digit;
the other 16 digits are two words of ASCII quads, moved up one byte past
the point; the "e+XXX" and the separator follow the last digit shown.
"""

import functools
import math

import numpy as np

WIDTH = 32  # bytes per row
CHUNK = 8192  # values per kernel pass: bounds its temporaries
_K_MIN, _K_MAX = -290, 300  # 10^k table; lo stays a normal double at -290
_NK = _K_MAX - _K_MIN + 1
_TINY, _HUGE = 1e-282, 1e300  # k +- 1 in the table; Veltkamp's |v| 2^27 finite
_SPLIT = 134217729.0  # 2^27 + 1
_E4, _E8, _E16, _E17 = 10 ** 4, 10 ** 8, 10 ** 16, 10 ** 17


@functools.cache
def _tables():
    """Tables built on first use from integer arithmetic, about 10 ms.

    Row i = k - _K_MIN: hi, the double nearest 10^k, its Veltkamp split head
    + tail, and lo, the double nearest 10^k - hi.  At i + _NK sign: word 0
    with "0" for its digit.  At q = 0 .. 9999, per quad: its ASCII digits plus
    2^32 times the digits up to its last nonzero one (0 for 0000).  At 18
    (i + _NK line end) + those digits, for words 1 .. 3: the masks of the
    bytes that stay (words 1, 2) and that take the byte before them, then
    the point, the exponent and the separator.
    """
    his, los = [], []
    power = 10 ** -_K_MIN
    for _ in range(_K_MIN, 0):
        hi = 1 / power  # int / int rounds correctly
        num, den = hi.as_integer_ratio()  # den = 2^s
        his.append(hi)
        los.append(math.ldexp((den - num * power) / power, 1 - den.bit_length()))
        power //= 10
    for _ in range(_K_MAX + 1):
        hi = float(power)
        his.append(hi)
        los.append(float(power - int(hi)))
        power *= 10
    hi = np.array(his)
    c = hi * _SPLIT
    head = c - (c - hi)
    powers = np.stack([hi, head, hi - head, np.array(los)], axis=1)

    quad = np.arange(10000)
    digits = np.stack([quad // 1000, quad // 100 % 10, quad // 10 % 10,
                       quad % 10], axis=1)
    last = ((digits != 0) * np.arange(1, 5)).max(axis=1)
    text = (digits + ord("0")).astype(np.uint8).view("<u4").ravel()
    quads = [text | np.where(last > 0, last + 1 + 4 * j, 0) << 32
             for j in range(4)]

    e10 = (16 - np.arange(_K_MIN, _K_MAX + 1)).tolist()
    below = ["0." + "0" * (-e - 1) if -4 <= e < 0 else "" for e in e10]
    word0 = np.array([int.from_bytes((sign + s + "0").encode().rjust(8, b"\0"),
                                     "little") for sign in ("", "-") for s in below])
    tails = np.frombuffer(b"".join(
        ((f"e{e:+03d}" if not -4 <= e < 17 else "") + sep).encode().ljust(8, b"\0")
        for sep in ",\n" for e in e10), np.uint8).reshape(-1, 8)
    point = np.array([e + 1 if 0 <= e < 17 else 17 if s else 1
                      for e, s in zip(e10, below)] * 2)[:, None]
    fewest = np.where([not s for s in below] * 2, point[:, 0], 1)[:, None]
    sig = np.arange(18)
    at = np.arange(1, 25, dtype=np.int8) - (  # text places of bytes 8 .. 31
        np.maximum(sig, fewest) + (sig > point)).astype(np.int8)[..., None]
    place = np.arange(1, 25) - point[..., None]  # and from the point
    masks = np.concatenate([
        ((place < 0) & (at < 0))[..., :16] * np.uint8(255),
        ((place > 0) & (at < 0)) * np.uint8(255),
        ((place == 0) & (at < 0)) * np.uint8(ord("."))
        + sum(tails[:, None, b, None] * (at == b) for b in range(6))], axis=-1)
    return (powers, word0, quads,
            np.ascontiguousarray(masks.view("<i8").reshape(-1, 8).T))


def _scaled(a, i, powers):
    """floor(a 10^k) as int64 for k = _K_MIN + i; whether the fraction
    rounds it up; whether the fraction lies near one half."""
    hi, head, tail, lo = np.moveaxis(powers.take(i, axis=0), -1, 0)
    c = a * _SPLIT
    a_head = c - (c - a)
    a_tail = a - a_head
    p = a * hi
    t = (((a_head * head - p) + a_head * tail + a_tail * head)
         + a_tail * tail) + a * lo
    whole = np.floor(t)
    frac = t - whole
    return (p.astype(np.int64) + whole.astype(np.int64), frac > 0.5,
            np.abs(frac - 0.5) < 1e-6)


def _rounded(v, powers):
    """n = round(|v| 10^k) with 10^16 <= n < 10^17, the index k - _K_MIN,
    and which values need format(); zeros give n = 0 at k = 16."""
    a = np.abs(v)
    fast = (a >= _TINY) & (a < _HUGE)
    a = np.where(fast, a, 2.0)
    # one decade high where log10 a is an integer; 2.0 keeps zeros off that
    i = (17 - _K_MIN - np.log10(a)).astype(np.intp)
    n, up, slow = _scaled(a, i, powers)
    off = (n < _E16) | (n >= _E17)  # log10 one decade off
    if off.any():
        i[off] += np.where(n[off] < _E16, 1, -1)
        n[off], up[off], slow[off] = _scaled(a[off], i[off], powers)
        slow |= (n < _E16) | (n >= _E17)
    n += up
    carry = n == _E17  # 99999999999999999.5 and above round to 10^(e10 + 1)
    n[carry] = _E16
    i -= carry
    nonzero = v != 0
    n *= nonzero
    return n, i, ~fast & nonzero | slow


def _kernel(v, out, end):
    """Write the rows of the values v into the int64 words out[..., 4];
    end[j] is true where column j ends its line."""
    powers, word0, quads, masks = _tables()
    n, i, slow = _rounded(v, powers)
    # n = lead 10^16 + high 10^8 + low, and high, low in base 10^4
    lead = n // _E16
    n -= lead * _E16
    high = n // _E8
    low = n - high * _E8
    q0, q2 = high // _E4, low // _E4
    t0, t1, t2, t3 = (t.take(q) for t, q in zip(quads, (
        q0, high - q0 * _E4, q2, low - q2 * _E4)))
    sig = np.maximum(np.maximum(t0, t1), np.maximum(t2, t3)) >> 32
    d1 = t0 & 0xFFFFFFFF | t1 << 32
    d2 = t2 & 0xFFFFFFFF | t3 << 32
    at = (i + _NK * end) * 18 + sig
    keep1, keep2, take1, take2, take3, end1, end2, end3 = (
        m.take(at) for m in masks)
    np.bitwise_or(word0.take(i + _NK * np.signbit(v)), lead << 56, out=out[..., 0])
    # bytes before the point stay, the point goes in, the bytes after it
    # take the byte before them: the digits moved up one byte
    np.bitwise_or(d1 & keep1 | d1 << 8 & take1, end1, out=out[..., 1])
    np.bitwise_or(d2 & keep2 | (d2 << 8 | d1 >> 56) & take2, end2, out=out[..., 2])
    np.bitwise_or(d2 >> 56 & take3, end3, out=out[..., 3])
    if slow.any():
        for j in zip(*np.nonzero(slow)):
            text = (format(float(v[j]), ".17g") + ",\n"[int(end[j[-1]])]).encode()
            out[j].view(np.uint8)[:] = np.frombuffer(text.ljust(WIDTH, b"\0"), np.uint8)


def cells(values):
    """format(v, ".17g") + "," of each float64 value, as (n, WIDTH) bytes
    with NULs: the prefix cells of csv_lines."""
    v = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    out = np.empty((len(v), WIDTH), np.uint8)
    _kernel(v, out.view("<i8")[:, None], np.zeros(1, bool))
    return out


def _pass(prefix, lo, values):
    """Lines lo, lo + 1, ... of csv_lines: the values after their prefix cells."""
    k = values.shape[-1]
    fields = np.empty((*values.shape[:-1], len(prefix) + k, WIDTH), np.uint8)
    for j, column in enumerate(prefix):
        fields[..., j, :] = column[lo:lo + len(values)] if len(column) > 1 else column
    _kernel(values, fields[..., len(prefix):, :].view("<i8"), np.arange(k) == k - 1)
    return fields[fields != 0]


def csv_lines(prefix, blocks):
    """Yield the CSV lines of blocks of float64 values as uint8 arrays of
    ASCII, in passes of at most CHUNK values but at least one line of a
    block's first axis.  A block's lines run over all its axes but the
    last: line i holds prefix[0][i], prefix[1][i], ..., then format(v,
    ".17g") of each v in block[i].  The prefix cells, from cells(), span the
    grid: a first axis longer than 1 counts lines through the blocks, and
    the others broadcast.  prefix[0] is flushed right and the rest left,
    once, so that the NULs between them make one run."""
    flushed, lo = [], 0
    for j, column in enumerate(prefix):
        nul = column == 0
        shift = -np.argmin(nul, -1) if j else np.argmin(nul[..., ::-1], -1)
        flushed.append(np.take_along_axis(
            column, (np.arange(WIDTH) - shift[..., None]) % WIDTH, -1))
    for block in blocks:
        block = np.asarray(block, dtype=np.float64)
        rows = max(1, CHUNK // math.prod(block.shape[1:]))
        for r in range(0, len(block), rows):
            yield _pass(flushed, lo + r, block[r:r + rows])
        lo += len(block)
