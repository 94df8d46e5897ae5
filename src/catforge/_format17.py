"""format(v, ".17g") for whole blocks of float64 values, byte for byte.

cells(values) returns one row of ASCII bytes per value, with NUL bytes in
the places a shorter string leaves empty; csv_lines(prefix, values) joins
such rows into CSV lines and drops every NUL once.  The 17 significant
digits are exact.  With e10 = floor(log10|v|) and k = 16 - e10, |v| 10^k is
formed as a double-double: Dekker's two-product of |v| and the double
nearest 10^k (Veltkamp splits; numpy has no fused multiply-add), plus |v|
times that double's remainder, from a table whose pairs hold 10^k within
2^-106 relative (T. J. Dekker, Numer. Math. 18, 224 (1971)).  The integer
part is exact and the fraction is off by less than 1e-13, so rounding to
the integer n is decided exactly.  A log10 one decade off (floor(|v| 10^k)
outside [10^16, 10^17)) is redone, and a rounding up to 10^17 moves the
exponent.  Values whose fraction lies within 1e-6 of one half (exact ties
such as 1 + 2^-17 round half to even), nan, infinities and |v| outside
[1e-282, 1e300) go to format() one at a time.

A row is four little-endian uint64 words, so that every step is a
one-dimensional numpy operation: word 0 holds the sign and the "0.000" of
1e-4 <= |v| < 1, words 1 and 2 and the low two bytes of word 3 the digits
with the point among them, and the rest of word 3 the "e+XXX".
"""

import functools
import math

import numpy as np

WIDTH = 32  # bytes per row
CHUNK = 8192  # values per kernel pass: bounds its temporaries
_K_MIN, _K_MAX = -290, 300  # 10^k table; lo stays a normal double at -290
_TINY, _HUGE = 1e-282, 1e300  # k +- 1 in the table; Veltkamp's |v| 2^27 finite
_SPLIT = 134217729.0  # 2^27 + 1
_E4, _E8, _E16, _E17 = 10 ** 4, 10 ** 8, 10 ** 16, 10 ** 17


def _words(rows):
    """(..., 8 m) bytes as (..., m) little-endian uint64 words."""
    return np.ascontiguousarray(rows, dtype=np.uint8).view("<u8")


@functools.cache
def _tables():
    """Tables built on first use from integer arithmetic, about 2 ms.

    Indexed by k - _K_MIN: hi, the double nearest 10^k, its Veltkamp split
    head + tail, and lo, the double nearest 10^k - hi; then, for e10 =
    16 - k, the digits before the point, the fewest digits shown, word 0
    and the suffix bytes of word 3.  Indexed by q = 0 .. 9999: its four
    ASCII digits as a word, and the 1-based place of its last nonzero digit
    (-99 for 0000).  Indexed by 19 point + length (digits before the point,
    bytes shown): per digit word, the masks of the bytes that stay, of the
    bytes that take the byte before them, and the point.
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
    powers = (hi, head, hi - head, np.array(los))

    quad = np.arange(10000, dtype=np.int16)
    digits = np.stack([quad // 1000, quad // 100 % 10, quad // 10 % 10,
                       quad % 10], axis=1)
    last = np.full(10000, -99, np.int8)
    for place in range(4):
        last[digits[:, place] != 0] = place + 1
    ascii4 = np.zeros((10000, 8), np.uint8)
    ascii4[:, :4] = digits + ord("0")

    e10 = 16 - np.arange(_K_MIN, _K_MAX + 1)
    fixed = (e10 >= -4) & (e10 < 17)
    below = fixed & (e10 < 0)
    point = np.where(fixed & ~below, e10 + 1, np.where(below, 17, 1))
    ends = np.zeros((e10.size, 16), np.uint8)  # word 0, word 3
    ends[:, 1:6] = np.frombuffer(b"0.000", np.uint8) * (
        np.arange(5) < np.where(below, 1 - e10, 0)[:, None])
    ends[:, 10] = ord("e")
    ends[:, 11] = np.where(e10 < 0, ord("-"), ord("+"))
    ends[:, 12:15] = ascii4[np.abs(e10), 1:4]
    ends[np.abs(e10) < 100, 12] = 0
    ends[fixed, 8:] = 0
    layout = (point, np.where(below, 0, point), *_words(ends).T)

    place = np.arange(24)
    before = np.arange(18)[:, None, None]
    shown = place < np.arange(19)[:, None]
    masks = np.concatenate([((place < before) & shown) * np.uint8(255),
                            ((place > before) & shown) * np.uint8(255),
                            ((place == before) & shown) * np.uint8(ord("."))],
                           axis=2)
    return (powers, layout, _words(ascii4).ravel(), last,
            np.ascontiguousarray(_words(masks).reshape(-1, 9).T))


def _scaled(a, i, powers):
    """floor(a 10^k) as int64 for k = _K_MIN + i; whether the fraction
    rounds it up; whether the fraction lies near one half."""
    hi, head, tail, lo = (np.take(t, i) for t in powers)
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
    and which nonzero values need format(); zeros give n = 10^16."""
    a = np.abs(v)
    fast = (a >= _TINY) & (a < _HUGE)
    a[~fast] = 1.0
    i = 16 - _K_MIN - np.floor(np.log10(a)).astype(np.intp)
    n, up, slow = _scaled(a, i, powers)
    off = (n < _E16) | (n >= _E17)  # log10 one decade off
    if off.any():
        i[off] += np.where(n[off] < _E16, 1, -1)
        n[off], up[off], slow[off] = _scaled(a[off], i[off], powers)
        slow |= (n < _E16) | (n >= _E17)
    n += up
    carry = n == _E17  # 99999999999999999.5 and above round to 10^(e10 + 1)
    n[carry] = _E16
    i[carry] -= 1
    return n, i, ~fast & (v != 0) | slow


def _digits(n, ascii4, last):
    """The 17 digits of n as three ASCII words, and how many of them run up
    to the last nonzero one."""
    # n = lead 10^16 + q0 10^12 + q1 10^8 + q2 10^4 + q3
    high = n // _E8
    low = n - high * _E8
    lead = high // _E8
    high -= lead * _E8
    q0 = high // _E4
    q2 = low // _E4
    quads = (q0, high - q0 * _E4, q2, low - q2 * _E4)
    sig = functools.reduce(np.maximum, [np.take(last, q) + 1 + 4 * j
                                        for j, q in enumerate(quads)], 1)
    a0, a1, a2, a3 = (np.take(ascii4, q) for q in quads)
    return sig, ((lead.astype(np.uint64) + ord("0")) | a0 << 8 | a1 << 40,
                 a1 >> 24 | a2 << 8 | a3 << 40,
                 a3 >> 24)


def _kernel(v):
    powers, layout, ascii4, last, masks = _tables()
    n, i, slow = _rounded(v, powers)
    sig, digits = _digits(n, ascii4, last)
    point, fewest, word0, word3 = (np.take(t, i) for t in layout)
    zero = v == 0
    length = np.maximum(sig, fewest) + (sig > point)
    length[zero] = 0
    cell = point * 19 + length  # lengths run 0 .. 18
    out = np.empty((v.size, 4), "<u8")
    out[:, 0] = (word0 | np.signbit(v).astype(np.uint64) * ord("-")
                 | zero.astype(np.uint64) * (ord("0") << 8))
    # bytes before the point stay, the point goes in, the bytes after it
    # take the byte before them: the digits moved up one byte, word by word
    for j in range(3):
        shifted = digits[j] << 8 | (digits[j - 1] >> 56 if j else 0)
        keep, take_before, dot = (np.take(m, cell) for m in masks[j::3])
        out[:, j + 1] = digits[j] & keep | shifted & take_before | dot
    out[:, 3] |= word3
    rows = out.view(np.uint8)
    for j in np.flatnonzero(slow):
        text = format(float(v[j]), ".17g").encode("ascii")
        rows[j] = 0
        rows[j, :len(text)] = np.frombuffer(text, np.uint8)
    return rows


def cells(values):
    """format(v, ".17g") of each float64 value, as (n, WIDTH) bytes with NULs.

    The last byte of every row is NUL.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    return np.concatenate([_kernel(v[lo:lo + CHUNK])
                           for lo in range(0, v.size or 1, CHUNK)])


def csv_lines(prefix, values):
    """CSV lines, as ASCII bytes, over the leading axes of values.

    The line at index i holds the cells prefix[0][i], prefix[1][i], ...
    (arrays from cells(), broadcast over values.shape[:-1]), then
    format(v, ".17g") of each v in values[i].
    """
    values = np.asarray(values, dtype=np.float64)
    *lead, k = values.shape
    fields = np.empty((*lead, len(prefix) + k, WIDTH), np.uint8)
    for j, column in enumerate(prefix):
        fields[..., j, :] = column
    fields[..., len(prefix):, :] = cells(values).reshape(*lead, k, WIDTH)
    # the last byte of a cell is free: it takes the comma or the line end,
    # then every NUL is dropped at once
    fields[..., -1] = ord(",")
    fields[..., -1, -1] = ord("\n")
    return fields[fields != 0].tobytes()
