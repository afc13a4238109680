"""Python's float ``repr`` for whole arrays: CSV text of a float table.

``csv_text(table)`` returns exactly ``"".join(",".join(map(repr, row))
+ "\\n" for row in table.tolist())`` for a 2-d float64 table, without a
Python call per value.  Each field is the shortest decimal that reads
back as the same double (the closest one when several are shortest,
the even one on a tie), so ``float(field)`` returns the exact value.

Digits.  Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020; the algorithm of Java's ``Double.toString``) on uint64
arrays: the rounding interval's ends and midpoint are scaled by a
126-bit approximation g(k) of 10^-k with a round-to-odd product, which
decides exactly whether a 16-17 digit candidate s, s + 1, or a
candidate one digit shorter lies inside the interval.  Java keeps at
least two digits (Double.MIN_VALUE prints as 4.9E-324); ``repr`` does
not, so the shorter candidate is tried whenever s >= 10 and subnormals
need no rescaling.  The 64x64 -> 128-bit products are built from 32-bit
limbs.

Layout.  No numpy string operations.  Each value has 36 source bytes:
its 17 digits (the shortest digits padded with zeros) after "000", "0"
and three exponent digits, the constant characters ``.e+-infa`` and
the separator after the value (``,``, or a newline at the end of a
table row).  A pattern table, keyed by sign, form, number of
significant digits and decimal point position (or exponent sign and
width), lists which source bytes ``repr`` writes, in order.  One int32
gather of the pattern rows and one boolean compaction give the text's
bytes.  ``repr``'s rules: positional iff -4 < decpt <= 16 (the value is
0.d1d2... x 10^decpt), ``.0`` after an integer, exponents signed with
at least two digits, and ``0.0``, ``-0.0``, ``inf``, ``-inf``, ``nan``.

The tables are built on first use (a few ms), so importing this module
costs nothing.  Values are formatted in blocks of ``_BLOCK`` so that
each temporary stays well below the 1 MB to which cli raises glibc's
mmap threshold: larger ones are fresh mappings that fault on every
call.  ``csv_blocks`` yields each block's text as soon as it is
formatted, so a writer never holds more than one block of text;
``csv_text`` joins them.
"""

from __future__ import annotations

import functools

import numpy as np

_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
_M63 = _U64((1 << 63) - 1)
_BLOCK = 2048

# the source bytes of a block: nine planes of _BLOCK 4-byte words, one
# word per value in each: "000" and the leading digit, four groups of
# four digits, "0" and three exponent digits, the constants, and the
# separator.  Byte j of a value's source row is in plane j // 4.
_ROW = 36
_ZERO = 0
_DIGIT0 = 3
_EXP = 21
_DOT, _E, _PLUS, _MINUS, _I, _N, _F, _A, _SEP = range(24, 33)
_CONST = b".e+-infa"

# pattern keys: positional (digits 1..17, decpt -3..16), exponent
# (digits 1..17, exponent sign, 2 or 3 exponent digits), then 0, inf,
# nan; the same again for negative values
_DIGITS = 17
_DECPTS = range(-3, 17)
_N_POS = _DIGITS * len(_DECPTS)
_P_ZERO = _N_POS + _DIGITS * 4
_P_INF = _P_ZERO + 1
_P_NAN = _P_ZERO + 2
_N_PATTERNS = _P_ZERO + 3
# decpt of a nonzero double: -323 (5e-324) to 309 (1.8e308)
_DECPT_MIN = -323
_DECPT_SPAN = 640


def _flog10pow2(e):
    return e * 661_971_961_083 >> 41


def _flog10_three_quarters_pow2(e):
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e):
    return e * 913_124_641_741 >> 38


def _g(k: int) -> int:
    """floor(beta) + 1 for 10^-k = beta 2^r, 2^125 <= beta < 2^126."""
    if k <= 0:
        p = 10 ** -k
        r = p.bit_length() - 126
        return (p >> r if r >= 0 else p << -r) + 1
    d = 10 ** k
    return (1 << (125 + d.bit_length())) // d + 1


def _pattern(key: int) -> bytes:
    """Source bytes of the positive pattern ``key``, in output order."""
    if key >= _P_ZERO:
        special = ([_ZERO, _DOT, _ZERO], [_I, _N, _F], [_N, _A, _N])
        return bytes(special[key - _P_ZERO] + [_SEP])
    digits = list(range(_DIGIT0, _DIGIT0 + _DIGITS))
    if key < _N_POS:
        n, decpt = divmod(key, len(_DECPTS))
        n, decpt = n + 1, decpt + _DECPTS[0]
        if decpt <= 0:
            body = [_ZERO, _DOT] + [_ZERO] * -decpt + digits[:n]
        elif decpt >= n:
            body = digits[:n] + [_ZERO] * (decpt - n) + [_DOT, _ZERO]
        else:
            body = digits[:decpt] + [_DOT] + digits[decpt:n]
    else:
        n, rest = divmod(key - _N_POS, 4)
        eneg, wide = divmod(rest, 2)
        body = (digits[:1] + ([_DOT] + digits[1:n + 1] if n else [])
                + [_E, _MINUS if eneg else _PLUS]
                + list(range(_EXP + 1 - wide, _EXP + 3)))
    return bytes(body + [_SEP])


class _Tables:
    """The tables of the digits and of the byte layout, built once.

    ``k`` and ``h`` per row be + 2048 irregular: ``be`` is the biased
    exponent (0, the subnormals, on the scale of 1) and ``irregular``
    marks c = 2^52 above the smallest normal, whose rounding interval is
    narrower below than above.  ``g[:, k - k_min]``: the 32-bit limbs of
    g0 and g1, high ones first.  ``dig4[g]``: the 4 ASCII digits of
    g < 10^4 as one native uint32; ``tz4[g]``: their trailing zeros.
    ``keys[n * _DECPT_SPAN + decpt - _DECPT_MIN]``: the positive pattern
    of n significant digits whose decimal point is at ``decpt``.
    ``patterns``: the block offsets of each pattern's source bytes, left
    packed, and ``used`` marking them; ``base``: each value's offset.
    ``words``: the constant words and the two separator words.
    ``pow10``: 10^17 down to 10^0.
    """

    def __init__(self):
        q = np.maximum(np.arange(2048), 1) - 1075
        k = np.concatenate([_flog10pow2(q), _flog10_three_quarters_pow2(q)])
        limbs = []
        for g in map(_g, range(k.min(), k.max() + 1)):
            g1, g0 = g >> 63, g & ((1 << 63) - 1)
            limbs.append((g0 >> 32, g1 >> 32,
                          g0 & 0xFFFFFFFF, g1 & 0xFFFFFFFF))
        self.k = k.astype(np.int16)
        self.k_min = k.min()
        self.h = (np.tile(q, 2) + _flog2pow10(-k) + 2).astype(np.uint8)
        self.g = np.array(limbs, dtype=_U64).T.copy()
        digits = (np.arange(10_000)[:, None]
                  // np.array([1000, 100, 10, 1]) % 10)
        self.dig4 = (digits + ord("0")).astype(np.uint8).view(np.uint32)
        self.dig4 = self.dig4.ravel()
        self.tz4 = np.logical_and.accumulate(digits[:, ::-1] == 0,
                                             axis=1).sum(axis=1, dtype=np.int8)
        n = np.arange(_DIGITS + 1)[:, None]
        decpt = np.arange(_DECPT_SPAN) + _DECPT_MIN
        exp = decpt - 1
        self.keys = np.where((decpt > -4) & (decpt <= 16),
                             (n - 1) * len(_DECPTS) + decpt - _DECPTS[0],
                             _N_POS + (n - 1) * 4 + 2 * (exp < 0)
                             + (np.abs(exp) >= 100)).astype(np.int16).ravel()
        patterns = list(map(_pattern, range(_N_PATTERNS)))
        patterns += [p if key == _P_NAN else bytes([_MINUS]) + p
                     for key, p in enumerate(patterns)]
        width = max(map(len, patterns))
        rows = np.frombuffer(b"".join(p.ljust(width, b"\0") for p in patterns),
                             dtype=np.uint8).reshape(-1, width)
        self.patterns = rows // 4 * np.int32(4 * _BLOCK) + rows % 4
        self.used = (np.arange(width)
                     < np.array(list(map(len, patterns)))[:, None])
        self.base = np.arange(_BLOCK, dtype=np.int32)[:, None] * 4
        self.words = np.frombuffer(_CONST + b",\0\0\0\n\0\0\0",
                                   dtype=np.uint32)
        self.pow10 = 10 ** np.arange(_DIGITS, -1, -1)


_tables = functools.cache(_Tables)


def _interval(c, irregular, h):
    """4 (c - 1/2), 4 c, 4 (c + 1/2) shifted left by h (4 c - 1 first
    if irregular): the rounding interval in units of 2^q / 4."""
    cp = np.empty((3, c.size), dtype=_U64)
    cp[:] = c << _U64(2)
    cp[0] -= _U64(2)
    cp[0] += irregular
    cp[2] += _U64(2)
    cp <<= h
    return cp


def _rop(g, cp):
    """Schubfach's rop: g cp / 2^127 rounded to odd, per row of cp.

    ``g`` holds the 32-bit limbs (g0 high, g1 high, g0 low, g1 low) of
    g = g1 2^63 + g0.  The products of g0 and g1 (axis 0) with the rows
    of ``cp`` (axis 1) are built from 32-bit limbs; ``cp`` is
    overwritten.
    """
    ah, al = g[:2, None], g[2:, None]
    bh = cp >> _U64(32)
    cp &= _M32
    hh = ah * bh
    mid = al * cp
    y0 = mid[1] & _M32
    mid >>= _U64(32)
    part = al * bh
    mid += part
    hh += np.right_shift(mid, _U64(32), out=part)
    mid &= _M32
    mid += np.multiply(ah, cp, out=part)
    hh += np.right_shift(mid, _U64(32), out=part)
    x1, y1 = hh
    y0 |= mid[1] << _U64(32)
    y0 >>= _U64(1)
    y0 += x1
    y1 += y0 >> _U64(63)
    y0 &= _M63
    y0 += _M63
    y0 >>= _U64(63)
    return y1 | y0


def _shortest(bits, tables):
    """(m, k): m 10^k is ``repr``'s decimal of each positive double.

    Schubfach's toDecimal without Java's 2-digit floor.
    """
    be = (bits >> _U64(52)).view(np.int64)
    c = bits & _U64((1 << 52) - 1)
    irregular = c == 0
    irregular &= be > 1
    row = be + 2048 * irregular
    c |= np.minimum(be, 1).view(_U64) << _U64(52)
    k = tables.k.take(row)
    vbl, vb, vbr = _rop(tables.g.take(k - tables.k_min, axis=1),
                        _interval(c, irregular, tables.h.take(row)))
    vbl += c & _U64(1)
    vbr -= c & _U64(1)
    # the interval holds at most one multiple of 10: one digit shorter
    s = vb >> _U64(2)
    sp10 = s // _U64(10)
    sp10 *= _U64(10)
    s4 = sp10 << _U64(2)
    upin = vbl <= s4
    s4 += _U64(40)
    shorter = s4 <= vbr
    shorter ^= upin
    shorter &= s >= _U64(10)
    sp10 += ~upin * _U64(10)
    # else s or s + 1: the one inside, or the closer one, even on a tie
    s4 = s << _U64(2)
    lower = vbl <= s4
    s4 += _U64(4)
    upper = s4 <= vbr
    s4 -= _U64(2)
    closer = vb + (s & _U64(1)) <= s4
    s += np.where(lower == upper, ~closer, upper)
    return np.where(shorter, sp10, s).view(np.int64), k


def _block_bytes(bits, words, tables):
    """The text of the block of doubles ``bits`` as uint8 bytes.

    ``words`` holds the block's source planes: this fills the digit and
    exponent planes; the constants and separators are already there.
    """
    n = bits.size
    a = bits & _M63
    # zeros, inf and nan take 1.0's digits, then their own pattern
    regular = a - _U64(1) < _U64(0x7FF0_0000_0000_0000 - 1)
    special = not regular.all()
    if special:
        a[~regular] = 0x3FF0_0000_0000_0000
    m, k = _shortest(a, tables)
    # normal values have 16 or 17 digits
    length = (m >= 10 ** 16) + 16
    if a.min() < 1 << 52:
        tiny = a < 1 << 52
        length[tiny] = np.searchsorted(tables.pow10[::-1], m[tiny],
                                       side="right")
    m *= tables.pow10.take(length)
    # digit groups: the leading digit, four groups of four, |decpt - 1|
    groups = np.empty((6, n), dtype=np.int64)
    groups[2] = m // 10 ** 8
    groups[4] = m - groups[2] * 10 ** 8
    groups[0] = groups[2] // 10 ** 8
    groups[2] -= groups[0] * 10 ** 8
    np.floor_divide(groups[2:5:2], 10_000, out=groups[1:5:2])
    groups[2:5:2] -= groups[1:5:2] * 10_000
    decpt = k + length
    groups[5] = np.abs(decpt - 1)
    words[:6, :n] = tables.dig4.take(groups)
    # significant digits: through the last group that is not zero
    zero = groups[1:5] == 0
    zero_tail = zero[3].astype(np.intp)
    run = zero[3] & zero[2]
    zero_tail += run
    run &= zero[1]
    zero_tail += run
    run &= zero[0]
    zero_tail += run
    last_group = groups.ravel().take((4 - zero_tail) * n + np.arange(n))
    n_sig = _DIGITS - 4 * zero_tail - tables.tz4.take(last_group)
    key = tables.keys.take(n_sig * _DECPT_SPAN + decpt - _DECPT_MIN)
    if special:
        x = bits[~regular].view(np.float64)
        key[~regular] = np.where(x == 0, _P_ZERO,
                                 np.where(np.isnan(x), _P_NAN, _P_INF))
    key += (bits >> _U64(63)).view(np.int64) * _N_PATTERNS
    index = tables.patterns.take(key, axis=0)
    index += tables.base[:n]
    index = index[tables.used.take(key, axis=0)]
    return words.view(np.uint8).ravel().take(index)


def csv_blocks(table):
    """The text of ``csv_text(table)``, yielded as each block of
    ``_BLOCK`` values is formatted: the strings join to ``csv_text``'s."""
    table = np.asarray(table, dtype=np.float64)
    if table.size == 0:
        return
    n_cols = table.shape[1]
    values = table.ravel().view(_U64)
    tables = _tables()
    words = np.empty((_ROW // 4, _BLOCK), dtype=np.uint32)
    words[6:8] = tables.words[:2, None]
    last = np.arange(_BLOCK + n_cols) % n_cols == n_cols - 1
    separators = tables.words[2:].take(last)
    for start in range(0, values.size, _BLOCK):
        bits = values[start:start + _BLOCK]
        words[8, :bits.size] = separators[start % n_cols:][:bits.size]
        yield str(_block_bytes(bits, words, tables), "ascii")


def csv_text(table) -> str:
    """``repr`` of every value of a 2-d table, ``,`` between the values
    of a row and a newline after each row."""
    return "".join(csv_blocks(table))
