"""Shortest round-trip decimal text of a float64 array, byte for byte as ``repr``.

:func:`reprs` computes, for a whole array at once, the digits that
``repr(float(v))`` prints: the shortest decimal that reads back as ``v``,
and of those the closest to ``v`` (ties to an even last digit).  The digits
come from Schubfach (R. Giulietti, "The Schubfach way to render doubles",
2020; Java's ``DoubleToDecimal``) in ``uint64`` arithmetic, with one change:
Java keeps at least two digits and ``repr`` does not, so the candidate one
digit shorter is taken whenever it is positive (``5e-324``, not ``4.9e-324``).
The text is laid out as ``repr`` lays it out: positional when the decimal
point falls in ``-4 < decpt <= 16``, with ``.0`` after an integral value,
else ``d.ddde±XX``; ``-0.0`` keeps its sign.

Every lookup table is built once, by :func:`_build`, when the module is
imported (about 1.5 ms, 1.2 of it for the 126-bit powers of ten of all 617
exponents).  The import lock holds other threads back until then, and
nothing changes the tables after it, so threads may call :func:`reprs` at
once.  ``cli`` imports this module only for a large table.  Only finite
values are valid input.

The gathers from the tables use ``take``, which took 0.23-0.69 of the time
of indexing with an array on a pass of 4,096 values.  The gather of the
overlapping byte windows does not: ``take`` first copies their whole
source, and the pass ran 1.7 times as long.
"""

from __future__ import annotations

import numpy as np

WIDTH = 24          # longest repr of a finite float64: '-1.7976931348623157e+308'

_K_MIN = -324       # decimal exponents k of the powers 10^-k, for every finite double
_K_SIZE = 617

# A row's text is read from its source row: NULs, the 17 digits of f right-aligned
# to column _LAST, a tail ('.0' or 'e±XX[X]' and NULs) over those after the
# printed ones, NULs.
_FRONT = 4
_LAST = _FRONT + 19
_ROW = _LAST + 1 + WIDTH      # a window reads at most WIDTH bytes after _LAST
# Values per numpy pass.  The pricing surface's table (blocks of 12,288 values) ran 11-13%
# slower with 2,048 and 20% slower with 8,192; a pass's temporaries take about 0.4 kB a value.
PASS = 4096

# layout codes: 0 no dot; p = 1..16 a dot after p digits; 17 + z: '0.' and z zeros first
_CODES = 21


def _flog2pow10(e):
    """floor(e log2 10), exact for |e| <= 1233."""
    return (e * 913124641741) >> 38


def _windows(flat: np.ndarray, width: int) -> np.ndarray:
    """Every ``width`` consecutive bytes of the contiguous ``flat`` as one item; item
    ``i`` starts at byte ``i`` (a view: assigning to an item writes ``flat``)."""
    return np.ndarray(buffer=flat, dtype=f"V{width}", shape=(flat.size - width + 1,), strides=(1,))


def _build() -> tuple[np.ndarray, ...]:
    """The lookup tables of :func:`_shortest` and :func:`_reprs`, in the order of the
    module constants they are unpacked into below."""
    # rows g1, g0, h - q of each k: g = g1 2^63 + g0 = floor(10^-k 2^-r) + 1 in
    # [2^125, 2^126), and the shift h = q + floor(-k log2 10) + 2; with Python ints
    powers = np.empty((3, _K_SIZE), np.uint64)
    for j in range(_K_SIZE):
        k = j + _K_MIN
        shift = 125 - _flog2pow10(-k)                   # -r
        if k > 0:
            g = (1 << shift) // 10 ** k + 1
        else:
            g = (10 ** -k << shift if shift >= 0 else 10 ** -k >> -shift) + 1
        # h - q can be negative: kept modulo 2^64, so that adding q in uint64 wraps to h
        powers[:, j] = g >> 63, g & ((1 << 63) - 1), (_flog2pow10(-k) + 2) % (1 << 64)
    # four ASCII digits of 0..9999 as one little-endian uint32, and their trailing zeros
    v = np.arange(10000, dtype=np.uint16)
    digits = np.empty((10000, 4), np.uint8)
    for i, place in enumerate((1000, 100, 10, 1)):
        digits[:, i] = v // place % 10 + 48
    quads = digits.view("<u4").ravel()
    trailing = sum((v % place == 0).astype(np.uint8) for place in (10, 100, 1000, 10000))
    pow10 = 10 ** np.arange(18, dtype=np.uint64)
    # 'e', the sign and two or three digits of the exponents -324..308, as 8 bytes
    e = np.arange(-324, 309)
    e_quads = quads[np.abs(e)].astype(np.uint64)
    exponent = ord("e") | np.where(e < 0, ord("-"), ord("+")).astype(np.uint64) << 8 \
        | (e_quads >> np.where(np.abs(e) >= 100, 8, 16).astype(np.uint64)) << 16
    # per layout key (sign, code): the constant bytes, and which columns are read
    # from the window before and after the dot
    j = np.arange(WIDTH)
    sign = np.arange(2)[:, None, None]
    code = np.arange(_CODES)[None, :, None]
    dot = np.where((code >= 1) & (code <= 16), sign + code, WIDTH)
    lead = sign + np.where(code >= 17, code - 15, 0)        # '-', then '0.' and zeros
    const = np.where((j == 0) & (sign == 1), ord("-"), 0) + np.where(j == dot, ord("."), 0) \
        + np.where((j >= sign) & (j < lead), np.where(j == sign + 1, ord("."), ord("0")), 0)
    const, before, after = (_windows(table.astype(np.uint8).ravel(), WIDTH)[::WIDTH]  # one item a row
                            for table in (const, 255 * ((j >= lead) & (j < dot)), 255 * (j > dot)))
    return powers, quads, trailing, pow10, exponent, const, before, after


_POWERS, _QUADS, _TRAILING, _POW10, _EXPONENT, _CONST, _BEFORE, _AFTER = _build()


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Schubfach: ``(f, k)``, ``f < 10^17``, with ``f 10^k`` the shortest decimal in the
    rounding interval of each positive finite double ``bits``, the closest if several."""
    t = bits & ((1 << 52) - 1)
    bq = (bits >> 52).astype(np.int64)
    c = np.where(bq != 0, t | (1 << 52), t)
    q = np.maximum(bq, 1) - 1075
    # above a power of two the next double is twice as far as the one below
    irregular = (t == 0) & (bq > 1)
    k = (q * 661971961083 - irregular * 274743187321) >> 41    # floor(log10 of the lower gap)
    g1, g0, h = _POWERS.take(k - _K_MIN, axis=1)
    # the value and its interval's ends, times 4 10^-k, as Java's rop(): vb, vbl, vbr
    cb = c << 2
    cp = np.stack([cb, cb - 2 + irregular, cb + 2])
    cp <<= h + q.astype(np.uint64)
    cp0, cp1 = cp & 0xFFFF_FFFF, cp >> 32

    def mulhi(a):
        # the high 64 bits of the 128-bit products a cp, from 32-bit halves; as a < 2^63
        # and cp < 2^60, the middle sum stays below 2^64 (in place: fewer live temporaries)
        a0, a1 = a & 0xFFFF_FFFF, a >> 32
        hi, part = a0 * cp0, a0 * cp1
        hi >>= 32
        hi += part
        np.multiply(a1, cp0, out=part)
        hi += part
        hi >>= 32
        np.multiply(a1, cp1, out=part)
        hi += part
        return hi

    z = g1 * cp
    z >>= 1
    z += mulhi(g0)
    vb, vbl, vbr = mulhi(g1) + (z >> 63) | ((z & ((1 << 63) - 1)) + ((1 << 63) - 1)) >> 63
    odd = c & 1                                     # an odd significand excludes the ends
    vbl += odd
    s = vb >> 2
    sp10 = s // 10 * 10
    # a candidate one digit shorter, when exactly one of sp10, sp10 + 10 is in the interval
    upin, wpin = vbl <= sp10 << 2, ((sp10 + 10) << 2) + odd <= vbr
    uin, win = vbl <= s << 2, ((s + 1) << 2) + odd <= vbr
    mid = (s << 2) + 2
    take_s = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & (s & 1 == 0)))
    f = np.where(take_s, s, s + 1)
    return np.where((upin != wpin) & (sp10 > 0), np.where(upin, sp10, sp10 + 10), f), k


def reprs(a: np.ndarray) -> np.ndarray:
    """A ``(a.size, WIDTH)`` ``uint8`` matrix whose row ``i`` holds the bytes of
    ``repr(float(a.flat[i]))`` followed by NULs.  Every value of ``a`` must be finite."""
    a = np.ascontiguousarray(a, dtype=np.float64).ravel()
    out = np.empty((a.size, WIDTH), np.uint8)
    for i in range(0, a.size, PASS):
        out[i:i + PASS] = _reprs(a[i:i + PASS])
    return out


def _reprs(a: np.ndarray) -> np.ndarray:
    """:func:`reprs` of a contiguous ``a`` of at most ``PASS`` values."""
    n = a.size
    bits = a.view(np.uint64)
    neg = (bits >> 63).astype(np.intp)
    f, k = _shortest(bits & ((1 << 63) - 1))
    zero = a == 0
    f[zero] = 0
    # the base-10^4 digits of f, most significant first
    hi, lo = np.divmod(f, 10**8)
    top, mid = np.divmod(hi.astype(np.uint32), 10**8)
    chunks = [top, *np.divmod(mid, 10**4), *np.divmod(lo.astype(np.uint32), 10**4)]
    tz = _TRAILING.take(chunks[4])                  # trailing zeros of f
    run = chunks[4] == 0
    for chunk in chunks[3::-1]:
        tz += run * _TRAILING.take(chunk)
        run &= chunk == 0
    nd = np.searchsorted(_POW10, f, side="right")   # digits of f
    nd[zero] = tz[zero] = 1                         # zero prints as the digit 0
    m = nd - tz                                     # significant digits
    decpt = np.where(zero, 1, nd + k)               # the value is 0.ddd 10^decpt
    sci = (decpt <= -4) | (decpt > 16)
    small = ~sci & (decpt <= 0)                     # 0.000ddd
    whole = ~sci & (decpt >= m)                     # ddd000.0, all digits of f (nd >= 16 here)
    dotted = ~sci & ~small & ~whole | sci & (m > 1)
    code = np.where(dotted, np.where(sci, 1, decpt), np.where(small, 17 - decpt, 0))
    src = np.zeros((n, _ROW), np.uint8)
    quads = src.view("<u4")
    for i, chunk in enumerate(chunks):
        quads[:, _FRONT // 4 + i] = _QUADS.take(chunk)
    # the tail after the printed digits ('.0', 'e±XX[X]' or nothing), then NULs over the
    # digits of f not printed, as the 16 little-endian bytes of two uint64
    tail = np.zeros((n, 2), "<u8")
    tail[:, 0] = np.where(sci, _EXPONENT.take(decpt + 323),
                          np.where(whole, ord(".") | ord("0") << 8, 0).astype(np.uint64))
    row = np.arange(n) * _ROW
    first = _LAST + 1 - nd
    _windows(src.ravel(), 16)[row + first + np.where(whole, decpt, m)] = tail.view("V16").ravel()
    # one window of WIDTH + 1 bytes per row; a column after the dot reads one byte earlier
    start = first - neg - np.where(small, 2 - decpt, 0)
    window = _windows(src.ravel(), WIDTH + 1)[row + start - 1].view(np.uint8).reshape(n, WIDTH + 1)
    del src
    key = neg * _CODES + code
    text, before, after = (table.take(key).view(np.uint8).reshape(n, WIDTH)
                           for table in (_CONST, _BEFORE, _AFTER))
    text |= np.bitwise_and(window[:, 1:], before, out=before)
    text |= np.bitwise_and(window[:, :-1], after, out=after)
    return text
