"""Shortest round-trip text of float64 arrays, byte for byte the text of ``repr``.

``repr`` prints the shortest decimal that reads back to the same double and,
of those, the nearest (Gay 1990; Adams 2018, Ryu).  The bulk path finds those
digits exactly with integer arithmetic, for a whole array at once.

Take a finite x with 1e-6 <= |x| < 1e15.  Write |x| = M 2^E with a 53-bit M,
k = floor(log10 |x|) and s = 16 - k (0 <= s <= 22, so 5^s < 2^52).  Then
X = |x| 10^s = F 2^-sh, with F = M 5^s computed exactly as a 128-bit product
of 32-bit limbs and sh = -(E + s), has 17 digits before its point.  A
multiple D of 10^(17-p) is a p-digit decimal of x's decade, and it reads
back as x iff 2 |D 2^sh - F| < 5^s: it lies strictly inside x's rounding
interval.  (D never lies on the edge, x +- 2^(E-1): that would need
sh < 0, and sh >= 1 throughout this range.)

The interval is symmetric and narrower than the spacing of 15-digit
decimals.  So some p-digit decimal round-trips iff the nearest one, N_p,
does; at most one 15-digit decimal does, and ``repr``'s digits are then N_15
without its trailing zeros.  Otherwise they are N_16 if it round-trips, and
N_17 if not.  A power of two has an interval narrower below it, but in this
range it is itself a decimal of at most 15 digits, N_15 at distance 0.

Everything the bulk path cannot decide goes to ``repr`` itself: NaN, the
infinities, subnormals and other magnitudes outside the range (zeros are laid
out directly), an X halfway between two candidates, and an N_p outside its
decade (k misjudged next to a power of ten).

The module also owns the layout of a table's text.  A text column is an (n,
width) uint8 array with one text per row: its UTF-8 bytes, with PAD bytes in
and after them.  ``lines`` joins columns into one blob of LF-terminated CSV
lines; a NaN in a numeric column is an empty cell, as the loaders read it.
"""

from __future__ import annotations

import numpy as np

# The slot of a value: "-0.000", its 17 digits each followed by ".", then "e-0" and
# the exponent's last digit.  Every text of the bulk path is a subsequence of its
# slot; the slot bytes that a text leaves out are set to PAD, a byte UTF-8 never uses.
_SLOT = np.frombuffer(b"-0.000" + b"0." * 17 + b"e-05", np.uint8)
WIDTH = len(_SLOT)                # 44; the longest repr of a double has 24 bytes
PAD = 0xFF
CHUNK = 2048                      # values per pass; bounds the (CHUNK, WIDTH) temporaries
# Rows joined at a time.  It keeps each temporary near 150 KB: the allocator then
# reuses freed blocks, where larger ones grew the process's peak memory.
_BLOCK = 1024
_K_MIN, _K_MAX = -6, 14           # decades of the bulk path: 1e-6 <= |x| < 1e15
_DIGITS = slice(6, 40, 2)         # slot columns of the 17 digits

_U1, _U32, _U64 = np.uint64(1), np.uint64(32), np.uint64(64)
_LOW32 = np.uint64(0xFFFFFFFF)
_POW5 = np.array([5 ** s for s in range(17 - _K_MIN)], dtype=np.uint64)
_E4, _E8 = np.uint64(10 ** 4), np.uint64(10 ** 8)


def _quads():
    """The four ASCII digits of every integer 0..9999, one uint32 each.

    Built from the 100 digit pairs, so that the import allocates little.
    """
    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint8).reshape(100, 2)
    quads = np.empty((100, 100, 4), np.uint8)
    quads[:, :, :2] = pairs[:, None]
    quads[:, :, 2:] = pairs[None, :]
    return quads.view(np.uint32).ravel()


_QUADS = _quads()


def _hidden():
    """PAD over the slot bytes that a text leaves out, 0 over those it keeps.

    Item ``_layout(negative, shown, k)`` is for a sign, a count of significant
    digits (0 for a zero) and k; each item is one WIDTH-byte row.
    """
    rows = []
    digits = list(range(_DIGITS.start, _DIGITS.stop, _DIGITS.step))   # "." follows each
    for shown in range(18):
        for k in range(_K_MIN, _K_MAX + 1):
            if not shown:                                             # "0.0"
                keep = [1, 2, 3]
            elif k >= 0:            # a zero after the point if the digits end before it
                keep = digits[:k + 1] + [digits[k] + 1] + digits[k + 1:max(shown, k + 2)]
            elif k >= -4:                                             # "0.00ddd"
                keep = [1, 2, 3, 4, 5][:1 - k] + digits[:shown]
            else:                                                     # "d.ddde-05"
                point = [digits[0] + 1] if shown > 1 else []
                keep = digits[:1] + point + digits[1:shown] + [40, 41, 42, 43]
            row = bytearray([PAD]) * WIDTH
            for column in keep:
                row[column] = 0
            rows.append(row)
    positive = np.frombuffer(b"".join(rows), np.uint8).reshape(len(rows), WIDTH)
    negative = positive.copy()
    negative[:, 0] = 0                                                # the "-"
    return np.concatenate([positive, negative]).view(f"V{WIDTH}").ravel()


_HIDDEN = _hidden()


def _layout(negative, shown, k):
    return (negative * 18 + shown) * (_K_MAX - _K_MIN + 1) + (k - _K_MIN)


def _nearest(whole, rest, shift, five, q):
    """The multiple of q nearest to X = whole + rest 2^-shift, whether it round-trips, and
    whether it is unique (X is not halfway between two).  Distances are kept times 2^shift."""
    r = whole - whole // q * q
    below = (r << shift) + rest
    above = ((q - r) << shift) - rest
    twice = np.minimum(below, above) << _U1
    return whole - r + q * (above < below), twice < five, below != above


def _digits(values):
    """``repr``'s digits of a chunk of doubles as a 17-digit integer n, with trailing zeros
    if there are fewer; their count if 16 or 17, else 15; k; and where the bulk path
    decided them.  Elsewhere the first three are meaningless."""
    size = np.abs(values)
    bulk = (size >= 1e-6) & (size < 1e15)                  # False for NaN
    size = np.where(bulk, size, 1.0)
    fraction, binary = np.frexp(size)
    mantissa = (fraction * 2.0 ** 53).astype(np.uint64)
    k = np.minimum(np.maximum(np.floor(np.log10(size)).astype(np.int64), _K_MIN), _K_MAX)
    s = 16 - k
    shift = 53 - binary - s                                # 1..52 throughout the bulk range
    bulk &= (shift >= 1) & (shift <= 52)
    shift = shift.astype(np.uint64)
    five = _POW5[s]
    m0, m1 = mantissa & _LOW32, mantissa >> _U32
    f0, f1 = five & _LOW32, five >> _U32
    middle = m0 * f1 + m1 * f0
    low = m0 * f0
    product_low = low + ((middle & _LOW32) << _U32)        # F modulo 2^64 ...
    product_high = m1 * f1 + (middle >> _U32) + (product_low < low)   # ... and F // 2^64
    whole = (product_low >> shift) | (product_high << (_U64 - shift))
    rest = product_low & ((_U1 << shift) - _U1)
    n15, trips15, unique15 = _nearest(whole, rest, shift, five, np.uint64(100))
    n16, trips16, unique16 = _nearest(whole, rest, shift, five, np.uint64(10))
    n17, trips17, unique17 = _nearest(whole, rest, shift, five, _U1)
    n = np.where(trips15, n15, np.where(trips16, n16, n17))
    n_digits = np.where(trips15, 15, np.where(trips16, 16, 17))
    bulk &= unique15 & (trips15 | (unique16 & (trips16 | (unique17 & trips17))))
    bulk &= (n >= np.uint64(10 ** 16)) & (n < np.uint64(10 ** 17))
    return n, n_digits, k, bulk


def _chunk_text(values):
    n, shown, k, bulk = _digits(values)
    size = len(values)
    high = n // _E8                      # n's 17 digits: one, then four groups of four
    low = n - high * _E8
    top = high // _E8
    middle = high - top * _E8
    middle_top, low_top = middle // _E4, low // _E4
    groups = np.empty((size, 4), np.intp)
    groups[:, 0], groups[:, 1] = middle_top, middle - middle_top * _E4
    groups[:, 2], groups[:, 3] = low_top, low - low_top * _E4
    digits = np.empty((size, 17), np.uint8)
    digits[:, 0] = top + np.uint64(ord("0"))
    digits[:, 1:].view(np.uint32)[:] = _QUADS[groups]
    short = np.flatnonzero(shown == 15)  # N_15 without its trailing zeros
    shown[short] = 17 - np.argmax(digits[short, ::-1] != ord("0"), axis=1)
    zero = values == 0
    shown[zero] = 0
    bulk |= zero
    slot = np.empty((size, WIDTH), np.uint8)
    slot[:] = _SLOT
    slot[:, _DIGITS] = digits
    slot[:, -1] = np.where(k == -6, ord("6"), ord("5"))
    layout = np.where(bulk, _layout(np.signbit(values), shown, k), 0)
    slot |= _HIDDEN[layout].view(np.uint8).reshape(size, WIDTH)
    slow = np.flatnonzero(~bulk)
    if slow.size:
        pad = bytes([PAD])
        reprs = b"".join(repr(v).encode().ljust(WIDTH, pad) for v in values[slow].tolist())
        slot[slow] = np.frombuffer(reprs, np.uint8).reshape(-1, WIDTH)
    return slot


def texts(values):
    """``repr`` of every value of a real array in C order, as an (n, WIDTH) uint8 array.

    Row i holds the ASCII text of value i with PAD bytes in and after it: the
    text is the row without its PAD bytes.
    """
    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    text = np.empty((values.size, WIDTH), np.uint8)
    for start in range(0, values.size, CHUNK):
        text[start:start + CHUNK] = _chunk_text(values[start:start + CHUNK])
    return text


def labels(texts):
    """A text column of the given UTF-8 texts, no wider than the longest."""
    texts = list(texts)
    width = max(map(len, texts), default=0)
    padded = b"".join(text.ljust(width, bytes([PAD])) for text in texts)
    return np.frombuffer(padded, np.uint8).reshape(len(texts), width)


def _join(columns):
    """One text column: each row's texts joined by commas, then a line end."""
    rows = len(columns[0])
    comma, end = (np.full((rows, 1), ord(byte), np.uint8) for byte in ",\n")
    return np.hstack([part for column in columns for part in (column, comma)][:-1] + [end])


def lines(*columns) -> bytes:
    """One LF-terminated line per row, the row's texts joined by commas, as one blob.

    A column is a text column or a 1-D array of numbers, which is formatted
    here: NaN as an empty cell, any other value as its ``repr``.  Rows are
    joined a block at a time, and the numbers of a block are formatted in one
    pass; this bounds the temporaries.
    """
    blocks, pad = [], bytes([PAD])
    numeric = [i for i, column in enumerate(columns) if column.ndim == 1]
    for start in range(0, len(columns[0]), _BLOCK):
        block = [column[start:start + _BLOCK] for column in columns]
        if numeric:
            values = np.concatenate([block[i] for i in numeric])
            missing = np.isnan(values)
            text = texts(np.where(missing, 0.0, values))
            text[missing] = PAD
            for i, part in zip(numeric, np.split(text, len(numeric))):
                block[i] = part
        blocks.append(_join(block).tobytes().translate(None, pad))
    return b"".join(blocks)


def float_texts(values) -> list[bytes]:
    """``repr`` of every value of a real array in C order, as ASCII bytes (NaN as ``nan``)."""
    return lines(texts(values)).split(b"\n")[:-1]
