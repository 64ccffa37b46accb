"""Shortest round-trip text of float64 arrays, byte for byte the text of ``repr``.

``repr`` prints the shortest decimal that reads back to the same double and,
of those, the nearest (Gay 1990; Adams 2018, Ryu).  The bulk path finds those
digits exactly with integer arithmetic, for a whole array at once.

Take a finite x with 1e-6 <= |x| < 1e15.  Write |x| = M 2^E with a 53-bit M,
k = floor(log10 |x|) and s = 16 - k (0 <= s <= 22).  Then X = |x| 10^s =
F 2^-sh, with F = M 5^s < 2^105 and 1 <= sh = -(E + s) <= 51, has 17 digits
before its point.  F mod 2^64 is an integer product; F // 2^64 is the nearest
integer to a float estimate within 2^-11 of it.  A p-digit decimal D of x's
decade reads back as x iff 2 |D 2^sh - F| < 5^s.  That interval is symmetric,
wider than 1 and narrower than 100.  So N_17, the nearest integer, round-trips;
some p-digit decimal does iff the nearest, N_p, does; ``repr``'s digits are
N_15 without its trailing zeros if it round-trips, else N_16 if it does, else
N_17.  A power of two, whose interval is narrower below it, is a decimal of at
most 15 digits here.  (A k one too high gives X < 10^16, and N_17 reaches
10^16 only from within 1/2.)  The rest goes to ``repr``: the infinities,
magnitudes outside the range (zeros are laid out directly), an X halfway
between two 16- or 17-digit candidates (a 15-digit one halfway is 50 units of
the 17th digit from X, but the interval is X/M < 10^17/2^52 < 23 units wide),
and an N_p outside its decade (k misjudged by one).

A text is a subsequence of its WIDTH-byte slot: "-0.000", 17 digits each
followed by ".", "e-0" and the exponent's last digit.  Its sign, count of
shown digits and k pick its layout, a template row: the slot bytes that the
text keeps, 0 at the digits it shows, PAD (a byte UTF-8 never uses) elsewhere.
The text is that row OR the digits, without the PAD bytes.  ``encode`` keeps
each value's layout and 17 ASCII digits, searched in passes of at most CHUNK
values; a value left to ``repr`` gets a template row holding its text.

``lines`` lays a table out in blocks of at most _BLOCK rows, each one
(rows, width) uint8 buffer with its commas and LFs set once: a label column
(UTF-8 texts, PAD in and after them) is copied in, a numeric column is one
gather of template rows with the digits OR-ed in (NaN: an empty cell), and
one ``bytes.translate`` drops the PAD bytes.  An array's table has a row per
entry in C order, after one label column per axis: a label repeats once per
entry of the later axes, and that run once per entry of the earlier ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WIDTH = 44                        # the longest repr of a double has 24 bytes
PAD = 0xFF
CHUNK = 8192                      # values per pass of the digit search; bounds its temporaries
_BLOCK = 2048                     # rows laid out at a time; larger blocks took more memory
_K_MIN, _K_MAX = -6, 14           # decades of the bulk path: 1e-6 <= |x| < 1e15
_DIGITS = slice(6, 40, 2)         # slot columns of the 17 digits

_U1, _U64 = np.uint64(1), np.uint64(64)
_POW5 = np.array([5 ** s for s in range(17 - _K_MIN)], dtype=np.uint64)


def _quads():
    """The four ASCII digits of every integer 0..9999, one uint32 each, from the digit pairs."""
    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint8).reshape(100, 2)
    quads = np.empty((100, 100, 4), np.uint8)
    quads[:, :, :2] = pairs[:, None]
    quads[:, :, 2:] = pairs[None, :]
    return quads.view(np.uint32).ravel()


_QUADS = _quads()


def _template():
    """Row ``(negative * 18 + shown) * 21 + k + 6`` for a sign, a count of significant
    digits (0 for a zero) and k, then the row of an empty cell, all PAD."""
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
                keep = digits[:1] + [digits[0] + 1] * (shown > 1) + digits[1:shown] + [40, 41, 42, 43]
            slot = b"-0.000" + b"\0." * 17 + b"e-0" + bytes([ord("0") - k])
            row = bytearray([PAD]) * WIDTH
            for column in keep:
                row[column] = slot[column]
            rows.append(row)
    positive = np.frombuffer(b"".join(rows), np.uint8).reshape(len(rows), WIDTH)
    negative = positive.copy()
    negative[:, 0] = ord("-")
    return np.concatenate([positive, negative, np.full((1, WIDTH), PAD, np.uint8)])


_TEMPLATE = _template()
_EMPTY = len(_TEMPLATE) - 1


def _nearest(whole, rest, shift, five, q):
    """The multiple of q nearest to X = whole + rest 2^-shift, whether it round-trips, and
    whether it is unique (X is not halfway between two).  Distances are kept times 2^shift."""
    n = whole // q
    below = ((whole - n * q) << shift) + rest
    above = (q << shift) - below
    twice = np.minimum(below, above) << _U1
    return (n + (above < below)) * q, twice < five, above != below


def _digits(values):
    """``repr``'s digits of a chunk of doubles as a 17-digit integer n, with trailing zeros
    if there are fewer; their count if 16 or 17, else 15; k; and where the bulk path
    decided them.  Elsewhere the first three are meaningless."""
    size = np.abs(values)
    bulk = (size >= 1e-6) & (size < 1e15)                  # False for NaN
    size[~bulk] = 1.0
    mantissa, binary = np.frexp(size)
    mantissa *= 2.0 ** 53
    k = np.floor(np.log10(size, out=size), out=size).clip(_K_MIN, _K_MAX).astype(np.int8)
    shift = (37 + k - binary).astype(np.uint64)           # 53 - binary - s
    five = _POW5.take(16 - k)
    low = mantissa.astype(np.uint64) * five                # F mod 2^64, then X's two parts
    whole = np.rint((mantissa * five - low.astype(np.float64)) * 2.0 ** -64).astype(np.uint64)
    whole <<= _U64 - shift
    whole |= low >> shift
    rest = low & ((_U1 << shift) - _U1)
    n15, trips15, _ = _nearest(whole, rest, shift, five, np.uint64(100))
    n16, trips16, unique16 = _nearest(whole, rest, shift, five, np.uint64(10))
    half = _U1 << (shift - _U1)
    whole += rest > half                                   # N_17
    n = np.where(trips16, np.where(trips15, n15, n16), whole)
    shown = 17 - trips16.view(np.int8) - trips15.view(np.int8)   # trips15 implies trips16
    bulk &= trips15 | (unique16 & (trips16 | (rest != half)))
    bulk &= n - np.uint64(10 ** 16) < np.uint64(9 * 10 ** 16)   # n has 17 digits
    return n, shown, k, bulk


def _encode_chunk(values, layout, digits, slow):
    """Fill the layouts and digits of a chunk; append the texts left to ``repr`` to
    ``slow`` and give them the template rows after the fixed ones, in order."""
    n, shown, k, bulk = _digits(values)
    high = n // np.uint64(10 ** 8)       # n's 17 digits: one, then four groups of four
    n -= high * np.uint64(10 ** 8)
    high = high.astype(np.uint32)
    top = high // np.uint32(10 ** 8)
    pairs = np.empty((len(values), 2), np.uint32)
    pairs[:, 0], pairs[:, 1] = high - top * np.uint32(10 ** 8), n
    upper = pairs // np.uint32(10 ** 4)
    groups = np.empty((len(values), 2, 2), np.intp)
    groups[:, :, 0], groups[:, :, 1] = upper, pairs - upper * np.uint32(10 ** 4)
    digits[:, 0] = top + np.uint32(ord("0"))
    digits[:, 1:].view(np.uint32)[:] = _QUADS.take(groups.reshape(-1, 4), mode="clip")
    short = np.flatnonzero(shown == 15)  # N_15 without its trailing zeros
    shown[short] = 17 - np.argmax(digits[short, ::-1] != ord("0"), axis=1)
    zero = values == 0
    shown[zero], bulk[zero] = 0, True
    np.multiply(np.signbit(values), 18, out=layout)
    layout += shown
    layout *= _K_MAX - _K_MIN + 1
    layout += k - _K_MIN
    other = np.flatnonzero(~bulk)
    if other.size:
        layout[other] = _EMPTY
        other = other[~np.isnan(values[other])]
        layout[other] = np.arange(len(slow), len(slow) + len(other)) + _EMPTY + 1
        digits[other] = 0
        slow += (repr(v).encode() for v in values[other].tolist())


@dataclass(frozen=True)
class Numbers:
    """Numbers ready to lay out: text i is ``template[layout[i]]`` OR ``digits[i]`` at the
    slot's digit columns, without its PAD bytes; a NaN's is empty."""

    layout: np.ndarray           # (n,) int32
    digits: np.ndarray           # (n, 17) uint8
    template: np.ndarray         # (rows, WIDTH) uint8

    def __len__(self):
        return len(self.layout)


def encode(*arrays) -> list[Numbers]:
    """The ``Numbers`` of each real array in C order, all in one digit search."""
    values = np.concatenate([np.ravel(np.asarray(array, dtype=np.float64)) for array in arrays])
    layout, digits, slow = np.empty(len(values), np.int32), np.empty((len(values), 17), np.uint8), []
    for start in range(0, len(values), CHUNK):
        part = slice(start, start + CHUNK)
        _encode_chunk(values[part], layout[part], digits[part], slow)
    template = _TEMPLATE
    if slow:
        template = np.concatenate([template, labels(text.ljust(WIDTH, bytes([PAD])) for text in slow)])
    ends = np.cumsum([np.size(array) for array in arrays])
    return [Numbers(layout[end - np.size(array):end], digits[end - np.size(array):end], template)
            for end, array in zip(ends, arrays)]


def labels(texts):
    """A text column of the given UTF-8 texts, no wider than the longest."""
    texts, pad = list(texts), bytes([PAD])
    width = max(map(len, texts), default=0)
    return np.frombuffer(b"".join([text.ljust(width, pad) for text in texts]), np.uint8).reshape(len(texts), width)


def lines(*columns, axes=()) -> bytes:
    """One LF-terminated line per row, the row's texts joined by commas, as one blob.

    A column is a text column, ``Numbers``, or a 1-D array of numbers, which is
    encoded here, all such columns in one pass.  A NaN is an empty cell, any
    other number its ``repr``.  ``axes`` holds the label texts of each axis of
    an array whose entries are the rows, laid out first (see above).
    """
    sizes = [len(axis) for axis in axes]
    columns = [np.tile(np.repeat(labels(axis), math.prod(sizes[k + 1:]), axis=0), (math.prod(sizes[:k]), 1))
               for k, axis in enumerate(axes)] + list(columns)
    numeric = [i for i, column in enumerate(columns) if isinstance(column, np.ndarray) and column.ndim == 1]
    for i, numbers in zip(numeric, encode(*(columns[i] for i in numeric)) if numeric else ()):
        columns[i] = numbers
    widths = [WIDTH if isinstance(column, Numbers) else column.shape[1] for column in columns]
    ends = np.cumsum(widths) + np.arange(1, len(columns) + 1)     # the comma or LF after each
    rows = len(columns[0])
    buffer = np.empty((min(rows, _BLOCK), ends[-1]), np.uint8)
    buffer[:, ends - 1] = ord(",")
    buffer[:, -1] = ord("\n")
    scratch = np.empty((len(buffer), WIDTH), np.uint8)
    blocks, pad = [], bytes([PAD])
    for start in range(0, rows, _BLOCK):
        block, part = buffer[:rows - start], slice(start, start + _BLOCK)
        for column, end, width in zip(columns, ends, widths):
            if isinstance(column, Numbers):
                text = column.template.take(column.layout[part], axis=0, mode="clip", out=scratch[:len(block)])
                text[:, _DIGITS] |= column.digits[part]
                block[:, end - 1 - width:end - 1] = text
            else:
                block[:, end - 1 - width:end - 1] = column[part]
        blocks.append(block.tobytes().translate(None, pad))
    return b"".join(blocks)


def float_texts(values) -> list[bytes]:
    """``repr`` of every value of a real array in C order, as ASCII bytes (NaN as ``nan``)."""
    return [text or b"nan" for text in lines(np.ravel(values)).split(b"\n")[:-1]]
