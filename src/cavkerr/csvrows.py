"""CSV rows from NumPy columns, each cell byte for byte what Python writes.

A column's kind is its NumPy dtype: text (str or bytes) is itself, an
integer cell is ``"%d" % v`` and a float cell ``"%.17g" % v``; any other
dtype is refused.  ``write`` renders the rows in NumPy, a block of rows at
a time: each column fills its field of one (rows, width) byte block, NUL
in the slots its cell does not use, and the NUL bytes are dropped.  Digits
are written four at a time, from a table of the ASCII text of 0..9999.

A float cell is rendered from its 17 significant digits, found in long
double: a correctly rounded binary-to-decimal conversion (D. M. Gay,
"Correctly rounded binary-decimal and decimal-binary conversions", AT&T
1990).  y = |x| 10**(16-e) in [1e16, 1e17), e the decimal exponent, is
the correctly rounded long-double product (or quotient) of two exact
factors, so a multiple of its ulp, at most 2**-7, and within half an ulp
of the exact value.  Unless y is itself a half-integer, it is at least an
ulp from every half-integer, so the exact value rounds to the same 17
digits as y.  Every other float cell is Python's own %.17g: zero, inf and
nan, an exponent outside [-11, 43], and a y that is exactly a
half-integer.  Where the long double is a plain double, or not IEEE
(double-double), that is every float cell.
"""

import numpy as np

# a block holds at most BLOCK_ROWS rows and about BLOCK_BYTES bytes of
# text, so that its temporaries, a few times that, do not grow with the file
BLOCK_ROWS = 8192
BLOCK_BYTES = 1 << 18

# by decimal exponent -11..43, eight NUL-padded bytes: the "0.000" of fixed
# notation below 1, and the "e+XX" of exponent notation
_LEAD, _EXPO = (np.array([f(k) for k in range(-11, 44)], "S8").view(np.uint64)
                for f in (lambda k: "0." + "0" * (-k - 1) if -4 <= k < 0 else "",
                          lambda k: "" if -4 <= k < 17 else "e%+03d" % k))
# by decimal exponent e = -12..44, the power of ten that scales |x| into
# [1e16, 1e17): 10**|16-e|, exact in a long double of 64 or more mantissa
# bits up to 10**27 (5**27 < 2**64); the two ends only reach slow cells
_SCALE = np.array([10 ** abs(16 - e) for e in range(-12, 45)], np.longdouble)
# the IEEE long doubles of 64 or more mantissa bits, x87 extended and quad,
# whose ulp in [1e16, 1e17) is at most 2**-7
_WIDE = np.finfo(np.longdouble).nmant in (63, 112)
# by n = 0..9999, the four ASCII digits of n, zero-padded, as one uint32
_QUADS = np.stack(np.meshgrid(*[np.frombuffer(b"0123456789", np.uint8)] * 4,
                              indexing="ij"), axis=-1).view(np.uint32).ravel()


def _digits(m, block, cols):
    """Write the ASCII digits of the unsigned array ``m``, zero-padded, to
    the ``block`` columns ``cols``, the units digit last, four at a time
    from _QUADS by repeated division by 10**4."""
    cols = list(cols)
    while cols:
        c = cols[-4:]
        del cols[-4:]
        q = m // 10 ** 4 if cols else 0
        r = m - q * 10 ** 4
        if len(c) == 1:                         # r < 10
            block[:, c[0]] = r + ord("0")
        elif c == list(range(c[0], c[0] + 4)):  # one uint32 a row
            np.take(_QUADS, r, mode="clip",
                    out=block[:, c[0]:c[0] + 4].view(np.uint32)[:, 0])
        else:                                   # fewer, or a "." among them
            block[:, c] = _QUADS[r].view(np.uint8).reshape(-1, 4)[:, -len(c):]
        m = q


def _bytes(table, index, width):
    """(rows, width) bytes of a table of eight-byte entries."""
    return table[index].view(np.uint8).reshape(-1, 8)[:, :width]


def _text_field(cells):
    """A text column: the (rows, width) bytes of its cells, NUL-padded."""
    def fill(block):
        block[:] = cells
    return cells.shape[1], fill


def _int_field(v):
    """A NumPy integer column as %d: a sign slot if any value is negative,
    then the digits of the largest magnitude, less each value's leading
    zeros."""
    neg = v < 0
    sign = int(neg.any())
    # -v wraps at the int64 minimum, and the uint64 view of the wrapped
    # value is its magnitude, 2**63
    mag = (np.where(neg, -v.astype(np.int64), v) if sign else v
           ).astype(np.uint64)
    width = len(str(mag.max()))
    if width < 10:                        # uint32 arithmetic is faster
        mag = mag.astype(np.uint32)

    def fill(block):
        if sign:
            block[:, 0] = np.where(neg, ord("-"), 0)
        _digits(mag, block, range(sign, sign + width))
        for k in range(1, width):         # a leading zero is NUL
            np.copyto(block[:, sign + width - 1 - k], 0, where=mag < 10 ** k)
    return sign + width, fill


def _python_17g(x):
    """Python's own %.17g text of each float of ``x``, an S24 array."""
    return np.fromiter((b"%.17g" % c for c in x), "S24", x.size)


def _scaled(a, e):
    """|x| 10**(16-e) in long double, one rounding from the exact value."""
    p = _SCALE[e + 12]
    y = a * p
    big = np.flatnonzero(e > 16)
    if big.size:
        y[big] = a[big] / p[big]
    return y


def _float_field(v):
    """A float column as %.17g.

    A nonzero finite x has decimal exponent e = floor(log10|x|), corrected
    once to put y = |x| 10**(16-e) in [1e16, 1e17).  Its 17 digits are y
    rounded to an integer, and are laid out by %g's rules: fixed notation
    for -4 <= e < 17, else d.ddde+XX, less trailing zeros and a bare ".".
    A cell whose rounding y cannot decide is Python's own %.17g: zero, inf
    and nan, |16 - e| > 27, and a half-integer y (see the module)."""
    fast = np.isfinite(v) & (v != 0)
    a = np.where(fast, np.abs(v), 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    fast &= (e >= -11) & (e <= 43)
    np.copyto(a, 1.0, where=~fast)
    np.copyto(e, 0, where=~fast)
    y = _scaled(a, e)
    fix = np.flatnonzero((y < 1e16) | (y >= 1e17))
    if fix.size:
        e[fix] += np.where(y[fix] < 1e16, -1, 1)
        y[fix] = _scaled(a[fix], e[fix])
        fast &= (y >= 1e16) & (y < 1e17) & (e >= -11) & (e <= 43)
    # y - 1/2 is exact: it lies in y's binade or the one below, so y and
    # 1/2 are multiples of its ulp.  It is an integer just where y is a
    # half-integer, and otherwise y rounds to its floor plus one
    y -= 0.5
    d = y.astype(np.uint64)
    fast &= (y != d) & _WIDE
    d += 1
    # a carry to 1e17 needs x within 5e-18 below a power of ten, and no
    # double with e in [-11, 43] is that close to one; the rule keeps it
    carry = d >= 10 ** 17
    d[carry], e[carry] = 10 ** 16, e[carry] + 1
    np.copyto(e, 0, where=~fast)          # so the slow cells add no slots
    e = e.astype(np.int8)

    fixed = (e >= -4) & (e < 17)
    dot = np.where(fixed, e, 0)           # the digit a "." may follow
    neg = v < 0
    sign = int(neg.any())
    lead = 1 - int(e[fixed & (e < 0)].min(initial=1))   # "0.000" slots
    live = dot[fast & (dot >= 0)]
    dots = range(live.min(initial=0), min(live.max(initial=-1), 15) + 1)
    # the column of each digit, after the "." slots before it
    cols = [sign + lead + j + len(range(dots.start, min(j, dots.stop)))
            for j in range(17)]
    expo = 4 * int(not fixed.all())
    used = sign + lead + 17 + len(dots) + expo
    slow = np.flatnonzero(~fast)
    texts = _python_17g(v[slow])
    width = max(used, max(map(len, texts), default=0))
    texts = texts.astype(f"S{width}").view(np.uint8).reshape(-1, width)

    def fill(block):
        if sign:
            block[:, 0] = np.where(neg, ord("-"), 0)
        block[:, sign:sign + lead] = _bytes(_LEAD, e + 11, lead)
        # the first nine digits and the last eight, each in faster uint32
        hi = d // 10 ** 8
        _digits(hi.astype(np.uint32), block, cols[:9])
        _digits((d - hi * 10 ** 8).astype(np.uint32), block, cols[9:])
        # a trailing zero is NUL, unless it is before the "." of fixed
        # notation; last is the last nonzero digit
        last = np.full(len(d), 16, np.int8)
        z = np.flatnonzero(block[:, cols[-1]] == ord("0"))
        tail = block[np.ix_(z, cols)]
        last[z] = 16 - np.argmax(tail[:, ::-1] != ord("0"), axis=1)
        tail[np.arange(17) > np.maximum(last[z], dot[z])[:, None]] = 0
        block[np.ix_(z, cols)] = tail
        for j in dots:
            block[:, cols[j] + 1] = np.where((dot == j) & (last > j),
                                             ord("."), 0)
        block[:, used - expo:used] = _bytes(_EXPO, e + 11, expo)
        block[:, used:] = 0
        if slow.size:
            block[slow] = texts
    return width, fill


def _field(cells, name):
    """(field, values, bytes a cell at most) of a column, by the dtype of
    ``np.asarray(cells)``: str or bytes as text, integer (or bool) as %d,
    float as %.17g.  Any other dtype is a ValueError naming the column:
    object above all, for a None or a Python int beyond 64 bits.  So is a
    list made float whose int cell would not print as its own %d text."""
    col = np.asarray(cells)
    kind, rows = col.dtype.kind, len(col)
    if kind == "U":         # UTF-8: all-ASCII cells are their code points
        codes = np.ascontiguousarray(col).view(np.uint32)
        col = (codes.astype(np.uint8) if codes.max(initial=0) < 128
               else np.char.encode(col))
    if kind in "US":
        text = np.ascontiguousarray(col).view(np.uint8).reshape(rows, -1)
        if ((text[:, :-1] == 0) & (text[:, 1:] != 0)).any():
            raise ValueError(f"CSV column {name!r}: a text cell holds a NUL")
        return _text_field, text, text.shape[1]
    if kind in "biu":
        return _int_field, col, max(len(str(col.min())), len(str(col.max())))
    if kind == "f":
        ints = () if isinstance(cells, np.ndarray) else (
            c for c in cells if isinstance(c, (int, np.integer)))
        bad = next((c for c in ints if "%.17g" % c != "%d" % c), None)
        if bad is not None:
            raise ValueError(f"CSV column {name!r}: the int {bad} would be "
                             f"written as the float {'%.17g' % bad}")
        return _float_field, col.astype(np.float64, copy=False), 24
    raise ValueError(f"CSV column {name!r} holds {col.dtype} values, "
                     "not numbers or text")


def _block(parts, n):
    """The (n, width) byte block of the fields ``parts``, comma-separated
    and newline-terminated."""
    block = np.empty((n, sum(w + 1 for w, _ in parts)), np.uint8)
    end = 0
    for width, fill in parts:
        fill(block[:, end:end + width])
        end += width + 1
        block[:, end - 1] = ord(",")
    block[:, -1] = ord("\n")
    return block


def _rows(fields, start, stop):
    """Rows start:stop as CSV bytes.  The fields' state goes with
    ``_block``'s frame, before the compaction, and the block with this one,
    before the next block is built."""
    block = _block([make(values[start:stop]) for make, values, _ in fields],
                   stop - start)
    return block.tobytes().translate(None, b"\0")


def write(out, names, columns) -> None:
    """Write the CSV rows of ``columns``, one per name in ``names`` (as many
    rows as the shortest column has), to the binary file ``out``, one write
    a block.  Every column is checked before the first row is written.  The
    blocks are of equal size, within a row, so that each block's
    temporaries fit where the last block's were."""
    n = min(map(len, columns), default=0)
    if not n:
        return
    fields = [_field(c, k) for k, c in zip(names, columns, strict=True)]
    row_bytes = sum(width + 1 for *_, width in fields)
    count = -(-n // min(BLOCK_ROWS, max(1, BLOCK_BYTES // row_bytes)))
    for b in range(count):
        out.write(_rows(fields, n * b // count, n * (b + 1) // count))
