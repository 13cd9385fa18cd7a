"""The one CSV row writer: every number is Python's ``'%.9g' % v``, byte
for byte, formatted by numpy for the common case.

Each cell is a run of 8-byte words that starts with its separator and
holds zero bytes wherever it prints nothing; a row is its cells' words
side by side, its first separator turned into the newline that ends the
row before it, and one ``bytes.translate`` per chunk deletes the zero
bytes. A number's cell is three words, one byte per character it might
print: the separator, a sign, the ``0.`` and leading zeros of values
below 0.1, then its nine significant digits, each after a slot for the
decimal point. The first word ends in the leading digit and comes from a
20-entry table by sign and digit; the other two each hold four digits,
``".d.d.d.d"`` from a 10000-entry table. A keep-mask chosen by decimal
exponent and digits printed then zeroes the bytes the number does not
print: the trailing zeros, every dot but the decimal point, and what
values from 0.001 up do not print of ``0.000``.

The fast path takes finite non-zero values that ``%.9g`` prints in fixed
notation (decimal exponent -4 to 8). It scales |v| by an exact power of
ten so that nine digits sit left of the point and rounds to the integer
``m``; the product carries at most about 1.1e-7 of rounding error, so a
value whose scaled fraction lies within 1e-6 of one half, where that
error could flip the rounding, takes the fallback. Zeros, non-finite
values, exponent notation and those near-ties are formatted by Python.
"""

from __future__ import annotations

import functools

import numpy as np

_CHUNK_ROWS = 1024  # rows formatted per numpy pass: bounds the working set
_TIE = 0.5 - 1e-6  # |scaled - rint(scaled)| above this falls back to Python
_SCALE = 10.0 ** np.arange(13)  # exact: |v| at exponent e is scaled by _SCALE[8 - e]


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Built on first use: the words of 0-9999 (".d.d.d.d"), then the first
    words by 10 * negative + leading digit (",-0.000d"); the digits printed
    up to the last non-zero one, plus 40, by the value of the middle and
    of the last four digits; and the keep-masks by 10 * exponent + digits
    printed + 40."""
    g = np.arange(10000)  # intp, not small dtypes: fewer numpy loops paged in for the tables alone
    text = np.zeros((10020, 8), np.uint8)
    text[:10000, 0::2] = ord(".")
    for i, place in enumerate((1000, 100, 10, 1)):
        text[:10000, 2 * i + 1] = g // place % 10 + ord("0")
    text[10000:, [0, 2, 3, 4, 5, 6]] = np.frombuffer(b",0.000", np.uint8)
    text[10010:, 1] = ord("-")
    text[10000:, 7] = np.arange(20) % 10 + ord("0")
    length = np.full(10000, 4)
    for place in (10, 100, 1000, 10000):
        length[g % place == 0] -= 1
    digits = (np.stack([1 + length, np.where(g > 0, 5 + length, 0)]) + 40).astype(np.uint8)
    exp = np.arange(-4, 9)[:, None]
    kept = np.maximum(np.arange(10), exp + 1)  # integer digits always print
    keep = np.zeros((13, 10, 24), bool)
    keep[..., :2] = True  # separator and sign
    keep[..., 2] = keep[..., 3] = exp < 0
    for z in range(3):  # the zeros after "0." of 1e-4 <= |v| < 0.1
        keep[..., 4 + z] = -exp - 1 > z
    for i in range(9):
        keep[..., 7 + 2 * i] = i < kept
        if i < 8:
            keep[..., 8 + 2 * i] = (exp == i) & (kept > i + 1)  # the decimal point
    masks = np.where(keep, 0xFF, 0).astype(np.uint8).view(np.uint64).reshape(130, 3)
    return text.view(np.uint64).ravel(), digits, masks


def _numbers(values: np.ndarray, out: np.ndarray) -> None:
    """Write the words of ``"," + "%.9g" % v`` for each of the (..., k)
    ``values`` into ``out``, (..., 3 * k)."""
    text, digits, masks = _tables()
    v = np.ravel(values)
    s = np.abs(v, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0, inf and NaN take the fallback
        e = np.floor(np.log10(s)).astype(np.intp)
        s *= _SCALE.take(8 - e, mode="clip")
        m = np.rint(s)
        # nine digits left of the point, no round-up to a new decade, no near-tie;
        # log10 one off next to a power of ten fails this too
        fast = (s >= 1e8) & (s < 999999999.5) & (np.abs(s - m) <= _TIE)
        m = m.astype(np.intp)
    lead = m // 100000000
    m -= 100000000 * lead  # the last eight digits
    words = np.empty((len(v), 3), np.intp)  # indices into text
    words[:, 1] = middle = m // 10000
    words[:, 2] = m - 10000 * middle
    words[:, 0] = lead + 10000 + 10 * (v < 0)
    kept = np.maximum(digits[0].take(middle, mode="clip"), digits[1].take(words[:, 2], mode="clip"))
    cells = out.reshape(*values.shape, 3)  # splits out's unit-stride last axis: a view
    masks.take((10 * e + kept).reshape(values.shape), axis=0, mode="clip", out=cells)
    cells &= text.take(words, mode="clip").reshape(cells.shape)
    if len(slow := np.flatnonzero(~fast)):
        cells[np.unravel_index(slow, values.shape)] = np.array(
            [b",%.9g" % x for x in v[slow].tolist()], "S24").view(np.uint64).reshape(-1, 3)


def _packed(block: np.ndarray) -> np.ndarray:
    """(n, m, w) words of an (n, m, k) block formatted once by Python: the
    k cells of each (i, j), w the same for all."""
    fmt = (",%s" if block.dtype.kind == "U" else ",%.9g") * block.shape[2]
    cells = np.array([(fmt % tuple(row)).encode()
                      for row in block.reshape(-1, block.shape[2]).tolist()], bytes)
    width = -(-cells.dtype.itemsize // 8)
    return cells.astype(f"S{8 * width}").view(np.uint64).reshape(*block.shape[:2], width)


def write_csv(path, header: str, *blocks: np.ndarray) -> None:
    """Write ``header`` and the rows of ``blocks``, each a (n or 1, m or 1,
    k) block of k adjacent columns broadcast to (n, m, k): row (i, j), in
    C order, joins every block's values at (i, j) with commas. Floats are
    written as ``%.9g``, strings (k = 1, no NUL characters) as they are. A
    block of strings or one that is broadcast is formatted once, not per row."""
    outer, inner = np.broadcast_shapes(*(np.shape(b)[:2] for b in blocks))
    shared = {c: _packed(block) for c, block in enumerate(blocks)
              if block.dtype.kind == "U" or block.shape[:2] != (outer, inner)}
    widths = [shared[c].shape[2] if c in shared else 3 * block.shape[2]
              for c, block in enumerate(blocks)]
    bounds = np.cumsum([0, *widths]).tolist()
    step = min(inner, _CHUNK_ROWS) or 1
    rows = max(1, _CHUNK_ROWS // step)
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for i0 in range(0, outer, rows):
            for j0 in range(0, inner, step):
                n = (min(outer, i0 + rows) - i0, min(inner, j0 + step) - j0)
                line = np.empty((*n, bounds[-1]), np.uint64)
                for c, block in enumerate(blocks):
                    ii = slice(i0, i0 + rows) if block.shape[0] > 1 else slice(None)
                    jj = slice(j0, j0 + step) if block.shape[1] > 1 else slice(None)
                    cells = line[..., bounds[c]:bounds[c + 1]]
                    if c in shared:
                        cells[...] = shared[c][ii, jj]
                    else:
                        _numbers(block[ii, jj], cells)
                line.view(np.uint8)[..., 0] = ord("\n")  # ends the header or the row before
                fh.write(line.tobytes().translate(None, b"\0"))
        fh.write(b"\n")
