"""CSV text of a sweep block, built in numpy with no per-cell ``repr``.

A float cell prints as ``repr(x + 0.0)``: the shortest decimal that reads
back as ``x``, the closest such one, the even one on a tie.  The digits
come from Schubfach (R. Giulietti, "The Schubfach way to render doubles",
2020) on ``uint64`` arrays, less Java's ``C_TINY`` path and with the
candidate one digit shorter tried at every significand of two or more
digits, so that subnormals print as ``repr``'s ``5e-324`` and ``8e-323``.
A cell's class (sign, notation, decimal point, digit count and exponent
width; or empty, a flag, ``0.0``, ``inf``, ``nan``, a status) names a
template of byte positions in a 40-byte source row: the cell's digits
after 3 zeros, its exponent's 4 digits, then fixed bytes.  A pass of
cells is then one gather, one deletion of the padding and one decode.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

_U64, _M32, _M63 = np.uint64, np.uint64(2 ** 32 - 1), np.uint64(2 ** 63 - 1)


def _g(k: int) -> int:
    """Schubfach's ``floor(10^-k 2^-r) + 1``, in [2^125, 2^126)."""
    r = (-k * 913124641741 >> 38) - 125
    if k > 0:
        return (1 << -r) // 10 ** k + 1
    return (10 ** -k >> r if r > 0 else 10 ** -k << -r) + 1


#: ``g1 2^63 + g0`` is ``g`` of a decimal exponent from -324 to 292
_G1, _G0 = np.array([divmod(_g(k), 2 ** 63) for k in range(-324, 293)],
                    dtype=_U64).T.copy()
#: The ASCII digits of 0..9999, four to a little-endian word
_WORDS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4,
                              indexing="ij"), axis=-1).view(np.uint32).ravel()
#: The trailing decimal zeros of each such word, 4 for 0
_TZ = sum(np.arange(10000, dtype=np.uint16) % 10 ** p == 0
          for p in (1, 2, 3, 4)).astype(np.uint8)
# a source row's fixed bytes: the marker of a status that is not ok, the
# padding that the text drops, and the column's separator last
_CONST = b"-.e+01infaok\1\0\0"
(_MINUS, _DOT, _E, _PLUS, _ZERO, _ONE, _I, _N, _F, _A, _O, _K, _MARK, _PAD,
 _, _SEP) = range(24, 40)
# a float's class is 17 form + digits - 1, + _MINUS_SIGN for a minus sign:
# 20 fixed forms (decimal point at -3..16), then 4 scientific (exponent
# sign, 2 or 3 digits).  From _OTHERS on: 0.0, inf, -inf and nan, then,
# above every float's class, empty, the flags 0 and 1, and a status ok or
# not.
_MINUS_SIGN, _OTHERS, _EMPTY, _FLAG, _STATUS = 408, 816, 820, 821, 823
_OTHER = [[_ZERO, _DOT, _ZERO], [_I, _N, _F], [_MINUS, _I, _N, _F],
          [_N, _A, _N], [], [_ZERO], [_ONE], [_O, _K], [_MARK]]
#: 17 form of a value whose leading digit is at 10^x, x from -330 to 310
_FORMS = np.arange(-330, 311)
_FORMS = 17 * np.where((_FORMS < -4) | (_FORMS > 15), 20 + (_FORMS < 0) * 2
                       + (abs(_FORMS) >= 100), _FORMS + 4)
_TEMPLATES = np.empty((825, 25), dtype=np.intp)   # a row built on first use
_BUILT = np.zeros(825, dtype=bool)

#: Most cells per pass.  A pass's arrays stay in cache, and numpy's cost
#: per call is spread over many cells; the gather takes half a pass at a
#: time, as its indices take 200 bytes a cell.
CHUNK = 4096


def _template(cls: int) -> List[int]:
    """The source positions of a class's text, separator included."""
    if cls >= _OTHERS:
        return _OTHER[cls - _OTHERS] + [_SEP]
    sign, cls = divmod(cls, _MINUS_SIGN)
    form, digits = divmod(cls, 17)
    if form < 20:       # fixed, the decimal point at form - 3
        point = form - 3
        at = [3 + i if 0 <= i <= digits else _ZERO
              for i in range(min(point, 0), max(digits + 1, point + 1))]
        text = (at[:max(point, 0)] or [_ZERO]) + [_DOT] + at[max(point, 0):]
    else:
        negative, wide = divmod(form - 20, 2)
        text = [3] + [_DOT, *range(4, 4 + digits)] * (digits > 0)
        text += [_E, _MINUS if negative else _PLUS, *range(22 - wide, 24)]
    return [_MINUS] * sign + text + [_SEP]


def _mulhi(a, bl, bh):
    """The high 64 bits of ``a b``, ``b`` given as 32-bit limbs."""
    al, ah = a & _M32, a >> 32
    t = ah * bl + ((al * bl) >> 32)
    return ah * bh + (t >> 32) + ((al * bh + (t & _M32)) >> 32)


def _rop(p1, p0):
    """``g cp 2^-127`` rounded to odd (Schubfach's figure 8), from the
    ``(low, high)`` 64-bit halves of ``g1 cp`` and ``g0 cp``."""
    z = (p1[0] >> 1) + p0[1]
    return (p1[1] + (z >> 63)) | ((z & _M63) != 0)


def _plus(p, a, e, minus=False):
    """The ``(low, high)`` halves of ``p + a 2^e`` (or ``-``), 0 < e < 64."""
    lo, hi = a << e, a >> (64 - e)
    if minus:
        return p[0] - lo, p[1] - hi - (p[0] < lo)
    return p[0] + lo, p[1] + hi + (p[0] + lo < lo)


def _shortest(bits):
    """``(f, k)``: the decimal ``f 10^k`` that ``repr`` prints for each
    finite, positive double with these bits."""
    bq, t = bits >> 52, bits & _U64(2 ** 52 - 1)
    c = t | ((bq != 0).astype(_U64) << 52)
    irregular = (t == 0) & (bq > 1)
    q = np.maximum(bq, 1).astype(np.int64) - 1075
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + (-k * 913124641741 >> 38) + 2).astype(_U64)
    g = _G1.take(k + 324), _G0.take(k + 324)
    # g 4c 2^h as 128-bit products; the bounds' g (4c -+ 2) 2^h (4c - 1
    # below an irregular spacing) differ from it by a shifted g
    cp = c << (h + 2)
    cl, ch = cp & _M32, cp >> 32
    p = [(gi * cp, _mulhi(gi, cl, ch)) for gi in g]
    out = c & 1
    vb = _rop(*p)
    vbl = _rop(*[_plus(pi, gi, h + 1 - irregular, True)
                 for pi, gi in zip(p, g)]) + out
    vbr = _rop(*[_plus(pi, gi, h + 1) for pi, gi in zip(p, g)]) - out
    s = vb >> 2
    sp10 = s // 10 * 10
    # one digit shorter where exactly one of sp10, sp10 + 10 rounds to v;
    # else s or s + 1, the closer (the even one on a tie) where both do
    wpin = (sp10 << 2) + 40 <= vbr
    shorter = (sp10 != 0) & ((vbl <= sp10 << 2) != wpin)
    up = (vbl > s << 2) | ((s << 2) + 4 <= vbr) & ((vb & 3) + (s & 1) >= 3)
    return np.where(shorter, sp10 + 10 * wpin.astype(_U64), s + up), k


def _classes(x: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Each float's class; its digits and exponent go to ``src``."""
    regular = np.isfinite(x) & (x != 0)
    f, k = _shortest(np.where(regular, x.view(_U64) & _M63,
                              _U64(0x3FF0000000000000)))
    # to 17 digits: a normal double has 16 or 17, a subnormal 1 to 17
    while (short := f < 10 ** 16).any():
        f, k = np.where(short, f * 10, f), k - short
    hi = f // 10 ** 8
    lo, hi = (f - hi * 10 ** 8).astype(np.uint32), hi.astype(np.uint32)
    words = [hi // 10 ** 8]
    for part in (hi - words[0] * 10 ** 8, lo):
        high = part // 10 ** 4
        words += [high, part - high * 10 ** 4]
    tz = _TZ.take(words[4])
    for i in (3, 2, 1):
        tz += (tz == 16 - 4 * i) * _TZ.take(words[i])
    src[:, :6] = _WORDS.take(np.stack(words + [abs(k + 16)], axis=1))
    cls = _FORMS.take(k + 346) + (16 - tz) + (x < 0) * _MINUS_SIGN
    odd = np.flatnonzero(~regular)
    cls[odd] = (_OTHERS + (x[odd] != 0) + (x[odd] < 0)
                + 2 * np.isnan(x[odd]))
    return cls


def lines(columns: Sequence[Tuple[np.ndarray, Optional[np.ndarray]]],
          status: Optional[Tuple[np.ndarray, List[str]]] = None) -> str:
    """LF-ended CSV lines of a block of rows.

    ``columns`` are ``(values, empty)`` pairs: a cell is empty where
    ``empty`` (None for none) is nonzero, and boolean ``values`` print as
    ``0`` and ``1``.  ``status``, when given, is the last cell of each
    row: ``ok``, except at the rows of a boolean mask, whose cells follow
    in a list."""
    columns = list(columns) + ([(status[0], None)] if status else [])
    x = np.stack([values for values, _ in columns], axis=1, dtype=float)
    fixed = np.full(x.shape, -1)    # the class of a cell that is no float
    for j, (values, empty) in enumerate(columns):
        if values.dtype == bool:
            fixed[:, j] = values + (_STATUS if status and j == len(columns)
                                    - 1 else _FLAG)
        if empty is not None:
            fixed[:, j][empty != 0] = _EMPTY
    const = np.frombuffer(_CONST.join([b""] + [b","] * (len(columns) - 1)
                                      + [b"\n"]), dtype=np.uint32)
    step = -(-len(x) // -(-x.size // CHUNK))      # rows per pass, even
    parts = []
    for start in range(0, len(x), step):
        rows = slice(start, start + step)
        src = np.empty(x[rows].shape + (10,), dtype=np.uint32)
        src[:, :, 6:] = const.reshape(len(columns), 4)
        cls = np.maximum(_classes(x[rows].ravel(), src.reshape(-1, 10)),
                         fixed[rows].ravel())
        new = np.zeros(_BUILT.size, dtype=bool)
        new[cls] = True
        for c in np.flatnonzero(new & ~_BUILT).tolist():
            text = _template(c)
            _TEMPLATES[c], _BUILT[c] = text + [_PAD] * (25 - len(text)), True
        src = src.view(np.uint8).ravel()
        for cell in range(0, cls.size, CHUNK // 2):
            index = _TEMPLATES.take(cls[cell:cell + CHUNK // 2], axis=0)
            index += np.arange(cell, cell + len(index))[:, None] * 40
            parts.append(src[index].tobytes().translate(None, b"\0"))
    text = b"".join(parts).decode("ascii")
    if not status or not status[1]:
        return text
    pieces = text.split("\1")
    return "".join([p + s for p, s in zip(pieces, status[1])]) + pieces[-1]
