"""The closed-loop decision log's CSV rows, written in blocks through
tables of words as `csvcodec.write_blocks` writes traces: integers in
its four-byte words, actions through a small table of a block's
distinct texts, and each "%.6g" float through tables keyed by its
decimal exponent. A block holding a value the tables do not spell
exactly is formatted with "%" instead, so every block reads as the "%"
format writes it. `aoikit.emulate` imports this module on its first
decision log write, so a command that writes none does not load it.
"""

from __future__ import annotations

import functools
from typing import Iterator, Optional, Sequence

import numpy as np

from .csvcodec import WRITE_CHUNK, digit_table, int_words

DECISION_ROW = "%d,%s,%.6g,%.6g,%.6g,%d\n"

# A float whose "%.6g" has the fixed form is M * 10**(x - 5) for its six
# significant digits M and its decimal exponent x in [-4, 5]. It takes
# two eight-byte words: the high one from x, M // 1000 and whether
# M % 1000 is zero (then the fraction's trailing zeros may reach into
# it), and the low one, which ends with the comma, from x and M % 1000.
# Words are padded with spaces, which the writer deletes, and a row is
# laid out in eight-byte words, so that each is one item to take.
_X_LOW, _X_HIGH = -4, 5
_HIGHS = 900  # M // 1000 runs from 100 to 999
_POW10 = np.array([float(10**k) for k in range(_X_HIGH - _X_LOW + 1)])
# A value is scaled to M by one multiplication by an exact power of ten,
# which errs by under 1e-10 (half an ulp of 1e6); one scaled this near a
# half may round the other way than its exact value, so "%" spells it
_HALF_MARGIN = 1e-6


def _part_words(digits: np.ndarray, stripped: np.ndarray, point: Optional[int],
                point_blank, prefix: bytes = b"", suffix: bytes = b"") -> np.ndarray:
    """An eight-byte word for each row of three ASCII digits: `prefix`,
    the digits with a point after the first `point` (none for None) and
    `suffix`, padded with spaces. The last `stripped` digits of a row,
    and its point where `point_blank`, are spaces instead."""
    chars = np.full((len(digits), 8), ord(" "), dtype=np.uint8)
    chars[:, :len(prefix)] = np.frombuffer(prefix, np.uint8)
    at = len(prefix)
    for j in range(4):
        if j == point:
            chars[:, at] = np.where(point_blank, ord(" "), ord("."))
            at += 1
        if j < 3:
            chars[:, at] = np.where(stripped > 2 - j, ord(" "), digits[:, j])
            at += 1
    chars[:, at:at + len(suffix)] = np.frombuffer(suffix, np.uint8)
    return chars.view(np.uint64).ravel()


@functools.cache  # built once, on the first log write
def _float_words() -> tuple[np.ndarray, np.ndarray]:
    """The high words, at row ((x + 4) * 2 + (M % 1000 == 0)) * 900 +
    M // 1000 - 100, and the low words, at row (x + 4) * 1000 + M % 1000.
    A part's fraction digits lose their trailing zeros, and the point
    goes where nothing follows it: the high part's only where the low
    part is 0."""
    three = digit_table(3)
    k = np.arange(1000)
    zeros = (k % 10 == 0).astype(np.intp) + (k % 100 == 0) + (k == 0)  # trailing
    none = np.zeros(900, dtype=np.intp)
    highs, lows = [], []
    for x in range(_X_LOW, _X_HIGH + 1):
        # each part's digits after the point
        high_after, low_after = 3 if x < 0 else max(2 - x, 0), min(max(5 - x, 0), 3)
        prefix = b"0." + b"0" * (-x - 1) if x < 0 else b""
        point = x + 1 if 0 <= x <= 2 else None
        highs.append(_part_words(three[100:], none, point, False, prefix))
        stripped = np.minimum(zeros[100:], high_after)
        highs.append(_part_words(three[100:], stripped, point, stripped == high_after, prefix))
        stripped = np.minimum(zeros, low_after)
        lows.append(_part_words(three, stripped, x - 2 if 3 <= x <= 4 else None,
                                stripped == low_after, suffix=b","))
    return np.concatenate(highs), np.concatenate(lows)


def _float_rows(values: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The rows of the high and low words of each of `values`; None if
    one is not positive and finite, its "%.6g" has the exponent form,
    or its scaled value is too near a half to tell its rounding."""
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.floor(np.log10(values))
    # nan for a nan or negative value, -inf for a zero
    if not (_X_LOW <= x.min() and x.max() <= _X_HIGH):
        return None
    x = x.astype(np.intp)
    scaled = values * _POW10[_X_HIGH - x]
    m = np.rint(scaled)
    scaled -= m
    if np.abs(scaled, out=scaled).max() > 0.5 - _HALF_MARGIN:
        return None
    m = m.astype(np.intp)
    top = m.max()
    if m.min() < 100_000 or top > 1_000_000:
        return None
    if top == 1_000_000:  # rounded up to the next power of ten
        carry = m == top
        x += carry
        m[carry] = 100_000
        if x.max() > _X_HIGH:
            return None
    high = m // 1000
    low = m - high * 1000
    x -= _X_LOW
    return (x * 2 + (low == 0)) * _HIGHS + high - 100, x * 1000 + low


def _text_words(spellings: Sequence[bytes]) -> Optional[np.ndarray]:
    """Each of `spellings` padded with spaces to a common width of whole
    words, a row each; None if one holds a space, which the writer
    would delete."""
    if any(b" " in s for s in spellings):
        return None
    width = -(-max(map(len, spellings)) // 8) * 8
    chars = np.frombuffer(b"".join(s.ljust(width) for s in spellings), np.uint8)
    return chars.view(np.uint64).reshape(len(spellings), -1)


def _text(words: np.ndarray) -> str:
    """A block's words as text, without their padding."""
    return words.tobytes().translate(None, b" ").decode("utf-8", "surrogatepass")


def _decision_block(first: int, actions: list, floats: list[np.ndarray],
                    backlog: np.ndarray) -> Optional[str]:
    """The text of a block's rows, epochs first + 1 on; None if the
    tables cannot spell one of its values."""
    n = len(actions)
    float_rows = [_float_rows(column) for column in floats]
    if None in float_rows or backlog.min() < 0:
        return None
    if actions.count(actions[0]) == n:
        distinct, action_rows = [actions[0]], 0
    else:
        position = {a: i for i, a in enumerate(dict.fromkeys(actions))}
        distinct = list(position)
        action_rows = np.fromiter(map(position.__getitem__, actions), np.intp, n)
    action_words = _text_words([a.encode("utf-8", "surrogatepass") + b"," for a in distinct])
    if action_words is None:
        return None
    epochs = int_words(np.arange(first + 1, first + n + 1), b",")
    backlogs = int_words(backlog, b"\n")
    width = epochs.shape[1] + action_words.shape[1] + 2 * len(floats) + backlogs.shape[1]
    out = np.empty((n, width), dtype=np.uint64)
    at = epochs.shape[1]
    out[:, :at] = epochs
    out[:, at:at + action_words.shape[1]] = action_words.take(action_rows, axis=0)
    at += action_words.shape[1]
    high_words, low_words = _float_words()
    for high, low in float_rows:
        out[:, at] = high_words.take(high)
        out[:, at + 1] = low_words.take(low)
        at += 2
    out[:, at:] = backlogs
    return _text(out)


def decision_blocks(log) -> Iterator[str]:
    """The rows of an `emulate.DecisionLog`, DECISION_ROW each, as text
    in blocks of `WRITE_CHUNK` rows."""
    floats = [np.asarray(c, dtype=float) for c in (log.target_backlog, log.rate_hz,
                                                   log.avg_age_s)]
    backlog = np.asarray(log.backlog, dtype=np.int64)
    for lo in range(0, len(log), WRITE_CHUNK):
        hi = lo + WRITE_CHUNK
        actions = log.action[lo:hi]
        block = _decision_block(lo, actions, [c[lo:hi] for c in floats], backlog[lo:hi])
        if block is None:
            block = "".join(map(DECISION_ROW.__mod__, zip(
                range(lo + 1, lo + len(actions) + 1), actions, log.target_backlog[lo:hi],
                log.rate_hz[lo:hi], log.avg_age_s[lo:hi], log.backlog[lo:hi])))
        yield block

