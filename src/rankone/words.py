"""Symbolic words over the level alphabet of a cutting-and-stacking tower.

Stage j0 fixes the alphabet: base levels get codes 0..l_{j0}-1 (the identity
word reads bottom to top) and the spacer symbol is the largest code l_{j0}.
Stage j+1 words are built by concatenating r_j copies of the stage-j word,
each copy followed by its spacer run:

    W_{j+1} = W_j s^{s_j(1)} W_j s^{s_j(2)} ... W_j s^{s_j(r_j)}

Position p of W_J names the base level (or spacer class) of the p-th level
of the depth-J tower, so lag statistics on W_J estimate correlations of the
transformation's level sets.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, List, Optional

import numpy as np

from .construction import RealizedSchedule, heights
from .errors import DepthOverBudget, MalformedRule

__all__ = [
    "DTYPE",
    "DEFAULT_BUDGET",
    "alphabet_size",
    "spacer_symbol",
    "default_base_stage",
    "base_word",
    "check_base_stage",
    "expand_once",
    "materialize_word",
    "stream_word",
    "level_measures",
]

DTYPE = np.int16
#: Default symbol budget for materialization / streaming.
DEFAULT_BUDGET = 2**31


def _require_transformation(realized: RealizedSchedule) -> None:
    if realized.kind != "transformation":
        raise MalformedRule("symbolic words are defined for transformations only")


def _base_levels(realized: RealizedSchedule, j0: int) -> int:
    """l_{j0}. A j0 below 1 is refused; one past the realized depth raises
    heights' UnrealizedStochastic."""
    check_base_stage(None, j0)
    return int(heights(realized, j0)[j0 - 1])


def alphabet_size(realized: RealizedSchedule, j0: int) -> int:
    """Number of symbols: l_{j0} base levels plus the spacer."""
    return _base_levels(realized, j0) + 1


def spacer_symbol(realized: RealizedSchedule, j0: int) -> int:
    return alphabet_size(realized, j0) - 1


def default_base_stage(realized: RealizedSchedule) -> int:
    """Smallest stage whose level count reaches 8 (aiming inside [8, 64])."""
    hs = heights(realized)
    for j, l in enumerate(hs, start=1):
        if l >= 8:
            return j
    return realized.depth


def base_word(realized: RealizedSchedule, j0: int) -> np.ndarray:
    """The stage-j0 identity word 0 1 ... l_{j0}-1."""
    _require_transformation(realized)
    return np.arange(_base_levels(realized, j0), dtype=DTYPE)


def check_base_stage(J: Optional[int], j0: int) -> None:
    """Refuse a base stage j0 outside 1..J: W_J is built up from W_{j0}.
    With J = None only j0 >= 1 is checked: an alphabet has no depth."""
    if j0 < 1 or J is not None and j0 > J:
        raise ValueError(f"need 1 <= j0 <= J, got j0={j0}, J={J}")


def expand_once(word: np.ndarray, r: int, spacers, star: int) -> np.ndarray:
    """One stage of the recursion: r copies, each followed by its spacer run."""
    if len(spacers) != r:
        raise MalformedRule(f"{len(spacers)} spacer entries for {r} copies")
    parts = []
    for s in spacers:
        parts.append(word)
        if s:
            parts.append(np.full(int(s), star, dtype=word.dtype))
    return np.concatenate(parts)


def materialize_word(
    realized: RealizedSchedule,
    J: int,
    j0: int,
    budget: int = DEFAULT_BUDGET,
) -> np.ndarray:
    """The full depth-J word as one array; guarded by the symbol budget."""
    _require_transformation(realized)
    check_base_stage(J, j0)
    total = int(heights(realized, J)[J - 1])
    if total > budget:
        raise DepthOverBudget(f"depth {J} word has {total} symbols, budget {budget}")
    star = spacer_symbol(realized, j0)
    w = base_word(realized, j0)
    for j in range(j0, J):
        r, vec = realized.stage(j)
        w = expand_once(w, r, vec, star)
    return w


def _block_items(realized: RealizedSchedule, lo: int, hi: int) -> Iterator:
    """Yield ('block',) and ('gap', length) items of W_hi at granularity lo."""
    if lo == hi:
        yield ("block",)
        return
    r, vec = realized.stage(hi - 1)
    for s in vec:
        yield from _block_items(realized, lo, hi - 1)
        if s:
            yield ("gap", int(s))


def stream_word(
    realized: RealizedSchedule,
    J: int,
    j0: int,
    chunk_size: int = 1 << 22,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[np.ndarray]:
    """Yield the depth-J word as arrays of roughly chunk_size symbols.

    Memory stays O(depth + chunk): one stage word below the chunk scale is
    materialized and reused as the repeating unit. Chunk boundaries carry no
    alignment promise; only the concatenation is specified.
    """
    _require_transformation(realized)
    check_base_stage(J, j0)
    hs = heights(realized, J)
    total = int(hs[J - 1])
    if total > budget:
        raise DepthOverBudget(f"depth {J} word has {total} symbols, budget {budget}")
    # largest stage that fits inside one chunk
    p = j0
    while p < J and int(hs[p]) <= chunk_size:  # hs[p] is l_{p+1}
        p += 1
    unit = materialize_word(realized, p, j0, budget=budget)
    star = spacer_symbol(realized, j0)
    buf: List[np.ndarray] = []
    size = 0
    for item in _block_items(realized, p, J):
        piece = unit if item[0] == "block" else np.full(item[1], star, dtype=DTYPE)
        buf.append(piece)
        size += len(piece)
        if size >= chunk_size:
            merged = np.concatenate(buf)
            for k in range(0, len(merged) - chunk_size + 1, chunk_size):
                yield merged[k : k + chunk_size]
            rest = merged[len(merged) - len(merged) % chunk_size :]
            buf = [rest] if len(rest) else []
            size = len(rest)
    if size:
        yield np.concatenate(buf)


def level_measures(realized: RealizedSchedule, J: int, j0: int) -> List[Fraction]:
    """Exact occupation fraction of each symbol in W_J (sums to 1).

    Every base level occurs exactly prod(r_k, k=j0..J-1) times; the spacer
    symbol takes the rest of the word.
    """
    _require_transformation(realized)
    check_base_stage(J, j0)
    hs = heights(realized, J)
    l0, lJ = int(hs[j0 - 1]), int(hs[J - 1])
    copies = 1
    for k in range(j0, J):
        copies *= realized.stage(k)[0]
    out = [Fraction(copies, lJ)] * l0
    out.append(Fraction(lJ - l0 * copies, lJ))
    return out
