"""Word-at-a-time subset enumeration shared by the SSYNC expanders.

Both SSYNC expanders — the packed one in :mod:`repro.explore.transitions`,
a word per subset, and the table kernel's array pass
:meth:`~repro.core.table_kernel.SuccessorTable.expand_rows`, a row per
subset — enumerate the non-empty activation subsets of a vertex's mover set
and keep the first edge reaching each successor.  The subset *order* is
therefore part of the graph's byte-identity contract, so it lives here,
once, with no dependencies.
"""
from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

__all__ = ["subset_masks"]


@lru_cache(maxsize=None)
def subset_masks(m: int) -> Tuple[int, ...]:
    """Non-empty subsets of ``{0..m-1}`` as bitmasks, in the explorer's order.

    The order is increasing cardinality and, within one cardinality, the
    lexicographic order of the ascending index tuples — exactly the order
    ``itertools.combinations(range(m), k)`` yields, which both SSYNC
    expanders have always enumerated activation subsets in.  Preserving it
    keeps the first-edge-per-successor dedup picking identical minimal-mover
    representatives, byte for byte.

    Generated word-at-a-time, no itertools: within one cardinality Gosper's
    hack walks the masks in ascending numeric order; emitting that sequence
    *reversed*, with each mask bit-reversed (bit ``i`` <-> bit ``m-1-i``),
    is combinations-lex order.  (A lexicographically earlier index tuple has
    smaller low indices, hence a numerically *larger* bit-reversed mask —
    e.g. for ``m=4``, ``(0,3)`` precedes ``(1,2)`` although ``0b1001 >
    0b0110``.)
    """
    masks: List[int] = []
    top = 1 << m
    for k in range(1, m + 1):
        level: List[int] = []
        v = (1 << k) - 1
        while v < top:
            level.append(v)
            low = v & -v
            ripple = v + low
            v = ripple | (((v ^ ripple) >> 2) // low)
        for mask in reversed(level):
            rev = 0
            for i in range(m):
                if mask >> i & 1:
                    rev |= 1 << (m - 1 - i)
            masks.append(rev)
    return tuple(masks)
