"""Subsets of {0..n-1} encoded as int bit masks."""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Iterable, Iterator


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def elements_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def size_masks(n: int, k: int) -> list[int]:
    """All k-subsets of {0..n-1} as masks, in lexicographic element order."""
    return [mask_of(c) for c in combinations(range(n), k)]


def meet_counts(masks: Iterable[int], within: int) -> dict[int, int]:
    """out[C] = how many masks f meet `within` in exactly C (f & within == C).

    Subsets of `within` met by no mask are absent.
    """
    return Counter(map(within.__and__, masks))


def set_key(mask: int) -> tuple[int, ...]:
    """Sort key putting masks in lexicographic order of their element lists."""
    return elements_of(mask)


def squeeze(mask: int, removed: int) -> int:
    """Re-index mask after deleting the positions in `removed`.

    mask must be disjoint from removed; surviving elements keep their
    relative order.
    """
    out = 0
    shift = 0
    pos = 0
    rest = mask | removed
    while rest >> pos:
        bit = 1 << pos
        if removed & bit:
            shift += 1
        elif mask & bit:
            out |= 1 << (pos - shift)
        pos += 1
    return out
