"""Subsets of {0..n-1} encoded as int bit masks."""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Iterable, Iterator

from .errors import IndexOutOfRange


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


# _BYTE_ELEMENTS[k][b]: the elements of the byte b placed at bits 8k..8k+7
_BYTE_ELEMENTS = tuple(
    tuple(tuple(8 * k + i for i in range(8) if b >> i & 1) for b in range(256))
    for k in range(3)
)


def elements_of(mask: int) -> tuple[int, ...]:
    """The elements of mask in ascending order; a mask below 2^24 is read
    one byte at a time from `_BYTE_ELEMENTS`."""
    if not mask >> 24:  # mask >> 24 is nonzero for a negative mask too
        low, mid, high = _BYTE_ELEMENTS
        return low[mask & 255] + mid[mask >> 8 & 255] + high[mask >> 16]
    if mask < 0:
        raise ValueError(f"negative mask {mask}")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def iter_bits(mask: int) -> Iterator[int]:
    return iter(elements_of(mask))


def size_masks(n: int, k: int) -> list[int]:
    """All k-subsets of {0..n-1} as masks, in lexicographic element order."""
    return [mask_of(c) for c in combinations(range(n), k)]


def meet_counts(masks: Iterable[int], within: int) -> dict[int, int]:
    """out[C] = how many masks f meet `within` in exactly C (f & within == C).

    Subsets of `within` met by no mask are absent.
    """
    return Counter(map(within.__and__, masks))


# _ORDER_BYTES[k][b]: the share of byte k of S (bits 8k..8k+7) in its
# `order_key`, (|b| << 24) + ((255 - bitreverse8(b)) << 8 * (2 - k)).
_ORDER_BYTES = tuple(
    [b.bit_count() << 24 | (255 - int(f"{b:08b}"[::-1], 2)) << 8 * (2 - k) for b in range(256)]
    for k in range(3)
)


def order_key(mask: int) -> int:
    """(|S| << 24) | (2^24 - 1 - bitreverse24(S)), for S inside {0..23}.

    Element e is bit 23 - e of the reversed mask, so among sets of equal
    size the one holding the least element of their symmetric difference
    is the larger reversed mask and the lexicographically smaller element
    list: these keys ascend in (cardinality, lex) order.  The key is the
    sum of the shares of the three bytes of S."""
    if mask >> 24:  # past element 23, or negative
        raise IndexOutOfRange("set outside the ground set")
    low, mid, high = _ORDER_BYTES
    return low[mask & 255] + mid[mask >> 8 & 255] + high[mask >> 16]


def canonical(masks: Iterable[int]) -> tuple[int, ...]:
    """Each set of the family once, by cardinality, then lexicographic: the
    form `Matroid` and `FlagMatroid` store; a tuple already in it is returned
    itself, so a layer memo's key and its `Matroid` share one tuple.  A set
    reaching past element 23 is outside every ground set: IndexOutOfRange."""
    out = tuple(sorted(set(masks), key=order_key))
    return masks if masks == out else out


def squeeze(mask: int, removed: int) -> int:
    """Re-index mask after deleting the positions in `removed`.

    mask must be disjoint from removed; surviving elements keep their
    relative order.  Each removed position, highest first, is shifted out
    with one step on the whole mask, so the cost is O(|removed|).
    """
    for pos in reversed(elements_of(removed)):
        mask = mask & ((1 << pos) - 1) | (mask >> (pos + 1)) << pos
    return mask
