"""Subsets of {0..n-1} as int bit masks, and families of them as 2^n-bit ints."""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain, combinations
from typing import Callable, Iterable, Iterator, Optional

from .errors import IndexOutOfRange


def mask_of(elements: Iterable[int]) -> int:
    """The mask of the elements; a negative element is IndexOutOfRange."""
    m = e = 0
    try:
        for e in elements:
            m |= 1 << e
    except ValueError:  # the shift refuses a negative count
        if e < 0:
            raise IndexOutOfRange(f"negative element {e}") from None
        raise
    return m


def _byte_elements(k: int) -> tuple[tuple[int, ...], ...]:
    """The elements of each byte b placed at bits 8k..8k+7, by doubling: the
    bytes 2^i..2^(i+1)-1 are those below 2^i with element 8k + i added."""
    out = [()]
    for e in range(8 * k, 8 * k + 8):
        out += [t + (e,) for t in out]
    return tuple(out)


# _BYTE_ELEMENTS[k][b]: the elements of the byte b placed at bits 8k..8k+7
_BYTE_ELEMENTS = tuple(map(_byte_elements, range(3)))


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


def _order_bytes(k: int) -> list[int]:
    """(|b| << 24) + ((255 - bitreverse8(b)) << 8 * (2 - k)) for each byte b,
    by doubling: adding bit i to b adds one to |b| and clears bit 7 - i of
    255 - bitreverse8(b)."""
    shift = 8 * (2 - k)
    out = [255 << shift]
    for i in range(8):
        step = (1 << 24) - (1 << 7 - i << shift)
        out += [key + step for key in out]
    return out


# _ORDER_BYTES[k][b]: the share of byte k of S (bits 8k..8k+7) in its
# `order_key`, (|b| << 24) + ((255 - bitreverse8(b)) << 8 * (2 - k)).
_ORDER_BYTES = tuple(map(_order_bytes, range(3)))


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


def least_bijection(n: int, fits: Callable[[list[int], int], bool]) -> Optional[tuple[int, ...]]:
    """The lexicographically least bijection of {0..n-1} that `fits` admits
    at every placement, or None.  Element d = len(image) goes on the least
    free target t with fits(image, t); when no target is left, d - 1 moves
    on to its next.  `image` is the explicit stack, so no recursion limit
    bounds n."""
    image: list[int] = []
    free, t = (1 << n) - 1, 0
    while len(image) < n:
        rest = free >> t
        if rest:
            t += (rest & -rest).bit_length() - 1
            if fits(image, t):
                image.append(t)
                free ^= 1 << t
                t = 0
            else:
                t += 1
        elif image:
            t = image.pop()
            free |= 1 << t
            t += 1
        else:
            return None
    return tuple(image)


def family_bijection(n: int, family: Iterable[int], other: Iterable[int]) -> Optional[tuple[int, ...]]:
    """The lexicographically least bijection of {0..n-1} carrying the family
    of masks onto the other, or None.  An element's degree counts the sets
    of each size holding it; unequal degree multisets are None at once, and
    `least_bijection` puts d only on a t of equal degree such that each S of
    {0..d} holding d is in the family iff its image is: the family's sets
    with largest element d land in the other, which has as many sets holding
    t inside the image of {0..d}.  While d + 2 is at most the smallest set
    size, which the degree screen makes both families' smallest, no set ends
    at d and none of the other's is one element off the image: nothing to
    scan.  Nothing of size 2^d is kept."""
    ours, theirs = set(family), set(other)
    smallest = min(map(int.bit_count, ours), default=0)

    def degrees(sets: set[int]) -> list[list[tuple[int, int]]]:
        sizes = sorted({s.bit_count() for s in sets})
        held = [Counter(chain.from_iterable(elements_of(s) for s in sets if s.bit_count() == k))
                for k in sizes]
        return [[(k, c[e]) for k, c in zip(sizes, held)] for e in range(n)]

    deg_a, deg_b = degrees(ours), degrees(theirs)
    if sorted(deg_a) != sorted(deg_b) or (0 in ours) != (0 in theirs):
        return None
    heads: list[list[int]] = [[] for _ in range(n)]  # S - {d} by the largest element d
    for s in filter(None, ours):
        heads[s.bit_length() - 1].append(s ^ 1 << s.bit_length() - 1)
    # per placed prefix: its heads' images, and the other's sets off its image by t alone
    prefix, before, ends = None, [], Counter()

    def fits(image: list[int], t: int) -> bool:
        nonlocal prefix, before, ends
        if deg_b[t] != deg_a[len(image)]:
            return False
        if len(image) + 2 <= smallest:
            return True
        if prefix != image:
            prefix, bits = image[:], [1 << x for x in image]
            before = [sum(map(bits.__getitem__, elements_of(s))) for s in heads[len(image)]]
            ends = Counter(r for r in map((~sum(bits)).__and__, theirs) if not r & r - 1)
        return ends[1 << t] == len(before) and all(p | 1 << t in theirs for p in before)

    return least_bijection(n, fits)


_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


@lru_cache(maxsize=22)  # n = 0..21, every ground set of a `Matroid`
def _element_bits(n: int) -> tuple[int, ...]:
    """has[e] for e < n: the 2^n-bit int with bit S set iff e is in S.

    Runs of 2^e clear then 2^e set bits, doubled up to 2^n bits."""
    out = []
    for e in range(n):
        run = 1 << e
        bits = ((1 << run) - 1) << run
        width = 2 * run
        while width < 1 << n:
            bits |= bits << width
            width *= 2
        out.append(bits)
    return tuple(out)


@lru_cache(maxsize=22)  # n = 0..21, every ground set of a `Matroid`
def _size_bits(n: int) -> tuple[int, ...]:
    """size[k] for k <= n: the 2^n-bit int with bit S set iff |S| == k.

    The upper half of the subsets of {0..n-1} holds n - 1, so size[k] is
    size[k] on n - 1 elements plus size[k - 1] on n - 1 elements shifted
    up by 2^(n - 1)."""
    if n == 0:
        return (1,)
    low = _size_bits(n - 1) + (0,)
    half = 1 << (n - 1)
    return (low[0],) + tuple(low[k] | low[k - 1] << half for k in range(1, n + 1))


def _family_bits(n: int, masks: Iterable[int]) -> int:
    """The 2^n-bit int with bit S set iff S is one of the masks: each mask
    sets one bit of a bytearray, read as one int."""
    marked = bytearray(((1 << n) + 7) >> 3)
    for m in masks:
        marked[m >> 3] |= 1 << (m & 7)
    return int.from_bytes(marked, "little")


def _down_closure(n: int, masks: Iterable[int]) -> int:
    """The 2^n-bit int with bit S set iff S lies inside one of the masks:
    `_family_bits` of the masks, then every set S passes its bit to S - e,
    one element at a time."""
    bits = _family_bits(n, masks)
    for e, has in enumerate(_element_bits(n)):
        bits |= (bits & has) >> (1 << e)
    return bits


def _bit_bytes(bits: int, n: int) -> bytes:
    """One byte per subset S of {0..n-1}: bit S of the 2^n-bit int bits."""
    return format(bits, f"0{1 << n}b")[::-1].encode().translate(_DIGIT_BYTES)
