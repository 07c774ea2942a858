"""Test-side rank-1 oracles: the character of a tensor product of
fundamentals, and special position of two strings."""

from qchar.sl2 import kr_qchar_sl2, product


def standard_qchar_sl2(k: int, c: int) -> dict:
    """Character of the ordered tensor product of k fundamentals:

    X_{k,q^c} prod_{t=0..k-1} (1 + A_{q^{c+k-2t}}^{-1}), expanded with
    multiplicity.  All 2^k products are pairwise distinct.
    """
    if k < 1:
        raise ValueError("string length must be >= 1")
    return product(kr_qchar_sl2(1, c + k - 1 - 2 * t) for t in range(k))


def in_special_position(k1: int, c1: int, k2: int, c2: int) -> bool:
    """Whether the exponent-wise max of two strings is a third, distinct string."""
    s1 = {c1 + k1 - 1 - 2 * t for t in range(k1)}
    s2 = {c2 + k2 - 1 - 2 * t for t in range(k2)}
    merged = s1 | s2
    lo, hi = min(merged), max(merged)
    if (hi - lo) % 2 != 0 or len(merged) != (hi - lo) // 2 + 1:
        return False  # gap or mixed parity: not a string
    return merged != s1 and merged != s2
