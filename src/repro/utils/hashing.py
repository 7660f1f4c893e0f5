"""Index and tag hash functions.

The paper computes critic indices and tags with "different XOR functions of
the branch address and BOR value" (§4), and 2Bc-gskew uses the skewing
functions of Seznec & Michaud's e-gskew. Both families live here.
"""

from __future__ import annotations

from repro.utils.bitops import mask

_GOLDEN64 = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def mix64(value: int) -> int:
    """Finalize-style 64-bit integer mix (splitmix64 finalizer).

    Used where the simulator needs a cheap, high-quality deterministic
    scrambling of an integer key (e.g. per-site RNG streams). Not meant to
    model hardware.
    """
    value = (value + _GOLDEN64) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def index_hash(pc: int, history: int, index_bits: int, history_bits: int) -> int:
    """Hardware-style index: PC XOR folded history, ``index_bits`` wide.

    The history is folded (rather than truncated) when it is wider than the
    index so that old bits still participate, mirroring gshare-family
    indexing with long histories.
    """
    from repro.utils.bitops import fold_bits

    folded = fold_bits(history, history_bits, index_bits)
    return ((pc >> 2) ^ folded) & mask(index_bits)


def tag_hash(pc: int, history: int, tag_bits: int, history_bits: int) -> int:
    """Tag hash decorrelated from :func:`index_hash`.

    Uses a different alignment of both PC and history bits so that two
    (PC, history) pairs that collide in the index rarely also collide in
    the tag — the property the paper's filter relies on (§4).
    """
    from repro.utils.bitops import fold_bits

    folded = fold_bits(history, history_bits, tag_bits)
    rotated = ((history >> 1) | ((history & 1) << (history_bits - 1))) if history_bits > 0 else 0
    folded2 = fold_bits(rotated, history_bits, tag_bits)
    return ((pc >> 5) ^ (pc >> (5 + tag_bits)) ^ folded ^ (folded2 << 1)) & mask(tag_bits)


# --- e-gskew skewing functions (Seznec & Michaud, PI-1229) ----------------
#
# The skewing functions are built from H and H^-1, two simple bijections on
# n-bit values. Bank k of an e-gskew predictor is indexed with a different
# composition so that two addresses colliding in one bank are guaranteed to
# not collide in the others.


def skew_h(value: int, n_bits: int) -> int:
    """The H bijection: one-bit rotation with feedback on the split bit."""
    if n_bits <= 1:
        return value & mask(n_bits)
    msb = (value >> (n_bits - 1)) & 1
    second = (value >> (n_bits - 2)) & 1
    out = ((value << 1) & mask(n_bits)) | (msb ^ second)
    return out


def skew_hinv(value: int, n_bits: int) -> int:
    """Inverse of :func:`skew_h`."""
    if n_bits <= 1:
        return value & mask(n_bits)
    lsb = value & 1
    msb = (value >> (n_bits - 1)) & 1
    out = (value >> 1) | ((lsb ^ msb) << (n_bits - 1))
    return out


def skew_f(bank: int, v1: int, v2: int, n_bits: int) -> int:
    """e-gskew skewing function for ``bank`` ∈ {0, 1, 2}.

    ``v1``/``v2`` are the two address components being mixed (for a branch
    predictor: a PC slice and a history slice). Each bank composes H and
    H^-1 differently, per the original e-gskew construction.
    """
    v1 &= mask(n_bits)
    v2 &= mask(n_bits)
    if bank == 0:
        return skew_h(v1, n_bits) ^ skew_hinv(v2, n_bits) ^ v2
    if bank == 1:
        return skew_h(v1, n_bits) ^ skew_hinv(v2, n_bits) ^ v1
    if bank == 2:
        return skew_hinv(v1, n_bits) ^ skew_h(v2, n_bits) ^ v2
    raise ValueError(f"e-gskew defines banks 0..2, got {bank}")
