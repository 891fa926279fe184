"""Keyed deterministic randomness.

Every stochastic object in the package (shift symbols, Monte Carlo streams,
jitter) is a pure function of a 64-bit key, built from splitmix64 hashing.
This makes base points exactly shift-invertible without storing sequences,
and makes all experiments bit-reproducible independent of scheduling.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFT1, _SHIFT2, _SHIFT3 = np.uint64(30), np.uint64(27), np.uint64(31)


def mix64(h):
    """splitmix64 finalizer, elementwise on uint64 scalars/arrays (wraparound intended)."""
    h = np.asarray(h, dtype=np.uint64)
    with np.errstate(over="ignore"):
        h = (h ^ (h >> _SHIFT1)) * _MIX1
        h = (h ^ (h >> _SHIFT2)) * _MIX2
    return h ^ (h >> _SHIFT3)


def keyed_hash(seed, index):
    """PRF(seed, index) -> uint64.

    `index` may be a scalar or array of (possibly negative) integers; negative
    indices are mapped through two's complement, so the map index -> hash is
    injective over the full signed range.
    """
    idx = np.asarray(index, dtype=np.int64).astype(np.uint64)
    with np.errstate(over="ignore"):
        h = np.uint64(seed) + (idx + np.uint64(1)) * _GOLDEN
    return mix64(h)


def keyed_hash_grid(seeds, index) -> np.ndarray:
    """PRF on the grid seeds x index; shape (len(seeds), len(index)).

    Row i equals keyed_hash(seeds[i], index).  The mix64 rounds run in place
    on the grid with one scratch array, which gives the same bits with two
    full-size buffers instead of a temporary per operation.
    """
    s = np.asarray(seeds, dtype=np.uint64)[:, None]
    idx = np.asarray(index, dtype=np.int64).astype(np.uint64)[None, :]
    with np.errstate(over="ignore"):
        h = s + (idx + np.uint64(1)) * _GOLDEN
        tmp = np.empty_like(h)
        for shift, mult in ((_SHIFT1, _MIX1), (_SHIFT2, _MIX2)):
            h ^= np.right_shift(h, shift, out=tmp)
            h *= mult
        h ^= np.right_shift(h, _SHIFT3, out=tmp)
    return h


def derive_key(master, *labels) -> int:
    """Fold integer labels into a master seed to get an independent stream key."""
    k = mix64(np.uint64(int(master) & _MASK))
    for lab in labels:
        with np.errstate(over="ignore"):
            inner = np.uint64((int(lab) & _MASK)) + _GOLDEN
        k = mix64(k ^ mix64(inner))
    return int(k)


def derive_keys(master, label, count) -> np.ndarray:
    """Vector of `count` stream keys: derive_key(master, label, i) for i < count."""
    base = np.uint64(derive_key(master, label))
    return mix64(base ^ mix64(np.arange(count, dtype=np.uint64) + _GOLDEN))


def to_unit(h) -> np.ndarray:
    """Map uint64 hashes to doubles in [0, 1) with 53 random bits."""
    return (np.asarray(h, dtype=np.uint64) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def generator(master, *labels) -> np.random.Generator:
    """numpy Generator seeded from a derived key (for jitter and shuffles)."""
    return np.random.default_rng(derive_key(master, *labels))
