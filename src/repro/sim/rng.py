"""Deterministic, path-addressed random streams.

Every stochastic quantity in the simulation (result counts, sequence sizes,
service-time jitter, ...) draws from a stream addressed by a tuple path such
as ``("result", query_id, fragment_id)``.  Streams derived from the same root
seed and path are identical regardless of process count, strategy, or the
order in which they are created — the property the paper relies on when it
states "the results are always identical since they are pseudo-randomly
generated".
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Tuple, Union

import numpy as np

PathElement = Union[int, str]


#: Element types whose equal values always have equal ``repr`` (unlike
#: floats, ``0.0 == -0.0``, or numpy integers next to equal ints), so
#: their BLAKE2 digest can be cached by value.
_CACHED_TYPES = (int, str)


def _element_digest(element: PathElement) -> int:
    """The 8-byte BLAKE2 digest of one path element, as an int."""
    digest = hashlib.blake2b(repr(element).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _path_entropy(
    path: Tuple[PathElement, ...], cache: Optional[Dict[PathElement, int]] = None
) -> Tuple[int, ...]:
    """Map a heterogeneous path to stable 32-bit words via BLAKE2.

    Each element gives two words, the low and the high half of its
    digest.  ``cache`` (a :class:`RandomStreams` instance's) keeps the
    digest of every ``int`` and ``str`` element already hashed.
    """
    words: list = []
    for element in path:
        if cache is not None and element.__class__ in _CACHED_TYPES:
            digest = cache.get(element)
            if digest is None:
                digest = cache[element] = _element_digest(element)
        else:
            digest = _element_digest(element)
        words += (digest & 0xFFFFFFFF, digest >> 32)
    return tuple(words)


class RandomStreams:
    """Factory of independent :class:`numpy.random.Generator` streams."""

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = seed
        # Digest of each path element seen so far.  Per instance, never
        # module-wide, so one run's streams cannot warm the next run's.
        self._words: Dict[PathElement, int] = {}

    def __repr__(self) -> str:
        return f"RandomStreams(seed={self.seed})"

    def stream(self, *path: PathElement) -> np.random.Generator:
        """A generator whose state depends only on (seed, path)."""
        entropy = (self.seed,) + _path_entropy(path, self._words)
        return np.random.default_rng(np.random.SeedSequence(entropy))

    def spawn(self, *path: PathElement) -> "RandomStreams":
        """A sub-factory rooted at ``path`` (for nested components)."""
        entropy = (self.seed,) + _path_entropy(path, self._words)
        digest = hashlib.blake2b(
            repr(entropy).encode(), digest_size=8
        ).digest()
        return RandomStreams(int.from_bytes(digest, "little"))
