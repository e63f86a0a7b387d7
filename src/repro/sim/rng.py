"""Deterministic random-number sources.

Every stochastic element of the reproduction (task release jitter,
synthetic workload composition, payload generation) draws from a
:class:`RandomSource` derived from a single experiment seed, so whole
experiments replay bit-identically.  :func:`spawn_streams` splits one
seed into independent named child streams, which keeps a change in one
subsystem's draw count from perturbing the others.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np


#: Draw count from which :meth:`RandomSource.random_array` parses raw
#: words instead of calling ``random()`` per draw: below it the fixed
#: cost of the word path outweighs its per-draw saving.
WORDS_MIN_DRAWS = 200


class RandomSource(random.Random):
    """A named, seeded ``random.Random`` with domain-specific helpers."""

    def __init__(self, seed: int, name: str = ""):
        self.name = name
        self.seed_value = seed
        super().__init__(seed)

    def spawn(self, child_name: str) -> "RandomSource":
        """Derive an independent child stream keyed by ``child_name``.

        Derivation is *stateless* -- it hashes ``(seed_value, name)`` and
        never touches this generator's position -- so children can be
        spawned in any order, or in different processes, and still yield
        the same draws.  The parallel experiment runner relies on this.
        """
        return RandomSource(derive_seed(self.seed_value, child_name), child_name)

    def streams(self, *child_names: str) -> "List[RandomSource]":
        """Spawn several named children at once, in argument order.

        Convenience over repeated :meth:`spawn`; ``pad, wl = rng.streams(
        "pad", "wl")`` derives exactly the same streams as two spawn
        calls, so it is safe to adopt without perturbing replay.
        """
        return [self.spawn(name) for name in child_names]

    # -- domain helpers ----------------------------------------------------

    def random_array(self, n: int) -> np.ndarray:
        """``n`` draws of :meth:`random` as a float64 array, in order.

        Leaves the generator exactly where ``n`` calls of ``random()``
        would; ``scale_uniform(a, b, u)`` turns the draws into
        :meth:`uniform` samples bit for bit.
        """
        if n < 0:
            raise ValueError(f"cannot draw a negative count: {n}")
        if n >= WORDS_MIN_DRAWS:
            # random() consumes two raw words; unit_floats parses them
            # bit for bit.
            raw = self.words(2 * n)
            return unit_floats(raw[0::2], raw[1::2])
        # iter(callable, sentinel) never meets its sentinel: random()
        # lies in [0, 1).  fromiter stops after ``count`` draws.
        return np.fromiter(iter(self.random, -1.0), dtype=np.float64, count=n)

    def words(self, m: int) -> np.ndarray:
        """The next ``m`` raw 32-bit outputs of the generator, in draw
        order, as a uint32 array.

        One ``getrandbits(32 * m)``: CPython fills that integer from its
        least significant word up, one generator output per word, so the
        array equals ``m`` calls of ``getrandbits(32)`` and leaves the
        generator where they would.
        """
        if m < 0:
            raise ValueError(f"cannot draw a negative count: {m}")
        if not m:
            return np.zeros(0, dtype=np.uint32)
        raw = self.getrandbits(32 * m).to_bytes(4 * m, "little")
        return np.frombuffer(raw, dtype="<u4").astype(np.uint32)

    def log_uniform(self, low: float, high: float) -> float:
        """Sample log-uniformly from ``[low, high]`` (period generation)."""
        if low <= 0 or high < low:
            raise ValueError(f"invalid log-uniform range [{low}, {high}]")
        import math

        return math.exp(self.uniform(math.log(low), math.log(high)))

    def uunifast(self, n: int, total_utilization: float) -> List[float]:
        """UUniFast: n task utilizations summing to ``total_utilization``.

        Bini & Buttazzo's unbiased utilization-splitting algorithm; the
        standard generator for schedulability experiments.
        """
        if n < 1:
            raise ValueError(f"need at least one task, got n={n}")
        if total_utilization < 0:
            raise ValueError(f"negative utilization {total_utilization}")
        utilizations = []
        remaining = total_utilization
        for i in range(1, n):
            next_remaining = remaining * self.random() ** (1.0 / (n - i))
            utilizations.append(remaining - next_remaining)
            remaining = next_remaining
        utilizations.append(remaining)
        return utilizations

    def choice_weighted(self, items: Sequence, weights: Sequence[float]):
        """Single weighted choice (wrapper over ``random.choices``)."""
        return self.choices(list(items), weights=list(weights), k=1)[0]


def scale_uniform(low, high, u):
    """``random.uniform(low, high)`` applied to draws ``u`` of ``random()``.

    The same expression as the standard library's, ``a + (b - a) * u``,
    so scalars and numpy arrays of draws give bit-identical samples.
    """
    return low + (high - low) * u


def unit_floats(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """``random()`` of two raw words each (:meth:`RandomSource.words`):
    CPython's ``(a >> 5, b >> 6)`` as a 53-bit fraction, bit for bit."""
    fraction = (first >> 5).astype(np.float64)
    # In place, in CPython's order: (a * 2**26 + b) * 2**-53.
    fraction *= 67108864.0
    fraction += second >> 6
    fraction *= 1.0 / 9007199254740992.0
    return fraction


def derive_seed(base_seed: int, name: str) -> int:
    """Stable 63-bit seed derived from a base seed and a stream name."""
    digest = hashlib.sha256(f"{base_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


def spawn_streams(
    base_seed: int, names: Iterable[str], prefix: Optional[str] = None
) -> Dict[str, RandomSource]:
    """Create one independent :class:`RandomSource` per name."""
    streams: Dict[str, RandomSource] = {}
    for name in names:
        full_name = f"{prefix}.{name}" if prefix else name
        streams[name] = RandomSource(derive_seed(base_seed, full_name), full_name)
    return streams
