"""Deterministic seed derivation and stream creation.

Every random stream in the package is a ``random.Random`` (Mersenne Twister)
seeded from a 64-bit value derived by ``derive_seed``.  Derivation hashes a
(master seed, path...) tuple with FNV-1a and finishes each element with a
SplitMix64 avalanche round, so child seeds are order-sensitive in the path,
stable across platforms, and cheap to compute in any language a port might
use.  Results are always in [0, 2**64).

Checked, the base of every config dataclass, and FieldError, the error its
validate() raises, sit here below them all.
"""

import random

MASK64 = 0xFFFFFFFFFFFFFFFF

_FNV_OFFSET64 = 0xCBF29CE484222325
_FNV_PRIME64 = 0x100000001B3

#: Recorded in output metadata so replicas can verify the stream contract.
RNG_ALGORITHM = "mt19937; seeds via fnv1a64+splitmix64 path hash"


class FieldError(ValueError):
    """A field breaks its bound: `field` names it, `constraint` says how."""

    def __init__(self, field: str, constraint: str):
        super().__init__(field, constraint)
        self.field = field
        self.constraint = constraint

    def __str__(self) -> str:
        return f"{self.field} {self.constraint}"


class Checked:
    """A config dataclass that runs validate() as it is built, replace() included."""

    def __post_init__(self) -> None:
        self.validate()


def check_master_seed(seed: int) -> None:
    """A run is named by its config digest and a master seed >= 0."""
    if seed < 0:
        raise FieldError("seed", f"must be >= 0, got {seed}")


def splitmix64(x: int) -> int:
    """One SplitMix64 avalanche round of a 64-bit value."""
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return (x ^ (x >> 31)) & MASK64


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET64
    for b in data:
        h = ((h ^ b) * _FNV_PRIME64) & MASK64
    return h


def _encode(part: int | str) -> bytes:
    # Tag the type so derive_seed(s, 1) and derive_seed(s, "1") differ.
    if isinstance(part, bool):
        raise TypeError("bool path elements are ambiguous; use int or str")
    if isinstance(part, int):
        return b"i:" + (part & MASK64).to_bytes(8, "big")
    if isinstance(part, str):
        return b"s:" + part.encode("utf-8")
    raise TypeError(f"unsupported path element type: {type(part).__name__}")


def derive_seed(master_seed: int, *path: int | str) -> int:
    """Derive a child seed from a master seed and a path of tags/indices.

    Pure function of its arguments.  Path order matters:
    derive_seed(s, "a", 1) != derive_seed(s, 1, "a").
    """
    h = splitmix64(master_seed & MASK64)
    for part in path:
        h = splitmix64((h ^ _fnv1a(_encode(part))) & MASK64)
    return h


def make_rng(seed: int) -> random.Random:
    """Create the package-standard generator for a derived seed."""
    return random.Random(seed & MASK64)


def spawn_rng(master_seed: int, *path: int | str) -> random.Random:
    return make_rng(derive_seed(master_seed, *path))
