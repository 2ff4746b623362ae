"""Shared utilities: seeded RNG streams and argument validation."""

from repro.utils.rng import RngStream, spawn_rng
from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = [
    "RngStream",
    "spawn_rng",
    "check_fraction",
    "check_non_negative",
    "check_positive",
    "check_probability",
]
