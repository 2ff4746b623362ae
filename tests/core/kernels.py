"""Force the Ωc and Ωs kernels through their private rules.

The Ωc computer picks its layout (full or two-hop) when it builds its
structure and its full-layout kernel (GEMM, or the pair kernel, forced
as ``"sparse-a"``: ``A`` kept sparse) at every rebuild; the Ωs computer
picks its numerator kernel (product or row dots) when it is built.
:func:`force` patches the rules for the rest of a test;
:func:`closeness_with` and :func:`similarity_with` build one computer
under a forced layout or kernel and leave the rules as they were.
"""

from __future__ import annotations

import pytest

import repro.core.closeness as closeness_module
import repro.core.similarity as similarity_module
from repro.core.closeness import ClosenessComputer
from repro.core.similarity import SimilarityComputer

CLOSENESS_KERNELS = ("gemm", "sparse-a", "two-hop")
SIMILARITY_KERNELS = ("product", "row-dots")


def force(monkeypatch, kernel: str) -> None:
    """Make the rules pick ``kernel`` at every size and fill."""
    if kernel == "two-hop":
        monkeypatch.setattr(closeness_module, "_FULL_LAYOUT_MIN_PATHS", float("inf"))
    elif kernel in ("gemm", "sparse-a"):
        monkeypatch.setattr(closeness_module, "_FULL_LAYOUT_MIN_PATHS", 0.0)
        if kernel == "sparse-a":
            monkeypatch.setattr(closeness_module, "_SPARSE_MIN_NODES", 0)
            monkeypatch.setattr(closeness_module, "_SPARSE_MAX_FILL", 1.0)
        else:
            monkeypatch.setattr(closeness_module, "_SPARSE_MIN_NODES", 1 << 30)
    elif kernel in SIMILARITY_KERNELS:
        floor = 1 << 30 if kernel == "product" else 0
        monkeypatch.setattr(similarity_module, "_PRODUCT_MAX_NODES", floor)
    else:
        raise ValueError(f"unknown kernel {kernel!r}")


def closeness_with(layout: str, view, ledger, config=None) -> ClosenessComputer:
    """An Ωc computer in the ``"full"`` or ``"two-hop"`` layout (its
    full-layout rebuild kernel still follows the rule in force)."""
    with pytest.MonkeyPatch.context() as mp:
        paths = 0.0 if layout == "full" else float("inf")
        mp.setattr(closeness_module, "_FULL_LAYOUT_MIN_PATHS", paths)
        computer = ClosenessComputer(view, ledger, config)
        computer._structure()
    return computer


def similarity_with(kernel: str, profiles, config=None) -> SimilarityComputer:
    """An Ωs computer on the ``"product"`` or ``"row-dots"`` kernel."""
    with pytest.MonkeyPatch.context() as mp:
        force(mp, kernel)
        return SimilarityComputer(profiles, config)
