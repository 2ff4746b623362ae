"""Crash-safe checkpoint files.

A checkpoint is a two-line JSONL file:

1. a **header** carrying the :func:`repro.api.build_scenario` keyword
   arguments (the same self-describing contract as the golden-trace
   headers), the seed/run-index, and the cycle count at capture time;
2. a **state** line carrying :meth:`repro.p2p.simulator.Simulation.checkpoint`
   with every ndarray base64-encoded (raw little-endian bytes — exact, no
   decimal round-trip) and non-finite floats tagged.

Recovery rebuilds the scenario from the header (static structure —
population, overlay, social graph, collusion schedule — is a pure
function of the build arguments and seed) and restores the mutable state
on top.  The resumed process continues **bit-identically** to the
uninterrupted run; the kill-and-resume test pins that with a strict
golden-trace diff.
"""

from __future__ import annotations

import base64
import json
import math
from pathlib import Path
from typing import Any

import numpy as np
from scipy import sparse

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "encode_state",
    "decode_state",
    "save_checkpoint",
    "load_checkpoint",
    "resume_scenario",
]

#: The layout :func:`save_checkpoint` writes, bumped whenever a build
#: that reads the previous layout could not restore the new one.  Version
#: 2 holds SocialTrust's rated pairs and flag history as sorted pair keys
#: and names the Ωc kernel that built the cached terms.  Version 3 holds
#: EigenTrust's local trust and the rating ledger's in-flight interval as
#: sorted pair keys plus values.  A build that reads only older versions
#: refuses a newer file with a clean error instead of failing mid-restore.
CHECKPOINT_FORMAT_VERSION = 3

#: Every layout :func:`load_checkpoint` reads: versions 1 (dense rated and
#: flag history, Ωc terms without their kernel) and 2 (dense EigenTrust
#: local trust and in-flight interval) still restore.
_READABLE_FORMAT_VERSIONS = (1, 2, 3)


def encode_state(value: Any) -> Any:
    """Recursively encode a state payload into JSON-safe data.

    ndarrays become ``{"__ndarray__": b64, "dtype": ..., "shape": ...}``
    over the raw (C-contiguous, little-endian) bytes, SciPy sparse
    matrices become ``{"__csr__": ...}`` over their CSR constituent
    arrays (data/indices/indptr — exact, the sparse Ωc caches must
    resume bit-identically just like the dense ones), numpy scalars
    become Python scalars, and non-finite floats are tagged the same way
    the golden traces tag them.
    """
    if sparse.issparse(value):
        mat = value.tocsr()
        return {
            "__csr__": {
                "data": encode_state(np.asarray(mat.data)),
                "indices": encode_state(np.asarray(mat.indices)),
                "indptr": encode_state(np.asarray(mat.indptr)),
            },
            "shape": list(mat.shape),
        }
    if isinstance(value, np.ndarray):
        # ascontiguousarray promotes 0-d to 1-d, so keep the true shape.
        contiguous = np.ascontiguousarray(value)
        le = contiguous.astype(contiguous.dtype.newbyteorder("<"), copy=False)
        return {
            "__ndarray__": base64.b64encode(le.tobytes()).decode("ascii"),
            "dtype": le.dtype.str,
            "shape": list(value.shape),
        }
    if isinstance(value, (np.integer, np.bool_)):
        return value.item()
    if isinstance(value, np.floating):
        value = float(value)
    if isinstance(value, float) and not math.isfinite(value):
        return {"__float__": repr(value)}
    if isinstance(value, dict):
        return {str(k): encode_state(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_state(v) for v in value]
    return value


def decode_state(value: Any) -> Any:
    """Inverse of :func:`encode_state`."""
    if isinstance(value, dict):
        if set(value) == {"__csr__", "shape"}:
            parts = value["__csr__"]
            return sparse.csr_matrix(
                (
                    decode_state(parts["data"]),
                    decode_state(parts["indices"]),
                    decode_state(parts["indptr"]),
                ),
                shape=tuple(value["shape"]),
            )
        if set(value) == {"__ndarray__", "dtype", "shape"}:
            raw = base64.b64decode(value["__ndarray__"])
            arr = np.frombuffer(raw, dtype=np.dtype(value["dtype"]))
            return arr.reshape(tuple(value["shape"])).copy()
        if set(value) == {"__float__"}:
            return float(value["__float__"])
        return {k: decode_state(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_state(v) for v in value]
    return value


def save_checkpoint(
    simulation,
    path: Path | str,
    *,
    build: dict[str, Any],
    seed: int = 0,
    run_index: int = 0,
    kind: str = "simulation",
) -> Path:
    """Capture ``simulation`` at its current cycle boundary into ``path``.

    ``build`` must be the JSON-serializable keyword arguments that
    reconstruct the scenario via :func:`repro.api.build_scenario` —
    exactly what :class:`~repro.qa.golden.GoldenScenario` stores.  The
    file is written atomically (temp file + rename) so a crash mid-write
    never leaves a truncated checkpoint behind.

    ``simulation`` is duck-typed: anything with a ``checkpoint()`` dict
    and a ``cycles_run`` count.  ``kind`` names the producer so recovery
    routes correctly — ``"simulation"`` resumes via
    :func:`resume_scenario`, ``"service"`` via
    :meth:`repro.serve.ReputationService.from_checkpoint`.  The key is
    additive (absent means ``"simulation"``), so the format version is
    unchanged.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "type": "header",
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "kind": str(kind),
        "build": dict(build),
        "seed": int(seed),
        "run_index": int(run_index),
        "cycles_run": simulation.cycles_run,
    }
    state = {"type": "state", "state": encode_state(simulation.checkpoint())}
    tmp = path.with_suffix(path.suffix + ".tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        for line in (header, state):
            handle.write(json.dumps(line, separators=(",", ":")))
            handle.write("\n")
    tmp.replace(path)
    return path


def load_checkpoint(path: Path | str) -> tuple[dict[str, Any], dict[str, Any]]:
    """Load ``(header, state)``; raises ``ValueError`` on malformed input."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        lines = [line for line in handle if line.strip()]
    if len(lines) != 2:
        raise ValueError(f"{path}: expected 2 JSONL lines, found {len(lines)}")
    header = json.loads(lines[0])
    if header.get("type") != "header":
        raise ValueError(f"{path}: first line is not a checkpoint header")
    version = header.get("format_version")
    if type(version) is not int or version not in _READABLE_FORMAT_VERSIONS:
        raise ValueError(
            f"{path}: format version {version!r} is not supported; this "
            f"build reads versions {', '.join(map(str, _READABLE_FORMAT_VERSIONS))}"
        )
    payload = json.loads(lines[1])
    if payload.get("type") != "state":
        raise ValueError(f"{path}: second line is not a state payload")
    return header, decode_state(payload["state"])


def resume_scenario(path: Path | str):
    """Rebuild the checkpointed scenario and restore its state.

    Returns the resumed :class:`repro.api.Scenario`; drive it onward with
    ``scenario.world.simulation.run_simulation_cycle()`` (the restored
    cycle counter tells you how far the original run got).
    """
    # Local import: keep the codec importable without the full stack.
    from repro.api import _drop_retired, build_scenario

    header, state = load_checkpoint(path)
    kind = header.get("kind", "simulation")
    if kind != "simulation":
        raise ValueError(
            f"{path}: checkpoint kind {kind!r} is not a batch-simulation "
            f"checkpoint; service checkpoints resume via "
            f"repro.serve.ReputationService.from_checkpoint"
        )
    scenario = build_scenario(
        seed=header["seed"],
        run_index=header["run_index"],
        **_drop_retired(header["build"]),
    )
    scenario.world.simulation.resume(state)
    return scenario
