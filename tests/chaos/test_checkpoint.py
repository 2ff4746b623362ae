"""Checkpoint codec, file format, and kill-and-resume bit-identity."""

import json

import numpy as np
import pytest

from repro.api import build_scenario
from repro.chaos import (
    CHECKPOINT_FORMAT_VERSION,
    decode_state,
    encode_state,
    load_checkpoint,
    resume_scenario,
    save_checkpoint,
)
from repro.qa.golden import diff_traces, record_cycles
from tests.core.kernels import force

CHAOS = {
    "partitions": [{"start_cycle": 1, "heal_cycle": 3}],
    "byzantines": [{"manager_id": 1, "start_cycle": 2, "heal_cycle": 4}],
}

BUILD = dict(
    n_nodes=16,
    n_pretrusted=2,
    n_colluders=4,
    n_interests=5,
    interests_per_node=(1, 3),
    capacity=8,
    query_cycles=3,
    simulation_cycles=6,
    collusion="pcm",
    use_socialtrust=True,
    n_managers=3,
    chaos=CHAOS,
)


class TestCodec:
    def test_ndarray_round_trip(self):
        arrays = [
            np.linspace(-1.5, 2.5, 12).reshape(3, 4),
            np.arange(7, dtype=np.int64),
            np.array([True, False, True]),
            np.array(3.25),  # 0-d
        ]
        for original in arrays:
            encoded = encode_state(original)
            assert isinstance(encoded, dict) and "__ndarray__" in encoded
            restored = decode_state(json.loads(json.dumps(encoded)))
            assert restored.dtype == original.dtype
            assert restored.shape == original.shape
            assert np.array_equal(restored, original)

    def test_decoded_array_is_writable(self):
        restored = decode_state(encode_state(np.zeros(3)))
        restored[0] = 1.0  # frombuffer alone would be read-only

    def test_non_finite_floats(self):
        payload = {"a": float("inf"), "b": float("-inf"), "c": float("nan")}
        restored = decode_state(json.loads(json.dumps(encode_state(payload))))
        assert restored["a"] == float("inf")
        assert restored["b"] == float("-inf")
        assert np.isnan(restored["c"])

    def test_numpy_scalars_become_python(self):
        encoded = encode_state(
            {"i": np.int64(4), "f": np.float64(0.5), "b": np.bool_(True)}
        )
        assert encoded == {"i": 4, "f": 0.5, "b": True}
        assert type(encoded["i"]) is int and type(encoded["b"]) is bool

    def test_nested_structures(self):
        state = {
            "rng": {"state": {"key": np.arange(4, dtype=np.uint64), "pos": 2}},
            "series": [np.ones(2), {"x": (1, 2)}],
        }
        restored = decode_state(json.loads(json.dumps(encode_state(state))))
        assert np.array_equal(restored["rng"]["state"]["key"], np.arange(4))
        assert restored["rng"]["state"]["pos"] == 2
        assert restored["series"][1]["x"] == [1, 2]


class TestSparseCodec:
    def test_csr_round_trip_is_exact(self):
        from scipy import sparse

        dense = np.array([[0.0, 1.5, 0.0], [0.0, 0.0, -2.25], [3.0, 0.0, 0.0]])
        original = sparse.csr_matrix(dense)
        encoded = encode_state({"cache": original})
        assert "__csr__" in encoded["cache"]
        restored = decode_state(json.loads(json.dumps(encoded)))["cache"]
        assert sparse.issparse(restored)
        assert restored.shape == original.shape
        assert np.array_equal(restored.data, original.data)
        assert np.array_equal(restored.indices, original.indices)
        assert np.array_equal(restored.indptr, original.indptr)

    def test_empty_and_explicit_zero_entries_survive(self):
        from scipy import sparse

        empty = sparse.csr_matrix((4, 4))
        with_zero = sparse.csr_matrix(
            (np.array([0.0, 2.0]), (np.array([0, 1]), np.array([1, 2]))),
            shape=(4, 4),
        )
        for original in (empty, with_zero):
            restored = decode_state(
                json.loads(json.dumps(encode_state(original)))
            )
            assert restored.nnz == original.nnz
            assert np.array_equal(restored.data, original.data)


class TestFileFormat:
    def _checkpoint(self, tmp_path, cycles=2):
        scenario = build_scenario(seed=3, **BUILD)
        sim = scenario.world.simulation
        for _ in range(cycles):
            sim.run_simulation_cycle()
        path = tmp_path / "ck" / "state.jsonl"
        save_checkpoint(sim, path, build=BUILD, seed=3)
        return path

    def test_save_load_round_trip(self, tmp_path):
        path = self._checkpoint(tmp_path)
        header, state = load_checkpoint(path)
        assert header["format_version"] == CHECKPOINT_FORMAT_VERSION
        assert header["seed"] == 3
        assert header["cycles_run"] == 2
        assert header["build"]["chaos"] == CHAOS
        assert state["cycles_run"] == 2
        assert state["injector"] is not None

    def test_no_tmp_file_left_behind(self, tmp_path):
        path = self._checkpoint(tmp_path)
        assert [p.name for p in path.parent.iterdir()] == [path.name]

    def test_truncated_file_rejected(self, tmp_path):
        path = self._checkpoint(tmp_path)
        first_line = path.read_text().splitlines()[0]
        path.write_text(first_line + "\n")
        with pytest.raises(ValueError, match="expected 2"):
            load_checkpoint(path)

    def test_wrong_format_version_rejected(self, tmp_path):
        path = self._checkpoint(tmp_path)
        header_raw, state_raw = path.read_text().splitlines()
        header = json.loads(header_raw)
        header["format_version"] = CHECKPOINT_FORMAT_VERSION + 1
        path.write_text(json.dumps(header) + "\n" + state_raw + "\n")
        with pytest.raises(ValueError, match="format version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [0, 4, 99, "2", None, True])
    def test_unknown_format_version_is_named(self, version, tmp_path):
        path = self._checkpoint(tmp_path)
        header_raw, state_raw = path.read_text().splitlines()
        header = json.loads(header_raw)
        header["format_version"] = version
        path.write_text(json.dumps(header) + "\n" + state_raw + "\n")
        with pytest.raises(
            ValueError, match=rf"format version {version!r} is not supported.*reads versions 1, 2, 3"
        ):
            load_checkpoint(path)

    def test_version_1_file_resumes_bit_identically(self, tmp_path):
        """A file in the version-1 layout -- dense rated pairs, flag counts,
        applied weights and EigenTrust local trust, Ωc state without its
        kernel -- loads, and the run resumed from it is the uninterrupted
        one."""
        build = dict(BUILD, faults={"byzantine_mode": "stale"})
        reference = record_cycles(build_scenario(seed=7, **build).world.simulation, 6)
        sim = build_scenario(seed=7, **build).world.simulation
        prefix = record_cycles(sim, 3)
        path = tmp_path / "v1.jsonl"
        save_checkpoint(sim, path, build=build, seed=7)
        header, state = load_checkpoint(path)
        assert header["format_version"] == 3
        n = BUILD["n_nodes"]
        system = state["system"]
        inner = system["inner"]
        local = np.zeros(n * n)
        local[inner.pop("local_keys")] = inner.pop("local_values")
        assert local.any()
        inner["local"] = local.reshape(n, n)
        rated_mask = np.zeros(n * n, dtype=bool)
        rated_mask[system.pop("rated")] = True
        flags = system.pop("flags")
        flag_counts = np.zeros(n * n, dtype=np.int64)
        flag_counts[flags["keys"]] = flags["hits"]
        last = system["last_weights"]
        weights = np.ones(n * n)
        weights[last["keys"]] = last["weights"]
        assert flags["keys"].size and last["keys"].size
        system.update(
            rated_mask=rated_mask.reshape(n, n),
            flag_counts=flag_counts.reshape(n, n),
            last_weights=weights.reshape(n, n),
        )
        del system["closeness"]["kernel"]
        header["format_version"] = 1
        lines = [header, {"type": "state", "state": encode_state(state)}]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        resumed = resume_scenario(path).world.simulation
        diff = diff_traces(reference, prefix + record_cycles(resumed, 3), mode="strict")
        assert diff.ok, diff.report()

    def test_non_header_first_line_rejected(self, tmp_path):
        path = self._checkpoint(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text(lines[1] + "\n" + lines[0] + "\n")
        with pytest.raises(ValueError, match="not a checkpoint header"):
            load_checkpoint(path)

    def test_resume_needs_matching_injector(self, tmp_path):
        path = self._checkpoint(tmp_path)
        _, state = load_checkpoint(path)
        plain = dict(BUILD)
        del plain["chaos"], plain["n_managers"]
        bare = build_scenario(seed=3, **plain)
        with pytest.raises(ValueError, match="injector"):
            bare.world.simulation.resume(state)


def _kill_and_resume_trace(build, seed, total_cycles, kill_at, tmp_path):
    """Run ``kill_at`` cycles, checkpoint, resume from disk, run the rest."""
    scenario = build_scenario(seed=seed, **build)
    sim = scenario.world.simulation
    prefix = record_cycles(sim, kill_at)
    path = tmp_path / "kill.jsonl"
    save_checkpoint(sim, path, build=build, seed=seed)
    del scenario, sim  # the "crash"
    resumed = resume_scenario(path)
    resumed_sim = resumed.world.simulation
    assert resumed_sim.cycles_run == kill_at
    return prefix + record_cycles(resumed_sim, total_cycles - kill_at)


class TestKillAndResume:
    """Acceptance criterion: a resumed run is bit-identical to an
    uninterrupted one — pinned with a strict golden-trace diff.  The chaos
    run's checkpoint is taken at cycle 3, *inside* the Byzantine window,
    so the restored injector state (Byzantine flags, schedule position)
    and the managers' last applied weights, which a ``"stale"`` manager
    replays, are exercised, not just the simulator arrays."""

    @pytest.mark.parametrize("mode", ["suppress", "stale", "corrupt"])
    def test_chaos_run_bit_identical(self, mode, tmp_path):
        build = dict(BUILD, faults={"byzantine_mode": mode})
        reference_sim = build_scenario(seed=7, **build).world.simulation
        reference = record_cycles(reference_sim, 6)
        assert reference_sim.metrics.faults.partition_blocks > 0
        assert reference_sim.metrics.faults.byzantine_corruptions > 0
        if mode == "stale":
            # Seed 7 damps a pair in the Byzantine rows before the window,
            # so the replay differs from suppression and a checkpoint that
            # lost the applied weights would show.
            suppress = dict(BUILD, faults={"byzantine_mode": "suppress"})
            suppressed = record_cycles(
                build_scenario(seed=7, **suppress).world.simulation, 6
            )
            assert not diff_traces(reference, suppressed, mode="strict").ok

        resumed = _kill_and_resume_trace(build, 7, 6, 3, tmp_path)
        diff = diff_traces(reference, resumed, mode="strict")
        assert diff.ok, diff.report()

    def test_sparse_coefficient_backend_bit_identical(self, monkeypatch, tmp_path):
        # The sparse kernels forced: the two-hop Ωc terms are arrays on the
        # union pattern, which the checkpoint codec must carry exactly or
        # the resumed incremental path diverges.  The spec still carries
        # the old backend switch, which selects nothing.
        force(monkeypatch, "two-hop")
        force(monkeypatch, "row-dots")
        build = dict(BUILD, socialtrust={"coefficient_backend": "sparse"})
        reference_sim = build_scenario(seed=7, **build).world.simulation
        reference = record_cycles(reference_sim, 6)

        resumed = _kill_and_resume_trace(build, 7, 6, 2, tmp_path)
        diff = diff_traces(reference, resumed, mode="strict")
        assert diff.ok, diff.report()

    def test_gossip_backend_bit_identical(self, tmp_path):
        # GossipTrust keeps an internal RNG — the checkpoint must carry it.
        build = dict(BUILD, system="gossip", use_socialtrust=None)
        del build["n_managers"]
        build["chaos"] = {"partitions": CHAOS["partitions"], "byzantines": []}
        reference_sim = build_scenario(seed=5, **build).world.simulation
        reference = record_cycles(reference_sim, 6)

        resumed = _kill_and_resume_trace(build, 5, 6, 3, tmp_path)
        diff = diff_traces(reference, resumed, mode="strict")
        assert diff.ok, diff.report()
