"""Differential runner: backend × engine sweep and its invariant checks."""

import numpy as np
import pytest

from repro.qa import (
    BACKENDS,
    CellResult,
    DifferentialReport,
    run_differential,
)


class TestSweep:
    @pytest.fixture(scope="class")
    def report(self):
        return run_differential(seed=4, cycles=2)

    def test_full_grid_holds(self, report):
        assert report.ok, "\n".join(report.violations)

    def test_covers_every_backend_and_engine(self, report):
        cells = {(c.backend, c.engine) for c in report.cells}
        assert cells == {(b, e) for b in BACKENDS for e in ("batched", "scalar")}

    def test_engine_twins_bit_identical(self, report):
        by_backend = {}
        for cell in report.cells:
            by_backend.setdefault(cell.backend, {})[cell.engine] = cell
        for backend, cells in by_backend.items():
            assert np.array_equal(
                cells["batched"].reputations, cells["scalar"].reputations
            ), backend

    def test_summary_mentions_every_backend(self, report):
        text = report.summary()
        for backend in BACKENDS:
            assert backend in text
        assert "ALL INVARIANTS HOLD" in text

    def test_socialtrust_only_wraps_wrappable_backends(self, report):
        names = {c.backend: c.system_name for c in report.cells}
        assert "SocialTrust" in names["eigentrust"]
        assert "SocialTrust" not in names["trustguard"]
        assert "SocialTrust" not in names["gossip"]


class TestSubsetsAndErrors:
    def test_backend_subset(self):
        report = run_differential(
            seed=1, cycles=2, backends=("eigentrust",), engines=("batched",)
        )
        assert len(report.cells) == 1
        assert report.ok

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run_differential(backends=("eigentrust", "bitcoin"))

    def test_overrides_forwarded(self):
        report = run_differential(
            seed=2,
            cycles=2,
            backends=("ebay",),
            engines=("batched", "scalar"),
            n_nodes=16,
            n_colluders=3,
        )
        assert report.ok
        assert report.cells[0].reputations.shape == (16,)


class TestViolationPlumbing:
    def _cell(self, violations=()):
        return CellResult(
            backend="eigentrust",
            engine="batched",
            system_name="x",
            reputations=np.zeros(4),
            history=np.zeros((2, 4)),
            total_requests=10,
            total_served=9,
            unserved=1,
            violations=tuple(violations),
        )

    def test_cell_violations_bubble_up(self):
        report = DifferentialReport(seed=0, cycles=2)
        report.cells.append(self._cell(["reputations outside [0, 1]"]))
        assert not report.ok
        assert "eigentrust/batched" in report.violations[0]
        assert "VIOLATIONS FOUND" in report.summary()

    def test_cross_violations_bubble_up(self):
        report = DifferentialReport(seed=0, cycles=2)
        report.cells.append(self._cell())
        report.cross_violations.append("eigentrust: engines differ")
        assert not report.ok
        assert "cross-engine violations" in report.summary()
