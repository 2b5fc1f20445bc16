"""Method registry and run metrics."""

import pytest

from repro.core.methods import ALL_METHODS, BRICK_METHODS, method_info
from repro.core.metrics import RankMetrics, RunMetrics
from repro.exchange import schedule_template
from repro.util.timing import TimeBreakdown


class TestMethodInfo:
    def test_cpu_parsing(self, small_decomp):
        info = method_info("layout")
        assert info.base == "layout"
        assert info.transport is None
        assert info.uses_bricks
        assert not info.is_gpu
        # Where the on-node copy happens is the schedule's to say.
        template = schedule_template(
            info.base, small_decomp.extent, 8, 8, small_decomp,
            small_decomp.assignment(),
        )
        assert template.copy == "none"

    def test_gpu_parsing(self):
        info = method_info("layout_ca")
        assert info.base == "layout"
        assert info.transport == "ca"
        assert info.name == "layout_ca"
        assert info.is_gpu

    def test_um_parsing(self):
        assert method_info("mpi_types_um").transport == "um"

    def test_memmap_ca_impossible(self):
        """cudaMalloc memory cannot back stitched host mappings."""
        with pytest.raises(ValueError):
            method_info("memmap_ca")

    def test_unknown_rejected(self):
        for name in ("quantum", "shift"):
            with pytest.raises(ValueError):
                method_info(name)

    def test_yask_packs_and_overlap(self):
        assert schedule_template("yask", (16, 16, 16), 8, 8).copy == "pack"
        assert not method_info("yask").overlaps
        assert method_info("yask_ol").overlaps

    def test_all_methods_parse(self):
        for name in ALL_METHODS:
            method_info(name)

    def test_brick_methods_subset(self):
        for name in BRICK_METHODS:
            assert method_info(name).uses_bricks


class TestRunMetrics:
    def _metrics(self):
        ranks = [
            RankMetrics(0, 2, TimeBreakdown(calc=2.0, pack=0.4, wait=0.6)),
            RankMetrics(1, 2, TimeBreakdown(calc=2.4, pack=0.2, wait=0.8)),
        ]
        return RunMetrics("yask", points_per_rank=1000, nranks=2,
                          timesteps=2, ranks=ranks)

    def test_phase_summary(self):
        m = self._metrics()
        assert m.calc.min == pytest.approx(1.0)
        assert m.calc.max == pytest.approx(1.2)
        assert m.pack.avg == pytest.approx(0.15)

    def test_comm_time(self):
        m = self._metrics()
        assert m.comm_time == pytest.approx((0.5 + 0.5) / 2)

    def test_timestep_gated_by_slowest(self):
        m = self._metrics()
        assert m.timestep_time == pytest.approx(1.7)

    def test_throughput(self):
        m = self._metrics()
        assert m.gstencils_per_s == pytest.approx(2000 / 1.7 / 1e9)

    def test_report_contains_all_phases(self):
        text = self._metrics().report()
        for phase in ("calc", "pack", "call", "wait", "move", "perf"):
            assert phase in text

    def test_per_timestep_requires_steps(self):
        with pytest.raises(ValueError):
            RankMetrics(0, 0, TimeBreakdown()).per_timestep()
