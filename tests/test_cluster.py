"""SMA multiprocessor cluster: correctness under contention, fairness,
interference accounting."""

import numpy as np
import pytest

from repro.config import MemoryConfig, SMAConfig
from repro.core import SMACluster
from repro.core import machine as machine_mod
from repro.errors import SimulationError
from repro.isa import assemble
from repro.kernels import get_kernel, run_reference
from repro.harness.runner import run_cluster


def _copy_node(src_base: int, dst_base: int, n: int):
    ap = assemble(f"""
        streamld lq0, #{src_base}, #1, #{n}
        streamst sdq0, #{dst_base}, #1, #{n}
        halt
    """)
    ep = assemble(f"""
        mov x1, #{n}
        t: add sdq0, lq0, #1.0
        decbnz x1, t
        halt
    """)
    return ap, ep


class TestClusterBasics:
    def test_two_nodes_disjoint_regions(self):
        cfg = SMAConfig(memory=MemoryConfig(size=4096))
        cluster = SMACluster(
            [_copy_node(100, 300, 16), _copy_node(500, 700, 16)], cfg
        )
        cluster.load_array(100, [1.0] * 16)
        cluster.load_array(500, [10.0] * 16)
        result = cluster.run()
        assert cluster.dump_array(300, 16).tolist() == [2.0] * 16
        assert cluster.dump_array(700, 16).tolist() == [11.0] * 16
        assert len(result.nodes) == 2
        assert result.cycles >= max(n.cycles for n in result.nodes)

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            SMACluster([])

    def test_finish_cycles_recorded(self):
        cfg = SMAConfig(memory=MemoryConfig(size=4096))
        cluster = SMACluster(
            [_copy_node(100, 300, 4), _copy_node(500, 700, 64)], cfg
        )
        cluster.load_array(100, [1.0] * 4)
        cluster.load_array(500, [1.0] * 64)
        cluster.run()
        short, long = cluster.finish_cycles
        assert short < long

    def test_deadlock_detection(self):
        ap = assemble("halt")
        ep = assemble("mov x1, lq0\nhalt")
        cluster = SMACluster([(ap, ep)], SMAConfig())
        with pytest.raises(SimulationError, match="cluster deadlock"):
            cluster.run(deadlock_window=100)

    @pytest.mark.parametrize("fast", (False, True))
    def test_step_cycles_deadlock_detection(self, fast, monkeypatch):
        """``step_cycles`` raises the deadlock ``run()`` raises, at the
        same cycle, instead of ticking the whole count."""
        monkeypatch.setattr(machine_mod, "FAST_FORWARD", fast)
        programs = [(assemble("halt"), assemble("mov x1, lq0\nhalt"))]
        cluster = SMACluster(programs, SMAConfig())
        with pytest.raises(SimulationError, match="cluster deadlock"):
            cluster.step_cycles(200_000)
        reference = SMACluster(programs, SMAConfig())
        with pytest.raises(SimulationError, match="cluster deadlock"):
            reference.run()
        assert cluster.cycle == reference.cycle == 10_002

    def test_summary(self):
        cfg = SMAConfig(memory=MemoryConfig(size=2048))
        cluster = SMACluster([_copy_node(100, 300, 8)], cfg)
        cluster.load_array(100, [1.0] * 8)
        result = cluster.run()
        assert "node 0" in result.summary()


class TestInterference:
    def test_results_identical_under_contention(self):
        """Contention may change timing, never values."""
        jobs = [
            get_kernel("hydro").instantiate(64, seed=1),
            get_kernel("tridiag").instantiate(64, seed=2),
            get_kernel("pic_gather").instantiate(64, seed=3),
        ]
        result = run_cluster(jobs)  # check=True verifies vs reference
        assert len(result.outputs) == 3

    def test_single_node_cluster_matches_standalone(self):
        jobs = [get_kernel("daxpy").instantiate(64)]
        result = run_cluster(jobs)
        assert result.node_cycles[0] == result.standalone_cycles[0]
        assert result.interference_slowdowns[0] == 1.0

    def test_port_contention_slows_nodes(self):
        cfg = SMAConfig(
            memory=MemoryConfig(num_banks=16, accepts_per_cycle=1)
        )
        jobs = [
            get_kernel("daxpy").instantiate(96, seed=5),
            get_kernel("daxpy").instantiate(96, seed=6),
        ]
        result = run_cluster(jobs, cfg)
        assert all(s > 1.3 for s in result.interference_slowdowns)

    def test_wider_port_restores_performance(self):
        jobs = [
            get_kernel("daxpy").instantiate(96, seed=5),
            get_kernel("daxpy").instantiate(96, seed=6),
        ]
        narrow = run_cluster(jobs, SMAConfig(
            memory=MemoryConfig(num_banks=16, accepts_per_cycle=1)
        ))
        wide = run_cluster(jobs, SMAConfig(
            memory=MemoryConfig(num_banks=16, accepts_per_cycle=2)
        ))
        assert sum(wide.node_cycles) < sum(narrow.node_cycles)

    def test_rotation_fairness(self):
        """Two identical nodes must finish within a few cycles of each
        other — the rotating service order gives neither a standing
        priority at the memory port."""
        jobs = [
            get_kernel("scale_shift").instantiate(96, seed=9),
            get_kernel("scale_shift").instantiate(96, seed=9),
        ]
        result = run_cluster(jobs)
        a, b = result.node_cycles
        assert abs(a - b) <= 0.05 * max(a, b)
