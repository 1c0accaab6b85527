"""MemoryState accounting: pool, reservation and eviction bookkeeping."""

from repro.geometry import Rect
from repro.legion.instance import InstanceManager, MemoryState
from repro.machine import Machine, ProcessorKind
from repro.machine.model import MachineConfig


def _fb_memory(fb_mb: float = 1.0):
    machine = Machine(
        MachineConfig(
            nodes=1,
            sockets_per_node=1,
            gpus_per_node=1,
            gpu_memory=int(fb_mb * 2**20),
            sysmem_per_node=2**30,
        )
    )
    return machine.scope(ProcessorKind.GPU, 1).processors[0].memory


def _state(fb_mb: float = 1.0, **kwargs) -> MemoryState:
    return MemoryState(_fb_memory(fb_mb), **kwargs)


def rect(n: int) -> Rect:
    return Rect((0,), (n,))


class TestCharging:
    def test_available_tracks_usage_and_reservation(self):
        st = _state(fb_mb=1.0, reserved_bytes=2**18)
        budget = 2**20 - 2**18
        assert st.available == budget
        st.ensure(0, rect(1024), 8)  # 8 KiB
        assert st.available == budget - 8192
        assert st.peak_bytes == 8192

    def test_available_never_negative(self):
        st = _state(fb_mb=1.0)
        st.ensure(0, rect(100_000), 8)  # 800 KB of 1 MB
        assert st.available >= 0
        # Even float noise in used_bytes cannot surface as overdraft.
        st.used_bytes = st.memory.capacity + 0.25
        assert st.available == 0

    def test_free_region_pools_then_drain_releases(self):
        st = _state(fb_mb=1.0)
        st.ensure(0, rect(10_000), 8)
        used = st.used_bytes
        freed = st.free_region(0)
        assert freed == 80_000
        # Pooled allocations stay charged until drained.
        assert st.used_bytes == used
        assert st.pool == [80_000]
        st.drain_pool()
        assert st.used_bytes == 0
        assert st.pool == []

    def test_double_free_is_a_noop(self):
        st = _state(fb_mb=1.0)
        st.ensure(0, rect(10_000), 8)
        assert st.free_region(0) == 80_000
        assert st.free_region(0) == 0
        st.drain_pool()
        assert st.used_bytes == 0

    def test_allocation_reuses_pool_without_new_charge(self):
        st = _state(fb_mb=1.0)
        st.ensure(0, rect(10_000), 8)
        st.free_region(0)
        used = st.used_bytes
        inst, _, fresh = st.ensure(1, rect(10_000), 8)
        assert fresh
        assert st.used_bytes == used  # recycled, not re-charged
        assert inst.alloc_bytes == 80_000

    def test_inflight_window_keeps_newest_recycled(self):
        st = _state(fb_mb=1.0, inflight_window=1)
        st.ensure(0, rect(1_000), 8)
        st.ensure(1, rect(2_000), 8)
        st.free_region(0)
        st.free_region(1)
        st.drain_pool()
        # The newest recycled allocation is still in flight: charged.
        assert st.pool == [16_000]
        assert st.used_bytes == 16_000


class TestEviction:
    def test_lru_order_follows_use_ticks(self):
        st = _state(fb_mb=1.0)
        a, _, _ = st.ensure(0, rect(1_000), 8)
        b, _, _ = st.ensure(1, rect(1_000), 8)
        st.ensure(0, rect(1_000), 8)  # touch a again
        assert [i.region_uid for i in st.lru_instances()] == [1, 0]
        assert b.last_use < a.last_use

    def test_drop_instance_releases_once(self):
        st = _state(fb_mb=1.0)
        inst, _, _ = st.ensure(0, rect(1_000), 8)
        assert st.drop_instance(inst) == 8_000
        assert st.used_bytes == 0
        assert st.instances == {}
        # Dropping again is a no-op, not a double release.
        assert st.drop_instance(inst) == 0.0
        assert st.used_bytes == 0

    def test_lose_wipes_contents_but_keeps_peak(self):
        st = _state(fb_mb=1.0)
        st.ensure(0, rect(10_000), 8)
        st.free_region(0)
        peak = st.peak_bytes
        st.lose()
        assert st.used_bytes == 0
        assert st.instances == {} and st.pool == []
        assert st.peak_bytes == peak

    def test_scaled_instances_release_scaled_bytes(self):
        st = _state(fb_mb=1.0)
        inst, _, _ = st.ensure(0, rect(1_000), 8, scale=10.0)
        assert st.used_bytes == 80_000
        assert st.drop_instance(inst) == 80_000
        assert st.used_bytes == 0


class TestManager:
    def test_reservation_clamped_for_small_memories(self):
        mgr = InstanceManager(reserved_fb_bytes=8 << 30)
        memory = _fb_memory(1.0)
        st = mgr.state(memory)
        assert st.reserved_bytes == int(0.15 * memory.capacity)

    def test_lose_memory_only_touches_target(self):
        mgr = InstanceManager()
        memory = _fb_memory(1.0)
        mgr.ensure(memory, 0, rect(1_000), 8)
        mgr.lose_memory(memory.uid)
        assert mgr.used_bytes(memory) == 0
        mgr.lose_memory(memory.uid + 999)  # unknown uid: no-op
