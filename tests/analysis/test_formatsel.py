"""Auto-format selector tests: layout invariants, cost-model
monotonicity, selector determinism, advisor/runtime agreement, and the
CLI exit-code contract under ``--autoformat``."""

import math
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import advise_formats, profile_matrix, select_format
from repro.analysis.advisor import AdvisorConfig, analyze, trace
from repro.analysis.costmodel import (
    csr_spmv_shard_cost,
    ell_spmv_shard_cost,
    hyb_spmv_shard_cost,
    sell_spmv_shard_cost,
)
from repro.analysis.formatsel import (
    CANDIDATE_FORMATS,
    hyb_ell_width,
    sell_layout,
    tile_boundaries,
)
from repro.harness.format_bench import SKEW_M, SKEW_N, SKEW_SEED, static_advice
from repro.harness.skew import power_law_csr, power_law_row_lengths
from repro.legion.runtime import Runtime, RuntimeConfig, runtime_scope
from repro.machine import ProcessorKind, laptop, summit

REPO = Path(__file__).resolve().parents[2]
DEMO = str(REPO / "examples" / "format_advisor_demo.py")


def skew_lengths(n=512, seed=5):
    return power_law_row_lengths(n, seed=seed)


# ----------------------------------------------------------------------
# SELL-C-sigma layout invariants
# ----------------------------------------------------------------------
class TestSellLayout:
    def test_perm_is_per_tile_permutation(self):
        rl = skew_lengths()
        bounds = tile_boundaries(len(rl), 3)
        layout = sell_layout(rl, bounds, c=8, sigma=64)
        for lo, hi in zip(bounds, bounds[1:]):
            # Each tile permutes onto itself: sigma windows never
            # cross the runtime's row-tile boundaries.
            assert sorted(layout.perm[lo:hi]) == list(range(lo, hi))
        np.testing.assert_array_equal(layout.rowlen, rl[layout.perm])

    def test_total_matches_slice_extents(self):
        rl = skew_lengths()
        layout = sell_layout(rl, tile_boundaries(len(rl), 2), c=16, sigma=256)
        extents = layout.slice_pos[:, 1] - layout.slice_pos[:, 0]
        assert layout.total == int(extents.sum())
        assert layout.total >= int(rl.sum())
        lo, hi = layout.tile_ranges[-1]
        assert hi == layout.total

    def test_sigma_sorts_within_window(self):
        rl = np.array([1, 9, 2, 8, 3, 7, 4, 6], dtype=np.int64)
        layout = sell_layout(rl, [0, 8], c=4, sigma=8)
        # One full-tile window: slot lengths are non-increasing.
        assert list(layout.rowlen) == sorted(rl, reverse=True)

    def test_degenerate_sizes(self):
        empty = sell_layout([], [0], c=4, sigma=4)
        assert empty.total == 0 and empty.nslices == 0
        single = sell_layout([3], [0, 1], c=16, sigma=16)
        assert single.total == 3
        with pytest.raises(ValueError):
            sell_layout([1], [0, 1], c=0, sigma=4)


# ----------------------------------------------------------------------
# Profiles
# ----------------------------------------------------------------------
class TestProfile:
    def test_fields(self):
        rl = [1, 1, 1, 5]
        p = profile_matrix(rl, cols=8, itemsize=8, num_procs=2)
        assert (p.rows, p.cols, p.nnz) == (4, 8, 8)
        assert p.row_max == 5 and p.ell_width == 5
        assert p.ell_padded == 20
        assert p.ell_padding_ratio == pytest.approx(12 / 20)
        assert p.hyb_spill == max(0, 5 - p.hyb_width)
        assert p.sell_padded >= p.nnz

    def test_hyb_width_guards_empty(self):
        assert hyb_ell_width(np.array([], dtype=np.int64)) == 1
        assert hyb_ell_width(np.zeros(4, dtype=np.int64)) == 1
        assert hyb_ell_width(np.array([2, 2, 2, 40]), 0.5) == 2

    def test_smaller_sigma_wastes_more(self):
        """Narrow sort windows strand heavy rows in their own slices."""
        rl = power_law_row_lengths(8192, seed=SKEW_SEED)
        wide = profile_matrix(rl, 4096, 8, num_procs=2, sigma=4096)
        narrow = profile_matrix(rl, 4096, 8, num_procs=2, sigma=32)
        assert narrow.sell_padded > wide.sell_padded
        assert narrow.sell_imbalance > wide.sell_imbalance


# ----------------------------------------------------------------------
# Cost-model monotonicity (satellite: padding up => cost up)
# ----------------------------------------------------------------------
class TestCostMonotonicity:
    def test_ell_padding_increases_cost(self):
        base_f, base_b = ell_spmv_shard_cost(100, 500, padded=600, isz=8)
        more_f, more_b = ell_spmv_shard_cost(100, 500, padded=1200, isz=8)
        assert more_f > base_f and more_b > base_b

    def test_sell_imbalance_increases_cost(self):
        base = sell_spmv_shard_cost(100, 500, padded=520, slices=7, isz=8)
        worse = sell_spmv_shard_cost(100, 500, padded=900, slices=7, isz=8)
        assert worse[0] > base[0] and worse[1] > base[1]
        # More slices means more slice metadata traffic, flops equal.
        frag = sell_spmv_shard_cost(100, 500, padded=520, slices=25, isz=8)
        assert frag[1] > base[1] and frag[0] == base[0]

    def test_hyb_spill_increases_cost(self):
        base = hyb_spmv_shard_cost(100, 500, ell_padded=400, spill=100, isz=8)
        worse = hyb_spmv_shard_cost(100, 500, ell_padded=400, spill=300, isz=8)
        assert worse[0] > base[0] and worse[1] > base[1]

    def test_perfect_ell_beats_csr_bytes(self):
        """With zero padding, ELL's 32-bit local indices undercut
        global CSR's 64-bit coordinates plus the reshape penalty."""
        rows, nnz = 1000, 8000
        _, csr_b = csr_spmv_shard_cost(rows, nnz, isz=8, reshape_penalty=True)
        _, ell_b = ell_spmv_shard_cost(rows, nnz, padded=nnz, isz=8)
        assert ell_b < csr_b

    def test_selector_sees_padding(self):
        """Same nnz, one heavy row: modeled ELL time strictly rises."""
        scope = laptop().scope(ProcessorKind.GPU, 2)
        config = RuntimeConfig.legate(data_scale=1e4)
        uniform = profile_matrix([4] * 64, 64, 8, num_procs=2)
        skewed = profile_matrix([1] * 63 + [193], 64, 8, num_procs=2)
        assert uniform.nnz == skewed.nnz
        t_uniform = select_format(uniform, scope, config).candidate("ell")
        t_skewed = select_format(skewed, scope, config).candidate("ell")
        assert t_skewed.op_seconds > t_uniform.op_seconds


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
class TestSelectFormat:
    def setup_method(self):
        self.scope = summit(nodes=1).scope(ProcessorKind.GPU, 2)
        self.config = RuntimeConfig.legate()
        rl = np.diff(power_law_csr(SKEW_N, SKEW_M, seed=SKEW_SEED).indptr)
        self.profile = profile_matrix(rl, SKEW_M, 8, num_procs=2)

    def test_skew_matrix_recommends_non_csr(self):
        decision = select_format(self.profile, self.scope, self.config)
        assert decision.best.fmt != "csr"
        assert decision.best.bitwise_safe
        assert decision.best.op_seconds < decision.csr_seconds
        assert math.isfinite(decision.best.break_even_ops)
        assert decision.best.break_even_ops > 0

    def test_deterministic(self):
        one = select_format(self.profile, self.scope, self.config)
        two = select_format(self.profile, self.scope, self.config)
        assert one.best.fmt == two.best.fmt
        assert [c.fmt for c in one.candidates] == [
            c.fmt for c in two.candidates
        ]
        assert one.best.op_seconds == two.best.op_seconds

    def test_coo_is_never_chosen(self):
        """COO's scatter-add reorders accumulation, so it stays
        advice-only regardless of its modeled time."""
        assert CANDIDATE_FORMATS["coo"] is False
        decision = select_format(self.profile, self.scope, self.config)
        coo = decision.candidate("coo")
        assert coo is not None and not coo.bitwise_safe
        assert decision.best.fmt != "coo"

    def test_csr_break_even_zero(self):
        decision = select_format(self.profile, self.scope, self.config)
        csr = decision.candidate("csr")
        assert csr.break_even_ops == 0.0
        assert csr.convert_seconds == 0.0


# ----------------------------------------------------------------------
# Predicted vs runtime agreement
# ----------------------------------------------------------------------
class TestAgreement:
    def test_profiler_matches_csr_candidate_exactly(self):
        """One SpMV's profiler kernel_seconds delta equals the csr
        candidate's summed shard seconds — the selector and the runtime
        share one cost model, to the ulp."""
        mat = power_law_csr(512, 256, seed=5)
        scope = laptop().scope(ProcessorKind.GPU, 2)
        config = RuntimeConfig.legate()
        rt = Runtime(scope, config)
        with runtime_scope(rt):
            import repro.numeric as rnp
            import repro.sparse as sp

            A = sp.csr_matrix(mat)
            x = rnp.ones(256)
            A @ x  # warm-up: staging outside the measured window
            rt.barrier()
            snap = rt.profiler.snapshot()
            A @ x
            rt.barrier()
            delta = rt.profiler.since(snap)
        profile = profile_matrix(np.diff(mat.indptr), 256, 8, num_procs=2)
        decision = select_format(profile, scope, config)
        csr = decision.candidate("csr")
        assert delta.kernel_seconds == pytest.approx(
            csr.total_seconds, rel=1e-12
        )

    def test_advisor_pass_matches_runtime_conversion(self):
        """The static plan-walk picks the format the format bench
        converts to (the selector on the operand's own profile)."""

        def workload():
            import repro.numeric as rnp
            import repro.sparse as sp

            A = sp.csr_matrix(power_law_csr(SKEW_N, SKEW_M, seed=SKEW_SEED))
            x = rnp.ones(SKEW_M)
            y = None
            for _ in range(3):
                y = A @ x
            return y

        plan = trace(workload, machine=summit(nodes=1), procs=2)
        advice, _lints = advise_formats(plan, plan.scope, plan.config)
        assert len(advice) == 1
        entry = advice[0]
        assert entry.current_fmt == "csr"
        assert entry.ops_observed == 3
        assert entry.recommended_fmt != "csr"

        assert entry.recommended_fmt == static_advice(procs=2)[
            "recommended_format"
        ]

    def test_unamortized_escalates_under_autoformat(self):
        def workload():
            import repro.numeric as rnp
            import repro.sparse as sp

            A = sp.csr_matrix(power_law_csr(SKEW_N, SKEW_M, seed=SKEW_SEED))
            return A @ rnp.ones(SKEW_M)

        plan = trace(workload, machine=summit(nodes=1), procs=2)
        _, soft = advise_formats(plan, plan.scope, plan.config)
        _, hard = advise_formats(
            plan, plan.scope, plan.config, autoformat_on=True
        )
        rule = "format-convert-unamortized"
        assert ("warning", rule) in [(s, r) for s, r, _ in soft]
        assert ("error", rule) in [(s, r) for s, r, _ in hard]


# ----------------------------------------------------------------------
# Advisor integration + CLI exit codes
# ----------------------------------------------------------------------
class TestAdvisorIntegration:
    def test_analyze_default_skips_format_pass(self):
        def workload():
            import repro.numeric as rnp
            import repro.sparse as sp

            A = sp.csr_matrix(power_law_csr(256, 128, seed=1))
            return A @ rnp.ones(128)

        plan = trace(workload, machine=laptop(), procs=2)
        plain = analyze(plan)
        assert plain.format_advice == []
        on = analyze(plan, options=AdvisorConfig(autoformat=True))
        assert len(on.format_advice) == 1
        assert "format_advice" in on.to_dict()

    def test_cli_amortized_exits_zero(self, capsys):
        from repro.analysis.cli import main

        code = main(["advise", DEMO, "--autoformat"])
        out = capsys.readouterr().out
        assert code == 0
        assert "<- recommended" in out
        assert "format-skew" in out

    def test_cli_unamortized_exits_one(self, capsys):
        """Regression: error-severity lints gate the exit code."""
        from repro.analysis.cli import main

        code = main(
            ["advise", DEMO, "--autoformat", "--", "--iters", "2"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "format-convert-unamortized" in out

    def test_cli_json_carries_format_advice(self, capsys):
        import json

        from repro.analysis.cli import main

        code = main(["advise", DEMO, "--autoformat", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out[out.index("{"):])
        advice = payload["format_advice"]
        assert len(advice) == 1
        assert advice[0]["recommended_format"] != "csr"
        assert advice[0]["bitwise_safe"] is True
