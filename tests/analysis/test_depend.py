"""Unit tests for the kernel-fusion legality analyzer.

Each replay-only reason in ``repro.analysis.depend.REASONS`` is driven
by a hand-built window that actually produces it, and the merge-safe
path is checked for its def-use facts (WAR/WAW allowed, RAW only
through elided temporaries) and its nest-plan lowering.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis import depend
from repro.distal.ir import IndexVar, Tensor
from repro.legion import Pointwise, Privilege, Requirement, fusion


def region(uid, name=""):
    return SimpleNamespace(uid=uid, name=name)


def acc(uid, kind="tile", priv=Privilege.READ, boundaries=(0, 4, 8), name=""):
    return fusion.Access(
        region(uid), kind, boundaries if kind == "tile" else None, priv, name
    )


def summ(name, *accesses, colors=2, fusible=True, pointwise=None):
    return fusion.LaunchSummary(name, colors, fusible, tuple(accesses), pointwise)


def pw_fill():
    return Pointwise(("fill",), expr=(("scalar", "value"),), out="out")


def pw_binary(op="multiply", a_load=True, b_load=False):
    expr = (
        ("load" if a_load else "scalar", "a"),
        ("load" if b_load else "scalar", "b"),
        ("bin", op),
    )
    return Pointwise((op,), expr=expr, out="out")


def classify(window, plans=None):
    ids = fusion.local_ids(window)
    plans = plans if plans is not None else fusion.plan_window(window)
    return [depend.classify(window, ids, p) for p in plans], plans


class TestMergeSafe:
    def test_fill_then_scale_merges(self):
        window = [
            summ("fill", acc(1, priv=Privilege.WRITE_DISCARD, name="out"),
                 pointwise=pw_fill()),
            summ("multiply",
                 acc(2, priv=Privilege.WRITE_DISCARD, name="out"),
                 acc(1, name="a"),
                 pointwise=pw_binary()),
        ]
        (verdict,), (plan,) = classify(window)
        assert plan.fused
        assert verdict.merge_safe
        assert verdict.reason is None
        assert depend.verdict_label(plan, verdict, True) == "merged"
        assert depend.verdict_label(plan, verdict, False) == "replay:disabled"

    def test_raw_through_elided_temp_is_the_safe_case(self):
        # t = fill; y = t * s: t is produced and consumed in-group and
        # elided — the RAW edge flows through a nest value.
        window = [
            summ("fill", acc(5, priv=Privilege.WRITE_DISCARD, name="out"),
                 pointwise=pw_fill()),
            summ("multiply",
                 acc(6, priv=Privilege.WRITE_DISCARD, name="out"),
                 acc(5, name="a"),
                 pointwise=pw_binary()),
        ]
        (verdict,), (plan,) = classify(window)
        assert plan.elide  # the planner elided t
        assert verdict.merge_safe
        raw = [e for e in verdict.edges if e.kind == "raw"]
        assert raw and all(e.elided for e in raw)

    def test_war_and_waw_do_not_block(self):
        # y = x * s; then x is overwritten: WAR on x, issue order keeps
        # the nest bitwise-identical.
        window = [
            summ("multiply",
                 acc(2, priv=Privilege.WRITE_DISCARD, name="out"),
                 acc(1, name="a"),
                 pointwise=pw_binary()),
            summ("fill", acc(1, priv=Privilege.WRITE_DISCARD, name="out"),
                 pointwise=pw_fill()),
        ]
        (verdict,), _plans = classify(window)
        assert verdict.merge_safe
        kinds = {e.kind for e in verdict.edges}
        assert "war" in kinds
        assert "raw" not in kinds

    def test_single_launch_group_is_not_merged(self):
        window = [
            summ("fill", acc(1, priv=Privilege.WRITE_DISCARD, name="out"),
                 pointwise=pw_fill()),
        ]
        (verdict,), (plan,) = classify(window)
        assert not plan.fused
        assert not verdict.merge_safe
        assert verdict.reason is None  # nothing blocked; nothing to merge
        assert not verdict.blocked
        assert depend.verdict_label(plan, verdict, True) == "single"


class TestReplayOnlyReasons:
    def test_opaque_no_pointwise(self):
        window = [
            summ("a", acc(1, priv=Privilege.WRITE_DISCARD, name="out"),
                 pointwise=pw_fill()),
            summ("mystery", acc(2, priv=Privilege.WRITE_DISCARD, name="out"),
                 pointwise=None),
        ]
        (verdict,), (plan,) = classify(window)
        assert plan.fused
        assert verdict.reason == "opaque-kernel"
        assert depend.verdict_label(plan, verdict, True) == (
            "replay:opaque-kernel"
        )

    def test_opaque_no_body_ir(self):
        # clip/astype/where-style kernels mark ops but expose no expr.
        opaque = Pointwise(("clip",))
        window = [
            summ("fill", acc(1, priv=Privilege.WRITE_DISCARD, name="out"),
                 pointwise=pw_fill()),
            summ("clip", acc(2, priv=Privilege.WRITE_DISCARD, name="out"),
                 acc(1, name="a"), pointwise=opaque),
        ]
        (verdict,), _ = classify(window)
        assert verdict.reason == "opaque-kernel"
        assert "clip" in verdict.detail

    @pytest.mark.parametrize(
        "expr,out,problem",
        [
            (atuple, out, problem)
            for atuple, out, problem in [
                (((("load", "nope"),) ), "out", "unknown"),  # unknown load
                ((("load", "a"), ("bin", "multiply")), "out", "misplaced"),
                ((("load", "a"), ("un", "frobnicate")), "out", "unknown or misplaced"),
                ((("load", "a"), ("load", "a")), "out", "stack"),
                ((("load", "a"),), "a", "not a"),  # out is a read-only arg
            ]
        ],
    )
    def test_opaque_malformed_programs(self, expr, out, problem):
        bad = Pointwise(("multiply",), expr=tuple(expr), out=out)
        window = [
            summ("fill", acc(1, priv=Privilege.WRITE_DISCARD, name="out"),
                 pointwise=pw_fill()),
            summ("multiply", acc(2, priv=Privilege.WRITE_DISCARD, name="out"),
                 acc(1, name="a"), pointwise=bad),
        ]
        (verdict,), _ = classify(window)
        assert verdict.reason == "opaque-kernel"
        assert problem in verdict.detail

    def test_reduction_statement_replays(self):
        i, j = IndexVar("i"), IndexVar("j")
        y, A, x = Tensor("y", 1), Tensor("A", 2), Tensor("x", 1)
        stmt = y[i] << A[i, j] * x[j]
        assert depend.classify_statement(stmt) == "reduction-reorder"
        carrying = Pointwise(
            ("spmv",), expr=(("load", "a"), ("un", "copy")), out="out",
            statement=stmt,
        )
        window = [
            summ("fill", acc(1, priv=Privilege.WRITE_DISCARD, name="out"),
                 pointwise=pw_fill()),
            summ("spmv", acc(2, priv=Privilege.WRITE_DISCARD, name="out"),
                 acc(1, name="a"), pointwise=carrying),
        ]
        (verdict,), _ = classify(window)
        assert verdict.reason == "reduction-reorder"
        assert "y(i)=A(i,j)*x(j)" in verdict.detail

    def test_elementwise_statement_imposes_nothing(self):
        i = IndexVar("i")
        y, a, b = Tensor("y", 1), Tensor("a", 1), Tensor("b", 1)
        assert depend.classify_statement(y[i] << a[i] * b[i]) is None
        assert depend.classify_statement(None) is None

    def test_replicated_operand_replays(self):
        # Rep reads of never-written regions fuse at the task level but
        # cannot become a tile-shaped nest variable.
        window = [
            summ("multiply",
                 acc(1, priv=Privilege.WRITE_DISCARD, name="out"),
                 acc(9, kind="rep", name="a"),
                 pointwise=pw_binary()),
            summ("multiply",
                 acc(2, priv=Privilege.WRITE_DISCARD, name="out"),
                 acc(9, kind="rep", name="a"),
                 pointwise=pw_binary()),
        ]
        (verdict,), (plan,) = classify(window)
        assert plan.fused
        assert verdict.reason == "replicated-operand"

    def test_iteration_space_mismatch_on_hand_built_group(self):
        # The window planner never groups these; classify() is exposed
        # directly, so a hand-built plan must still be rejected.
        window = [
            summ("a", acc(1, priv=Privilege.WRITE_DISCARD, name="out"),
                 pointwise=pw_fill()),
            summ("b",
                 acc(2, priv=Privilege.WRITE_DISCARD, boundaries=(0, 3, 8),
                     name="out"),
                 pointwise=pw_fill()),
        ]
        ids = fusion.local_ids(window)
        plan = fusion.GroupPlan(indices=(0, 1), elide=frozenset())
        verdict = depend.classify(window, ids, plan)
        assert verdict.reason == "iteration-space-mismatch"

    def test_raw_through_unelided_region_replays(self):
        # x += t; y = x * 2: x pre-exists the group (first access is a
        # read-modify-write), so the RAW into the second statement runs
        # through a region that stays mapped.
        window = [
            summ("add",
                 acc(2, priv=Privilege.WRITE, name="out"),
                 acc(2, name="a"),
                 acc(1, name="b"),
                 pointwise=Pointwise(
                     ("add",),
                     expr=(("load", "a"), ("load", "b"), ("bin", "add")),
                     out="out",
                 )),
            summ("multiply",
                 acc(3, priv=Privilege.WRITE_DISCARD, name="out"),
                 acc(2, name="a"),
                 pointwise=pw_binary()),
        ]
        (verdict,), (plan,) = classify(window)
        assert plan.fused
        assert verdict.reason == "raw-through-unelided-region"
        assert "RAW" in verdict.detail

    def test_every_reason_is_documented(self):
        produced = {
            "disabled", "opaque-kernel", "reduction-reorder",
            "replicated-operand", "iteration-space-mismatch",
            "raw-through-unelided-region",
        }
        assert produced == set(depend.REASONS)


class TestNestPlan:
    def _task(self, name, pointwise, *reqs):
        return SimpleNamespace(
            name=name, pointwise=pointwise, requirements=list(reqs)
        )

    def _req(self, name, uid, priv, dtype=np.float64):
        reg = SimpleNamespace(
            uid=uid, name="", data=np.zeros(4, dtype=dtype)
        )
        return Requirement(name, reg, None, priv)

    def test_lowering_resolves_vars_and_dedups_traffic(self):
        fill = self._task(
            "fill", pw_fill(), self._req("out", 5, Privilege.WRITE_DISCARD)
        )
        mul = self._task(
            "multiply", pw_binary(),
            self._req("out", 6, Privilege.WRITE_DISCARD),
            self._req("a", 5, Privilege.READ),
        )
        add = self._task(
            "add", pw_binary("add", b_load=True),
            self._req("out", 7, Privilege.WRITE_DISCARD),
            self._req("a", 6, Privilege.READ),
            self._req("b", 5, Privilege.READ),
        )
        plan = depend.build_nest_plan([fill, mul, add])
        s0, s1, s2 = plan.steps
        # In-group RAW loads resolve to producing steps, not views.
        assert ("var", 0) in s1.program
        assert ("var", 1) in s2.program and ("var", 0) in s2.program
        # No external region is read at all here; every step's output
        # is charged once.
        assert plan.reads == ()
        assert plan.charged_writes == ("0.out", "1.out", "2.out")
        # Flop weights match the sub cost models: fill 0, ufuncs 1.
        assert [s.weight for s in plan.steps] == [0.0, 1.0, 1.0]
        # Mangled names match fuse()'s "<i>.<name>" scheme.
        assert (s0.out, s1.out, s2.out) == ("0.out", "1.out", "2.out")

    def test_external_reads_dedup_by_region(self):
        t1 = self._task(
            "multiply", pw_binary(),
            self._req("out", 2, Privilege.WRITE_DISCARD),
            self._req("a", 1, Privilege.READ),
        )
        t2 = self._task(
            "multiply", pw_binary(),
            self._req("out", 3, Privilege.WRITE_DISCARD),
            self._req("a", 1, Privilege.READ),
        )
        plan = depend.build_nest_plan([t1, t2])
        assert plan.reads == ("0.a",)  # region 1 charged once
        assert plan.charged_writes == ("0.out", "1.out")

    def test_opaque_sub_launch_is_rejected(self):
        bad = self._task(
            "mystery", None, self._req("out", 1, Privilege.WRITE_DISCARD)
        )
        with pytest.raises(ValueError, match="no body IR"):
            depend.build_nest_plan([bad])
