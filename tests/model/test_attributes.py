"""Attribute sets, timing constraints, combination semantics (§4.3)."""

import pytest

from repro.errors import AttributeError_
from repro.model import (
    AttributeSet,
    DEFAULT_IMPORTANCE_WEIGHTS,
    ImportanceWeights,
    SecurityLevel,
    TimingConstraint,
    combine_all,
    combine_all_grouped,
)


class TestTimingConstraint:
    def test_basic_properties(self):
        t = TimingConstraint(2, 12, 3)
        assert t.window == 10
        assert t.laxity == 7
        assert t.fits_alone()
        assert t.as_tuple() == (2, 12, 3)

    def test_degenerate_window_rejected(self):
        with pytest.raises(AttributeError_, match="degenerate"):
            TimingConstraint(0, 2, 3)

    def test_negative_values_rejected(self):
        with pytest.raises(AttributeError_):
            TimingConstraint(-1, 5, 2)
        with pytest.raises(AttributeError_):
            TimingConstraint(0, 5, -2)

    def test_deadline_before_start_rejected(self):
        with pytest.raises(AttributeError_):
            TimingConstraint(5, 3, 1)

    def test_zero_laxity_allowed(self):
        t = TimingConstraint(0, 3, 3)
        assert t.laxity == 0

    def test_overlaps(self):
        assert TimingConstraint(0, 10, 1).overlaps(TimingConstraint(5, 15, 1))
        assert not TimingConstraint(0, 5, 1).overlaps(TimingConstraint(5, 10, 1))

    def test_merge_combination_most_stringent(self):
        a = TimingConstraint(0, 10, 3)
        b = TimingConstraint(2, 8, 2)
        merged = a.combine(b)
        assert merged.earliest_start == 0
        assert merged.deadline == 8
        assert merged.computation_time == 5

    def test_merge_combination_can_be_degenerate(self):
        a = TimingConstraint(0, 5, 3)
        b = TimingConstraint(0, 5, 3)
        with pytest.raises(AttributeError_, match="degenerate"):
            a.combine(b)

    def test_grouped_combination_envelope(self):
        a = TimingConstraint(0, 10, 3)
        b = TimingConstraint(12, 18, 3)
        grouped = a.combine_grouped(b)
        assert grouped.earliest_start == 0
        assert grouped.deadline == 18
        assert grouped.computation_time == 6

    def test_grouped_combination_tolerates_overload(self):
        a = TimingConstraint(0, 5, 4)
        b = TimingConstraint(0, 5, 4)
        grouped = a.combine_grouped(b)  # 8 units in [0, 5]: overloaded summary
        assert grouped.computation_time == 8
        assert grouped.laxity < 0


class TestAttributeSet:
    def test_defaults(self):
        a = AttributeSet()
        assert a.criticality == 0.0
        assert a.fault_tolerance == 1
        assert not a.replicated

    def test_validation(self):
        with pytest.raises(AttributeError_):
            AttributeSet(criticality=-1)
        with pytest.raises(AttributeError_):
            AttributeSet(fault_tolerance=0)
        with pytest.raises(AttributeError_):
            AttributeSet(throughput=-0.1)
        with pytest.raises(AttributeError_):
            AttributeSet(communication_rate=-2)

    @pytest.mark.parametrize("field", ["throughput", "communication_rate"])
    def test_rates_reject_nan_and_accept_infinity(self, field):
        with pytest.raises(AttributeError_, match=f"{field} must be >= 0, got nan"):
            AttributeSet(**{field: float("nan")})
        assert getattr(AttributeSet(**{field: float("inf")}), field) == float("inf")

    def test_message_names_the_value(self):
        with pytest.raises(AttributeError_, match="criticality must be finite and >= 0, got inf"):
            AttributeSet(criticality=float("inf"))
        with pytest.raises(AttributeError_, match="deadline must be >= earliest_start 2, got nan"):
            TimingConstraint(2, float("nan"), 1)

    def test_replicated_flag(self):
        assert AttributeSet(fault_tolerance=3).replicated

    def test_combine_most_stringent_and_aggregates(self):
        a = AttributeSet(
            criticality=10,
            fault_tolerance=3,
            throughput=5,
            security=SecurityLevel.SECRET,
            communication_rate=1,
        )
        b = AttributeSet(
            criticality=20,
            fault_tolerance=1,
            throughput=2,
            security=SecurityLevel.RESTRICTED,
            communication_rate=4,
        )
        c = a.combine(b)
        assert c.criticality == 20  # max
        assert c.fault_tolerance == 3  # max
        assert c.throughput == 7  # sum
        assert c.security == SecurityLevel.SECRET  # max
        assert c.communication_rate == 5  # sum

    def test_combine_timing_passthrough(self):
        t = TimingConstraint(0, 10, 2)
        a = AttributeSet(timing=t)
        b = AttributeSet()
        assert a.combine(b).timing == t
        assert b.combine(a).timing == t

    def test_combine_commutative_on_scalars(self):
        a = AttributeSet(criticality=3, throughput=1)
        b = AttributeSet(criticality=7, throughput=2)
        ab, ba = a.combine(b), b.combine(a)
        assert ab.criticality == ba.criticality
        assert ab.throughput == ba.throughput

    def test_with_fault_tolerance(self):
        a = AttributeSet(criticality=5, fault_tolerance=3)
        one = a.with_fault_tolerance(1)
        assert one.fault_tolerance == 1
        assert one.criticality == 5
        assert a.fault_tolerance == 3  # original untouched


class TestCombineAll:
    def test_empty_rejected(self):
        with pytest.raises(AttributeError_):
            combine_all([])
        with pytest.raises(AttributeError_):
            combine_all_grouped([])

    def test_single_identity(self):
        a = AttributeSet(criticality=4)
        assert combine_all([a]) == a

    def test_fold_order_independent_for_scalars(self):
        sets = [
            AttributeSet(criticality=c, throughput=t)
            for c, t in ((1, 2), (5, 1), (3, 4))
        ]
        fwd = combine_all(sets)
        rev = combine_all(list(reversed(sets)))
        assert fwd.criticality == rev.criticality == 5
        assert fwd.throughput == rev.throughput == 7

    def test_grouped_fold_envelope(self):
        sets = [
            AttributeSet(timing=TimingConstraint(0, 10, 3)),
            AttributeSet(timing=TimingConstraint(4, 12, 3)),
            AttributeSet(timing=TimingConstraint(10, 16, 2)),
        ]
        grouped = combine_all_grouped(sets)
        assert grouped.timing.earliest_start == 0
        assert grouped.timing.deadline == 16
        assert grouped.timing.computation_time == 8


class TestImportance:
    def test_weights_validation(self):
        with pytest.raises(AttributeError_):
            ImportanceWeights(criticality=-1)

    def test_importance_monotone_in_criticality(self):
        lo = AttributeSet(criticality=1)
        hi = AttributeSet(criticality=10)
        w = DEFAULT_IMPORTANCE_WEIGHTS
        assert w.importance(hi) > w.importance(lo)

    def test_importance_rises_with_replication(self):
        w = DEFAULT_IMPORTANCE_WEIGHTS
        assert w.importance(AttributeSet(fault_tolerance=3)) > w.importance(
            AttributeSet(fault_tolerance=1)
        )

    def test_tighter_timing_scores_higher(self):
        w = DEFAULT_IMPORTANCE_WEIGHTS
        tight = AttributeSet(timing=TimingConstraint(0, 5, 5))
        loose = AttributeSet(timing=TimingConstraint(0, 50, 5))
        assert w.importance(tight) > w.importance(loose)

    def test_custom_weights_zero_out_attributes(self):
        w = ImportanceWeights(
            criticality=1.0,
            fault_tolerance=0.0,
            timing_urgency=0.0,
            throughput=0.0,
            security=0.0,
            communication_rate=0.0,
        )
        a = AttributeSet(criticality=7, fault_tolerance=3, throughput=100)
        assert w.importance(a) == pytest.approx(7.0)
