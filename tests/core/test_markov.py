"""Tests for the CTMC availability model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.markov import (
    RepairableGroupModel,
    failover_window_for_style,
    plan_redundancy,
)
from repro.errors import PolicyError
from repro.replication import ReplicationStyle


class TestSteadyState:
    def test_distribution_sums_to_one(self):
        model = RepairableGroupModel(n_replicas=3)
        pi = model.steady_state()
        assert len(pi) == 4
        assert sum(pi) == pytest.approx(1.0)
        assert all(p >= 0 for p in pi)

    def test_full_service_dominates_with_fast_repair(self):
        model = RepairableGroupModel(n_replicas=3, mttf_us=3.6e9,
                                     mttr_us=5e6)
        pi = model.steady_state()
        assert pi[3] > 0.99
        assert pi[0] < 1e-6

    def test_single_replica_matches_mttf_mttr_formula(self):
        """For n=1 the chain is the textbook two-state model:
        availability = MTTF / (MTTF + MTTR)."""
        mttf, mttr = 1e9, 1e7
        model = RepairableGroupModel(n_replicas=1, mttf_us=mttf,
                                     mttr_us=mttr, failover_us=0.0)
        pi = model.steady_state()
        assert pi[1] == pytest.approx(mttf / (mttf + mttr))
        assert model.availability() == pytest.approx(
            mttf / (mttf + mttr))

    @given(st.integers(min_value=1, max_value=6),
           st.floats(min_value=1e6, max_value=1e10),
           st.floats(min_value=1e3, max_value=1e8))
    @settings(max_examples=50)
    def test_valid_distribution_for_any_parameters(self, n, mttf, mttr):
        model = RepairableGroupModel(n_replicas=n, mttf_us=mttf,
                                     mttr_us=mttr)
        pi = model.steady_state()
        assert sum(pi) == pytest.approx(1.0)
        assert all(0.0 <= p <= 1.0 for p in pi)


class TestAvailability:
    def test_more_replicas_higher_availability(self):
        values = [RepairableGroupModel(n_replicas=n).availability()
                  for n in (1, 2, 3)]
        assert values[0] < values[1] <= values[2] <= 1.0

    def test_smaller_failover_window_higher_availability(self):
        fast = RepairableGroupModel(n_replicas=2, failover_us=1_000.0)
        slow = RepairableGroupModel(n_replicas=2, failover_us=5e6)
        assert fast.availability() > slow.availability()

    def test_expected_live_replicas_near_n(self):
        model = RepairableGroupModel(n_replicas=3)
        expected = model.expected_live_replicas()
        assert 2.99 < expected <= 3.0


class TestMeanTimeToTotalFailure:
    def test_grows_explosively_with_redundancy(self):
        """Adding a replica multiplies the time to total failure by
        roughly MTTF/MTTR — the whole point of redundancy."""
        times = [RepairableGroupModel(
            n_replicas=n).mean_time_to_total_failure_us()
            for n in (1, 2, 3)]
        assert times[0] < times[1] < times[2]
        assert times[1] / times[0] > 100.0
        assert times[2] / times[1] > 100.0

    def test_single_replica_is_mttf(self):
        model = RepairableGroupModel(n_replicas=1, mttf_us=7e8)
        assert model.mean_time_to_total_failure_us() == pytest.approx(7e8)

    @given(st.integers(min_value=1, max_value=5))
    @settings(max_examples=20)
    def test_positive_for_any_size(self, n):
        model = RepairableGroupModel(n_replicas=n)
        assert model.mean_time_to_total_failure_us() > 0


class TestPlanning:
    def test_style_windows_ordered(self):
        active = failover_window_for_style(ReplicationStyle.ACTIVE)
        warm = failover_window_for_style(ReplicationStyle.WARM_PASSIVE)
        cold = failover_window_for_style(ReplicationStyle.COLD_PASSIVE)
        assert active < warm < cold

    def test_semi_active_fast_like_active(self):
        assert failover_window_for_style(ReplicationStyle.SEMI_ACTIVE) \
            == failover_window_for_style(ReplicationStyle.ACTIVE)

    def test_plan_lax_target_one_replica(self):
        assert plan_redundancy(0.9, ReplicationStyle.ACTIVE) == 1

    def test_plan_strict_target_needs_more_replicas_for_cold(self):
        cold_n = plan_redundancy(0.998, ReplicationStyle.COLD_PASSIVE)
        active_n = plan_redundancy(0.998, ReplicationStyle.ACTIVE)
        assert cold_n >= active_n

    def test_plan_unreachable_raises(self):
        with pytest.raises(PolicyError):
            plan_redundancy(0.999999999, ReplicationStyle.COLD_PASSIVE,
                            mttf_us=1e7, mttr_us=1e7, max_replicas=2)

    def test_plan_validates_target(self):
        with pytest.raises(PolicyError):
            plan_redundancy(1.5, ReplicationStyle.ACTIVE)


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(PolicyError):
            RepairableGroupModel(n_replicas=0)
        with pytest.raises(PolicyError):
            RepairableGroupModel(n_replicas=1, mttf_us=0.0)
        with pytest.raises(PolicyError):
            RepairableGroupModel(n_replicas=1, failover_us=-1.0)


#: ``(n, mttf_us, mttr_us, failover_us)`` -> steady state, availability
#: and mean time to total failure, as the numpy/LAPACK implementation
#: computed them.  The pure-Python solve must reproduce every bit.
PINNED = [
    ((1, 3600000000.0, 5000000.0, 500000.0),
     [0.0013869625520110957, 0.9986130374479889],
     0.9984743411927878, 3600000000.0),
    ((2, 3600000000.0, 5000000.0, 500000.0),
     [3.8473228404015074e-06, 0.002770072445089085, 0.9972260802320706],
     0.9998572643226211, 1301400000000.009),
    ((3, 3600000000.0, 5000000.0, 500000.0),
     [1.6008216441203477e-08, 1.1525915837666503e-05,
      0.004149329701559941, 0.9958391283743858],
     0.999861095105118, 312774599999885.5),
    ((4, 3600000000.0, 5000000.0, 500000.0),
     [8.881067296607073e-11, 6.394368453557091e-08,
      2.301972643280553e-05, 0.0055247343438733255, 0.9944521818971986],
     0.9998611110223128, 5.637795182417675e+16),
    ((5, 3600000000.0, 5000000.0, 500000.0),
     [6.158806293763073e-13, 4.434340531509413e-10,
      1.5963625913433887e-07, 3.8312702192241326e-05,
      0.006896286394603438, 0.9930652408228952],
     0.9998611111104954, 8.129769692777616e+18),
    ((6, 3600000000.0, 5000000.0, 500000.0),
     [5.125170646922848e-15, 3.690122865784451e-12,
      1.3284442316824023e-09, 3.1882661560377647e-07,
      5.7388790808679764e-05, 0.008263985876449886, 0.9916783051739864],
     0.999861111111106, 9.768193531456373e+20),
    ((7, 3600000000.0, 5000000.0, 500000.0),
     [4.9758360009810194e-17, 3.582601920706334e-14,
      1.28973669145428e-11, 3.095368059490272e-09,
      5.571662507082489e-07, 8.023194010198786e-05,
      0.009627832812238543, 0.9902913749731075],
     0.9998611111111111, 1.01731491202733e+23),
    ((3, 720000000.0, 12000000.0, 1000.0),
     [2.641240326457304e-05, 0.0015847441958743824,
      0.04754232587623147, 0.9508465175246296],
     0.9999721987445304, 462120000000.0875),
]


class TestPinnedValues:
    @pytest.mark.parametrize("params, steady, availability, mttf_total",
                             PINNED)
    def test_values_are_bit_identical(self, params, steady, availability,
                                      mttf_total):
        n, mttf, mttr, failover = params
        model = RepairableGroupModel(n_replicas=n, mttf_us=mttf,
                                     mttr_us=mttr, failover_us=failover)
        assert model.steady_state() == steady
        assert model.availability() == availability
        assert model.mean_time_to_total_failure_us() == mttf_total

    @pytest.mark.parametrize("params", [p for p, *_ in PINNED])
    def test_every_return_is_a_python_float(self, params):
        n, mttf, mttr, failover = params
        model = RepairableGroupModel(n_replicas=n, mttf_us=mttf,
                                     mttr_us=mttr, failover_us=failover)
        values = [*model.steady_state(), model.availability(),
                  model.expected_live_replicas(),
                  model.mean_time_to_total_failure_us()]
        assert all(type(value) is float for value in values)

    def test_singular_first_passage_system_raises(self):
        # With MTTF/MTTR this extreme the last pivot cancels to zero.
        model = RepairableGroupModel(n_replicas=7, mttf_us=1e10,
                                     mttr_us=1e2)
        with pytest.raises(PolicyError):
            model.mean_time_to_total_failure_us()
