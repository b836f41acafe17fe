import numpy as np
import pytest

from ehaoi import (
    IDLE,
    TRANSMIT,
    DomainError,
    Explicit,
    ModelParams,
    Optimal,
    Periodic,
    State,
    ThresholdPolicy,
    ZeroWait,
    decide,
    is_stationary,
    stationary_actions,
)


def params(**overrides):
    kw = dict(
        lambda_e=0.5,
        p_block=0.2,
        battery_cap=2,
        cost_reliable=2.0,
        weight=10.0,
        delta_max=4,
    )
    kw.update(overrides)
    return ModelParams(**kw)


class TestDecide:
    def test_zero_wait_always_transmits(self):
        for t in (0, 1, 17):
            for s in (State(1, 0), State(9, 2)):
                assert decide(ZeroWait(), s, t) == TRANSMIT

    def test_periodic_anchored_at_zero(self):
        k = Periodic(3)
        got = [decide(k, State(1, 1), t) for t in range(7)]
        assert got == [1, 0, 0, 1, 0, 0, 1]

    def test_periodic_pays_on_empty_by_default(self):
        assert decide(Periodic(3), State(1, 0), 0) == TRANSMIT

    def test_periodic_skip_on_empty(self):
        k = Periodic(3, skip_on_empty=True)
        assert decide(k, State(1, 0), 0) == IDLE
        assert decide(k, State(1, 1), 0) == TRANSMIT

    def test_periodic_rejects_bad_period(self):
        for bad in (0, -1, 2.5):
            with pytest.raises(DomainError):
                Periodic(bad)

    def test_periodic_rejects_bool_period(self):
        for bad in (True, False):
            with pytest.raises(DomainError, match="period"):
                Periodic(bad)

    def test_threshold_policy_by_battery_row(self):
        k = Optimal(ThresholdPolicy((3, 2, 1)))
        assert decide(k, State(2, 0), 5) == IDLE
        assert decide(k, State(3, 0), 5) == TRANSMIT
        assert decide(k, State(2, 1), 5) == TRANSMIT
        assert decide(k, State(1, 2), 5) == TRANSMIT

    def test_threshold_battery_out_of_table(self):
        k = Optimal(ThresholdPolicy((3, 2, 1)))
        with pytest.raises(DomainError):
            decide(k, State(1, 3), 0)

    def test_explicit_uses_table_entry(self):
        table = np.array([[0, 0, 1, 1], [1, 1, 1, 1]], dtype=np.int8)
        k = Explicit(table)
        assert decide(k, State(2, 0), 0) == IDLE
        assert decide(k, State(3, 0), 0) == TRANSMIT

    def test_explicit_clamps_large_ages(self):
        # untruncated simulation can present ages past the table edge
        table = np.array([[0, 0, 0, 1], [1, 0, 0, 0]], dtype=np.int8)
        k = Explicit(table)
        assert decide(k, State(250, 0), 0) == TRANSMIT
        assert decide(k, State(250, 1), 0) == IDLE

    def test_decide_is_pure(self):
        k = Periodic(2)
        before = [decide(k, State(4, 1), t) for t in range(6)]
        after = [decide(k, State(4, 1), t) for t in range(6)]
        assert before == after

    def test_rejects_negative_time(self):
        with pytest.raises(DomainError):
            decide(ZeroWait(), State(1, 0), -1)

    def test_rejects_invalid_state(self):
        with pytest.raises(DomainError):
            decide(ZeroWait(), State(0, 0), 0)


class TestExplicitValidation:
    def test_rejects_non_binary_entries(self):
        with pytest.raises(DomainError):
            Explicit(np.array([[0, 2], [1, 0]]))

    def test_rejects_wrong_rank(self):
        with pytest.raises(DomainError):
            Explicit(np.array([0, 1, 0]))

    def test_table_is_read_only(self):
        k = Explicit(np.array([[0, 1], [1, 0]]))
        with pytest.raises(ValueError):
            k.actions[0, 0] = 1

    def test_from_state_order_round_trip(self):
        m = params()
        flat = np.arange(12) % 2
        k = Explicit.from_state_order(flat, m)
        np.testing.assert_array_equal(stationary_actions(k, m), flat)

    def test_from_state_order_size_check(self):
        with pytest.raises(DomainError):
            Explicit.from_state_order(np.zeros(5, dtype=np.int8), params())


class TestStationaryActions:
    def test_zero_wait_all_ones(self):
        m = params()
        np.testing.assert_array_equal(
            stationary_actions(ZeroWait(), m), np.ones(12, dtype=np.int8)
        )

    def test_threshold_matches_expand(self):
        m = params()
        tp = ThresholdPolicy((2, 1, 3))
        np.testing.assert_array_equal(
            stationary_actions(Optimal(tp), m), tp.expand(m)
        )

    def test_periodic_rejected(self):
        with pytest.raises(ValueError, match="time-dependent"):
            stationary_actions(Periodic(5), params())

    def test_explicit_shape_must_match_model(self):
        k = Explicit(np.zeros((2, 4), dtype=np.int8))
        with pytest.raises(DomainError):
            stationary_actions(k, params())  # model has 3 battery rows

    def test_is_stationary_flags(self):
        assert is_stationary(ZeroWait())
        assert is_stationary(Optimal(ThresholdPolicy((1,))))
        assert is_stationary(Explicit(np.zeros((1, 1), dtype=np.int8)))
        assert not is_stationary(Periodic(2))
