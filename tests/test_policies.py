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
    ZeroWait,
    decide,
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
        # a truthy non-bool would silently mean "skip"
        for bad in ("no", 1, None):
            with pytest.raises(DomainError, match="skip_on_empty"):
                Periodic(3, bad)
        assert Periodic(3, np.True_).skip_on_empty

    def test_periodic_rejects_bool_period(self):
        for bad in (True, False):
            with pytest.raises(DomainError, match="period"):
                Periodic(bad)

    def test_threshold_policy_by_battery_row(self):
        k = Optimal((3, 2, 1))
        assert decide(k, State(2, 0), 5) == IDLE
        assert decide(k, State(3, 0), 5) == TRANSMIT
        assert decide(k, State(2, 1), 5) == TRANSMIT
        assert decide(k, State(1, 2), 5) == TRANSMIT

    def test_threshold_battery_out_of_table(self):
        k = Optimal((3, 2, 1))
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

    def test_rejects_bool_time(self):
        with pytest.raises(DomainError):
            decide(Periodic(2), State(1, 1), True)


class TestExplicitValidation:
    @pytest.mark.parametrize(
        "bad",
        # all but 2 cast to 0 or 1 in int8, so they must be caught before the cast
        [2, 0.5, 1.7, 257, -255, np.nan],
    )
    def test_rejects_non_binary_entries(self, bad):
        with pytest.raises(DomainError, match="only 0 and 1"):
            Explicit(np.array([[0, bad], [1, 0]]))

    @pytest.mark.parametrize("dtype", [np.int64, np.int8, np.float64, bool])
    def test_accepts_binary_tables_of_any_dtype(self, dtype):
        k = Explicit(np.array([[0, 1], [1, 0]], dtype=dtype))
        assert k.actions.dtype == np.int8
        np.testing.assert_array_equal(k.actions, [[0, 1], [1, 0]])

    def test_rejects_wrong_rank(self):
        with pytest.raises(DomainError):
            Explicit(np.array([0, 1, 0]))

    def test_table_is_read_only(self):
        given = np.array([[0, 1], [1, 0]], dtype=np.int8)
        k = Explicit(given)
        with pytest.raises(ValueError):
            k.actions[0, 0] = 1
        # the policy holds its own copy; the caller's table stays writable
        given[0, 0] = 1
        assert k.actions[0, 0] == 0

    def test_state_order_round_trip(self):
        m = params()
        flat = np.arange(12) % 2
        k = Explicit(flat.reshape(m.battery_cap + 1, m.delta_max))
        np.testing.assert_array_equal(stationary_actions(k, m), flat)


class TestStationaryActions:
    def test_zero_wait_all_ones(self):
        m = params()
        np.testing.assert_array_equal(
            stationary_actions(ZeroWait(), m), np.ones(12, dtype=np.int8)
        )

    def test_threshold_matches_expand(self):
        m = params()
        tp = Optimal((2, 1, 3))
        np.testing.assert_array_equal(
            stationary_actions(tp, m),
            [0, 1, 1, 1, 1, 1, 1, 1, 0, 0, 1, 1],  # transmit iff age >= thresholds[q]
        )

    @pytest.mark.parametrize("skip", [False, True])
    def test_periodic_layout(self, skip):
        # (phase, battery, age), phase outer: the scheduled phase 0 sends,
        # idling on an empty battery under skip_on_empty; the others idle
        m = params()
        table = stationary_actions(Periodic(3, skip), m).reshape(3, 3, 4)
        want = np.zeros((3, 3, 4), dtype=np.int8)
        want[0] = TRANSMIT
        want[0, 0] = IDLE if skip else TRANSMIT
        np.testing.assert_array_equal(table, want)
        for t in range(3):
            for s in (State(1, 0), State(4, 2)):
                assert table[t, s.battery, s.aoi - 1] == decide(Periodic(3, skip), s, t)

    def test_explicit_shape_must_match_model(self):
        k = Explicit(np.zeros((2, 4), dtype=np.int8))
        with pytest.raises(DomainError):
            stationary_actions(k, params())  # model has 3 battery rows
