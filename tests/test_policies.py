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
    evaluate_exact,
    simulate,
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

    def test_explicit_battery_out_of_table(self):
        k = Explicit(np.ones((2, 3), dtype=np.int8))
        with pytest.raises(DomainError):
            decide(k, State(1, 2), 0)

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


class TestOptimalValidation:
    @pytest.mark.parametrize("given", [[3, 2, 1], range(3, 0, -1), (t for t in (3, 2, 1))])
    def test_holds_a_tuple(self, given):
        # a list, range or generator is stored as the tuple it lists, so the
        # policy equals, and hashes as, the one built from that tuple
        k = Optimal(given)
        assert k.thresholds == (3, 2, 1)
        assert k == Optimal((3, 2, 1))
        assert hash(k) == hash(Optimal((3, 2, 1)))

    def test_list_thresholds_simulate(self):
        m = params()
        listed = simulate(Optimal([3, 2, 1]), m, 1000, 7)
        assert listed == simulate(Optimal((3, 2, 1)), m, 1000, 7)


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
        table = stationary_actions(k, m)
        assert table.shape == (1, 3, 4)
        np.testing.assert_array_equal(table.reshape(-1), flat == TRANSMIT)


class TestStationaryActions:
    def test_zero_wait_all_ones(self):
        m = params()
        table = stationary_actions(ZeroWait(), m)
        assert table.dtype == bool
        np.testing.assert_array_equal(table, np.ones((1, 3, 1), dtype=bool))

    def test_threshold_matches_expand(self):
        m = params()
        tp = Optimal((2, 1, 3))
        np.testing.assert_array_equal(
            stationary_actions(tp, m),
            # transmit iff age >= thresholds[q], to the largest threshold
            [[[0, 1, 1], [1, 1, 1], [0, 0, 1]]],
        )

    @pytest.mark.parametrize("skip", [False, True])
    def test_periodic_layout(self, skip):
        # (phase, battery, age), phase outer: the scheduled phase 0 sends,
        # idling on an empty battery under skip_on_empty; the others idle,
        # and one column holds at every age
        m = params()
        table = stationary_actions(Periodic(3, skip), m)
        want = np.zeros((3, 3, 1), dtype=bool)
        want[0] = True
        want[0, 0] = not skip
        np.testing.assert_array_equal(table, want)
        for t in range(3):
            for s in (State(1, 0), State(4, 2)):
                assert table[t, s.battery, 0] == decide(Periodic(3, skip), s, t)

    @pytest.mark.parametrize(
        "kind",
        [
            ZeroWait(),
            Periodic(1),
            Periodic(3),
            Periodic(3, skip_on_empty=True),
            Optimal((2, 1, 3)),
            Optimal((2, 9, 1)),  # a threshold above delta_max = 4
            Explicit(np.arange(6).reshape(3, 2) % 2),  # narrower than delta_max
            Explicit(np.arange(18).reshape(3, 6) % 3 == 0),  # wider than delta_max
        ],
        ids=["zero-wait", "periodic-1", "periodic-3", "periodic-3-skip", "optimal",
             "optimal-past-cap", "explicit-narrow", "explicit-wide"],
    )
    def test_reads_as_decide(self, kind):
        # age a reads column min(a, width) - 1 of phase t mod T, as decide
        # reads the policy at every age and slot
        m = params()
        table = stationary_actions(kind, m)
        T, B1, A = table.shape
        assert table.dtype == bool and B1 == m.battery_cap + 1
        for t in range(2 * T):
            for q in range(B1):
                for a in range(1, A + 3):
                    assert table[t % T, q, min(a, A) - 1] == decide(kind, State(a, q), t)

    @pytest.mark.parametrize(
        "read",
        [
            lambda kind, m: decide(kind, State(1, 0), 0),
            stationary_actions,
            lambda kind, m: simulate(kind, m, 10, 0),
        ],
        ids=["decide", "stationary_actions", "simulate"],
    )
    def test_unknown_kind_is_a_type_error(self, read):
        with pytest.raises(TypeError, match="unknown policy kind"):
            read(object(), params())

    def test_explicit_shape_must_match_model(self):
        k = Explicit(np.zeros((2, 4), dtype=np.int8))
        with pytest.raises(DomainError):
            stationary_actions(k, params())  # model has 3 battery rows


class TestZeroWaitIsPeriodOne:
    """ZeroWait is the period-1 schedule: every route reads it as Periodic(1)."""

    def test_is_a_periodic_of_period_one(self):
        z = ZeroWait()
        assert isinstance(z, Periodic)
        assert (z.period, z.skip_on_empty) == (1, False)
        assert repr(z) == "ZeroWait()" and type(z).__name__ == "ZeroWait"
        for args, kwargs in (((1,), {}), ((), {"period": 1}), ((), {"skip_on_empty": True})):
            with pytest.raises(TypeError):
                ZeroWait(*args, **kwargs)

    def test_decide(self):
        for t in (0, 1, 5):
            for s in (State(1, 0), State(3, 1), State(250, 2)):
                assert decide(ZeroWait(), s, t) == decide(Periodic(1), s, t)

    @pytest.mark.parametrize("cap", [3, 20, 100])
    def test_stationary_actions(self, cap):
        m = params(battery_cap=cap)
        z, p = stationary_actions(ZeroWait(), m), stationary_actions(Periodic(1), m)
        assert z.dtype == p.dtype and z.shape == p.shape
        np.testing.assert_array_equal(z, p)

    @staticmethod
    def outcome(route, *args):
        """The repr of what ``route(*args)`` returns, or its exception's type
        and message."""
        try:
            return repr(route(*args))
        except Exception as exc:  # compared, not handled
            return type(exc), str(exc)

    @pytest.mark.parametrize("cap", [3, 20, 100])
    @pytest.mark.parametrize("lam", [0.5, 1.0])
    @pytest.mark.parametrize("p_block", [0.2, 1 - 1e-16])
    def test_evaluate_exact(self, cap, lam, p_block):
        m = params(lambda_e=lam, p_block=p_block, battery_cap=cap)
        assert self.outcome(evaluate_exact, ZeroWait(), m) == self.outcome(
            evaluate_exact, Periodic(1), m)

    @pytest.mark.parametrize("cap", [3, 20])
    @pytest.mark.parametrize("lam", [0.5, 1.0])
    def test_simulate(self, cap, lam):
        # by repr: ci_halfwidth is NaN below horizon 20, and NaN != NaN
        m = params(lambda_e=lam, battery_cap=cap)
        for horizon in (1, 19, 20, 5003):
            for seed in (0, 7):
                assert self.outcome(simulate, ZeroWait(), m, horizon, seed) == self.outcome(
                    simulate, Periodic(1), m, horizon, seed)
