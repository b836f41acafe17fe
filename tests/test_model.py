import numpy as np
import pytest

from ehaoi import (
    ACTIONS,
    IDLE,
    TRANSMIT,
    DomainError,
    ModelParams,
    State,
    enumerate_states,
    kernel_arrays,
    one_step_cost,
    state_count,
    state_index,
    transition,
)
from ehaoi.model import PROB_FLOOR


def small_params(**overrides):
    kw = dict(
        lambda_e=0.5,
        p_block=0.2,
        battery_cap=3,
        cost_reliable=2.0,
        weight=10.0,
        delta_max=6,
    )
    kw.update(overrides)
    return ModelParams(**kw)


class TestParamValidation:
    @pytest.mark.parametrize("lam", [0.0, -0.1, 1.0001])
    def test_lambda_out_of_range(self, lam):
        with pytest.raises(DomainError):
            small_params(lambda_e=lam)

    def test_lambda_one_allowed(self):
        assert small_params(lambda_e=1.0).lambda_e == 1.0

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.3, 1.5])
    def test_p_block_out_of_range(self, p):
        with pytest.raises(DomainError):
            small_params(p_block=p)

    @pytest.mark.parametrize("cap", [1, 0, -2, 2.5])
    def test_battery_cap_invalid(self, cap):
        with pytest.raises(DomainError):
            small_params(battery_cap=cap)

    def test_cost_reliable_negative(self):
        with pytest.raises(DomainError):
            small_params(cost_reliable=-0.01)

    def test_cost_reliable_zero_allowed(self):
        assert small_params(cost_reliable=0.0).cost_reliable == 0.0

    @pytest.mark.parametrize("w", [0.0, -1.0])
    def test_weight_invalid(self, w):
        with pytest.raises(DomainError):
            small_params(weight=w)

    @pytest.mark.parametrize("dm", [1, 0, 3.5])
    def test_delta_max_invalid(self, dm):
        with pytest.raises(DomainError):
            small_params(delta_max=dm)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True])
    @pytest.mark.parametrize("field", ["lambda_e", "p_block", "cost_reliable", "weight"])
    def test_non_finite_or_bool_rejected(self, field, value):
        # NaN slips past every range comparison, inf * 0 is a NaN price,
        # and True would pass as 1
        with pytest.raises(DomainError, match=field):
            small_params(**{field: value})

    def test_overflowing_price_rejected(self):
        # each factor is finite but the backup price weight * cost_reliable
        # is inf, which made the optimal policy's average cost NaN
        with pytest.raises(DomainError, match=r"weight \* cost_reliable must be finite"):
            small_params(cost_reliable=1e308, weight=10.0)


class TestStateActionValidation:
    def test_age_below_one(self):
        with pytest.raises(DomainError):
            transition(State(0, 1), IDLE, small_params())

    def test_age_above_cap(self):
        with pytest.raises(DomainError):
            transition(State(7, 1), IDLE, small_params())

    def test_battery_out_of_range(self):
        with pytest.raises(DomainError):
            transition(State(1, 4), IDLE, small_params())
        with pytest.raises(DomainError):
            transition(State(1, -1), IDLE, small_params())

    def test_bad_action(self):
        with pytest.raises(DomainError):
            transition(State(1, 1), 2, small_params())

    def test_bool_state_rejected(self):
        with pytest.raises(DomainError):
            transition(State(True, 0), IDLE, small_params())


class TestTransitionBranches:
    def test_transmit_on_empty_battery(self):
        # backup packet: success resets age, same-slot harvest is banked
        m = small_params()
        d = transition(State(3, 0), TRANSMIT, m).as_dict()
        assert d == pytest.approx(
            {
                State(4, 1): 0.1,
                State(1, 1): 0.4,
                State(4, 0): 0.1,
                State(1, 0): 0.4,
            }
        )

    def test_transmit_with_energy_spends_one(self):
        m = small_params()
        d = transition(State(2, 2), TRANSMIT, m).as_dict()
        assert d == pytest.approx(
            {
                State(3, 2): 0.1,
                State(1, 2): 0.4,
                State(3, 1): 0.1,
                State(1, 1): 0.4,
            }
        )

    def test_idle_below_cap_harvests(self):
        m = small_params()
        d = transition(State(2, 1), IDLE, m).as_dict()
        assert d == pytest.approx({State(3, 2): 0.5, State(3, 1): 0.5})

    def test_idle_at_full_battery_wastes_arrival(self):
        m = small_params()
        d = transition(State(2, 3), IDLE, m).as_dict()
        assert d == pytest.approx({State(3, 3): 1.0})

    def test_age_saturates_at_cap(self):
        m = small_params()
        d = transition(State(6, 0), IDLE, m).as_dict()
        assert set(d) == {State(6, 0), State(6, 1)}

    def test_transmit_success_always_resets_age(self):
        m = small_params()
        for d0 in (1, 3, 6):
            for q0 in (0, 1, 3):
                dist = transition(State(d0, q0), TRANSMIT, m).as_dict()
                reset = sum(p for s, p in dist.items() if s.aoi == 1)
                assert reset == pytest.approx(1.0 - m.p_block)

    def test_certain_harvest_coalesces_idle(self):
        m = small_params(lambda_e=1.0)
        d = transition(State(1, 1), IDLE, m).as_dict()
        assert d == pytest.approx({State(2, 2): 1.0})

    def test_certain_harvest_coalesces_transmit(self):
        # battery is replenished immediately, only the channel stays random
        m = small_params(lambda_e=1.0)
        d = transition(State(4, 2), TRANSMIT, m).as_dict()
        assert d == pytest.approx({State(5, 2): 0.2, State(1, 2): 0.8})

    def test_entries_are_distinct_states(self):
        m = small_params(lambda_e=1.0)
        for s in enumerate_states(m):
            for a in ACTIONS:
                entries = transition(s, a, m).entries
                assert len({ns for ns, _ in entries}) == len(entries)


class TestKernelProperties:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_rows_are_distributions(self, seed):
        rng = np.random.default_rng(seed)
        m = ModelParams(
            lambda_e=float(rng.uniform(0.05, 1.0)),
            p_block=float(rng.uniform(0.05, 0.95)),
            battery_cap=int(rng.integers(2, 8)),
            cost_reliable=float(rng.uniform(0.0, 5.0)),
            weight=float(rng.uniform(0.1, 20.0)),
            delta_max=int(rng.integers(3, 12)),
        )
        for s in enumerate_states(m):
            for a in ACTIONS:
                dist = transition(s, a, m)
                assert dist.total() == pytest.approx(1.0, abs=1e-12)
                for ns, p in dist.entries:
                    assert 0.0 < p <= 1.0
                    assert 1 <= ns.aoi <= m.delta_max
                    assert 0 <= ns.battery <= m.battery_cap

    def test_battery_moves_by_at_most_one(self):
        m = small_params()
        for s in enumerate_states(m):
            for a in ACTIONS:
                for ns, _ in transition(s, a, m).entries:
                    assert abs(ns.battery - s.battery) <= 1

    def test_idle_never_resets_age(self):
        m = small_params()
        for s in enumerate_states(m):
            aged = min(s.aoi + 1, m.delta_max)
            for ns, _ in transition(s, IDLE, m).entries:
                assert ns.aoi == aged


class TestCost:
    def test_idle_cost_is_age(self):
        m = small_params()
        assert one_step_cost(State(5, 0), IDLE, m) == 5.0
        assert one_step_cost(State(1, 3), IDLE, m) == 1.0

    def test_transmit_with_energy_costs_age_only(self):
        m = small_params()
        assert one_step_cost(State(5, 1), TRANSMIT, m) == 5.0

    def test_transmit_on_empty_adds_weighted_backup(self):
        m = small_params()
        assert one_step_cost(State(5, 0), TRANSMIT, m) == 5.0 + 10.0 * 2.0

    def test_backup_price_scales_with_weight(self):
        m = small_params(weight=3.0, cost_reliable=7.0)
        assert one_step_cost(State(2, 0), TRANSMIT, m) == 2.0 + 21.0


class TestEnumeration:
    def test_count_and_order(self):
        m = small_params()
        states = enumerate_states(m)
        assert len(states) == state_count(m) == 4 * 6
        assert states[0] == State(1, 0)
        assert states[1] == State(2, 0)
        assert states[6] == State(1, 1)
        assert states[-1] == State(6, 3)

    def test_index_is_bijective(self):
        m = small_params()
        seen = [state_index(s, m) for s in enumerate_states(m)]
        assert seen == list(range(state_count(m)))

    def test_index_rejects_bad_state(self):
        with pytest.raises(DomainError):
            state_index(State(0, 0), small_params())


class TestKernelArrays:
    def test_matches_scalar_kernel(self):
        m = small_params()
        kern = kernel_arrays(m)
        for i, s in enumerate(enumerate_states(m)):
            for a in ACTIONS:
                assert kern.cost[a, i] == one_step_cost(s, a, m)
                dist = transition(s, a, m).as_dict()
                packed = {}
                for j in range(4):
                    p = kern.prob[a, i, j]
                    if p > 0.0:
                        idx = int(kern.next_idx[a, i, j])
                        packed[enumerate_states(m)[idx]] = packed.get(
                            enumerate_states(m)[idx], 0.0
                        ) + float(p)
                assert packed == pytest.approx(dist)

    def test_arrays_are_read_only(self):
        kern = kernel_arrays(small_params())
        with pytest.raises(ValueError):
            kern.cost[0, 0] = 99.0

    def test_cache_returns_same_object(self):
        assert kernel_arrays(small_params()) is kernel_arrays(small_params())

    def test_dust_entry_is_dropped(self):
        # p_block * (1 - lambda_e) falls below PROB_FLOOR, so transition()
        # drops that successor
        m = small_params(lambda_e=1.0 - 1e-16)
        assert 0.0 < m.p_block * (1.0 - m.lambda_e) < PROB_FLOOR
        assert (kernel_arrays(m).prob[TRANSMIT] > 0.0).sum(axis=1).max() == 2
