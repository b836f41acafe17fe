import warnings

import numpy as np
import pytest

from ehaoi import (
    IDLE,
    TRANSMIT,
    ConvergenceError,
    DomainError,
    ModelParams,
    Optimal,
    State,
    ThresholdPolicy,
    ThresholdStructureError,
    TruncationWarning,
    bellman_backup_q,
    kernel_arrays,
    extract_policy,
    extract_thresholds,
    modified_via,
    q_value,
    relative_value_iteration,
    state_count,
    stationary_actions,
)
from ehaoi.model import PROB_FLOOR, GridShift
from ehaoi.solver import _iterate_values


def tiny_params(**overrides):
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


def reference_backup_q(v, m):
    """Q-values recomputed from the written-out dynamics, term by term.

    Deliberately independent of the kernel module: every branch probability
    is spelled out here so the two routes can disagree if either is wrong.
    """
    lam, p = m.lambda_e, m.p_block
    cap, dm = m.battery_cap, m.delta_max
    out = np.zeros((2, (cap + 1) * dm))

    def val(age, q):
        return v[q * dm + (age - 1)]

    for q in range(cap + 1):
        for d in range(1, dm + 1):
            i = q * dm + (d - 1)
            up = min(d + 1, dm)
            if q < cap:
                idle_cont = lam * val(up, q + 1) + (1.0 - lam) * val(up, q)
            else:
                idle_cont = val(up, cap)
            out[IDLE, i] = d + idle_cont
            left = q - 1 if q > 0 else 0
            backup = m.weight * m.cost_reliable if q == 0 else 0.0
            tx_cont = (
                p * lam * val(up, left + 1)
                + (1.0 - p) * lam * val(1, left + 1)
                + p * (1.0 - lam) * val(up, left)
                + (1.0 - p) * (1.0 - lam) * val(1, left)
            )
            out[TRANSMIT, i] = d + backup + tx_cont
    return out


class TestQValue:
    def test_zero_values_reduce_to_cost(self):
        m = tiny_params()
        v = np.zeros(state_count(m))
        assert q_value(v, State(3, 1), IDLE, m) == pytest.approx(3.0)
        assert q_value(v, State(3, 1), TRANSMIT, m) == pytest.approx(3.0)
        wide = tiny_params(delta_max=8)
        assert q_value(np.zeros(state_count(wide)), State(5, 0), TRANSMIT, wide) == pytest.approx(25.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("lam", [0.5, 1.0])
    def test_vectorized_backup_matches_reference(self, seed, lam):
        m = tiny_params(lambda_e=lam)
        rng = np.random.default_rng(seed)
        v = rng.normal(size=state_count(m)) * 10.0
        got = bellman_backup_q(v, m)
        want = reference_backup_q(v, m)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_scalar_and_vector_routes_agree(self):
        m = tiny_params()
        rng = np.random.default_rng(7)
        v = rng.normal(size=state_count(m))
        q = bellman_backup_q(v, m)
        for i, s in enumerate(
            State(d, b) for b in range(3) for d in range(1, 5)
        ):
            for a in (IDLE, TRANSMIT):
                assert q[a, i] == pytest.approx(q_value(v, s, a, m), abs=1e-12)


def gather_backup_q(v, m):
    """The Bellman backup gathered from ``kernel_arrays``, the per-state oracle."""
    kern = kernel_arrays(m)
    return kern.cost + (kern.prob * v[kern.next_idx]).sum(axis=2)


REFERENCE = dict(
    p_block=0.2, battery_cap=20, cost_reliable=2.0, weight=10.0, delta_max=200
)


class TestShiftBackupMatchesKernel:
    @pytest.mark.parametrize("size", ["minimal", "small", "reference"])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.0 - 1e-16])
    def test_bit_identical_to_gather(self, lam, size):
        if size == "minimal":
            m = tiny_params(lambda_e=lam, battery_cap=2, delta_max=2, cost_reliable=0.0)
        elif size == "small":
            m = tiny_params(lambda_e=lam, battery_cap=3, delta_max=7)
        else:
            m = ModelParams(lambda_e=lam, **REFERENCE)
        op = GridShift(m)
        rng = np.random.default_rng(11)
        for scale in (1e-3, 1.0, 1e4):
            v = rng.normal(size=state_count(m)) * scale
            want = gather_backup_q(v, m)
            assert np.array_equal(bellman_backup_q(v, m), want)
            # the sweep's Bellman values add the age after the minimum
            assert np.array_equal(op.backup(v), want.min(axis=0))

    def test_takes_exactly_n_values_of_any_shape(self):
        # the value grid as (battery, age) gives the Q values of its
        # flattened form; a table of the wrong size raises, never broadcasts
        m = tiny_params(battery_cap=3, delta_max=7)
        v = np.random.default_rng(5).normal(size=state_count(m))
        grid = v.reshape(m.battery_cap + 1, m.delta_max)
        assert np.array_equal(bellman_backup_q(grid, m), bellman_backup_q(v, m))
        assert np.array_equal(GridShift(m).backup(grid), GridShift(m).backup(v))
        assert np.array_equal(extract_policy(grid, m), extract_policy(v, m))
        for wrong in (1.0, np.ones(1), v[:-1], np.append(v, 0.0)):
            with pytest.raises(ValueError):
                bellman_backup_q(wrong, m)
            with pytest.raises(ValueError):
                GridShift(m).backup(wrong)

    def test_dust_entry_is_dropped(self):
        # p_block * (1 - lambda_e) falls below PROB_FLOOR, so transition()
        # drops that successor; the bit-identity above covers the drop
        m = tiny_params(lambda_e=1.0 - 1e-16)
        assert 0.0 < m.p_block * (1.0 - m.lambda_e) < PROB_FLOOR
        assert (kernel_arrays(m).prob[TRANSMIT] > 0.0).sum(axis=1).max() == 2


FIXED_POINTS = {
    "reference": ModelParams(lambda_e=0.5, **REFERENCE),
    "large": ModelParams(lambda_e=0.5, **{**REFERENCE, "battery_cap": 100, "delta_max": 400}),
}


class TestSweepLayout:
    @pytest.mark.parametrize("point", list(FIXED_POINTS))
    def test_streams_start_apart_within_a_page(self, point):
        # a sweep streams these five arrays, cut from one block; stores to
        # one and loads from another whose addresses agree in their low 12
        # bits stall
        op = GridShift(FIXED_POINTS[point])
        streams = [op.values, op.out, op._term, op._tx, op._age_grid]
        assert all(a.base is streams[0].base for a in streams)
        offsets = [a.ctypes.data % 4096 for a in streams]
        for i, a in enumerate(offsets):
            for b in offsets[i + 1:]:
                assert min((a - b) % 4096, (b - a) % 4096) >= 256, offsets

    def test_returned_values_own_their_memory(self):
        # a view would keep the operator's whole block alive
        m = tiny_params()
        v = _iterate_values(m, 1e-9, 100_000)[0]
        assert v.base is None and v.size == state_count(m)


class TestRegressionPins:
    """Solver output at eps 1e-9, bit for bit as recorded before the
    Bellman operator moved from the kernel gather to grid shifts. The
    threshold of 1 at battery 7 for lambda_e = 0.99 rests on a Q gap of
    about 1e-14 at age 1 (see the README). At weight 0.5 the idle and
    transmit Q values tie exactly at age 1 on some batteries, and the ties
    idle, as in the full argmin."""

    @pytest.mark.parametrize(
        "lam, weight, gain, iterations, evals, thresholds",
        [
            (0.5, 10.0, "1.8508888144754714", 1529, 59,
             (11, 4, 3, 3, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1)),
            (0.99, 10.0, "1.2599999995023268", 4964, 47,
             (20, 2, 2, 2, 2, 2, 2, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)),
            (0.5, 0.5, "1.7499999995697877", 95, 28,
             (2, 2, 2, 2, 1, 2, 1, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)),
        ],
    )
    def test_modified_via(self, lam, weight, gain, iterations, evals, thresholds):
        m = ModelParams(**{**REFERENCE, "lambda_e": lam, "weight": weight})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            res, tp = modified_via(m, eps=1e-9)
        assert repr(res.gain) == gain
        assert res.iterations == iterations
        assert res.argmin_evals == evals
        assert tp.thresholds == thresholds


class TestRelativeValueIteration:
    def test_converges_and_satisfies_bellman(self):
        m = tiny_params(battery_cap=3, delta_max=30)
        res = relative_value_iteration(m, eps=1e-9)
        q = bellman_backup_q(res.values, m)
        residual = q.min(axis=0) - res.values
        # optimality equation holds up to the stopping tolerance
        assert np.max(np.abs(residual - res.gain)) <= 1e-8

    def test_gain_at_least_one(self):
        # age contributes >= 1 every slot, so no policy beats cost 1
        res = relative_value_iteration(tiny_params(delta_max=12), eps=1e-9)
        assert res.gain >= 1.0

    def test_span_history_non_increasing(self):
        res = relative_value_iteration(tiny_params(battery_cap=3, delta_max=25), eps=1e-9)
        h = res.span_history
        assert h.shape == (res.iterations,)
        assert np.all(h[1:] <= h[:-1] + 1e-12)
        assert h[-1] == pytest.approx(res.span_residual)
        assert res.span_residual <= 1e-9

    def test_certain_harvest_rare_blocking_transmits_everywhere_charged(self):
        # with free energy every slot, all states holding energy transmit
        # and the average cost is the mean age under constant updating
        m = ModelParams(
            lambda_e=1.0,
            p_block=0.01,
            battery_cap=2,
            cost_reliable=2.0,
            weight=10.0,
            delta_max=60,
        )
        res = relative_value_iteration(m, eps=1e-10)
        table = res.policy.reshape(m.battery_cap + 1, m.delta_max)
        assert np.all(table[1:, :] == TRANSMIT)
        assert res.gain == pytest.approx(1.0 / 0.99, abs=1e-8)

    def test_policy_is_greedy_for_returned_values(self):
        m = tiny_params(battery_cap=3, delta_max=20)
        res = relative_value_iteration(m, eps=1e-9)
        np.testing.assert_array_equal(res.policy, extract_policy(res.values, m))
        assert res.argmin_evals == state_count(m)

    def test_gain_bracket_holds_the_gain(self):
        m = tiny_params(battery_cap=3, delta_max=25)
        for res in (relative_value_iteration(m, eps=1e-9), modified_via(m, eps=1e-9)[0]):
            lo, hi = res.gain_bracket
            assert lo <= res.gain <= hi
            assert hi - lo == res.span_residual
            assert res.gain == 0.5 * (hi + lo)

    def test_non_convergence_raises_with_diagnostics(self):
        with pytest.raises(ConvergenceError) as exc:
            relative_value_iteration(tiny_params(delta_max=40), eps=1e-12, max_iter=2)
        assert exc.value.iterations == 2
        assert exc.value.span_residual > 1e-12

    @pytest.mark.parametrize("eps", [0.0, -1e-9, float("nan"), float("inf"), True])
    def test_bad_eps_rejected(self, eps):
        with pytest.raises(DomainError):
            relative_value_iteration(tiny_params(), eps=eps)

    def test_bad_max_iter_rejected(self):
        with pytest.raises(DomainError):
            relative_value_iteration(tiny_params(), max_iter=0)

    @pytest.mark.parametrize("max_iter", [True, 10.0])
    def test_max_iter_must_be_an_int_not_a_bool(self, max_iter):
        # True used to run one sweep
        with pytest.raises(DomainError, match="max_iter"):
            relative_value_iteration(tiny_params(), max_iter=max_iter)

    @pytest.mark.parametrize(
        "m, eps",
        [
            (ModelParams(lambda_e=0.5, p_block=0.2, battery_cap=20,
                         cost_reliable=2.0, weight=10.0, delta_max=200), 1e-9),
            (tiny_params(lambda_e=1.0, battery_cap=3, delta_max=12), 1e-9),
            # the layout's edges: delta_max 2 and 3 (every age a row's first or
            # last), battery_cap 2, lambda_e near and at 1, a free backup packet
            (tiny_params(lambda_e=1.0 - 1e-16, battery_cap=2, delta_max=2, cost_reliable=0.0), 1e-9),
            (tiny_params(lambda_e=0.01, battery_cap=2, delta_max=3), 1e-9),
            (tiny_params(lambda_e=0.99, battery_cap=3, delta_max=2, cost_reliable=0.0), 1e-9),
            (tiny_params(lambda_e=0.5, battery_cap=4, delta_max=12, cost_reliable=0.0), 1e-9),
            (tiny_params(lambda_e=1.0, battery_cap=7, delta_max=41), 1e-9),
            (ModelParams(lambda_e=0.99, p_block=0.2, battery_cap=20,
                         cost_reliable=0.0, weight=10.0, delta_max=200), 1e-9),
            # the large fixed point, 101 rows of 400 ages, in 841 sweeps
            (ModelParams(lambda_e=0.5, p_block=0.2, battery_cap=100,
                         cost_reliable=2.0, weight=10.0, delta_max=400), 0.1),
        ],
        ids=["reference", "4x12-lambda1", "3x2-dust-free", "3x3-lambda0.01",
             "4x2-lambda0.99-free", "5x12-free", "8x41-lambda1", "reference-lambda0.99-free",
             "large-eps0.1"],
    )
    def test_iteration_equals_reference_loop(self, m, eps):
        # the sweep loop written out plainly: Q values, their minimum, a
        # separate difference array, then the renormalization
        ref = m.delta_max * m.battery_cap  # State(1, battery_cap)
        v = np.zeros(state_count(m))
        spans = []
        for k in range(100_000):
            tv = bellman_backup_q(v, m).min(axis=0)
            diff = tv - v
            hi, lo = float(diff.max()), float(diff.min())
            spans.append(hi - lo)
            v = tv - tv[ref]
            if hi - lo <= eps:
                break
        got_v, gain, bracket, iterations, span, history = _iterate_values(m, eps, 100_000)
        assert np.array_equal(got_v, v)
        assert gain == 0.5 * (hi + lo)
        assert bracket == (lo, hi)
        assert iterations == k + 1 and span == spans[-1]
        assert np.array_equal(history, np.array(spans))


class TestExtractPolicy:
    def test_exact_ties_resolve_to_idle(self):
        # against v = 0 both actions cost the age whenever energy is stored,
        # an exact tie, and transmitting from empty adds the backup price
        m = tiny_params()
        v = np.zeros(state_count(m))
        np.testing.assert_array_equal(extract_policy(v, m), np.zeros(state_count(m), dtype=np.int8))

    def test_strict_improvement_transmits(self):
        m = tiny_params()
        # make age-1 states hugely attractive so any reset wins
        v = np.zeros(state_count(m))
        for q in range(m.battery_cap + 1):
            v[q * m.delta_max] = -1000.0
        policy = extract_policy(v, m).reshape(m.battery_cap + 1, m.delta_max)
        assert np.all(policy[1:, :] == TRANSMIT)


class TestModifiedVia:
    @pytest.mark.parametrize(
        "overrides",
        # the reference point, and two points with exact or near Q ties at age 1
        [{}, {"weight": 0.5}, {"lambda_e": 0.99}],
        ids=["reference", "weight0.5", "lambda0.99"],
    )
    def test_matches_full_argmin(self, overrides):
        m = ModelParams(**{**REFERENCE, "lambda_e": 0.5, **overrides})
        res, tp = modified_via(m, eps=1e-9)
        full = relative_value_iteration(m, eps=1e-9)
        np.testing.assert_array_equal(res.policy, full.policy)
        assert res.gain == pytest.approx(full.gain, abs=0.0)

    def test_argmin_work_bounded_by_thresholds(self, base_params, base_solution):
        res, tp = base_solution
        dm = base_params.delta_max
        expected = sum(min(t, dm) for t in tp.thresholds)
        assert res.argmin_evals == expected
        assert res.argmin_evals < state_count(base_params)

    def test_policy_expands_from_thresholds(self, base_params, base_solution):
        res, tp = base_solution
        np.testing.assert_array_equal(stationary_actions(Optimal(tp), base_params), res.policy)


class TestThresholdPolicy:
    def test_expand_layout(self):
        m = tiny_params()
        tp = ThresholdPolicy((2, 1, 5))
        table = stationary_actions(Optimal(tp), m).reshape(3, 4)
        np.testing.assert_array_equal(table[0], [0, 1, 1, 1])
        np.testing.assert_array_equal(table[1], [1, 1, 1, 1])
        np.testing.assert_array_equal(table[2], [0, 0, 0, 0])  # 5 > delta_max: never

    def test_expand_length_mismatch(self):
        with pytest.raises(DomainError):
            stationary_actions(Optimal(ThresholdPolicy((1, 1))), tiny_params())

    @pytest.mark.parametrize("bad", [(), (0,), (1.5,), (1, -2)])
    def test_invalid_thresholds(self, bad):
        with pytest.raises(DomainError):
            ThresholdPolicy(bad)

    def test_bool_threshold_rejected(self):
        with pytest.raises(DomainError):
            ThresholdPolicy((True, 2, 1))


class TestExtractThresholds:
    def test_all_idle_row_maps_to_never(self):
        m = tiny_params()
        with pytest.warns(TruncationWarning):
            tp = extract_thresholds(np.zeros(state_count(m), dtype=np.int8), m)
        assert tp.thresholds == (5, 5, 5)

    def test_all_transmit_maps_to_one(self):
        m = tiny_params()
        tp = extract_thresholds(np.ones(state_count(m), dtype=np.int8), m)
        assert tp.thresholds == (1, 1, 1)

    def test_round_trips_expansion(self):
        m = tiny_params()
        tp = ThresholdPolicy((2, 2, 1))
        assert extract_thresholds(stationary_actions(Optimal(tp), m), m) == tp

    def test_hole_raises_with_witness(self):
        m = tiny_params()
        table = np.zeros((3, 4), dtype=np.int8)
        table[1] = [0, 1, 0, 1]  # transmit at age 2, idle again at age 3
        with pytest.raises(ThresholdStructureError) as exc:
            extract_thresholds(table.reshape(-1), m)
        assert exc.value.witnesses == [(1, 2, 3)]


class TestTruncationWarning:
    def test_tight_threshold_warns(self):
        m = tiny_params(battery_cap=3, delta_max=8)
        table = stationary_actions(Optimal(ThresholdPolicy((5, 1, 1, 1))), m)
        with pytest.warns(TruncationWarning):
            extract_thresholds(table, m)

    def test_loose_threshold_silent(self):
        m = tiny_params(battery_cap=3, delta_max=8)
        table = stationary_actions(Optimal(ThresholdPolicy((4, 1, 1, 1))), m)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            extract_thresholds(table, m)
