import math
import warnings

import numpy as np
import pytest

from ehaoi import (
    IDLE,
    TRANSMIT,
    ConvergenceError,
    DomainError,
    Explicit,
    ModelParams,
    Optimal,
    State,
    UnboundedAgeError,
    decide,
    evaluate_exact,
    modified_via,
    simulate,
    state_count,
    stationary_actions,
    transition,
)
from ehaoi import solver
from ehaoi.solver import (
    TIE_TOL,
    _certificate,
    _damp,
    _evaluate,
    _improve,
    _q_values,
    _runs,
    _tail,
)
from oracles import (
    ThresholdStructureError,
    bellman_backup_q,
    exact_evaluate,
    extract_policy,
    extract_thresholds,
    grid_actions,
    grid_values,
    q_value,
    relative_value_iteration,
)


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


REFERENCE = dict(
    p_block=0.2, battery_cap=20, cost_reliable=2.0, weight=10.0, delta_max=200
)


class TestSolverQValues:
    @pytest.mark.parametrize("size", ["minimal", "small", "reference"])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.0 - 1e-16])
    def test_match_the_written_out_dynamics(self, lam, size):
        # _q_values, which policy iteration and verify read, against the
        # term-by-term backup at ages 1..delta_max - 1, whose successors lie
        # on the grid; at lambda_e 1 - 1e-16 the written-out dynamics keep
        # the transmit branch below PROB_FLOOR that the solver drops
        if size == "minimal":
            m = tiny_params(lambda_e=lam, battery_cap=2, delta_max=2, cost_reliable=0.0)
        elif size == "small":
            m = tiny_params(lambda_e=lam, battery_cap=3, delta_max=7)
        else:
            m = ModelParams(lambda_e=lam, **REFERENCE)
        rng = np.random.default_rng(11)
        for scale in (1e-3, 1.0, 1e4):
            v = rng.normal(size=state_count(m)) * scale
            idle, tx = _q_values(v.reshape(m.battery_cap + 1, m.delta_max).T, m)
            want = reference_backup_q(v, m).reshape(2, m.battery_cap + 1, m.delta_max)
            want = want[:, :, :-1]
            tol = 1e-15 * np.abs(want).max()
            np.testing.assert_allclose(idle.T, want[IDLE], rtol=0.0, atol=tol)
            np.testing.assert_allclose(tx.T, want[TRANSMIT], rtol=0.0, atol=tol)


FIXED_POINTS = {
    "reference": ModelParams(lambda_e=0.5, **REFERENCE),
    "large": ModelParams(lambda_e=0.5, **{**REFERENCE, "battery_cap": 100, "delta_max": 400}),
}


class TestRegressionPins:
    """Solver output at eps 1e-9, bit for bit: the exact gain of the
    returned thresholds and the number of policy evaluations. At lambda_e
    0.99 from battery 6 up, and at weight 0.5 on batteries 0-19, the idle
    and transmit Q values tie at age 1 (their exact gap is within TIE_TOL;
    see the README), and the ties idle. At the large point the keep rule
    alone walks one age-2 boundary back and forth, at batteries 96, 4, 93,
    6, ... 35, over 37 evaluations; the half step (``_damp``) closes in on
    it in 8. The pins hold that search path."""

    @pytest.mark.parametrize(
        "point, gain, iterations, evals, thresholds",
        [
            (dict(lambda_e=0.5), "1.850888814810359", 5, 59,
             (11, 4, 3, 3, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1)),
            (dict(lambda_e=0.99), "1.26", 5, 59, (20,) + (2,) * 19 + (1,)),
            (dict(lambda_e=0.5, weight=0.5), "1.7500000000000002", 2, 41, (2,) * 20 + (1,)),
            (dict(lambda_e=0.5, battery_cap=100, delta_max=400), "1.8500000000004038", 8, 246,
             (11, 4) + (3,) * 34 + (2,) * 64 + (1,)),
        ],
        ids=["reference", "lambda-0.99", "weight-0.5", "large"],
    )
    def test_modified_via(self, point, gain, iterations, evals, thresholds):
        m = ModelParams(**{**REFERENCE, **point})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the solver never warns
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
        table = extract_policy(res.values, m).reshape(m.battery_cap + 1, m.delta_max)
        assert np.all(table[1:, :] == TRANSMIT)
        assert res.gain == pytest.approx(1.0 / 0.99, abs=1e-8)

    def test_gain_bracket_holds_the_gain(self):
        m = tiny_params(battery_cap=3, delta_max=25)
        rvi = relative_value_iteration(m, eps=1e-9)
        pi = modified_via(m, eps=1e-9)[0]
        for res in (rvi, pi):
            lo, hi = res.gain_bracket
            assert lo <= res.gain
            assert hi - lo == res.span_residual
        # RVI's gain is its Odoni bracket's midpoint; policy iteration's is
        # its policy's exact gain, the certificate's upper end up to the
        # rounding of the bias
        assert rvi.gain <= rvi.gain_bracket[1]
        assert rvi.gain == 0.5 * (rvi.gain_bracket[0] + rvi.gain_bracket[1])
        assert abs(pi.gain - pi.gain_bracket[1]) <= TIE_TOL

    def test_non_convergence_raises_with_diagnostics(self):
        with pytest.raises(ConvergenceError) as exc:
            relative_value_iteration(tiny_params(delta_max=40), eps=1e-12, max_iter=2)
        assert exc.value.iterations == 2
        assert exc.value.span_residual > 1e-12


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
        # the reference point, and two points with exact Q ties at age 1
        [{}, {"weight": 0.5}, {"lambda_e": 0.99}],
        ids=["reference", "weight0.5", "lambda0.99"],
    )
    def test_matches_full_argmin(self, overrides):
        # RVI's full argmin differs only at exact ties, states whose exact
        # gap is within TIE_TOL, which RVI's values (off by up to about eps)
        # resolve by their error; the exact gain lies in RVI's Odoni bracket
        m = ModelParams(**{**REFERENCE, "lambda_e": 0.5, **overrides})
        res, tp = modified_via(m, eps=1e-9)
        full = relative_value_iteration(m, eps=1e-9)
        moved = grid_actions(tp, m) != extract_policy(full.values, m)
        assert moved.any() == bool(overrides)
        q = bellman_backup_q(grid_values(res, m), m)
        assert np.abs(q[IDLE] - q[TRANSMIT])[moved].max(initial=0.0) <= TIE_TOL
        lo, hi = full.gain_bracket
        assert lo <= res.gain <= hi

    def test_argmin_work_bounded_by_thresholds(self, base_params, base_solution):
        res, tp = base_solution
        dm = base_params.delta_max
        expected = sum(min(t, dm) for t in tp.thresholds)
        assert res.argmin_evals == expected
        assert res.argmin_evals < state_count(base_params)

    def test_returns_a_policy_the_evaluators_take(self, base_params, base_solution):
        res, policy = base_solution
        assert type(policy) is Optimal
        first = policy.thresholds[0]
        assert decide(policy, State(first - 1, 0), 0) == IDLE
        assert decide(policy, State(first, 0), 0) == TRANSMIT
        exact = evaluate_exact(policy, base_params)
        assert abs(exact.average_cost - res.gain) <= 1e-10
        rep = simulate(policy, base_params, 200_000, 1)
        assert abs(rep.average_cost - res.gain) <= 3 * rep.ci_halfwidth

    @pytest.mark.parametrize("eps", [0.0, -1e-9, float("nan"), float("inf"), True])
    def test_bad_eps_rejected(self, eps):
        with pytest.raises(DomainError):
            modified_via(tiny_params(), eps=eps)


def threshold_table(thresholds):
    """The (battery, age <= L) table of a threshold vector, with L its
    largest threshold - 1; every age above L transmits."""
    t = np.array(thresholds)
    return np.arange(1, t.max()) >= t[:, None]


def _acceptance_points():
    """Every model tests/test_acceptance.py solves or enumerates."""
    ref = {**REFERENCE, "lambda_e": 0.5}
    points = [
        ModelParams(lambda_e=0.5, p_block=0.5, battery_cap=2, cost_reliable=2.0,
                    weight=1.0, delta_max=20),  # criterion 2
        ModelParams(**{**ref, "delta_max": 400}),  # criterion 8
    ]
    for p in (0.2, 0.4, 0.6):  # criteria 3 and 4
        for lam in (0.2, 0.5, 0.8):
            for w in (1.0, 10.0):
                points.append(ModelParams(**{**ref, "p_block": p, "lambda_e": lam, "weight": w}))
    points += [ModelParams(**{**ref, "weight": w}) for w in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)]
    points += [ModelParams(**{**ref, "lambda_e": lam}) for lam in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)]
    return points


class TestCertificate:
    """[min(Th - h), max(Th - h)] from one backup of an exact bias holds the
    optimal gain."""

    @pytest.mark.parametrize("point", list(FIXED_POINTS))
    def test_exact_gain_in_rvi_bracket(self, point):
        m = FIXED_POINTS[point]
        res, _ = modified_via(m, eps=1e-9)
        lo, hi = relative_value_iteration(m, eps=1e-9).gain_bracket
        assert lo <= res.gain <= hi

    def test_width_at_acceptance_points(self):
        for m in _acceptance_points():
            res, _ = modified_via(m, eps=1e-9)
            assert res.span_residual <= 1e-10, m
            assert res.span_history[-1] == res.span_residual
            assert res.span_history.shape == (res.iterations,)

    def test_eps_is_relative_to_the_gain(self):
        # a certificate 2.0e-9 wide on a gain of about 306 (its bias reaches
        # about 1.5e5): wider than 1e-9, but not than 1e-9 of the gain
        m = ModelParams(lambda_e=0.05, **{**REFERENCE, "p_block": 0.95, "weight": 1e4})
        res, tp = modified_via(m, eps=1e-9)
        assert 1e-9 < res.span_residual <= 1e-9 * res.gain
        assert abs(evaluate_exact(tp, m).average_cost - res.gain) <= 1e-12 * res.gain
        with pytest.raises(ConvergenceError, match="times the gain") as exc:
            modified_via(m, eps=0.5 * res.span_residual / res.gain)
        assert exc.value.span_residual == res.span_residual

    @pytest.mark.parametrize("point", list(FIXED_POINTS))
    def test_late_thresholds_bound_the_optimum(self, point):
        # every threshold one age later: that policy's certificate still
        # holds the optimal gain, so its lower end is at most that policy's
        # exact gain, and its upper end is at least the optimum
        m = FIXED_POINTS[point]
        res, tp = modified_via(m, eps=1e-9)
        gain, H = _evaluate(threshold_table([t + 1 for t in tp.thresholds]), m, [])
        lo, hi = _certificate(H, *_q_values(H, m))
        assert lo <= res.gain <= hi
        assert lo <= gain
        assert res.gain < gain


class TestHardPoint:
    def test_gain_does_not_depend_on_the_age_cap(self):
        # lambda_e 0.01, p_block 0.99, weight 100: truncated at 200 ages,
        # the solver used to return rows that never transmit (201, 201,
        # 199, ...), which the age cap made look cheap (gain 198.01)
        gains = {}
        for dm in (200, 400):
            m = ModelParams(lambda_e=0.01, p_block=0.99, battery_cap=20,
                            cost_reliable=2.0, weight=100.0, delta_max=dm)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # the solver never warns
                res, tp = modified_via(m, eps=1e-9)
            assert tp.thresholds == (124,) * 20 + (78,)
            assert res.span_residual <= 1e-9
            gains[dm] = res.gain
        assert abs(gains[200] - gains[400]) <= 1e-9
        assert abs(gains[200] - 221.883408071748) <= 1e-9


def plain_evaluate(send, m):
    """``_evaluate`` written out age by age from ``_tail``'s blocks, with
    the same arithmetic in the same order."""
    t = _tail(m)
    B1, L = send.shape
    q = np.arange(B1)
    act = send.astype(np.intp)

    def advance(x, ac):
        c, w = t.cols[ac, q], t.weights[ac, q]
        w = w.reshape(w.shape + (1,) * (x.ndim - 1))
        return w[:, 0] * x[c[:, 0]] + w[:, 1] * x[c[:, 1]]

    A = np.empty((B1, B1 + 2))
    A[:, :B1] = t.MR
    A[:, B1] = -t.slope
    A[:, B1 + 1] = (L + 1) * t.slope + t.kappa0
    for a in range(L, 0, -1):
        ac = act[:, a - 1]
        A = advance(A, ac)
        A[:, :B1] += t.R[ac, q]
        A[:, B1] -= 1.0
        A[:, B1 + 1] += a
        A[0, B1 + 1] += t.paid * ac[0]
    lhs = -A[:, : B1 + 1]
    lhs[q, q] += 1.0
    lhs[:, B1 - 1] = lhs[:, B1]
    x = np.linalg.solve(lhs[:, :B1], A[:, B1 + 1])
    gain = float(x[-1])
    h1 = x.copy()
    h1[-1] = 0.0
    kappa = t.kappa0 + t.MR @ h1 - t.slope * gain
    H = np.empty((L + 3, B1))
    H[L:] = np.arange(L + 1, L + 4)[:, None] * t.slope + kappa
    resets = np.zeros((2, B1))
    resets[TRANSMIT] = (t.reset_weights[:, 0] * h1[t.reset_cols[:, 0]]
                        + t.reset_weights[:, 1] * h1[t.reset_cols[:, 1]])
    for a in range(L, 1, -1):
        ac = act[:, a - 1]
        H[a - 1] = a - gain + advance(H[a], ac) + resets[ac, q]
        H[a - 1, 0] += t.paid * ac[0]
    H[0] = h1
    return gain, H


class TestEvaluate:
    """The evaluation pass on the untruncated chain."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_plain_loop_bit_for_bit(self, seed):
        # random and threshold-form tables, with runs of equal columns of
        # every length from 1 up
        rng = np.random.default_rng(seed)
        m = ModelParams(
            lambda_e=float(rng.uniform(0.05, 0.99)), p_block=float(rng.uniform(0.05, 0.95)),
            battery_cap=int(rng.integers(2, 25)), cost_reliable=float(rng.uniform(0.0, 3.0)),
            weight=float(rng.uniform(0.1, 50.0)), delta_max=50,
        )
        L = int(rng.integers(0, 40))
        if seed % 2:
            th = rng.integers(1, L + 2, m.battery_cap + 1)
            send = np.arange(1, L + 1) >= th[:, None]
        else:
            send = rng.random((m.battery_cap + 1, L)) < 0.5
        # then through one kept state: the table with only its lowest run
        # changed, then its top run too, then with one more age
        low, top = send.copy(), send.copy()
        if L:
            low[0, 0] = not low[0, 0]
            top = low.copy()
            top[0, -1] = not top[0, -1]
        wider = np.hstack([top, rng.random((m.battery_cap + 1, 1)) < 0.5])
        kept = []
        for i, table in enumerate([send, low, top, wider]):
            before = [carry for _, carry in kept]
            ref_gain, ref_H = plain_evaluate(table, m)
            for route in (_evaluate(table, m, []), _evaluate(table, m, kept)):
                gain, H = route
                assert gain == ref_gain
                np.testing.assert_array_equal(H, ref_H)
            if i == 1:
                # the lowest run, and the one above it if they merged, is
                # re-walked; the carries of every run above are reused
                assert all(a is b for a, (_, b) in zip(before[:-2], kept))

    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_keeps_only_the_carries_that_fit(self, k, monkeypatch):
        # room for exactly k (B1, B1 + 2) carries: the top k runs keep theirs
        m = ModelParams(lambda_e=0.6, p_block=0.3, battery_cap=6, cost_reliable=2.0,
                        weight=10.0, delta_max=50)
        B1 = m.battery_cap + 1
        monkeypatch.setattr(solver, "MAX_TABLE_CELLS", k * B1 * (B1 + 2))
        send = np.random.default_rng(k).random((B1, 12)) < 0.5
        low = send.copy()
        low[0, 0] = not low[0, 0]
        assert len(_runs(low)) > k + 2
        kept = []
        for i, table in enumerate([send, low]):
            before = [carry for _, carry in kept]
            gain, H = _evaluate(table, m, kept)
            ref_gain, ref_H = plain_evaluate(table, m)
            assert gain == ref_gain
            np.testing.assert_array_equal(H, ref_H)
            assert len(kept) == k
            if i == 1:  # only the lowest run changed: every kept carry is reused
                assert all(a is b for a, (_, b) in zip(before, kept))

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_exact_evaluator(self, seed):
        # random small models and tables; both routes work on the chain
        # whose age is never truncated, so any cap above the 13 ages the
        # bias check below reads will do
        rng = np.random.default_rng(seed)
        m = ModelParams(
            lambda_e=float(rng.uniform(0.05, 0.95)), p_block=float(rng.uniform(0.05, 0.5)),
            battery_cap=int(rng.integers(2, 6)), cost_reliable=float(rng.uniform(0.0, 3.0)),
            weight=float(rng.uniform(0.5, 20.0)), delta_max=16,
        )
        send = rng.random((m.battery_cap + 1, int(rng.integers(1, 12)))) < 0.5
        table = np.ones((m.battery_cap + 1, m.delta_max), dtype=np.int8)
        table[:, : send.shape[1]] = send
        rep = evaluate_exact(Explicit(table), m)
        gain, H = _evaluate(send, m, [])
        assert abs(gain - rep.average_cost) <= 1e-12
        # the bias solves the policy's own equation h = c - g + P h
        idle, tx = _q_values(H, m)
        follows = np.where(table[:, : len(H) - 1].T == TRANSMIT, tx, idle)
        np.testing.assert_allclose(follows - H[:-1], gain, rtol=0.0, atol=1e-12)
        assert H[0, -1] == 0.0

    @pytest.mark.parametrize("lam, p, weight", [(0.3, 0.2, 10.0), (0.5, 0.7, 1.0), (0.9, 0.5, 20.0)])
    def test_zero_wait_closed_form(self, lam, p, weight):
        m = tiny_params(lambda_e=lam, p_block=p, battery_cap=4, weight=weight)
        gain, _ = _evaluate(np.zeros((m.battery_cap + 1, 0), dtype=bool), m, [])
        closed = 1.0 / (1.0 - p) + weight * m.cost_reliable * (1.0 - lam)
        assert abs(gain - closed) <= 1e-12


class TestDegenerateModels:
    """lambda_e or p_block within about 1e-15 of 1, where _blocks drops
    both transmit branches that lower the battery, or both that
    reset the age."""

    @pytest.mark.parametrize(
        "lam, p, cap, weight",
        [(1.0, 0.01, 2, 10.0), (1.0, 0.3, 20, 10.0), (1.0, 0.8, 5, 0.5),
         (1.0 - 1e-16, 0.5, 20, 1000.0), (1.0 - 1e-16, 0.95, 100, 100.0)],
    )
    def test_battery_that_never_falls(self, lam, p, cap, weight):
        # free energy every slot: the optimum transmits at every age once
        # the battery is full, so the gain is the mean age under constant
        # updating; batteries 1..cap - 1 idle at age 1 on the way up
        m = ModelParams(lambda_e=lam, p_block=p, battery_cap=cap, cost_reliable=2.0,
                        weight=weight, delta_max=200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the solver never warns
            res, tp = modified_via(m, eps=1e-9)
        assert abs(res.gain * (1.0 - p) - 1.0) <= 1e-12
        assert res.span_residual <= 1e-9
        assert tp.thresholds[1:-1] == (2,) * (cap - 1)
        assert tp.thresholds[-1] == 1
        lo, hi = res.gain_bracket
        assert lo <= res.gain

    def test_no_row_closes_its_own_class(self):
        # at lambda_e 1 a row that transmits at every age keeps the battery
        # where it is, a closed class of its own. Started idle at age 1 on
        # batteries 0..19 but not held there, the improvement makes some
        # rows of this model transmit at every age, and the bias solve is
        # singular
        m = ModelParams(lambda_e=1.0, p_block=0.95, battery_cap=20, cost_reliable=2.0,
                        weight=10.0, delta_max=200)
        res, tp = modified_via(m, eps=1e-9)
        assert abs(res.gain - 20.0) <= 1e-12
        assert tp.thresholds[1:] == (2,) * 19 + (1,)
        assert res.iterations <= 12

    @pytest.mark.parametrize("keep", [True, False])
    def test_pin_holds_the_middle_rows_idle_at_age_one(self, keep):
        # transmitting is better everywhere by far more than TIE_TOL; only
        # batteries 1..battery_cap - 1 stay idle, and only at age 1
        m = tiny_params(lambda_e=1.0, battery_cap=3)
        send = np.zeros((4, 2), dtype=bool)
        gap = np.ones((3, 4))
        rise = _tail(m).rise
        assert _improve(send, gap, rise, keep, False).shape == (4, 0)  # all-transmit
        pinned = _improve(send, gap, rise, keep, True)
        np.testing.assert_array_equal(pinned, [[True], [False], [False], [True]])

    @pytest.mark.parametrize("p", [0.2, 0.4, 0.6, 0.8])
    @pytest.mark.parametrize("lam", [1.0 - 1e-15, 1.0 - 2e-15, 1.0 - 4e-15])
    def test_pin_at_the_floor(self, monkeypatch, lam, p):
        # the two transmit branches that lower the battery fall below
        # PROB_FLOOR apart (at lambda_e 1 - 2e-15, p_block 0.4, only the
        # blocked one does): the middle rows are pinned exactly where no
        # transmission at battery 1 can reach battery 0
        pins = []

        def recording(send, gap, rise, keep, pin):
            pins.append(pin)
            return _improve(send, gap, rise, keep, pin)

        monkeypatch.setattr(solver, "_improve", recording)
        m = ModelParams(lambda_e=lam, **REFERENCE)
        falls = any(s.battery == 0 for s, _ in transition(State(1, 1), TRANSMIT, m).entries)
        res, tp = modified_via(m, eps=1e-9)
        assert pins and set(pins) == {not falls}
        exact = evaluate_exact(tp, m).average_cost
        assert abs(res.gain - exact) <= 1e-14 * exact

    def test_gain_in_the_oracle_bracket(self):
        m = tiny_params(lambda_e=1.0, battery_cap=3, delta_max=30)
        res, _ = modified_via(m, eps=1e-9)
        lo, hi = relative_value_iteration(m, eps=1e-9).gain_bracket
        assert lo <= res.gain <= hi

    def test_age_that_never_resets(self):
        # at p_block 1 - 1e-16 both resetting branches fall below
        # PROB_FLOOR: the untruncated age grows for ever
        for lam in (0.5, 1.0):
            m = tiny_params(lambda_e=lam, p_block=1.0 - 1e-16, battery_cap=3, delta_max=12)
            with pytest.raises(UnboundedAgeError, match="the average age is unbounded"):
                modified_via(m, eps=1e-9)

    def test_solver_and_evaluator_give_one_message(self):
        # the solve fails where evaluating any policy does, and says so alike
        m = tiny_params(p_block=1.0 - 1e-16, battery_cap=3, delta_max=12)
        with pytest.raises(UnboundedAgeError) as solved:
            modified_via(m, eps=1e-9)
        with pytest.raises(UnboundedAgeError) as evaluated:
            evaluate_exact(Optimal((1,) * 4), m)
        assert str(solved.value) == str(evaluated.value) == str(UnboundedAgeError())


class TestRepeatedTable:
    def test_cycle_ends_at_the_first_table_seen_twice(self, monkeypatch):
        # at this model the Q gaps of exact ties at age 1 are rounding that
        # depends on the table, and exceeds TIE_TOL, so the tables repeat
        # with period 10 and the search used to run to its evaluation cap
        evaluated = []

        def recording(send, m, kept):
            evaluated.append(send.copy())
            return _evaluate(send, m, kept)

        monkeypatch.setattr(solver, "_evaluate", recording)
        monkeypatch.setattr(solver, "MAX_EVALUATIONS", 200)
        m = ModelParams(**{**REFERENCE, "lambda_e": 0.95, "p_block": 0.95, "weight": 0.5})
        res, tp = modified_via(m, eps=1e-9)
        assert res.iterations == len(evaluated) < 200
        last = evaluated[-1]
        repeats = [i for i, t in enumerate(evaluated[:-1]) if np.array_equal(t, last)]
        assert len(repeats) == 1
        assert len({(t.shape, t.tobytes()) for t in evaluated[:-1]}) == len(evaluated) - 1
        assert tp.thresholds == tuple(np.hstack([last, np.ones((21, 1), bool)]).argmax(axis=1) + 1)
        assert res.span_residual <= 1e-9
        lo, hi = res.gain_bracket
        assert lo <= res.gain


def table(*firsts):
    """An 8-battery table whose age column a transmits from battery
    firsts[a] up."""
    return np.arange(8)[:, None] >= np.array(firsts, dtype=int)


def rows(lo, hi):
    """A one-age, 8-battery mask of batteries lo..hi - 1."""
    return (np.arange(8)[:, None] >= lo) & (np.arange(8)[:, None] < hi)


class TestHalfStep:
    # the walk prev -> send -> nxt switches batteries at age 1 back to their
    # action in prev; ``last`` holds what the step prev -> send switched back
    @pytest.mark.parametrize(
        "prev, send, nxt, last, damped, back",
        [
            # rows 2-5 return to idle and row 1 below idles: the lower half
            ((6,), (2,), (6,), rows(2, 6), (4,), rows(2, 4)),
            # rows 2-6 return to transmit and row 7 above transmits: the
            # upper 3 of the 5, the half rounding up
            ((2,), (7,), (2,), rows(2, 7), (4,), rows(4, 7)),
            # a one-row run switches in full
            ((3,), (2,), (3,), rows(2, 3), (3,), rows(2, 3)),
            # a run with no neighbour that idles switches in full
            ((8,), (0,), (8,), rows(0, 8), (8,), rows(0, 8)),
        ],
        ids=["lower-neighbour", "upper-neighbour", "one-row", "no-neighbour"],
    )
    def test_run_switches_its_half_next_to_the_action(self, prev, send, nxt, last, damped, back):
        to, switched = _damp(table(*send), table(*nxt), table(*prev), last)
        np.testing.assert_array_equal(to, table(*damped))
        np.testing.assert_array_equal(switched, back)

    @pytest.mark.parametrize("last", [rows(0, 0), rows(6, 8), np.zeros((8, 0), bool)])
    def test_first_switch_back_is_whole(self, last):
        # the previous step switched none of rows 2-5 back
        nxt = table(6)
        to, switched = _damp(table(2), nxt, table(6), last)
        assert to is nxt
        np.testing.assert_array_equal(switched, rows(2, 6))

    def test_other_changes_are_whole(self):
        # prev is one age wide, so it transmits at age 2: rows 1-4 idling
        # there is no switch back and is made in full, while age 1 halves
        to, switched = _damp(table(2, 1), table(6, 5), table(6), rows(2, 6))
        np.testing.assert_array_equal(to, table(4, 5))
        np.testing.assert_array_equal(switched, np.hstack([rows(2, 4), rows(0, 0)]))

    def test_large_point_evaluates_at_most_ten_tables(self, monkeypatch):
        # the keep rule alone walks the age-2 boundary between thresholds 3
        # and 2 back and forth over 37 evaluations
        evaluated = []

        def recording(send, m, kept):
            evaluated.append(send.copy())
            return _evaluate(send, m, kept)

        monkeypatch.setattr(solver, "_evaluate", recording)
        res, tp = modified_via(FIXED_POINTS["large"], eps=1e-9)
        assert res.iterations == len(evaluated) <= 10
        assert tp.thresholds == (11, 4) + (3,) * 34 + (2,) * 64 + (1,)


class TestBiasAccuracy:
    @pytest.mark.parametrize(
        "cap",
        [
            20,
            60,
            pytest.param(100, marks=pytest.mark.xfail(
                strict=True, raises=ConvergenceError,
                reason="_evaluate's bias misses its Poisson equation by about 1e-7 at "
                       "battery_cap 100, so the certificate is wider than eps times the gain",
            )),
        ],
    )
    def test_bias_satisfies_its_poisson_equation(self, cap):
        # max |Q_pi - h - g| grows with battery_cap: 6.8e-14 at 20, 1.7e-10
        # at 60
        m = ModelParams(lambda_e=0.8, p_block=0.8, battery_cap=cap, cost_reliable=2.0,
                        weight=10.0, delta_max=200)
        res, tp = modified_via(m, eps=1e-9)
        H = res.values.T
        idle, tx = _q_values(H, m)
        own = np.where(np.arange(1, len(H))[:, None] >= np.array(tp.thresholds), tx, idle)
        assert np.abs(own - H[:-1] - res.gain).max() <= 1e-9 * res.gain


class TestFarThresholds:
    @pytest.mark.parametrize("weight, threshold", [(100.0, 101), (1000.0, 1001)])
    def test_threshold_far_past_the_cap(self, weight, threshold):
        # battery 0's best threshold is about weight * cost_reliable / 2,
        # past delta_max = 200 at weight 1000; a table at most doubles per
        # step, so that takes a few evaluations
        m = ModelParams(**{**REFERENCE, "lambda_e": 0.5, "weight": weight})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the solver never warns
            res, tp = modified_via(m, eps=1e-9)
        assert tp.thresholds[0] == threshold
        assert res.iterations <= 12
        lo, hi = res.gain_bracket
        assert lo <= res.gain and hi - lo <= 1e-9

    @pytest.mark.parametrize("keep", [True, False])
    @pytest.mark.parametrize("L", [0, 1, 5])
    def test_step_at_most_doubles_the_table(self, keep, L):
        # battery 1's gap at age L + 1 asks for idling about 1e6 ages past
        # the table; the step idles there only up to age 2L + 2
        m = tiny_params(battery_cap=3)
        send = np.ones((4, L), dtype=bool)
        gap = np.ones((L + 1, 4))
        gap[-1, 1] = -1e6
        nxt = _improve(send, gap, _tail(m).rise, keep, False)
        assert nxt.shape == (4, 2 * L + 2)
        assert not nxt[1, L:].any() and nxt[[0, 2, 3]].all()

    @pytest.mark.parametrize("weight", [1000.0, 1e300])
    def test_table_cap_raises(self, weight, monkeypatch):
        # a threshold of about 1001 needs 21 * 1001 cells; 1e300 would
        # double the table until it ran out of memory
        monkeypatch.setattr(solver, "MAX_TABLE_CELLS", 21 * 500)
        m = ModelParams(**{**REFERENCE, "lambda_e": 0.5, "weight": weight})
        with pytest.raises(ConvergenceError, match="more than 10500 .battery, age. cells"):
            modified_via(m, eps=1e-9)


def fsum_backup_q(v, m, ages):
    """Idle and transmit Q values of ``v`` (the (battery, age) grid) at
    ``ages``, every sum taken by math.fsum from the written-out dynamics."""
    lam, p = m.lambda_e, m.p_block
    cap = m.battery_cap
    q_idle = np.empty((cap + 1, len(ages)))
    q_tx = np.empty_like(q_idle)
    for q in range(cap + 1):
        left = max(q - 1, 0)
        for j, d in enumerate(ages):
            if q < cap:
                q_idle[q, j] = math.fsum([d, lam * v[q + 1, d], (1.0 - lam) * v[q, d]])
            else:
                q_idle[q, j] = math.fsum([d, v[q, d]])
            q_tx[q, j] = math.fsum([
                d, m.weight * m.cost_reliable if q == 0 else 0.0,
                p * lam * v[left + 1, d], (1.0 - p) * lam * v[left + 1, 0],
                p * (1.0 - lam) * v[left, d], (1.0 - p) * (1.0 - lam) * v[left, 0],
            ])
    return q_idle, q_tx


class TestExactOracle:
    """``_evaluate`` and the Q gaps against ``exact_evaluate``, the same
    evaluation in ``Fraction`` on the same ``_blocks`` entries."""

    @pytest.mark.parametrize("table", ["solved", "random"])
    def test_float_evaluation_matches_the_exact_one(self, table):
        m = ModelParams(lambda_e=0.5, **{**REFERENCE, "battery_cap": 5})
        if table == "solved":
            _, tp = modified_via(m, eps=1e-9)
            send = np.arange(1, max(tp.thresholds)) >= np.array(tp.thresholds)[:, None]
        else:
            send = np.random.default_rng(5).random((6, 8)) < 0.5
        gain, H, gaps = exact_evaluate(send, m)
        fgain, fH = _evaluate(send, m, [])
        idle, tx = _q_values(fH, m)
        assert abs(fgain - float(gain)) <= 1e-12
        np.testing.assert_allclose(fH, np.array(H, dtype=float), rtol=0.0, atol=1e-12)
        fgaps = (idle - tx)[: send.shape[1] + 1]
        np.testing.assert_allclose(fgaps, np.array(gaps, dtype=float), rtol=0.0, atol=1e-12)

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="at battery 2, age 1 the exact idle-minus-transmit gap is -8.0e-15, a tie "
               "that idles, but the float gap reads +2.1e-13, past TIE_TOL, so the solver "
               "returns threshold 1 there instead of 2",
    )
    def test_thresholds_follow_the_tie_rule_on_the_exact_gaps(self):
        # "transmit iff better by more than TIE_TOL", applied to the exact
        # gaps of the returned table at ages 1..L + 1
        m = ModelParams(lambda_e=0.95, **{**REFERENCE, "p_block": 0.95, "weight": 0.5,
                                          "battery_cap": 5})
        _, tp = modified_via(m, eps=1e-9)
        th = np.array(tp.thresholds)
        send = np.arange(1, th.max()) >= th[:, None]
        _, _, gaps = exact_evaluate(send, m)
        rule = np.array([[gap > TIE_TOL for gap in row] for row in gaps])
        np.testing.assert_array_equal(rule, np.arange(1, th.max() + 1)[:, None] >= th)


class TestTieRule:
    @pytest.mark.parametrize(
        "point",
        ["reference", "large", "weight0.5", "lambda0.9", "lambda0.99"],
    )
    def test_thresholds_survive_an_fsum_recompute(self, point):
        # the Q values recomputed from the exact bias with correctly rounded
        # sums give the same thresholds under the same tie rule
        m = FIXED_POINTS.get(point) or ModelParams(**{
            **REFERENCE, "lambda_e": 0.5,
            **{"weight0.5": {"weight": 0.5}, "lambda0.9": {"lambda_e": 0.9},
               "lambda0.99": {"lambda_e": 0.99}}[point],
        })
        res, tp = modified_via(m, eps=1e-9)
        ages = range(1, max(tp.thresholds) + 2)
        q_idle, q_tx = fsum_backup_q(res.values, m, ages)
        send = q_tx < q_idle - TIE_TOL
        assert send.any(axis=1).all()
        assert tuple(int(t) for t in send.argmax(axis=1) + 1) == tp.thresholds
        assert (send == (np.array(ages) >= np.array(tp.thresholds)[:, None])).all()

    @pytest.mark.parametrize(
        "point",
        ["reference", "large", "weight0.5", "lambda0.9", "lambda0.99", "hard"],
    )
    def test_returned_table_is_stable_under_the_strict_rule(self, point):
        # the search ends only where "transmit iff better by more than
        # TIE_TOL" leaves the table as it is, so no returned row transmits
        # at a tie
        m = FIXED_POINTS.get(point) or ModelParams(**{
            **REFERENCE, "lambda_e": 0.5,
            **{"weight0.5": {"weight": 0.5}, "lambda0.9": {"lambda_e": 0.9},
               "lambda0.99": {"lambda_e": 0.99},
               "hard": {"lambda_e": 0.01, "p_block": 0.99, "weight": 100.0}}[point],
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the solver never warns
            _, tp = modified_via(m, eps=1e-9)
        th = np.array(tp.thresholds)
        send = np.arange(1, th.max()) >= th[:, None]
        _, H = _evaluate(send, m, [])
        idle, tx = _q_values(H, m)
        gap = (idle - tx)[: send.shape[1] + 1]
        np.testing.assert_array_equal(_improve(send, gap, _tail(m).rise, False, False), send)


class TestOptimal:
    def test_expand_layout(self):
        m = tiny_params()
        table = grid_actions(Optimal((2, 1, 5)), m).reshape(3, 4)
        np.testing.assert_array_equal(table[0], [0, 1, 1, 1])
        np.testing.assert_array_equal(table[1], [1, 1, 1, 1])
        np.testing.assert_array_equal(table[2], [0, 0, 0, 0])  # 5 > delta_max: never

    def test_expand_length_mismatch(self):
        with pytest.raises(DomainError):
            stationary_actions(Optimal((1, 1)), tiny_params())

    @pytest.mark.parametrize("bad", [(), (0,), (1.5,), (1, -2)])
    def test_invalid_thresholds(self, bad):
        with pytest.raises(DomainError):
            Optimal(bad)

    def test_bool_threshold_rejected(self):
        with pytest.raises(DomainError):
            Optimal((True, 2, 1))


class TestExtractThresholds:
    def test_all_idle_row_maps_to_never(self):
        m = tiny_params()
        tp = extract_thresholds(np.zeros(state_count(m), dtype=np.int8), m)
        assert tp.thresholds == (5, 5, 5)

    def test_all_transmit_maps_to_one(self):
        m = tiny_params()
        tp = extract_thresholds(np.ones(state_count(m), dtype=np.int8), m)
        assert tp.thresholds == (1, 1, 1)

    def test_round_trips_expansion(self):
        m = tiny_params()
        tp = Optimal((2, 2, 1))
        assert extract_thresholds(grid_actions(tp, m), m) == tp

    def test_hole_raises_with_witness(self):
        m = tiny_params()
        table = np.zeros((3, 4), dtype=np.int8)
        table[1] = [0, 1, 0, 1]  # transmit at age 2, idle again at age 3
        with pytest.raises(ThresholdStructureError) as exc:
            extract_thresholds(table.reshape(-1), m)
        assert exc.value.witnesses == [(1, 2, 3)]
