import dataclasses
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order, connected_components
from scipy.sparse.linalg import spsolve
from scipy.stats import chisquare
from scipy.stats import t as student_t

from ehaoi import (
    ACTIONS,
    IDLE,
    TRANSMIT,
    DomainError,
    Explicit,
    ModelParams,
    Optimal,
    Periodic,
    ReducibleChainError,
    State,
    EvalReport,
    ZeroWait,
    decide,
    enumerate_states,
    evaluate_exact,
    kernel_arrays,
    modified_via,
    simulate,
    step,
    transition,
)
from ehaoi import evaluator
from ehaoi.evaluator import (
    CI_BATCHES,
    T_975_19,
    UnboundedAgeError,
    _gth,
    _recurrent_class,
    _renewal,
)
from ehaoi.model import _blocks
from ehaoi.solver import MAX_TABLE_CELLS
from oracles import grid_actions


def params(**overrides):
    kw = dict(
        lambda_e=0.5,
        p_block=0.2,
        battery_cap=2,
        cost_reliable=2.0,
        weight=10.0,
        delta_max=40,
    )
    kw.update(overrides)
    return ModelParams(**kw)


class TestStep:
    def test_success_resets_age_and_drains(self):
        m = params()
        cost, nxt = step(State(7, 2), TRANSMIT, 0, 0, m)
        assert nxt == State(1, 1)
        assert cost == 7.0

    def test_blocked_transmission_still_drains(self):
        m = params()
        _, nxt = step(State(7, 2), TRANSMIT, 0, 1, m)
        assert nxt == State(8, 1)

    def test_empty_battery_pays_and_banks_arrival(self):
        m = params()
        cost, nxt = step(State(7, 0), TRANSMIT, 1, 0, m)
        assert nxt == State(1, 1)
        assert cost == 7.0 + 20.0

    def test_idle_harvest_caps_at_battery_size(self):
        m = params()
        _, nxt = step(State(2, 2), IDLE, 1, 0, m)
        assert nxt == State(3, 2)

    def test_age_is_not_truncated(self):
        # the physical system ages freely past any solver cap
        m = params(delta_max=4)
        s = State(1, 0)
        for _ in range(100):
            _, s = step(s, IDLE, 0, 0, m)
        assert s.aoi == 101

    def test_rejects_bad_inputs(self):
        m = params()
        with pytest.raises(DomainError):
            step(State(0, 0), IDLE, 0, 0, m)
        with pytest.raises(DomainError):
            step(State(1, 3), IDLE, 0, 0, m)
        with pytest.raises(DomainError):
            step(State(1, 0), 2, 0, 0, m)
        with pytest.raises(DomainError):
            step(State(1, 0), IDLE, 2, 0, m)


class TestStepMatchesKernel:
    def combo_weights(self, m):
        lam, p = m.lambda_e, m.p_block
        return {
            (1, 1): lam * p,
            (1, 0): lam * (1.0 - p),
            (0, 1): (1.0 - lam) * p,
            (0, 0): (1.0 - lam) * (1.0 - p),
        }

    def test_weighted_outcomes_reproduce_kernel(self):
        # marginalizing the physical step over both Bernoulli draws must
        # give back the kernel row exactly (after age truncation)
        m = params(lambda_e=0.3, delta_max=4)
        for s in enumerate_states(m):
            for a in ACTIONS:
                dist = {}
                for (e, b), w in self.combo_weights(m).items():
                    _, ns = step(s, a, e, b, m)
                    ns = State(min(ns.aoi, m.delta_max), ns.battery)
                    dist[ns] = dist.get(ns, 0.0) + w
                expected = dict(transition(s, a, m))
                assert dist == pytest.approx(expected, abs=1e-15)

    def test_sampled_outcomes_match_kernel_frequencies(self):
        # chi-square on 1e5 multinomial draws per state-action pair
        m = params(lambda_e=0.3, delta_max=4)
        rng = np.random.default_rng(20260817)
        n_draws = 100_000
        combos = list(self.combo_weights(m).items())
        for s in enumerate_states(m):
            for a in ACTIONS:
                counts = rng.multinomial(n_draws, [w for _, w in combos])
                obs = {}
                for ((e, b), _), c in zip(combos, counts):
                    _, ns = step(s, a, e, b, m)
                    ns = State(min(ns.aoi, m.delta_max), ns.battery)
                    obs[ns] = obs.get(ns, 0) + int(c)
                expected = dict(transition(s, a, m))
                assert set(obs) <= set(expected)
                support = list(expected)
                f_obs = [obs.get(ns, 0) for ns in support]
                if len(support) == 1:
                    assert f_obs[0] == n_draws
                    continue
                _, pvalue = chisquare(f_obs, [expected[ns] * n_draws for ns in support])
                assert pvalue > 0.001, (s, a, pvalue)


class TestRecurrentClass:
    def test_two_reachable_sinks_raise(self):
        P = sparse.csr_matrix(
            np.array([[0.0, 0.5, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        )
        with pytest.raises(ReducibleChainError) as exc:
            _recurrent_class(P.indptr, P.indices, start=0)
        assert exc.value.closed_classes == 2

    def test_unreachable_sink_is_ignored(self):
        P = sparse.csr_matrix(
            np.array([[1.0, 0.0], [0.0, 1.0]])
        )
        np.testing.assert_array_equal(_recurrent_class(P.indptr, P.indices, start=0), [0])

    def test_transient_prefix_is_excluded(self):
        P = sparse.csr_matrix(
            np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        )
        np.testing.assert_array_equal(_recurrent_class(P.indptr, P.indices, start=0), [1, 2])

    @pytest.mark.parametrize("unreachable", [0, 1, 300_000])
    def test_long_path_and_unreachable_states(self, unreachable):
        # a path i -> i + 1 of 200 000 states whose last state loops on
        # itself, as deep a search as a chain can ask for; after it, a
        # cycle that is a second closed class and a path into state 0,
        # neither reachable from state 0
        n, half = 200_000, unreachable // 2
        indices = np.concatenate([
            np.minimum(np.arange(1, n + 1), n - 1),
            n + (np.arange(1, half + 1) % max(half, 1)),
            np.append(np.arange(n + half + 1, n + unreachable), 0)[: unreachable - half],
        ])
        indptr = np.arange(indices.size + 1)
        np.testing.assert_array_equal(_recurrent_class(indptr, indices, 0), [n - 1])
        if half:  # the cycle is a closed class of its own
            np.testing.assert_array_equal(
                _recurrent_class(indptr, indices, n), np.arange(n, n + half)
            )

    @staticmethod
    def sorted_reference(P, start):
        """Component labels, the labels of the closed classes reachable from
        ``start`` and of all closed classes, found by sorting: the classes
        some edge leaves are open, the rest closed."""
        _, labels = connected_components(P, directed=True, connection="strong")
        coo = P.tocoo()
        crossing = labels[coo.row] != labels[coo.col]
        open_labels = np.unique(labels[coo.row[crossing]])
        reachable = breadth_first_order(P, start, directed=True, return_predecessors=False)
        candidates = np.setdiff1d(np.unique(labels[reachable]), open_labels)
        return labels, candidates, np.setdiff1d(np.unique(labels), open_labels)

    def test_matches_sorted_reference_on_random_digraphs(self):
        # A finite digraph always reaches a closed class, so the count of
        # reachable closed classes is 1 or more, never 0.
        seen = {"one": 0, "several": 0, "transient_start": 0, "unreachable_sink": 0}
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 30))
            density = rng.uniform(0.02, 0.25)
            weights = (rng.random((n, n)) < density) * rng.uniform(0.1, 1.0, (n, n))
            P = sparse.csr_matrix(weights)
            start = int(rng.integers(n))
            labels, candidates, closed = self.sorted_reference(P, start)
            assert candidates.size >= 1
            if candidates.size == 1:
                seen["one"] += 1
                expected = np.flatnonzero(labels == candidates[0])
                got = _recurrent_class(P.indptr, P.indices, start)
                np.testing.assert_array_equal(got, expected)
                seen["transient_start"] += start not in expected
            else:
                seen["several"] += 1
                message = (
                    f"^{candidates.size} closed communicating classes reachable "
                    "from the start state; the long-run average is ambiguous$"
                )
                with pytest.raises(ReducibleChainError, match=message) as exc:
                    _recurrent_class(P.indptr, P.indices, start)
                assert exc.value.closed_classes == candidates.size
            seen["unreachable_sink"] += closed.size > candidates.size
        assert min(seen.values()) >= 10, seen


class TestStationaryDist:
    def chain(self):
        rng = np.random.default_rng(5)
        P = rng.uniform(size=(40, 40)) ** 4
        P /= P.sum(axis=1, keepdims=True)
        return sparse.csr_matrix(P)

    def test_direct_solves_balance_equations(self):
        P = self.chain()
        mu = _stationary_dist(P)
        np.testing.assert_allclose(mu @ P.toarray(), mu, atol=1e-12)
        assert mu.sum() == pytest.approx(1.0)

    def test_gth_matches_direct(self):
        P = self.chain()
        np.testing.assert_allclose(_gth(P.toarray()), _stationary_dist(P), rtol=0, atol=1e-14)

    def test_gth_handles_two_cycle(self):
        np.testing.assert_array_equal(_gth(np.array([[0.0, 1.0], [1.0, 0.0]])), [0.5, 0.5])

    def test_gth_exit_that_underflowed(self):
        # state 1 has no exit back to state 0 (in floating point), so all
        # the mass is on state 1 and none is NaN
        pi = _gth(np.array([[0.5, 0.5], [0.0, 1.0]]))
        np.testing.assert_allclose(pi, [0.0, 1.0], rtol=0, atol=1e-149)

    def test_gth_masses_beyond_double_range(self):
        # birth-death chain whose masses grow by 1e12 per state: the last
        # state outweighs the first by 1e468
        n, ratio = 40, 1e12
        P = np.zeros((n, n))
        i = np.arange(n - 1)
        P[i, i + 1] = 0.5
        P[i + 1, i] = 0.5 / ratio
        P[np.arange(n), np.arange(n)] = 1.0 - P.sum(axis=1)
        want = ratio ** -np.arange(n - 1, -1, -1.0)
        np.testing.assert_allclose(_gth(P), want / want.sum(), rtol=1e-12, atol=1e-300)


def _stationary_dist(P):
    """Stationary distribution of an irreducible chain by one sparse direct
    solve, the last balance equation replaced by the normalization. The
    reference the exact evaluation is tested against."""
    n = P.shape[0]
    A = (P.T - sparse.identity(n, format="csr")).tolil()
    A[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    mu = np.clip(spsolve(A.tocsc(), rhs), 0.0, None)
    return mu / mu.sum()


def _kernel_chain(actions_per_phase, m):
    """Chain on (phase, state) built by gathering ``kernel_arrays`` rows;
    phase r follows actions_per_phase[r] and moves to phase r + 1 mod T."""
    kern = kernel_arrays(m)
    n = kern.cost.shape[1]
    T = len(actions_per_phase)
    rows, cols, vals = [], [], []
    for r, actions in enumerate(actions_per_phase):
        sel = np.asarray(actions, dtype=np.int64)
        pr = kern.prob[sel, np.arange(n), :].ravel()
        mask = pr > 0.0
        rows.append((r * n + np.repeat(np.arange(n), 4))[mask])
        cols.append((((r + 1) % T) * n + kern.next_idx[sel, np.arange(n), :].ravel())[mask])
        vals.append(pr[mask])
    return sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n * T, n * T),
    )


def _assert_same_csr(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


def _block_chain(actions, m):
    """The truncated chain on (phase, state) that ``_blocks``' per-action
    blocks give when each state takes its action in ``actions``: a row's
    advancing block moves it to age min(a + 1, delta_max) and its reset
    block to age 1, both in the next phase."""
    U, R = _blocks(m)
    B1, D = m.battery_cap + 1, m.delta_max
    table = np.asarray(actions).reshape(-1, B1, D)
    T = table.shape[0]
    rows, cols, vals = [], [], []
    for r, q, a in np.ndindex(table.shape):
        for block, age in ((U, min(a + 1, D - 1)), (R, 0)):
            moved = block[table[r, q, a], q]
            for t in np.flatnonzero(moved):
                rows.append((r * B1 + q) * D + a)
                cols.append((((r + 1) % T) * B1 + t) * D + age)
                vals.append(moved[t])
    return sparse.csr_matrix((vals, (rows, cols)), shape=(T * B1 * D,) * 2)


class TestBlocksMatchKernel:
    """The per-action blocks, expanded to the truncated chain, equal the
    chain gathered from ``kernel_arrays``, entry for entry and bit for bit."""

    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.0 - 1e-16])
    def test_induced_chain(self, lam):
        m = params(lambda_e=lam, battery_cap=4, delta_max=9)
        table = np.random.default_rng(3).integers(0, 2, size=(5, 9)).astype(np.int8)
        for kind in (
            Optimal((9, 4, 3, 1, 10)),
            ZeroWait(),
            Explicit(table),
        ):
            actions = grid_actions(kind, m)
            _assert_same_csr(_block_chain(actions, m), _kernel_chain([actions], m))

    def test_induced_chain_reference_point(self):
        m = params(battery_cap=20, delta_max=200)
        thresholds = (11, 4, 3, 3, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1)
        actions = grid_actions(Optimal(thresholds), m)
        _assert_same_csr(_block_chain(actions, m), _kernel_chain([actions], m))

    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("period", [1, 3])
    def test_periodic_product_chain(self, period, skip):
        m = params(battery_cap=3, delta_max=8)
        n = 4 * 8
        send = np.ones(n, dtype=np.int64)
        if skip:
            send[:8] = 0  # battery 0 idles
        phases = [send] + [np.zeros(n, dtype=np.int64)] * (period - 1)
        actions = grid_actions(Periodic(period, skip), m)
        _assert_same_csr(_block_chain(actions, m), _kernel_chain(phases, m))

    def test_blocks_are_read_only(self):
        for block in _blocks(params()):
            assert not block.flags.writeable


def _check_against_kernel_chain(actions, m):
    """The reset-chain evaluation agrees with the direct solve on the closed
    class of the truncated chain gathered from ``kernel_arrays``. Every age
    from W on moves alike, so for any delta_max >= W that solve's last age
    holds the untruncated tail's mass x, and the ages past it add
    x U (I - U)^-1 1 to the age sum, U being that age's block into itself:
    the average age, the paid rate and the mass at ages W and above are
    exact, and the balance residual on the reset chain is at rounding
    level. Returns the report; if no state of the class has age 1, the age
    never resets, and the evaluation must raise UnboundedAgeError instead,
    and where the search finds several closed classes, the same
    ReducibleChainError (returns None)."""
    B1, D = m.battery_cap + 1, m.delta_max
    P = _kernel_chain(np.reshape(actions, (-1, B1 * D)), m)
    send = np.reshape(actions, (-1, B1, D)) == 1
    try:
        cls = _recurrent_class(P.indptr, P.indices, start=0)
    except ReducibleChainError as several:  # the evaluation sees as many
        with pytest.raises(ReducibleChainError, match=f"^{several}$") as exc:
            _renewal(send, m)
        assert exc.value.closed_classes == several.closed_classes
        return None
    if not (cls % D == 0).any():  # nothing in the class resets the age
        with pytest.raises(UnboundedAgeError):
            _renewal(send, m)
        return None
    report = _renewal(send, m)
    dist = np.zeros(P.shape[0])
    dist[cls] = _stationary_dist(P[np.ix_(cls, cls)].tocsr())
    last = cls[cls % D == D - 1]  # the class at the last age
    U = P[np.ix_(last, last)].toarray()
    past = np.linalg.solve((np.eye(last.size) - U).T, dist[last] @ U).sum()
    ages = np.arange(P.shape[0]) % D + 1.0
    paid = (send & (np.arange(B1)[:, None] == 0)).ravel()
    W = _width(actions, m)
    np.testing.assert_allclose(
        [report.average_aoi, report.reliable_energy_rate, report.cap_mass],
        [dist @ ages + past, dist[paid].sum(), dist.reshape(-1, D)[:, W - 1 :].sum()],
        rtol=0, atol=1e-12,
    )
    assert report.balance_residual <= 1e-14
    return report


def _width(actions, m):
    """The first age W, at least 2, from which every age's actions equal
    the last age's: ``cap_mass`` is the mass at ages W and above."""
    table = np.reshape(actions, (-1, m.battery_cap + 1, m.delta_max))
    changed = [a for a in range(1, m.delta_max) if not np.array_equal(table[..., a - 1], table[..., -1])]
    return max([1] + changed) + 1


class TestRenewalAgainstKernelChain:
    """The reset-chain evaluation against the direct solve, on chains of
    every shape the evaluators build."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_tables(self, seed):
        # arbitrary action tables, not of threshold form
        rng = np.random.default_rng(seed)
        m = params(lambda_e=(0.3, 0.5, 1.0)[seed % 3], battery_cap=3, delta_max=12)
        table = (rng.uniform(size=(4, 12)) < 0.4).astype(np.int8)
        assert not np.all(np.diff(table, axis=1) >= 0)  # some row is not a threshold
        _check_against_kernel_chain(table.reshape(-1), m)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_tables_turning_constant(self, seed):
        # the table stops changing at a random age strictly between 2 and
        # delta_max, so the ages from there on collapse into one
        rng = np.random.default_rng(100 + seed)
        m = params(lambda_e=(0.3, 0.5, 1.0)[seed % 3], battery_cap=3, delta_max=12)
        width = int(rng.integers(3, 12))
        table = (rng.uniform(size=(4, 12)) < 0.5).astype(np.int8)
        table[:, width - 1 :] = table[:, [width - 1]]
        table[0, width - 2] = 1 - table[0, width - 1]  # the last change
        assert 2 < _width(table, m) == width < m.delta_max
        _check_against_kernel_chain(table.reshape(-1), m)

    @pytest.mark.parametrize(
        "thresholds",
        [(12, 3, 13, 1), (13, 5, 2, 13), (13, 13, 13, 13), (12, 12, 12, 12), (12, 13, 4, 12)],
    )
    @pytest.mark.parametrize("lam", [0.3, 1.0])
    def test_thresholds_at_and_past_the_cap(self, thresholds, lam):
        # a threshold of 12 transmits from age 12 on and one of 13 from
        # age 13 on; the model's cap is 13 where a threshold is, so that
        # the truncated chain of the direct solve has that age
        m = params(lambda_e=lam, battery_cap=3, delta_max=max(12, *thresholds))
        _check_against_kernel_chain(grid_actions(Optimal(thresholds), m), m)

    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("period", [1, 2, 5])
    def test_periodic(self, period, skip):
        m = params(lambda_e=0.3, battery_cap=3, delta_max=15)
        _check_against_kernel_chain(grid_actions(Periodic(period, skip), m), m)

    def test_random_narrow_tables(self):
        # narrow tables give every outcome, each as the truncated chain's
        # own class search has it: one class, one that never resets the
        # age, and (where p_block is so near 1 that nothing resets) several
        # closed classes, all at the ages past the table
        seen = {"one": 0, "UnboundedAgeError": 0, "ReducibleChainError": 0}
        for seed in range(60):
            rng = np.random.default_rng(seed)
            m = params(p_block=(0.2, 1.0 - 1e-16)[seed % 2], battery_cap=3, delta_max=8)
            table = np.zeros((4, 8), dtype=np.int8)
            width = int(rng.integers(1, 6))
            table[:, :width] = rng.uniform(size=(4, width)) < rng.uniform(0.05, 0.6)
            table[:, width:] = table[:, [width - 1]]
            _check_against_kernel_chain(table.reshape(-1), m)
            try:
                _renewal(table[None] == 1, m)
                seen["one"] += 1
            except (UnboundedAgeError, ReducibleChainError) as exc:
                seen[type(exc).__name__] += 1
        assert min(seen.values()) >= 3, seen

    def test_deterministic_cycle(self):
        # with certain harvest and a channel that never blocks, sending at
        # age 2 alternates (age 1, full) and (age 2, full) forever; the model
        # rejects p_block = 0 as input, so the test sets it past the check
        m = params(lambda_e=1.0)
        object.__setattr__(m, "p_block", 0.0)
        kind = Optimal((2, 2, 2))
        r = _check_against_kernel_chain(grid_actions(kind, m), m)
        # W = 2: half the slots are at age 2, none pays
        assert (r.average_aoi, r.reliable_energy_rate, r.cap_mass) == (1.5, 0.0, 0.5)

    def test_masses_beyond_double_range(self):
        # an empty battery is about 1e-314 as likely as a full one here
        m = params(lambda_e=0.9, battery_cap=40, delta_max=9)
        r = _check_against_kernel_chain(grid_actions(Periodic(8), m), m)
        assert np.isfinite([r.average_cost, r.balance_residual, r.cap_mass]).all()

    def test_never_transmit_raises(self):
        # the class is (full battery, every age from 1 on): the age never resets
        m = params(delta_max=7)
        assert _check_against_kernel_chain(np.zeros(3 * 7, dtype=np.int8), m) is None

    @pytest.mark.parametrize("lam", [0.5, 1.0])
    def test_smallest_age_cap(self, lam):
        m = params(lambda_e=lam, delta_max=2)
        for kind in (ZeroWait(), Optimal((2, 1, 1)), Periodic(3)):
            _check_against_kernel_chain(grid_actions(kind, m), m)

    def test_class_search_sees_the_collapsed_chain(self, monkeypatch):
        # Periodic(20) at battery_cap=100, delta_max=400: the class search
        # sees the 101 states a reset enters (phase 1), the start (age 1,
        # phase 0, empty battery) and the tail's 101 phase-0 states
        sizes = []

        def recorded(indptr, indices, start):
            sizes.append(indptr.size - 1)
            return _recurrent_class(indptr, indices, start)

        monkeypatch.setattr(evaluator, "_recurrent_class", recorded)
        m = ModelParams(0.5, 0.2, 100, 2.0, 10.0, delta_max=400)
        evaluate_exact(Periodic(20), m)
        assert sizes == [101 + 1 + 101]

    # every field, recorded from the reset-chain evaluation on the
    # untruncated chain; cap_mass is the mass at ages W and above and
    # balance_residual ||pi G - pi||_1 on the reset chain. The periodic ages
    # are (T + 1)/2 + T p/(1 - p) (2.75 for T = 3, 15.5 for T = 20), and
    # their tail masses 1 - (1 - p)/T
    _PINNED = {
        "periodic-1": (15.25, 1.25, 0.7, 0.0, 0.2),
        "periodic-3": (3.836289931382762, 2.7499999999999996, 0.05431449656913812,
                       2.220446049250313e-16, 0.7333333333333333),
        "periodic-3-skip": (3.657318242809472, 3.657318242809472, 0.0,
                            3.3306690738754696e-16, 0.776784930588644),
        "periodic-20": (15.500000000515055, 15.5, 2.5752723728065964e-11,
                        2.7788133444539e-16, 0.9599999999999999),
        "transient-block": (4.166666666666665, 4.166666666666665, 0.0,
                            0.0, 0.33362175999999993),
    }

    @pytest.mark.parametrize("name", list(_PINNED))
    def test_reports_are_pinned(self, name):
        m = params(lambda_e=0.3, battery_cap=3, delta_max=15)
        # batteries 0 and 1 are a transient block: they only climb into the
        # class on batteries 2 and 3, where battery 3 always sends
        transient = np.zeros((4, 15), dtype=np.int8)
        transient[0, 4:] = 1
        transient[3] = 1
        kind = {
            "periodic-1": Periodic(1),
            "periodic-3": Periodic(3),
            "periodic-3-skip": Periodic(3, True),
            "periodic-20": Periodic(20),
            "transient-block": Explicit(transient),
        }[name]
        cost, aoi, rate, residual, cap = self._PINNED[name]
        assert evaluate_exact(kind, m) == EvalReport(
            cost, aoi, rate, balance_residual=residual, cap_mass=cap
        )


class TestEvaluateExact:
    def test_explicit_table_of_any_width(self):
        # later ages reuse the last column, so a table padded with it, or
        # evaluated under any age cap, is the same policy
        m = params(lambda_e=0.3, battery_cap=3, delta_max=15)
        narrow = np.random.default_rng(7).integers(0, 2, (4, 5))
        narrow[:, -1] = TRANSMIT
        padded = np.pad(narrow, ((0, 0), (0, 10)), mode="edge")
        assert evaluate_exact(Explicit(narrow), m) == evaluate_exact(Explicit(padded), m)
        wide = np.pad(narrow, ((0, 0), (0, 20)), mode="edge")
        assert evaluate_exact(Explicit(wide), m) == evaluate_exact(Explicit(padded), m)

    def test_constant_updating_with_certain_harvest(self):
        # battery refills every slot, so age is geometric: mean 1/(1-p)
        m = params(lambda_e=1.0)
        r = evaluate_exact(ZeroWait(), m)
        assert r.average_cost == pytest.approx(1.25, abs=1e-12)
        assert r.reliable_energy_rate == pytest.approx(0.0, abs=1e-15)

    def test_never_updating_has_no_finite_average(self):
        # the age grows for ever; compare reports a RuntimeError per row
        m = params(delta_max=7)
        with pytest.raises(UnboundedAgeError, match="resets the age") as exc:
            evaluate_exact(Explicit(np.zeros((3, 7), dtype=np.int8)), m)
        assert isinstance(exc.value, RuntimeError)

    def test_zero_wait_pays_for_half_the_slots(self):
        # with lambda 1/2 the battery alternates between empty and one packet
        m = params(battery_cap=4, weight=1.0)
        r = evaluate_exact(ZeroWait(), m)
        assert r.average_aoi == pytest.approx(1.25, abs=1e-12)
        assert r.reliable_energy_rate == pytest.approx(0.5, abs=1e-12)

    def test_average_is_age_cap_invariant(self):
        # resets happen from every age, so the cap never binds for zero-wait
        r20 = evaluate_exact(ZeroWait(), params(delta_max=20))
        r200 = evaluate_exact(ZeroWait(), params(delta_max=200))
        assert r20.average_cost == pytest.approx(r200.average_cost, abs=1e-12)

    def test_cost_decomposition_identity(self):
        m = params()
        for kind in (ZeroWait(), Optimal((3, 2, 1))):
            r = evaluate_exact(kind, m)
            assert r.average_cost == r.average_aoi + m.weight * m.cost_reliable * r.reliable_energy_rate

    @pytest.mark.parametrize("delta_max", [20, 400])
    def test_agrees_with_solver_gain(self, delta_max):
        from ehaoi import modified_via

        # both are exact on the untruncated chain, whatever delta_max is
        m = ModelParams(
            lambda_e=0.5, p_block=0.5, battery_cap=2,
            cost_reliable=2.0, weight=1.0, delta_max=delta_max,
        )
        res, tp = modified_via(m, eps=1e-9)
        assert tp.thresholds == (2, 2, 1)
        r = evaluate_exact(tp, m)
        assert r.average_cost == pytest.approx(res.gain, abs=1e-12)

    def test_reference_point_carries_its_evidence(self, base_params, base_solution):
        _, tp = base_solution
        r = evaluate_exact(tp, base_params)
        assert r.balance_residual <= 1e-14
        # the mass at ages 11 and above, where every battery transmits
        assert r.cap_mass == pytest.approx(2.4008593290663e-06, rel=1e-9)

    def test_periodic_report_carries_its_evidence(self):
        # every age moves alike (W = 2), so cap_mass is the mass at ages
        # 2 and above: all but the (1 - p)/5 of the slots after an update
        r = evaluate_exact(Periodic(5), params(delta_max=120))
        assert r.balance_residual <= 1e-14
        assert r.cap_mass == pytest.approx(0.84, abs=1e-12)

    @pytest.mark.parametrize("period", [5, 20, 30])
    def test_periodic_closed_form(self, base_params, period):
        # a renewal at each scheduled slot with probability 1 - p
        p = base_params.p_block
        r = evaluate_exact(Periodic(period), base_params)
        assert abs(r.average_aoi - ((period + 1) / 2 + period * p / (1 - p))) <= 1e-12

    def test_hard_point_does_not_depend_on_delta_max(self):
        # lambda_e 0.01, p_block 0.99, weight 100: the largest threshold,
        # 124, is most of the smallest cap here
        from ehaoi import modified_via

        hard = dict(lambda_e=0.01, p_block=0.99, battery_cap=20, cost_reliable=2.0, weight=100.0)
        res, tp = modified_via(ModelParams(**hard, delta_max=200), eps=1e-9)
        assert tp.thresholds == (124,) * 20 + (78,)
        for dm in (200, 400, 1600):
            r = evaluate_exact(tp, ModelParams(**hard, delta_max=dm))
            assert abs(r.average_cost - res.gain) <= 1e-10 * res.gain

    @pytest.mark.parametrize("lam", [0.3, 1.0])
    def test_threshold_past_the_cap_transmits_from_there(self, lam):
        # as decide reads it: 13 and 40 at delta_max 12 are ages 13 and 40
        kind = Optimal((13, 5, 2, 40))
        narrow = evaluate_exact(kind, params(lambda_e=lam, battery_cap=3, delta_max=12))
        wide = evaluate_exact(kind, params(lambda_e=lam, battery_cap=3, delta_max=60))
        assert abs(narrow.average_cost - wide.average_cost) <= 1e-12 * wide.average_cost

    @pytest.mark.parametrize("far", [1000, 2000])
    def test_far_threshold_behind_an_underflowing_path(self, far):
        # battery 0 is entered only by battery 1 transmitting, from age
        # `far`; at 2000 the reset chain's way there (about 0.5**2000)
        # underflows to 0, so that state holds no visible mass
        from ehaoi.solver import _evaluate

        m = params(battery_cap=3)
        thresholds = (2, far, 4, 1)
        gain = _evaluate(np.arange(1, far) >= np.array(thresholds)[:, None], m, [])[0]
        r = evaluate_exact(Optimal(thresholds), m)
        assert abs(r.average_cost - gain) <= 1e-12 * gain

    def test_class_spans_a_route_that_underflows(self, monkeypatch):
        # batteries 0 and 1 are entered from batteries 2 and 3 only by
        # battery 2 transmitting, from age 2000: the reset chain's entries
        # from {2, 3} into {0, 1} (about 0.5**2000) underflow to 0, but the
        # class search reads the structure, so the one class holds all four
        # batteries' reset states and tail states
        from ehaoi.solver import _evaluate

        found = []

        def recorded(indptr, indices, start):
            found.append(_recurrent_class(indptr, indices, start))
            return found[-1]

        monkeypatch.setattr(evaluator, "_recurrent_class", recorded)
        m = params(battery_cap=3)
        thresholds = (2, 2, 2000, 1)
        gain = _evaluate(np.arange(1, 2000) >= np.array(thresholds)[:, None], m, [])[0]
        r = evaluate_exact(Optimal(thresholds), m)
        assert [c.tolist() for c in found] == [list(range(8))]
        assert abs(r.average_cost - gain) <= 1e-12 * gain

    def test_large_point_does_not_depend_on_delta_max(self):
        from ehaoi import modified_via

        large = dict(lambda_e=0.5, p_block=0.2, battery_cap=100, cost_reliable=2.0, weight=10.0)
        tp = modified_via(ModelParams(**large, delta_max=400), eps=1e-9)[1]
        for kind in (tp, ZeroWait(), Periodic(5), Periodic(20)):
            a, b = (evaluate_exact(kind, ModelParams(**large, delta_max=dm)) for dm in (400, 1600))
            for field in ("average_cost", "average_aoi", "reliable_energy_rate"):
                x, y = getattr(a, field), getattr(b, field)
                assert abs(x - y) <= 1e-12 * abs(y), (kind, field)

    def test_report_has_no_simulation_metadata(self):
        r = evaluate_exact(ZeroWait(), params())
        assert r.horizon is None and r.seed is None
        assert r.ci_halfwidth is None and r.rng is None

    def test_large_chain_matches_kernel_chain_solve(self):
        # 5580 recurrent states in the truncated kernel chain: the exact
        # evaluation agrees with its sparse direct solve
        m = ModelParams(
            lambda_e=0.5, p_block=0.2, battery_cap=30,
            cost_reliable=2.0, weight=1.0, delta_max=180,
        )
        kind = Optimal((3,) * 31)
        P = _kernel_chain([grid_actions(kind, m)], m)
        cls = _recurrent_class(P.indptr, P.indices, 0)
        assert cls.size == P.shape[0] > 5000
        mu = _stationary_dist(P[np.ix_(cls, cls)].tocsr())
        ages = np.tile(np.arange(1, m.delta_max + 1, dtype=float), m.battery_cap + 1)
        direct_aoi = float(mu @ ages[cls])
        r = evaluate_exact(kind, m)
        assert r.average_aoi == pytest.approx(direct_aoi, abs=1e-10)


class TestPeriodicExact:
    def test_renewal_closed_form_with_certain_harvest(self):
        # cycle length is period * Geometric(1 - p); the long-run age is
        # (E[L^2] + E[L]) / (2 E[L]) = 4.25 for period 5, p = 0.2
        m = params(lambda_e=1.0, delta_max=300)
        r = evaluate_exact(Periodic(5), m)
        assert r.average_cost == pytest.approx(4.25, abs=1e-12)
        assert r.reliable_energy_rate == pytest.approx(0.0, abs=1e-15)

    def test_period_one_is_zero_wait(self):
        m = params(battery_cap=4, weight=1.0)
        r1 = evaluate_exact(Periodic(1), m)
        rz = evaluate_exact(ZeroWait(), m)
        assert r1.average_cost == pytest.approx(rz.average_cost, abs=1e-12)
        assert r1.reliable_energy_rate == pytest.approx(rz.reliable_energy_rate, abs=1e-12)

    def test_skip_on_empty_never_pays(self):
        m = params(lambda_e=0.2)
        r = evaluate_exact(Periodic(4, skip_on_empty=True), m)
        assert r.reliable_energy_rate == 0.0
        paying = evaluate_exact(Periodic(4), m)
        assert paying.reliable_energy_rate > 0.0
        assert r.average_aoi > paying.average_aoi  # skipping trades age for cost


# replay oracle: a small model and one policy of every kind
REPLAY_MODEL = dict(p_block=0.2, battery_cap=3, cost_reliable=1.7, weight=0.3, delta_max=8)
REPLAY_KINDS = {
    "zero-wait": ZeroWait(),
    **{
        f"periodic-{T}{'-skip' if skip else ''}": Periodic(T, skip)
        for T in (1, 3, 7)
        for skip in (False, True)
    },
    "explicit-narrow": Explicit(np.random.default_rng(3).integers(0, 2, (4, 5))),
    "explicit-wide": Explicit(np.random.default_rng(4).integers(0, 2, (4, 30))),
    # 1200 table states at long horizons: the block shrinks to 3 slots
    "explicit-short-block": Explicit(np.random.default_rng(5).integers(0, 2, (4, 300))),
    "optimal-never-row": Optimal((9, 3, 2, 1)),  # delta_max + 1
    "optimal-past-horizon": Optimal((2, 10**9, 4, 1)),
    # 256 and 260 states at the long horizons: the largest machine whose
    # rows are bytes, and one whose rows are tuples
    "explicit-256-states": Explicit(np.random.default_rng(6).integers(0, 2, (4, 64))),
    "explicit-260-states": Explicit(np.random.default_rng(7).integers(0, 2, (4, 65))),
    # at battery_cap 100 (REPLAY_CAPS), both with 3-slot blocks: the policy
    # the solver returns at the large fixed point, 101 battery levels times
    # its largest threshold, 11, make 1111 states (tuple rows); a periodic
    # schedule has 101 states (bytes rows)
    "optimal-solved-large": modified_via(ModelParams(
        lambda_e=0.5, p_block=0.2, battery_cap=100, cost_reliable=2.0, weight=10.0,
        delta_max=400))[1],
    "periodic-3-large": Periodic(3),
    # at battery_cap 299: 300 states (tuple rows) with 3-slot blocks of
    # 3-bit symbols, so 9-bit codes in a 16-bit buffer
    "periodic-3-300-states": Periodic(3),
}
REPLAY_CAPS = {"optimal-solved-large": 100, "periodic-3-large": 100, "periodic-3-300-states": 299}
# paid prices weight * cost_reliable over REPLAY_MODEL's: a float sum of
# its own 0.51 in slot order rounds, one of 20 or 0.5 (a power of two apart
# from a whole number) does not, and 1.7 * 2**60 is a whole number whose
# sums outgrow a double's 53 bits
REPLAY_PRICES = {
    "0.51": {},
    "20": dict(cost_reliable=2.0, weight=10.0),
    "0.5": dict(cost_reliable=2.0, weight=0.25),
    "1.7*2**60": dict(weight=2.0**60),
}


def replay_model(name, lam, price="0.51"):
    """REPLAY_MODEL at ``lam`` and the paid price named ``price``, with the
    battery cap ``name`` is made for."""
    cap = REPLAY_CAPS.get(name, REPLAY_MODEL["battery_cap"])
    return ModelParams(lambda_e=lam, **dict(REPLAY_MODEL, battery_cap=cap, **REPLAY_PRICES[price]))


def replay(kind, m, horizon, seed):
    """The report ``simulate`` must give, from ``decide`` and ``step`` one
    slot at a time, with each CI batch's cost sum the exact sum of its
    slots' ages and paid prices, rounded once."""
    seq_energy, seq_channel = np.random.SeedSequence(seed).spawn(2)
    harvest = np.random.default_rng(seq_energy).random(horizon) < m.lambda_e
    blocked = np.random.default_rng(seq_channel).random(horizon) < m.p_block
    price = m.weight * m.cost_reliable
    batch = horizon // 20
    ages, paids = [0] * 20, [0] * 20  # per CI batch
    s = State(1, 0)
    aoi_sum = paid = 0
    for t in range(horizon):
        a = decide(kind, s, t)
        _, nxt = step(s, a, int(harvest[t]), int(blocked[t]), m)
        pays = a == TRANSMIT and s.battery == 0
        aoi_sum += s.aoi
        paid += pays
        if t < 20 * batch:
            ages[t // batch] += s.aoi
            paids[t // batch] += pays
        s = nxt
    ci = float("nan")
    if batch:
        sums = [float(Fraction(a) + Fraction(price) * p) for a, p in zip(ages, paids)]
        means = np.array(sums) / batch
        ci = float(student_t.ppf(0.975, 19) * means.std(ddof=1) / np.sqrt(20))
    aoi, rate = aoi_sum / horizon, paid / horizon
    return EvalReport(
        average_cost=aoi + m.weight * m.cost_reliable * rate,
        average_aoi=aoi,
        reliable_energy_rate=rate,
        horizon=horizon,
        seed=seed,
        ci_halfwidth=ci,
        rng="pcg64",
    )


class TestAgeSum:
    """``_age_sum``, the closed form of a stretch's age sum and carried-out
    age, against each slot's age as a running maximum and against stepping
    the age slot by slot."""

    @staticmethod
    def by_running_maximum(reset, aoi):
        # slot j's age is j + 1 less the latest slot i <= j that follows a
        # reset (reset[i - 1]), or 1 - aoi before the first reset
        n = len(reset)
        count = np.arange(1, n + 1, dtype=np.int64)
        start = np.concatenate([[1 - aoi], np.where(reset[:-1], count[:-1], 1 - aoi)])
        ages = count - np.maximum.accumulate(start)
        return int(ages.sum()), 1 if reset[-1] else int(ages[-1]) + 1

    @staticmethod
    def by_steps(reset, aoi):
        total = 0
        for r in reset.tolist():
            total += aoi
            aoi = 1 if r else aoi + 1
        return total, aoi

    @pytest.mark.parametrize("aoi", [1, 2, 10**6])
    @pytest.mark.parametrize(
        "resets",
        [[], [0], [8], [0, 8], [0, 3, 4, 8], list(range(9))],
        ids=["none", "first-slot", "last-slot", "first-and-last", "some", "every"],
    )
    def test_closed_form_on_set_masks(self, resets, aoi):
        reset = np.zeros(9, dtype=bool)
        reset[resets] = True
        got = evaluator._age_sum(reset, aoi, np.full(9, -1, dtype=np.intp))
        assert got == self.by_running_maximum(reset, aoi) == self.by_steps(reset, aoi)
        assert all(type(x) is int for x in got)

    @pytest.mark.parametrize("seed", range(5))
    def test_closed_form_on_random_masks(self, seed):
        rng = np.random.default_rng(seed)
        gaps = np.empty(1 << 16, dtype=np.intp)  # one buffer for every mask, as in a run
        for n in (1, 2, 3, 7, 64, 1000, 1 << 16):
            for p in (0.0, 0.001, 0.3, 0.9, 1.0):
                reset = rng.random(n) < p
                aoi = int(rng.integers(1, 10**9))
                got = evaluator._age_sum(reset, aoi, gaps)
                assert got == self.by_running_maximum(reset, aoi), (n, p)
                if n <= 1000:
                    assert got == self.by_steps(reset, aoi), (n, p)


def test_t_quantile_constant_matches_scipy():
    assert T_975_19 == float(student_t.ppf(0.975, CI_BATCHES - 1))


class TestSimulate:
    @pytest.mark.parametrize("price", ["0.51", "20"])
    @pytest.mark.parametrize("lam", [0.01, 0.5, 0.99, 1.0])
    @pytest.mark.parametrize("horizon", [1, 19, 20, 21, 41, 5003])
    @pytest.mark.parametrize("name", list(REPLAY_KINDS))
    def test_report_equals_slot_by_slot_replay(self, name, horizon, lam, price):
        kind, m = REPLAY_KINDS[name], replay_model(name, lam, price)
        seed = 17 + horizon
        rep, want = simulate(kind, m, horizon, seed), replay(kind, m, horizon, seed)
        if horizon < 20:  # no CI: NaN on both sides
            assert math.isnan(rep.ci_halfwidth) and math.isnan(want.ci_halfwidth)
            rep = dataclasses.replace(rep, ci_halfwidth=None)
            want = dataclasses.replace(want, ci_halfwidth=None)
        assert rep == want

    @pytest.mark.parametrize("price", list(REPLAY_PRICES))
    @pytest.mark.parametrize("name", list(REPLAY_KINDS))
    def test_each_price_takes_its_accounting_path(self, name, price):
        # every price sums its batches exactly from their age sums and paid
        # counts, whether or not a slot-order float sum of it rounds
        kind, m = REPLAY_KINDS[name], replay_model(name, 0.5, price)
        assert simulate(kind, m, 5003, 29) == replay(kind, m, 5003, 29)

    @pytest.mark.parametrize("price", [2**53 - 22, 2**53 - 21])
    def test_exact_sums_stop_at_2_to_the_53(self, price):
        # one-slot batches at horizon 20: the costs reach price + 20, about
        # 2**53, where a double stops holding every whole number
        m = ModelParams(lambda_e=0.5, **dict(REPLAY_MODEL, cost_reliable=1.0, weight=float(price)))
        kind = REPLAY_KINDS["zero-wait"]
        assert simulate(kind, m, 20, 5) == replay(kind, m, 20, 5)

    @pytest.mark.parametrize("horizon", [120, 140, 32760, 32780])
    def test_slotwise_ages_reach_the_horizon(self, horizon):
        # a policy that never transmits ages 1 ... horizon, a multiple of
        # 20, all in CI batches: each batch sums ages up to the horizon
        m = replay_model("zero-wait", 0.5)
        kind = Explicit(np.zeros((4, 5), dtype=int))
        rep = simulate(kind, m, horizon, 3)
        assert rep == replay(kind, m, horizon, 3)
        assert rep.average_aoi == horizon * (horizon + 1) // 2 / horizon

    def test_numpy_integer_price(self):
        # a price of numpy integers (a Real, so ModelParams takes it) has
        # no as_integer_ratio of its own; it sums as its float does
        m = ModelParams(lambda_e=0.5, **dict(REPLAY_MODEL, cost_reliable=np.int64(2),
                                             weight=np.int64(10)))
        kind = REPLAY_KINDS["periodic-3"]
        assert simulate(kind, m, 1003, 5) == replay(kind, m, 1003, 5)

    @pytest.mark.parametrize(
        "seed, fields",
        [
            (1, (1.847329, 1.847269, 3e-06, 0.004016313387916957)),
            (2, (1.850184, 1.850144, 2e-06, 0.004188723680721566)),
        ],
    )
    def test_reference_streams_pinned(self, base_params, base_solution, seed, fields):
        # full-precision reports of the reference point's seeded runs
        rep = simulate(base_solution[1], base_params, 1_000_000, seed)
        got = (rep.average_cost, rep.average_aoi, rep.reliable_energy_rate, rep.ci_halfwidth)
        assert got == fields

    def test_replays_step_and_decide_exactly(self):
        # the fast loop must be an exact transcript of the one-slot function
        m = ModelParams(
            lambda_e=0.5, p_block=0.2, battery_cap=3,
            cost_reliable=2.0, weight=10.0, delta_max=30,
        )
        kind = Optimal((4, 2, 1, 1))
        horizon, seed = 5_000, 11
        rep = simulate(kind, m, horizon, seed)

        seq_energy, seq_channel = np.random.SeedSequence(seed).spawn(2)
        harvest = np.random.default_rng(seq_energy).random(horizon) < m.lambda_e
        blocked = np.random.default_rng(seq_channel).random(horizon) < m.p_block
        s = State(1, 0)
        aoi_sum = 0
        paid = 0
        for t in range(horizon):
            a = decide(kind, s, t)
            if a == TRANSMIT and s.battery == 0:
                paid += 1
            aoi_sum += s.aoi
            _, s = step(s, a, int(harvest[t]), int(blocked[t]), m)
        assert rep.average_aoi == aoi_sum / horizon
        assert rep.reliable_energy_rate == paid / horizon

    @pytest.mark.parametrize("weight", [0.3, 10.0])
    @pytest.mark.parametrize("horizon", [1, 20, 139, 5003])
    @pytest.mark.parametrize(
        "kind, cap",
        [(Optimal((4, 2, 1, 1)), 3), (ZeroWait(), 3), (Periodic(3), 3),
         (REPLAY_KINDS["explicit-256-states"], 3), (REPLAY_KINDS["explicit-260-states"], 3),
         (REPLAY_KINDS["optimal-solved-large"], 100)],
        ids=["optimal", "zero-wait", "periodic3", "explicit-256-states",
             "explicit-260-states", "optimal-solved-large"],
    )
    def test_stretches_do_not_change_the_report(self, monkeypatch, kind, cap, horizon, weight):
        # batches cut into stretches of 7 slots carry the streams, the
        # state, the age and each batch's age sum and paid count across the
        # cuts (and end in a partial block of 4 or 3 slots), at the paid
        # prices 0.6 and 20
        m = ModelParams(lambda_e=0.5, p_block=0.2, battery_cap=cap,
                        cost_reliable=2.0, weight=weight, delta_max=30)
        whole = simulate(kind, m, horizon, 23)
        monkeypatch.setattr(evaluator, "STRETCH_SLOTS", 7)
        cut = simulate(kind, m, horizon, 23)
        for field in dataclasses.fields(whole):
            a, b = getattr(whole, field.name), getattr(cut, field.name)
            assert a == b or (math.isnan(a) and math.isnan(b)), field.name

    def test_memory_is_bounded_by_the_stretch(self):
        # batches three stretches long: a run held a whole batch at once
        # at about 60 bytes a slot
        m = params()
        horizon = CI_BATCHES * 3 * evaluator.STRETCH_SLOTS
        evaluator._machine(ZeroWait(), m, horizon)  # built and cached outside the trace
        tracemalloc.start()
        try:
            simulate(ZeroWait(), m, horizon, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * evaluator.STRETCH_SLOTS

    @pytest.mark.parametrize(
        "name, states, block, rows, code",
        [("explicit-256-states", 256, 4, bytes, np.uint8),
         ("explicit-260-states", 260, 4, tuple, np.uint8),
         ("optimal-solved-large", 1111, 3, tuple, np.uint8),
         ("periodic-3-large", 101, 3, bytes, np.uint16),
         ("periodic-3-300-states", 300, 3, tuple, np.uint16)],
    )
    def test_replay_kinds_cover_both_row_containers(self, name, states, block, rows, code):
        # every pair of row container and code width that ``_run`` walks:
        # 8-bit codes are read as bytes, 16-bit ones through a memoryview
        machine = evaluator._machine(REPLAY_KINDS[name], replay_model(name, 0.5), 5003)
        assert (len(machine.rows), machine.block) == (states, block)
        assert {type(row) for row in machine.rows} == {rows}
        assert np.min_scalar_type((1 << machine.bits * machine.block) - 1) == code

    def test_machine_past_the_state_cap_raises_before_it_is_built(self, base_params):
        # 21 battery levels times 500 000 ages: refused before any table
        # is built, where 1.05 million states take seconds to build
        kind = Optimal((500_000,) + (2,) * 19 + (1,))
        start = time.perf_counter()
        with pytest.raises(DomainError, match="10500000 states, more than") as err:
            simulate(kind, base_params, 1_000_000, 0)
        assert time.perf_counter() - start < 1.0
        assert "\n" not in str(err.value)

    def test_machine_at_the_state_cap_simulates(self, monkeypatch):
        # 4 battery levels times 5 ages: the cap counts the states
        kind, m = Optimal((5, 4, 2, 1)), ModelParams(lambda_e=0.5, **REPLAY_MODEL)
        evaluator._machine.cache_clear()
        monkeypatch.setattr(evaluator, "MACHINE_STATES", 19)
        with pytest.raises(DomainError, match="20 states, more than 19"):
            simulate(kind, m, 500, 3)
        monkeypatch.setattr(evaluator, "MACHINE_STATES", 20)
        assert simulate(kind, m, 500, 3) == replay(kind, m, 500, 3)

    @pytest.mark.parametrize("levels", [1, 2, 21, 101, 10_001])
    def test_every_solved_policy_fits_the_state_cap(self, levels):
        # a solved table holds at most MAX_TABLE_CELLS (battery, age) cells,
        # and its thresholds lie at most one age past it
        assert levels * (MAX_TABLE_CELLS // levels + 1) <= evaluator.MACHINE_STATES

    def test_deterministic_given_seed(self):
        m = params()
        a = simulate(ZeroWait(), m, 10_000, 42)
        b = simulate(ZeroWait(), m, 10_000, 42)
        assert a == b

    def test_seeds_give_different_sample_paths(self):
        m = params()
        a = simulate(ZeroWait(), m, 10_000, 1)
        b = simulate(ZeroWait(), m, 10_000, 2)
        assert a.average_cost != b.average_cost

    def test_brackets_exact_value(self):
        m = params(battery_cap=4, weight=1.0)
        exact = evaluate_exact(ZeroWait(), m).average_cost
        for seed in (0, 1, 2):
            rep = simulate(ZeroWait(), m, 200_000, seed)
            assert abs(rep.average_cost - exact) <= 3.0 * rep.ci_halfwidth

    def test_periodic_simulation_brackets_exact(self):
        m = params(delta_max=120)
        kind = Periodic(5)
        exact = evaluate_exact(kind, m).average_cost
        rep = simulate(kind, m, 200_000, 3)
        assert abs(rep.average_cost - exact) <= 3.0 * rep.ci_halfwidth

    def test_cost_decomposition_identity(self):
        m = params()
        rep = simulate(Optimal((3, 2, 1)), m, 50_000, 9)
        assert rep.average_cost == rep.average_aoi + m.weight * m.cost_reliable * rep.reliable_energy_rate

    def test_report_metadata(self):
        rep = simulate(ZeroWait(), params(), 1_000, 7)
        assert rep.horizon == 1_000
        assert rep.seed == 7
        assert rep.rng == "pcg64"
        assert rep.ci_halfwidth > 0.0
        assert rep.balance_residual is None and rep.cap_mass is None

    def test_short_run_has_no_ci(self):
        rep = simulate(ZeroWait(), params(), 10, 7)
        assert math.isnan(rep.ci_halfwidth)

    def test_bad_horizon_rejected(self):
        with pytest.raises(DomainError):
            simulate(ZeroWait(), params(), 0, 1)

    @pytest.mark.parametrize("horizon", [True, False, 20.0])
    def test_horizon_must_be_an_int_not_a_bool(self, horizon):
        with pytest.raises(DomainError, match="horizon"):
            simulate(ZeroWait(), params(), horizon, 1)

    @pytest.mark.parametrize("seed", [-1, True, False, 1.0, "1", None])
    def test_seed_must_be_a_non_negative_int(self, seed):
        with pytest.raises(DomainError, match="seed"):
            simulate(ZeroWait(), params(), 100, seed)

    @pytest.mark.parametrize(
        "kind",
        [
            Optimal((3, 2)),
            Optimal((3, 2, 1, 1)),
            Explicit(np.ones((2, 5))),
        ],
    )
    def test_policy_rows_must_match_battery_levels(self, kind):
        with pytest.raises(DomainError, match="battery levels"):
            simulate(kind, params(), 100, 1)
