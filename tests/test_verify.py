import numpy as np
import pytest

from ehaoi import IDLE, TRANSMIT, ModelParams, State, modified_via, run_all_checks
from ehaoi.solver import _q_values
from ehaoi.verify import (
    check_increment_aoi,
    check_increment_mixed,
    check_monotone_aoi,
    check_monotone_battery,
    check_submodular,
)
from oracles import bellman_backup_q
from test_solver import _acceptance_points


def params(**overrides):
    kw = dict(
        lambda_e=0.5,
        p_block=0.2,
        battery_cap=3,
        cost_reliable=2.0,
        weight=10.0,
        delta_max=8,
    )
    kw.update(overrides)
    return ModelParams(**kw)


def linear_in_age(m, slope=2.0):
    # v(age, q) = slope * age: rises with age, flat in battery
    ages = np.arange(1, m.delta_max + 1, dtype=float)
    return np.tile(slope * ages, m.battery_cap + 1)


class TestMonotoneAoi:
    def test_increasing_table_passes(self):
        m = params()
        rep = check_monotone_aoi(linear_in_age(m), m)
        assert rep.passed
        assert rep.witnesses == ()

    def test_dip_fails_with_witness(self):
        m = params()
        v = linear_in_age(m)
        v[m.delta_max + 4] -= 30.0  # battery 1, age 5
        rep = check_monotone_aoi(v, m)
        assert not rep.passed
        assert rep.witnesses == ((State(4, 1), State(5, 1)),)
        assert rep.worst == pytest.approx(28.0)  # dip of 30 against slope 2

    def test_tolerance_absorbs_noise(self):
        m = params()
        v = linear_in_age(m)
        v[3] -= 1e-10  # within default tolerance
        assert check_monotone_aoi(v, m).passed


class TestMonotoneBattery:
    def test_battery_flat_table_passes(self):
        m = params()
        assert check_monotone_battery(linear_in_age(m), m).passed

    def test_bump_fails_with_witness(self):
        m = params()
        v = linear_in_age(m)
        v[2 * m.delta_max + 1] += 5.0  # battery 2, age 2: dearer than battery 1
        rep = check_monotone_battery(v, m)
        assert not rep.passed
        assert rep.witnesses == ((State(2, 1), State(2, 2)),)
        assert rep.worst == pytest.approx(5.0)


class TestIncrementAoi:
    def test_slope_two_has_slack(self):
        m = params()
        rep = check_increment_aoi(linear_in_age(m, slope=2.0), m)
        assert rep.passed
        assert rep.worst == pytest.approx(-1.0)  # increments of 2 beat the bound by 1

    def test_unit_slope_is_tight(self):
        m = params()
        rep = check_increment_aoi(linear_in_age(m, slope=1.0), m)
        assert rep.passed
        assert rep.worst == pytest.approx(0.0, abs=1e-12)

    def test_shallow_slope_fails(self):
        m = params()
        rep = check_increment_aoi(linear_in_age(m, slope=0.5), m)
        assert not rep.passed
        assert rep.worst == pytest.approx(0.5)

    def test_saturated_boundary_is_exempt(self):
        # the last column flattens by design; only interior pairs count
        m = params()
        v = linear_in_age(m)
        v[m.delta_max - 1 :: m.delta_max] = v[m.delta_max - 2 :: m.delta_max]
        assert check_increment_aoi(v, m).passed


class TestIncrementMixed:
    def test_battery_flat_table_passes(self):
        # equal increments: inc(q+1) >= p * inc(q) holds for p < 1
        m = params()
        assert check_increment_mixed(linear_in_age(m), m).passed

    def test_damped_higher_battery_increments_fail(self):
        m = params()
        grid = np.empty((m.battery_cap + 1, m.delta_max))
        ages = np.arange(1, m.delta_max + 1, dtype=float)
        for q in range(m.battery_cap + 1):
            grid[q] = ages * (1.0 if q == 0 else 0.05)  # far below p_block = 0.2
        rep = check_increment_mixed(grid.reshape(-1), m)
        assert not rep.passed
        assert rep.witnesses[0][0].battery == 1


class TestSubmodular:
    def test_converged_solution_passes(self):
        m = params(delta_max=30)
        res, _ = modified_via(m, eps=1e-9)
        assert check_submodular(res.values, m).passed

    def test_gap_matches_the_oracle_at_the_acceptance_points(self):
        # the check reads the solver's Q values; the per-state gather over
        # kernel_arrays sums the same terms in another order
        for m in _acceptance_points():
            res, _ = modified_via(m, eps=1e-9)
            grid = res.values.reshape(m.battery_cap + 1, m.delta_max)
            idle, tx = _q_values(grid.T, m)
            q = bellman_backup_q(res.values, m).reshape((2,) + grid.shape)
            gap = (q[IDLE] - q[TRANSMIT])[:, :-1]  # ages whose successors are on the grid
            assert np.abs((idle - tx).T - gap).max() <= 1e-12, m
            worst = (gap[:, :-1] - gap[:, 1:]).max()
            assert abs(check_submodular(res.values, m).worst - worst) <= 1e-12, m

    @pytest.mark.parametrize("lam", [1.0, 1.0 - 1e-16])
    def test_reads_the_solution_where_the_battery_never_falls(self, lam):
        # policy iteration pins batteries 1..battery_cap - 1 idle at age 1
        # here; the check reads its bias like any other
        m = params(lambda_e=lam, battery_cap=5, delta_max=40)
        res, _ = modified_via(m, eps=1e-9)
        grid = res.values.reshape(m.battery_cap + 1, m.delta_max)
        idle, tx = _q_values(grid.T, m)
        q = bellman_backup_q(res.values, m).reshape((2,) + grid.shape)
        gap = (q[IDLE] - q[TRANSMIT])[:, :-1]
        assert np.abs((idle - tx).T - gap).max() <= 1e-12
        report = check_submodular(res.values, m)
        assert report.passed
        assert abs(report.worst - (gap[:, :-1] - gap[:, 1:]).max()) <= 1e-12

    def test_flat_values_are_degenerate_pass(self):
        # constant v: the Q gap is constant in age (transmit cost aside)
        m = params()
        assert check_submodular(np.zeros((m.battery_cap + 1) * m.delta_max), m).passed


class TestRunAllChecks:
    def test_converged_solution_passes_everything(self):
        m = params(battery_cap=5, delta_max=40)
        res, _ = modified_via(m, eps=1e-9)
        reports = run_all_checks(res.values, m)
        assert len(reports) == 5
        assert [r.name for r in reports] == [
            "monotone-aoi",
            "monotone-battery",
            "increment-aoi",
            "increment-mixed",
            "submodular-gap",
        ]
        for r in reports:
            assert r.passed, (r.name, r.worst, r.witnesses)
            assert r.tol == 1e-8

    def test_value_grid_reads_as_its_flattened_table(self):
        m = params(battery_cap=5, delta_max=40)
        res, _ = modified_via(m, eps=1e-9)
        grid = res.values.reshape(m.battery_cap + 1, m.delta_max)
        assert run_all_checks(grid, m) == run_all_checks(res.values, m)

    def test_reports_never_raise_on_garbage(self):
        m = params()
        rng = np.random.default_rng(3)
        reports = run_all_checks(rng.normal(size=(m.battery_cap + 1) * m.delta_max), m)
        assert any(not r.passed for r in reports)
        for r in reports:
            if not r.passed:
                assert r.worst > r.tol
                assert len(r.witnesses) == 1
