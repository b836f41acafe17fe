"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single line

    ACCEPTANCE <n> (<name>): PASS|FAIL [measurements]

so running ``pytest tests/test_acceptance.py -s`` doubles as the acceptance
report. Criteria with runtime budgets measure their own wall time.
"""

import itertools
import time

import numpy as np
import pytest

from ehaoi import (
    IDLE,
    TRANSMIT,
    ModelParams,
    Optimal,
    Periodic,
    State,
    ZeroWait,
    enumerate_states,
    evaluate_exact,
    modified_via,
    run_all_checks,
    simulate,
    state_count,
    transition,
)
from ehaoi.cli import main as cli_main
from oracles import extract_policy, extract_thresholds, grid_actions, grid_values

REFERENCE = dict(
    lambda_e=0.5,
    p_block=0.2,
    battery_cap=20,
    cost_reliable=2.0,
    weight=10.0,
    delta_max=200,
)

GRID_P = (0.2, 0.4, 0.6)
GRID_LAMBDA = (0.2, 0.5, 0.8)
GRID_WEIGHT = (1.0, 10.0)

SWEEP_WEIGHTS = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
SWEEP_LAMBDAS = (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)


def announce(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num} ({name}): {status}{suffix}")


@pytest.fixture(scope="module")
def reference_solution(base_params, base_solution):
    # the session solve from conftest, made with the same eps
    assert base_params == ModelParams(**REFERENCE)
    res, tp = base_solution
    return base_params, res, tp


@pytest.fixture(scope="module")
def structure_grid():
    points = {}
    t0 = time.perf_counter()
    for p, lam, w in itertools.product(GRID_P, GRID_LAMBDA, GRID_WEIGHT):
        m = ModelParams(
            lambda_e=lam,
            p_block=p,
            battery_cap=20,
            cost_reliable=2.0,
            weight=w,
            delta_max=200,
        )
        res, tp = modified_via(m, eps=1e-9)
        points[(p, lam, w)] = (m, res, tp)
    return points, time.perf_counter() - t0


def test_criterion_1_kernel_rows():
    """Every transition row at full size is a distribution with the
    documented branch structure; built and checked in under a second."""
    m = ModelParams(**REFERENCE)
    lam, p = m.lambda_e, m.p_block
    t0 = time.perf_counter()
    worst = 0.0
    for s in enumerate_states(m):
        aged = min(s.aoi + 1, m.delta_max)
        q = s.battery
        if q < m.battery_cap:
            idle_expected = {State(aged, q + 1): lam, State(aged, q): 1.0 - lam}
        else:
            idle_expected = {State(aged, q): 1.0}
        left = q - 1 if q > 0 else 0
        tx_expected = {
            State(aged, left + 1): p * lam,
            State(1, left + 1): (1.0 - p) * lam,
            State(aged, left): p * (1.0 - lam),
            State(1, left): (1.0 - p) * (1.0 - lam),
        }
        for a, expected in ((IDLE, idle_expected), (TRANSMIT, tx_expected)):
            got = dict(transition(s, a, m))
            assert set(got) == set(expected), (s, a)
            worst = max(worst, abs(sum(got.values()) - 1.0))
            worst = max(worst, max(abs(got[k] - expected[k]) for k in expected))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    announce(1, "kernel rows", ok, f"worst deviation {worst:.1e}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_2_solver_vs_enumeration():
    """At a size small enough to enumerate, the best of all 21^3 threshold
    policies (exact stationary evaluation) equals the solver gain."""
    m = ModelParams(
        lambda_e=0.5,
        p_block=0.5,
        battery_cap=2,
        cost_reliable=2.0,
        weight=1.0,
        delta_max=20,
    )
    t0 = time.perf_counter()
    gain = modified_via(m, eps=1e-9)[0].gain
    best_cost = np.inf
    best_triple = None
    choices = range(1, m.delta_max + 2)
    for triple in itertools.product(choices, repeat=m.battery_cap + 1):
        cost = evaluate_exact(Optimal(triple), m).average_cost
        if cost < best_cost:
            best_cost = cost
            best_triple = triple
    elapsed = time.perf_counter() - t0
    diff = abs(best_cost - gain)
    ok = diff <= 1e-6 and elapsed < 120.0
    announce(
        2,
        "solver vs exhaustive enumeration",
        ok,
        f"min {best_cost:.9f} at {best_triple}, gain {gain:.9f}, "
        f"diff {diff:.1e}, {elapsed:.1f}s",
    )
    assert diff <= 1e-6
    assert elapsed < 120.0


def test_criterion_3_structural_checks_on_grid(structure_grid):
    """All five value-structure checks pass and every greedy policy is
    threshold-form across the 18-point parameter grid."""
    points, solve_elapsed = structure_grid
    t0 = time.perf_counter()
    failures = []
    for key, (m, res, tp) in points.items():
        for report in run_all_checks(res.values, m, tol=1e-8):
            if not report.passed:
                failures.append((key, report.name, report.worst))
        extracted = extract_thresholds(grid_actions(tp, m), m)  # raises if not threshold-form
        if extracted.thresholds != tp.thresholds:
            failures.append((key, "threshold-mismatch", extracted.thresholds))
    elapsed = solve_elapsed + (time.perf_counter() - t0)
    ok = not failures and elapsed < 600.0
    announce(
        3,
        "structural checks on grid",
        ok,
        f"{len(points)} points, {len(failures)} failures, {elapsed:.1f}s incl. solves",
    )
    assert not failures, failures
    assert elapsed < 600.0


def test_criterion_4_threshold_scan_equivalence(structure_grid):
    """The thresholds read off the greedy Q values reproduce the full argmin
    policy on every grid point, and argmin_evals, sum_q min(threshold_q,
    delta_max), is below the state count wherever some threshold exceeds 1."""
    points, _ = structure_grid
    problems = []
    for key, (m, res, tp) in points.items():
        full = extract_policy(grid_values(res, m), m)
        if not np.array_equal(grid_actions(tp, m), full):
            problems.append((key, "policy-mismatch"))
        if max(tp.thresholds) > 1 and not res.argmin_evals < state_count(m):
            problems.append((key, "no-work-saved", res.argmin_evals))
    evals = [res.argmin_evals for (_, res, _) in points.values()]
    ok = not problems
    announce(
        4,
        "threshold extraction equivalence",
        ok,
        f"argmin evals {min(evals)}..{max(evals)} of {state_count(ModelParams(**REFERENCE))} states",
    )
    assert not problems, problems


def test_criterion_5_backup_price_sweep():
    """Sweeping the backup-energy weight: the solved policy dominates both
    baselines, the zero-wait gap grows with the weight, and it vanishes
    (under 5% of optimal) when backup energy is nearly free."""
    rows = []
    for w in SWEEP_WEIGHTS:
        m = ModelParams(**{**REFERENCE, "weight": w})
        _, tp = modified_via(m, eps=1e-9)
        opt = evaluate_exact(tp, m).average_cost
        zw = evaluate_exact(ZeroWait(), m).average_cost
        per = evaluate_exact(Periodic(5), m).average_cost
        rows.append((w, opt, zw, per))

    dominated = all(opt <= zw + 1e-9 and opt <= per + 1e-9 for _, opt, zw, per in rows)
    at_ten = next(r for r in rows if r[0] == 10.0)
    strict_at_ten = at_ten[1] < at_ten[2] and at_ten[1] < at_ten[3]
    gaps = [zw - opt for _, opt, zw, _ in rows]
    monotone = all(b >= a - 1e-9 for a, b in zip(gaps, gaps[1:]))
    rel_gap_cheap = gaps[0] / rows[0][1]
    cheap_ok = rel_gap_cheap < 0.05

    ok = dominated and strict_at_ten and monotone and cheap_ok
    announce(
        5,
        "backup price sweep",
        ok,
        f"zero-wait gap {gaps[0]:.4f}..{gaps[-1]:.4f}, "
        f"gap at weight 0.1 = {rel_gap_cheap:.2%} of optimal",
    )
    assert dominated, rows
    assert strict_at_ten, at_ten
    assert monotone, gaps
    assert cheap_ok, f"gap at weight 0.1 is {rel_gap_cheap:.2%} of optimal"


def test_criterion_6_harvest_rate_sweep():
    """Sweeping the harvest rate: the solved policy dominates both baselines
    everywhere; at lambda_e = 0.99 the fixed period-5 schedule stays more
    than 10% off optimal, while zero-wait catches up in the only way the
    model allows.

    Zero-wait uses one packet every slot and at most lambda_e of them are
    free, so by energy conservation it buys backup packets at a rate of at
    least 1 - lambda_e; its cost can never come within 1% of optimal at
    lambda_e = 0.99 (that needs lambda_e > 0.99934 here). What does hold:

    (a) at lambda_e = 0.99 zero-wait's reliable rate is exactly
        1 - lambda_e, and its whole excess over optimal is that backup
        bill: 0 <= zw - opt <= weight * cost_reliable * reliable_rate;
    (b) at lambda_e = 0.99 the solved policy's average AoI is within 1% of
        zero-wait's (zero-wait's AoI, 1 / (1 - p_block), is the least of
        any policy);
    (c) zero-wait's relative cost gap falls strictly over lambda_e = 0.5,
        0.7, 0.9, 0.99 (below 0.5 it rises with lambda_e instead, because
        the optimal cost it is measured against falls faster there).
    """
    rows = []
    for lam in SWEEP_LAMBDAS:
        m = ModelParams(**{**REFERENCE, "lambda_e": lam})
        _, tp = modified_via(m, eps=1e-9)
        opt = evaluate_exact(tp, m)
        zw = evaluate_exact(ZeroWait(), m)
        per = evaluate_exact(Periodic(5), m).average_cost
        rows.append((lam, m, opt, zw, per))

    dominated = all(
        opt.average_cost <= zw.average_cost + 1e-9 and opt.average_cost <= per + 1e-9
        for _, _, opt, zw, per in rows
    )
    lam99, m99, opt99, zw99, per99 = rows[-1]
    assert lam99 == 0.99
    rel_per = (per99 - opt99.average_cost) / opt99.average_cost
    periodic_stays_off = rel_per > 0.10

    # (a) Measured: the excess is 0.95 of the backup bill at lambda_e = 0.7,
    # 0.9 and 0.99; the rest is the AoI the solved policy gives up to avoid
    # paying.
    backup_bill = m99.weight * m99.cost_reliable * zw99.reliable_energy_rate
    excess = zw99.average_cost - opt99.average_cost
    zero_wait_rate_ok = abs(zw99.reliable_energy_rate - (1 - lam99)) < 1e-10
    excess_is_bill = 0 <= excess <= backup_bill
    # (b) The age side of "zero-wait comes within 1%".
    rel_aoi = (opt99.average_aoi - zw99.average_aoi) / opt99.average_aoi
    aoi_near = abs(rel_aoi) < 0.01
    # (c) The cost gap closes as harvested energy becomes plentiful.
    gaps = [
        (zw.average_cost - opt.average_cost) / opt.average_cost
        for lam, _, opt, zw, _ in rows
        if lam >= 0.5
    ]
    gap_closes = all(a > b for a, b in zip(gaps, gaps[1:]))

    ok = (
        dominated
        and periodic_stays_off
        and zero_wait_rate_ok
        and excess_is_bill
        and aoi_near
        and gap_closes
    )
    announce(
        6,
        "harvest rate sweep",
        ok,
        f"at lambda_e=0.99: zero-wait cost {zw99.average_cost:.4f} vs optimal "
        f"{opt99.average_cost:.4f} (AoI {zw99.average_aoi:.4f} vs "
        f"{opt99.average_aoi:.4f}, reliable rate {zw99.reliable_energy_rate:.2e} vs "
        f"{opt99.reliable_energy_rate:.2e}); excess {excess / backup_bill:.2f} of "
        f"zero-wait's backup bill (needs 0..1), AoI gap {rel_aoi:.2%} (needs < 1%), "
        f"periodic gap {rel_per:.2%} (needs > 10%); zero-wait gap over "
        f"lambda_e >= 0.5 {', '.join(f'{g:.3f}' for g in gaps)} (needs falling); "
        f"dominance {'ok' if dominated else 'violated'}",
    )
    assert dominated, [
        (lam, opt.average_cost, zw.average_cost, per) for lam, _, opt, zw, per in rows
    ]
    assert periodic_stays_off, f"periodic gap {rel_per:.2%}"
    assert zero_wait_rate_ok, (
        f"zero-wait reliable rate {zw99.reliable_energy_rate!r}, expected {1 - lam99!r}"
    )
    assert excess_is_bill, (
        f"zero-wait excess {excess:.6f} outside [0, backup bill {backup_bill:.6f}]"
    )
    assert aoi_near, (
        f"solved AoI {opt99.average_aoi:.6f} vs zero-wait {zw99.average_aoi:.6f}: "
        f"gap {rel_aoi:.2%}"
    )
    assert gap_closes, gaps


def test_criterion_7_simulator_cross_check(reference_solution):
    """Million-slot simulations bracket the exact averages for the solved
    and zero-wait policies, and the exact evaluation matches the gain."""
    m, res, tp = reference_solution
    exact_opt = evaluate_exact(tp, m)
    exact_zw = evaluate_exact(ZeroWait(), m)
    gain_diff = abs(exact_opt.average_cost - res.gain)

    seeds = (1, 2, 3, 4, 5)
    horizon = 1_000_000
    worst_z = 0.0
    sim_s = 0.0
    for kind, exact in ((tp, exact_opt), (ZeroWait(), exact_zw)):
        for seed in seeds:
            start = time.perf_counter()
            rep = simulate(kind, m, horizon, seed)
            sim_s += time.perf_counter() - start
            z = abs(rep.average_cost - exact.average_cost) / rep.ci_halfwidth
            worst_z = max(worst_z, z)

    ok = gain_diff < 1e-7 and worst_z <= 3.0
    slots = 2 * len(seeds) * horizon
    announce(
        7,
        "simulator cross-check",
        ok,
        f"|exact - gain| = {gain_diff:.1e}, worst |sim - exact| = "
        f"{worst_z:.2f} half-widths over {2 * len(seeds)} runs, "
        f"simulator {sim_s / slots * 1e9:.0f} ns/slot",
    )
    assert gain_diff < 1e-7
    assert worst_z <= 3.0


def test_criterion_8_age_cap_stability(reference_solution):
    """Doubling the age cap moves the gain by less than 1e-8 and no
    threshold changes."""
    m, res, tp = reference_solution
    doubled = ModelParams(**{**REFERENCE, "delta_max": 400})
    res2, tp2 = modified_via(doubled, eps=1e-9)
    gain_diff = abs(res2.gain - res.gain)
    same = tp2.thresholds == tp.thresholds
    ok = gain_diff < 1e-8 and same
    announce(
        8,
        "age cap stability",
        ok,
        f"|gain(400) - gain(200)| = {gain_diff:.1e}, thresholds "
        f"{'unchanged' if same else 'changed'}",
    )
    assert gain_diff < 1e-8
    assert same, (tp.thresholds, tp2.thresholds)


def test_criterion_9_deterministic_output(tmp_path):
    """Identical configurations, including seeds, produce byte-identical
    CSV files across independent runs."""
    base = [
        "--lambda-e", "0.5",
        "--p-block", "0.2",
        "--battery-cap", "20",
        "--cost-reliable", "2",
        "--weight", "10",
        "--delta-max", "200",
    ]
    names = ("thresholds.csv", "thresholds_policy.csv", "sim.csv", "sweep.csv")
    for tag in ("first", "second"):
        d = tmp_path / tag
        d.mkdir()
        assert cli_main(["solve", *base, "--out", str(d / "thresholds.csv")]) == 0
        assert cli_main([
            "simulate", *base,
            "--policy", "optimal",
            "--horizon", "200000",
            "--seed", "1", "--seed", "2", "--seed", "3",
            "--out", str(d / "sim.csv"),
        ]) == 0
        assert cli_main([
            "sweep", *base,
            "--axis", "weight",
            "--grid", "1,10",
            "--out", str(d / "sweep.csv"),
        ]) == 0
    mismatched = [
        name
        for name in names
        if (tmp_path / "first" / name).read_bytes() != (tmp_path / "second" / name).read_bytes()
    ]
    ok = not mismatched
    announce(9, "deterministic output", ok, f"{len(names)} files compared byte for byte")
    assert not mismatched, mismatched
