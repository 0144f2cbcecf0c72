import os
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from seplqg import harness
from seplqg.belief import GaussianBelief, psd_sqrt
from seplqg.exceptions import InsufficientEnsembleError, IntegrationDivergedError
from seplqg.harness import (
    closed_loop_band,
    complexity_report,
    cost_gradient_coefficients,
    probe_nodes_from_fractions,
    probe_output_rows,
    run_monte_carlo,
)
from seplqg.lqg import design_lqg
from seplqg.plant import HeatPlant, HeatPlantConfig, LinearPlant
from seplqg.rng import stream
from seplqg.sysid import LtvRom, collect_impulse_responses, tv_era
from seplqg.trajopt import CostSpec, NominalTrajectory, OptimizeOptions, optimize


def constant_rom(A, B, C, N):
    return LtvRom(
        A_hat=np.tile(np.asarray(A, dtype=float), (N, 1, 1)),
        B_hat=np.tile(np.asarray(B, dtype=float), (N, 1, 1)),
        C_hat=np.tile(np.asarray(C, dtype=float), (N + 1, 1, 1)),
        n_r=np.asarray(A).shape[0],
        time_range=(0, N - 1),
        singular_values={},
    )


def linear_setup(W=0.2, V=0.3, N=20, seed=3):
    A = np.array([[0.92, 0.1], [0.0, 0.8]])
    B = np.array([[1.0], [0.4]])
    C = np.array([[1.0, 0.2]])
    plant = LinearPlant(A, B, C, W=W * np.eye(1), V=V * np.eye(1), horizon=N)
    b0 = GaussianBelief(np.array([0.5, -0.3]), 0.3 * np.eye(2))
    spec = CostSpec.from_weights(2, 1, q_mean=1.0, r_u=0.2, q_terminal=1.5, target=[0.2, 0.0])
    opts = OptimizeOptions(alpha=0.3, max_iters=150, tol=1e-9, method="kf", h=1e-5)
    nominal = optimize(np.zeros((N, 1)), b0, plant, spec, opts)
    rom = constant_rom(A, B, C, N)
    ctrl = design_lqg(rom, W=plant.spec.W, V=plant.spec.V, P0=b0.cov, q_y=1.0, r=0.2)
    return plant, b0, spec, nominal, ctrl


def heat_setup():
    """16-node heat slab, horizon 30, one optimizer iteration and an
    order-6 ROM controller."""
    plant = HeatPlant(HeatPlantConfig(n_grid=16, horizon=30))
    b0 = GaussianBelief(plant.initial_state(), 0.25 * np.eye(16))
    spec = CostSpec.from_weights(16, 5, q_mean=1.0, r_u=1e-3, target=150.0)
    opts = OptimizeOptions(alpha=20.0, max_iters=1, M=8, seed=1, h=1e-2)
    nominal = optimize(np.zeros((30, 5)), b0, plant, spec, opts)
    rom = tv_era(collect_impulse_responses(plant, nominal), n_r=6, p=4, q=4)
    ctrl = design_lqg(rom, W=plant.spec.W, V=plant.spec.V)
    return plant, spec, nominal, ctrl


# ---------------------------------------------------------------------------
# cost gradient coefficients
# ---------------------------------------------------------------------------


def test_coefficients_match_quadratic_gradients():
    plant, b0, spec, nominal, ctrl = linear_setup()
    C_mu, C_u, c_tr = cost_gradient_coefficients(nominal, spec)
    h = 1e-5

    def central_difference(f, x):
        return np.array([(f(x + h * e) - f(x - h * e)) / (2.0 * h) for e in np.eye(x.size)])

    for k in (0, 5, nominal.horizon):
        Q = spec.Q_terminal if k == nominal.horizon else spec.Q_mean

        def stage(mu):
            return (mu - spec.target) @ Q @ (mu - spec.target)

        assert np.allclose(C_mu[k], central_difference(stage, nominal.means[k]), atol=1e-6)
    for k in (0, 7):
        expected = central_difference(lambda u: u @ spec.R_u @ u, nominal.controls[k])
        assert np.allclose(C_u[k], expected, atol=1e-8)
    assert c_tr == 0.0


def test_trace_coefficient_active_with_trace_weight():
    plant, b0, spec, nominal, ctrl = linear_setup()
    spec_tr = CostSpec(
        Q_mean=spec.Q_mean, q_trace=0.7, R_u=spec.R_u, Q_terminal=spec.Q_terminal, target=spec.target
    )
    _, _, c_tr = cost_gradient_coefficients(nominal, spec_tr)
    assert c_tr == pytest.approx(0.7, rel=1e-8)


def test_kf_realized_cost_includes_every_trace_term():
    plant, b0, spec, nominal, ctrl = linear_setup()
    kw = dict(n_runs=12, base_seed=8, probe_positions=(), belief="kf")
    base = run_monte_carlo(plant, nominal, ctrl, cost=spec, **kw)
    traced = run_monte_carlo(plant, nominal, ctrl, cost=replace(spec, q_trace=0.7), **kw)
    # the exact-KF covariances do not depend on the run: every run pays
    # q_trace * sum_k tr P_k, the nominal's own trace term, and delta_J
    # carries no trace deviation
    expected = 0.7 * nominal.cov_traces.sum()
    assert np.allclose(traced.cost_samples - base.cost_samples, expected, rtol=1e-10, atol=0)
    assert np.array_equal(traced.delta_J_samples, base.delta_J_samples)


# ---------------------------------------------------------------------------
# run_monte_carlo
# ---------------------------------------------------------------------------


def test_noiseless_runs_reproduce_nominal_exactly():
    plant, b0, spec, nominal, _ = linear_setup(W=0.0, V=0.0)
    rom = constant_rom(*plant.matrices(0), plant.horizon)
    ctrl = design_lqg(rom, W=np.zeros((1, 1)), V=np.eye(1), P0=np.zeros((2, 2)))
    report = run_monte_carlo(
        plant, nominal, ctrl, n_runs=3, base_seed=0, probe_positions=(0.0, 1.0),
        cost=spec, belief="kf",
    )
    assert np.allclose(report.mean_traj, nominal.means, atol=1e-9)
    assert np.allclose(report.run0_closed_err, 0.0, atol=1e-9)
    assert np.allclose(report.run0_open_err, 0.0, atol=1e-9)
    assert np.allclose(report.delta_J_samples, 0.0, atol=1e-7)
    assert report.failures == 0


def test_report_bit_reproducible_and_chunk_independent():
    plant, b0, spec, nominal, ctrl = linear_setup()
    kw = dict(n_runs=30, base_seed=42, probe_positions=(0.5,), cost=spec, belief="kf")
    r1 = run_monte_carlo(plant, nominal, ctrl, chunk=7, **kw)
    r2 = run_monte_carlo(plant, nominal, ctrl, chunk=30, **kw)
    assert np.array_equal(r1.delta_J_samples, r2.delta_J_samples)
    assert np.array_equal(r1.cost_samples, r2.cost_samples)
    assert np.array_equal(r1.mean_traj, r2.mean_traj)
    r3 = run_monte_carlo(plant, nominal, ctrl, chunk=7, **kw)
    assert np.array_equal(r1.mean_traj, r3.mean_traj)

    # EnKF belief on a heat slab under the identified controller: every
    # step gives the same bits for any chunk, one-run chunks included
    plant, spec, nominal, ctrl = heat_setup()
    spec = replace(spec, q_trace=0.5)
    assert np.abs(ctrl.L_gains).max() > 0.1
    kw = dict(n_runs=10, base_seed=5, probe_positions=(0.5,), cost=spec, belief_size=10)
    reports = [run_monte_carlo(plant, nominal, ctrl, chunk=c, **kw) for c in (10, 1, 3)]
    for r in reports[1:]:
        for name in ("delta_J_samples", "cost_samples", "mean_traj", "mse_closed", "mse_open"):
            assert np.array_equal(getattr(r, name), getattr(reports[0], name)), name


def test_realized_cost_equals_dense_quadratic_forms(monkeypatch):
    # the scoring pass sums the diagonal weights row by row; rebuild each
    # run's realized cost from the belief filter's controls and members
    # with the dense quadratic forms
    plant, spec, nominal, ctrl = heat_setup()
    spec = CostSpec.from_weights(16, 5, q_mean=np.linspace(0.5, 2.0, 16), r_u=np.linspace(1e-3, 5e-3, 5),
                                 q_terminal=3.0, q_trace=0.5, target=150.0)
    controls, members = [], []
    predict, update = harness.enkf_predict_members, harness.enkf_update_members
    monkeypatch.setattr(harness, "_workers", lambda: 1)
    monkeypatch.setattr(harness, "enkf_predict_members",
                        lambda X, u, *rest: controls.append(u) or predict(X, u, *rest))
    monkeypatch.setattr(harness, "enkf_update_members",
                        lambda *args: members.append(update(*args)) or members[-1])
    report = run_monte_carlo(plant, nominal, ctrl, n_runs=4, base_seed=3, probe_positions=(),
                             cost=spec, belief_size=10)

    d0 = nominal.means[0] - spec.target
    expected = d0 @ spec.Q_mean @ d0 + 0.5 * np.trace(nominal.prior_cov)
    for k, (u, X) in enumerate(zip(controls, members)):
        Q = spec.Q_terminal if k == nominal.horizon - 1 else spec.Q_mean
        d = X.mean(axis=1) - spec.target
        Xc = X - X.mean(axis=1, keepdims=True)
        expected = expected + np.einsum("ri,ij,rj->r", u, spec.R_u, u) + np.einsum("ri,ij,rj->r", d, Q, d)
        expected = expected + 0.5 * np.einsum("rmi,rmi->r", Xc, Xc) / 9
    assert len(members) == nominal.horizon
    assert np.allclose(report.cost_samples, expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("correlated_prior", [False, True])
def test_initial_members_are_the_prior_draws(monkeypatch, correlated_prior):
    # each run's members start at x0 + Z S0^T, Z its "enkf-init" draw:
    # bit for bit with the CLI's diagonal prior, to rounding otherwise
    plant, spec, nominal, ctrl = heat_setup()
    if correlated_prior:
        nominal = replace(nominal, prior_cov=correlated(16, 0.25, 6))
    S0 = psd_sqrt(nominal.prior_cov)
    assert np.allclose(S0, np.diag(np.diag(S0))) != correlated_prior
    first = []
    predict = harness.enkf_predict_members
    monkeypatch.setattr(harness, "_workers", lambda: 1)
    monkeypatch.setattr(harness, "enkf_predict_members",
                        lambda X, *rest: predict(X, *rest) if first else first.append(X.copy()) or predict(X, *rest))
    run_monte_carlo(plant, nominal, ctrl, n_runs=5, base_seed=4, probe_positions=(), cost=spec,
                    belief_size=10)
    x0 = nominal.means[0]
    expected = np.stack([x0 + stream(4, r, "enkf-init").standard_normal((10, 16)) @ S0.T
                         for r in range(5)])
    if correlated_prior:
        assert np.allclose(first[0], expected, rtol=1e-12, atol=0)
        # the deviations from x0, about 200 times smaller, agree as well
        dev = expected - x0
        assert np.allclose(first[0] - x0, dev, rtol=0, atol=1e-12 * np.abs(dev).max())
    else:
        assert np.array_equal(first[0], expected)


def test_open_loop_equals_closed_loop_with_zero_gains():
    # paired noise: with L = 0 the applied controls are the nominal ones,
    # so matched draws make both trajectories identical
    plant, b0, spec, nominal, ctrl = linear_setup()
    rom = ctrl.rom
    zero_ctrl = design_lqg(rom, W=plant.spec.W, V=plant.spec.V, Qk=1e-12 * np.eye(2),
                           QN=1e-12 * np.eye(2), Rk=np.eye(1))
    assert np.abs(zero_ctrl.L_gains).max() < 1e-9
    report = run_monte_carlo(
        plant, nominal, zero_ctrl, n_runs=10, base_seed=7, probe_positions=(0.5,), cost=spec,
        belief="kf",
    )
    assert np.allclose(report.run0_closed_err, report.run0_open_err, atol=1e-7)
    assert np.allclose(report.mse_closed, report.mse_open, rtol=1e-6)


def test_enkf_belief_runs_are_reproducible():
    plant, b0, spec, nominal, ctrl = linear_setup()
    kw = dict(n_runs=8, base_seed=11, probe_positions=(), cost=spec, belief="enkf", belief_size=30)
    r1 = run_monte_carlo(plant, nominal, ctrl, chunk=3, **kw)
    r2 = run_monte_carlo(plant, nominal, ctrl, chunk=8, **kw)
    assert np.array_equal(r1.delta_J_samples, r2.delta_J_samples)


class CountingHeatPlant(HeatPlant):
    """Heat slab that counts the rows it steps, by the number of axes of
    the state: 3 for belief members (runs, M, n_x), 2 and 1 for the
    closed and open loops (and the impulse experiments)."""

    def __init__(self, config, W=None, V=None):
        super().__init__(config, W, V)
        self.rows = Counter()

    def step(self, state, control, process_noise, k=0):
        out = super().step(state, control, process_noise, k)
        self.rows[np.ndim(state)] += int(np.prod(np.shape(state)[:-1]))
        return out


class DivergesOnRun3(CountingHeatPlant):
    """Heat slab whose step diverges for the rows driven by Monte Carlo
    run 3's process noise at k = 10 (its closed- and open-loop steps)."""

    def __init__(self, config, base_seed):
        super().__init__(config)
        w = stream(base_seed, 3, "w").standard_normal((config.horizon, self.n_u))
        self.w_run3_k10 = (w @ psd_sqrt(self.spec.W).T)[10]

    def step(self, state, control, process_noise, k=0):
        w = np.asarray(process_noise)
        if k == 10 and w.ndim and (w == self.w_run3_k10).all(axis=-1).any():
            raise IntegrationDivergedError(f"forced divergence at step k={k}")
        return super().step(state, control, process_noise, k)


def test_diverged_runs_are_left_out_of_every_average():
    plant, spec, nominal, ctrl = heat_setup()
    kw = dict(n_runs=16, base_seed=5, cost=spec, belief_size=10, chunk=8)
    counting = CountingHeatPlant(plant.config)
    healthy = run_monte_carlo(counting, nominal, ctrl, **kw)
    failing = DivergesOnRun3(plant.config, base_seed=5)
    report = run_monte_carlo(failing, nominal, ctrl, **kw)
    assert (healthy.failures, healthy.n_effective) == (0, 16)
    assert (report.failures, report.n_effective, report.n_runs) == (1, 15, 16)
    assert len(report.delta_J_samples) == 15
    assert np.array_equal(report.delta_J_samples, np.delete(healthy.delta_J_samples, 3))
    assert np.array_equal(report.cost_samples, np.delete(healthy.cost_samples, 3))

    # every run's belief members are stepped once, failure or not, while
    # the loop pass of the failing chunk runs twice; in each of its passes
    # run 3's closed- and open-loop steps at k = 10 never complete
    N, M, chunk = nominal.horizon, 10, 8
    assert counting.rows[3] == failing.rows[3] == 16 * N * M

    def loop_rows(p):
        return p.rows[2] + p.rows[1]

    loop_pass = 2 * chunk * N
    assert loop_rows(failing) - loop_rows(counting) == 2 * (loop_pass - 2) - loop_pass

    def averages(r):
        return np.concatenate([r.mean_traj.ravel(), r.mse_closed, r.mse_open])

    def run_sums(n):
        r = healthy if n == 16 else run_monte_carlo(plant, nominal, ctrl, **{**kw, "n_runs": n})
        return n * averages(r)

    # sums over runs 0..n-1 of healthy reports: S16 - (S4 - S3) leaves run 3 out
    expected = run_sums(16) - (run_sums(4) - run_sums(3))
    assert np.allclose(15 * averages(report), expected, rtol=1e-9, atol=0)


REPORT_FIELDS = ("delta_J_samples", "cost_samples", "mean_traj", "mse_closed", "mse_open",
                 "run0_closed_err", "run0_open_err", "two_sigma")


def scored_reports(monkeypatch, run, block_bytes):
    """run() once as one scoring block per chunk in this process, then
    with blocks of block_bytes in this process and on more worker
    processes than this machine may have CPUs."""
    monkeypatch.setattr(harness, "_SCORE_BLOCK_BYTES", 1 << 40)
    monkeypatch.setattr(harness, "_workers", lambda: 1)
    reports = [run()]
    monkeypatch.setattr(harness, "_SCORE_BLOCK_BYTES", block_bytes)
    reports.append(run())
    monkeypatch.setattr(harness, "_workers", lambda: 2 * os.cpu_count() + 1)
    reports.append(run())
    return reports


def assert_same_reports(reports):
    for r in reports[1:]:
        for name in REPORT_FIELDS:
            assert np.array_equal(getattr(r, name), getattr(reports[0], name)), name


def correlated(n, scale, seed):
    A = stream(seed, n, "cov").standard_normal((n, n))
    return scale * (A @ A.T / n + np.eye(n))


def test_blocked_parallel_scoring_equals_one_block(monkeypatch):
    # EnKF on a heat slab with correlated W and V, so that each noise slab
    # goes through a non-trivial square root, and a 30-step horizon that
    # ends in a partial slab
    plant, spec, nominal, ctrl = heat_setup()
    plant = HeatPlant(plant.config, W=correlated(5, 0.5, 1), V=correlated(5, 0.3, 2))
    assert not np.allclose(psd_sqrt(plant.spec.W), np.diag(np.diag(psd_sqrt(plant.spec.W))))
    spec = replace(spec, q_trace=0.5)
    M = 10
    kw = dict(n_runs=12, base_seed=5, probe_positions=(0.5,), cost=spec, belief_size=M, chunk=8)
    # chunks of 8 and 4 runs in blocks of at most 3: 3 + 3 + 2 and 2 + 2
    reports = scored_reports(monkeypatch, lambda: run_monte_carlo(plant, nominal, ctrl, **kw),
                             3 * 8 * plant.n_x * M)
    assert_same_reports(reports)
    assert np.all(reports[0].delta_J_samples != 0.0)

    # the linear plant, whose steps are matrix products: EnKF in blocks of
    # 2 runs, and the exact KF, which is never split
    plant, b0, spec, nominal, ctrl = linear_setup()
    for belief in ("enkf", "kf"):
        kw = dict(n_runs=17, base_seed=9, probe_positions=(0.5,), cost=replace(spec, q_trace=0.7),
                  belief=belief, belief_size=M, chunk=7)
        reports = scored_reports(monkeypatch, lambda: run_monte_carlo(plant, nominal, ctrl, **kw),
                                 2 * 8 * plant.n_x * M)
        assert_same_reports(reports)


def test_noise_slabs_repeat_the_per_step_draws(monkeypatch):
    # one block of 4 runs of 6 members on a 16-node slab; the byte budget
    # sets the slab of filter noise drawn per generator call to 1 step,
    # 7 steps (the last slab is partial) and the whole 30-step horizon
    plant, spec, nominal, ctrl = heat_setup()
    plant = HeatPlant(plant.config, W=correlated(5, 0.5, 3), V=correlated(5, 0.3, 4))
    kw = dict(n_runs=4, base_seed=2, probe_positions=(), cost=replace(spec, q_trace=0.5), belief_size=6)
    reports = []
    for budget in (4 * 8 * 6 * 16, 7 * 8 * 4 * 6 * 10, 1 << 40):
        monkeypatch.setattr(harness, "_SCORE_BLOCK_BYTES", budget)
        reports.append(run_monte_carlo(plant, nominal, ctrl, **kw))
    assert_same_reports(reports)


class BeliefDivergesInLastBlock(HeatPlant):
    """Heat slab on which the belief members of the two-run scoring block
    turn non-finite at k = 7."""

    def step(self, state, control, process_noise, k=0):
        if k == 7 and np.ndim(state) == 3 and np.shape(state)[0] == 2:
            state = np.array(state)
            state[1, 0, 3] = np.nan
        return super().step(state, control, process_noise, k)


@pytest.mark.parametrize("workers", [1, 2])
def test_belief_divergence_in_a_block_reaches_the_caller(monkeypatch, workers):
    # blocks of 3 + 3 + 2 runs, scored in this process with one worker
    # and in forked worker processes with two, which pickle the error back
    plant, spec, nominal, ctrl = heat_setup()
    plant = BeliefDivergesInLastBlock(plant.config)
    monkeypatch.setattr(harness, "_SCORE_BLOCK_BYTES", 3 * 8 * plant.n_x * 10)
    monkeypatch.setattr(harness, "_workers", lambda: workers)
    with pytest.raises(IntegrationDivergedError, match="k=7"):
        run_monte_carlo(plant, nominal, ctrl, n_runs=8, base_seed=5, probe_positions=(), cost=spec,
                        belief_size=10)


def test_run_monte_carlo_validates_inputs():
    plant, b0, spec, nominal, ctrl = linear_setup()
    with pytest.raises(ValueError):
        run_monte_carlo(plant, nominal, ctrl, n_runs=0, base_seed=0)


def test_one_member_belief_filter_is_rejected_before_any_step():
    plant, spec, nominal, ctrl = heat_setup()
    plant = CountingHeatPlant(plant.config)
    with pytest.raises(InsufficientEnsembleError, match="belief_size=1"):
        run_monte_carlo(plant, nominal, ctrl, n_runs=4, base_seed=0, cost=spec, belief_size=1)
    assert not plant.rows


@pytest.mark.parametrize("chunk", [0, -1])
def test_chunk_below_one_is_rejected_before_any_step(chunk):
    # unchecked, chunk -1 without a cost gave a report of 5 runs that
    # simulated none, and with a cost the chunk loop raised a raw error
    plant, spec, nominal, ctrl = heat_setup()
    plant = CountingHeatPlant(plant.config)
    for cost in (None, spec):
        with pytest.raises(ValueError, match=f"chunk must be >= 1, got {chunk}"):
            run_monte_carlo(plant, nominal, ctrl, n_runs=5, base_seed=0, cost=cost, chunk=chunk)
    assert not plant.rows


# ---------------------------------------------------------------------------
# theorem-1 style checks
# ---------------------------------------------------------------------------


def test_linear_exact_kf_mean_delta_j_statistically_zero():
    plant, b0, spec, nominal, ctrl = linear_setup()
    report = run_monte_carlo(
        plant, nominal, ctrl, n_runs=1000, base_seed=19, probe_positions=(), cost=spec, belief="kf"
    )
    assert abs(report.delta_J_mean) <= 3.0 * report.delta_J_se
    assert report.nominal_cost == pytest.approx(nominal.nominal_cost)


def test_zero_noise_delta_j_identically_zero():
    plant, b0, spec, nominal, _ = linear_setup(W=0.0, V=0.0)
    rom = constant_rom(*plant.matrices(0), plant.horizon)
    ctrl = design_lqg(rom, W=np.zeros((1, 1)), V=np.eye(1), P0=np.zeros((2, 2)))
    report = run_monte_carlo(
        plant, nominal, ctrl, n_runs=120, base_seed=3, probe_positions=(), cost=spec, belief="kf"
    )
    assert np.abs(report.delta_J_samples).max() <= 1e-7


def test_delta_j_standard_error_scales_inverse_sqrt():
    plant, b0, spec, nominal, ctrl = linear_setup()
    se1, se4 = (
        run_monte_carlo(plant, nominal, ctrl, n_runs=n, base_seed=23, probe_positions=(), cost=spec,
                        belief="kf").delta_J_se
        for n in (200, 800)
    )
    ratio = se1 / se4
    assert 2.0 / 1.3 <= ratio <= 2.0 * 1.3


# ---------------------------------------------------------------------------
# probe rows and bands
# ---------------------------------------------------------------------------


def test_probe_rows_recover_output_map_on_linear_plant():
    # the constant ROM lives in the plant coordinates themselves, so the
    # fitted output row for state entry i must be the selector e_i
    plant, b0, spec, nominal, ctrl = linear_setup()
    rom = ctrl.rom
    rows = probe_output_rows(plant, nominal, rom, nodes=(0, 1), epsilon=1e-4, lag=6)
    for k in range(8, 16):
        assert np.allclose(rows[k], np.eye(2), atol=1e-6)


def test_closed_loop_band_zero_noise():
    plant, b0, spec, nominal, ctrl = linear_setup()
    noiseless = design_lqg(ctrl.rom, W=np.zeros((1, 1)), V=1e-12 * np.eye(1), P0=np.zeros((2, 2)))
    band = closed_loop_band(noiseless, np.ones((21, 1, 2)))
    assert np.allclose(band, 0.0, atol=1e-5)


def test_probe_nodes_from_fractions():
    assert probe_nodes_from_fractions(100, (0.4, 0.9)) == (40, 89)
    assert probe_nodes_from_fractions(100, ()) == ()
    assert probe_nodes_from_fractions(16, (0.0, 1.0)) == (0, 15)


@pytest.mark.parametrize("bad", [-0.5, 1.5])
def test_probe_positions_outside_the_slab_are_rejected(bad):
    with pytest.raises(ValueError, match=f"probe position {bad} outside"):
        probe_nodes_from_fractions(16, (bad, 0.9))


# ---------------------------------------------------------------------------
# complexity accounting
# ---------------------------------------------------------------------------


def test_complexity_benchmark_numbers():
    rep = complexity_report(100, 20)
    assert rep.belief_dim == 10100
    assert rep.ratio == pytest.approx(2.5e5)
    assert rep.order_exponent == 5
    assert not rep.no_reduction
    text = rep.summary()
    assert "10100 x 10100 vs 20 x 20 Riccati" in text
    assert "O(10^5)" in text


def test_complexity_degenerate_order():
    rep = complexity_report(50, 50)
    assert rep.no_reduction
    assert rep.ratio == pytest.approx(50.0**2)
    assert "no reduction" in rep.summary()


def test_complexity_validates():
    with pytest.raises(ValueError):
        complexity_report(0, 5)
