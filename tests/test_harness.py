import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from kalman_reference import kalman_predict, kalman_update
from per_k_reference import band_reference, probe_rows_reference
from test_sysid import zero_nominal
from test_trajopt import BlackBox, lq_direct_solution
from test_trajopt import CountingHeatPlant as CountingSlab

from seplqg import harness
from seplqg.belief import GaussianBelief, psd_sqrt
from seplqg.exceptions import IntegrationDivergedError
from seplqg.harness import (
    closed_loop_band,
    complexity_report,
    probe_nodes_from_fractions,
    probe_output_rows,
    run_monte_carlo,
)
from seplqg.lqg import design_lqg
from seplqg.plant import HeatPlant, HeatPlantConfig, LinearPlant, adjoints
from seplqg.rng import stream
from seplqg.sysid import LtvRom, collect_impulse_responses, tv_era
from seplqg.trajopt import CostSpec, NominalTrajectory, OptimizeOptions, optimize


# the LQG weights of the built-in config
WEIGHTS = dict(q_y=1.0, r=0.1, terminal_scale=10.0, ridge=1e-8)


def constant_rom(A, B, C, N):
    return LtvRom(
        A_hat=np.tile(np.asarray(A, dtype=float), (N, 1, 1)),
        B_hat=np.tile(np.asarray(B, dtype=float), (N, 1, 1)),
        C_hat=np.tile(np.asarray(C, dtype=float), (N + 1, 1, 1)),
        n_r=np.asarray(A).shape[0],
        time_range=(0, N - 1),
        singular_values={},
    )


def linear_setup(W=0.2, V=0.3, N=20):
    """A linear plant whose nominal is its LQ optimum, exact: the controls
    solve the open-loop LQ problem and the belief means are the
    noiseless states."""
    A = np.array([[0.92, 0.1], [0.0, 0.8]])
    B = np.array([[1.0], [0.4]])
    C = np.array([[1.0, 0.2]])
    plant = LinearPlant(A, B, C, W=W * np.eye(1), V=V * np.eye(1), horizon=N)
    b0 = GaussianBelief(np.array([0.5, -0.3]), 0.3 * np.eye(2))
    spec = CostSpec.from_weights(2, 1, q_mean=1.0, r_u=0.2, q_terminal=1.5, target=[0.2, 0.0])
    U, J = lq_direct_solution(plant, b0.mean, spec, N)
    states, obs = plant.simulate_nominal(b0.mean, U)
    nominal = NominalTrajectory(controls=U, means=states, observations=obs, nominal_cost=J, iterations=0,
                                converged=True)
    rom = constant_rom(A, B, C, N)
    ctrl = design_lqg(rom, W=plant.W, V=plant.V, P0=b0.cov, q_y=1.0, r=0.2, terminal_scale=10.0,
                      ridge=1e-8)
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
    ctrl = design_lqg(rom, W=plant.W, V=plant.V, P0=np.eye(6), **WEIGHTS)
    return plant, spec, nominal, ctrl


def noiseless_nominal(plant, nominal):
    return plant.simulate_nominal(nominal.means[0], nominal.controls)[0]


def assert_close(a, b, rel):
    """|a - b| within rel times the largest |b|."""
    assert np.abs(a - b).max() <= rel * np.abs(b).max()


# ---------------------------------------------------------------------------
# cost gradient coefficients
# ---------------------------------------------------------------------------


def test_coefficients_match_quadratic_gradients():
    plant, b0, spec, nominal, ctrl = linear_setup()
    C_mu, C_u = spec.gradient(nominal.means, nominal.controls)
    h = 1e-5

    def central_difference(f, x):
        return np.array([(f(x + h * e) - f(x - h * e)) / (2.0 * h) for e in np.eye(x.size)])

    for k in (0, 5, nominal.horizon):
        Q = np.diag(spec.q_terminal if k == nominal.horizon else spec.q_mean)

        def stage(mu):
            return (mu - spec.target) @ Q @ (mu - spec.target)

        assert np.allclose(C_mu[k], central_difference(stage, nominal.means[k]), atol=1e-6)
    for k in (0, 7):
        expected = central_difference(lambda u: u @ np.diag(spec.r_u) @ u, nominal.controls[k])
        assert np.allclose(C_u[k], expected, atol=1e-8)


# ---------------------------------------------------------------------------
# run_monte_carlo
# ---------------------------------------------------------------------------


def test_noiseless_runs_reproduce_nominal_exactly():
    plant, b0, spec, nominal, _ = linear_setup(W=0.0, V=0.0)
    rom = constant_rom(*plant.matrices(0), plant.horizon)
    ctrl = design_lqg(rom, W=np.zeros((1, 1)), V=np.eye(1), P0=np.zeros((2, 2)), **WEIGHTS)
    report = run_monte_carlo(
        plant, nominal, ctrl, n_runs=3, base_seed=0, probe_positions=(0.0, 1.0), cost=spec,
    )
    assert np.allclose(report.mean_traj, nominal.means, atol=1e-9)
    assert np.allclose(report.run0_closed_err, 0.0, atol=1e-9)
    assert np.allclose(report.run0_open_err, 0.0, atol=1e-9)
    assert np.allclose(report.delta_J_samples, 0.0, atol=1e-7)
    assert report.failures == 0


REPORT_FIELDS = ("delta_J_samples", "mean_traj", "mse_closed", "mse_open", "run0_closed_err", "run0_open_err",
                 "two_sigma", "mse_diff_samples")


def test_report_bit_reproducible_and_chunk_independent():
    plant, b0, spec, nominal, ctrl = linear_setup()
    kw = dict(n_runs=30, base_seed=42, probe_positions=(0.5,), cost=spec)
    r1 = run_monte_carlo(plant, nominal, ctrl, chunk=7, **kw)
    r2 = run_monte_carlo(plant, nominal, ctrl, chunk=30, **kw)
    assert np.array_equal(r1.delta_J_samples, r2.delta_J_samples)
    assert np.array_equal(r1.mean_traj, r2.mean_traj)
    r3 = run_monte_carlo(plant, nominal, ctrl, chunk=7, **kw)
    assert np.array_equal(r1.mean_traj, r3.mean_traj)

    # a heat slab under the identified controller: every step gives the
    # same bits for any chunk, one-run chunks included
    plant, spec, nominal, ctrl = heat_setup()
    assert np.abs(ctrl.L_gains).max() > 0.1
    kw = dict(n_runs=16, base_seed=5, probe_positions=(0.5,), cost=spec)
    reports = [run_monte_carlo(plant, nominal, ctrl, chunk=c, **kw) for c in (16, 1, 7)]
    assert np.all(reports[0].delta_J_samples != 0.0)
    for r in reports[1:]:
        for name in REPORT_FIELDS:
            assert np.array_equal(getattr(r, name), getattr(reports[0], name)), name


class AdjointLog(HeatPlant):
    """Heat slab that logs each adjoint it is asked for, as (k, the
    adjoint's shape, whether it is the identity batch), after checking
    that it is taken at one state row."""

    def __init__(self, config):
        super().__init__(config)
        self.adjoints = []

    def step_vjp(self, state, control, g, k=0):
        assert np.shape(state) == (self.n_x,)
        g = np.asarray(g)
        self.adjoints.append((k, g.shape, g.ndim == 2 and np.array_equal(g, np.eye(len(g)))))
        return super().step_vjp(state, control, g, k)


def test_filter_linearizes_each_step_once_and_takes_no_adjoint_on_run_rows():
    # the forward gain sweep takes each step's Jacobians as the adjoint of
    # the identity batch, and the backward weight sweep one adjoint row
    # per step; the chunks' runs carry no filter, so no adjoint is taken
    # on their rows
    plant, spec, nominal, ctrl = heat_setup()
    log = AdjointLog(plant.config)
    run_monte_carlo(log, nominal, ctrl, n_runs=20, base_seed=5, probe_positions=(), cost=spec, chunk=7)
    N = nominal.horizon
    assert log.adjoints == ([(k, (16, 16), True) for k in range(N)]
                            + [(k, (16,), False) for k in range(N - 1, -1, -1)])


def recorded_run(monkeypatch, plant, run):
    """run() with the loop pass's measurements y_k (N+1, runs, n_y) and
    control deviations du_k (N, runs, n_u) recorded; run() must simulate
    one chunk and no probes."""
    ys, dus = [], []
    observe, update = plant.observe, harness.lqg_update

    def observe_recorded(x, v, k=0):
        y = observe(x, v, k)
        if np.ndim(x) == 2:  # the loop pass: the nominal rollout observes one state
            ys.append(y)
        return y

    def update_recorded(*args):
        du, a_hat = update(*args)
        dus.append(du)
        return du, a_hat

    monkeypatch.setattr(plant, "observe", observe_recorded)
    monkeypatch.setattr(harness, "lqg_update", update_recorded)
    return run(), np.stack(ys), np.stack(dus)


def reference_scores(plant, nominal, spec, ys, dus, model, P0=None):
    """Per run: delta_J about the noiseless nominal x_det and delta_J
    about the belief means nominal.means (the reference of the exact-KF
    scoring before the linearized filter), from one exact Kalman filter
    per run on the deviations from x_det, carried forward step by step
    from the covariance P0, by default 0: every run starts at x0.
    model(k) gives (A_k, B_k, C_{k+1}) at x_det."""
    x_det, y_det = plant.simulate_nominal(nominal.means[0], nominal.controls)
    C_mu, C_u = spec.gradient(x_det, nominal.controls)
    C_mu_means = spec.gradient(nominal.means, nominal.controls)[0]
    P0 = np.zeros((plant.n_x, plant.n_x)) if P0 is None else P0
    out = np.zeros((2, ys.shape[1]))
    for r in range(ys.shape[1]):
        b = GaussianBelief(np.zeros(plant.n_x), P0)
        for k in range(nominal.horizon):
            A, B, C = model(k)
            b = kalman_update(kalman_predict(b, dus[k, r], A, B, plant.W),
                              ys[k + 1, r] - y_det[k + 1], C, plant.V)
            out[0, r] += C_u[k] @ dus[k, r] + C_mu[k + 1] @ b.mean
            out[1, r] += C_u[k] @ dus[k, r] + C_mu_means[k + 1] @ (x_det[k + 1] + b.mean - nominal.means[k + 1])
    return out


def test_linearized_filter_matches_a_per_run_kalman_filter_on_a_linear_plant(monkeypatch):
    plant, b0, spec, nominal, ctrl = linear_setup()
    report, ys, dus = recorded_run(monkeypatch, plant, lambda: run_monte_carlo(
        plant, nominal, ctrl, n_runs=20, base_seed=6, probe_positions=(), cost=spec))
    ref = reference_scores(plant, nominal, spec, ys, dus,
                           lambda k: (*plant.matrices(k)[:2], plant.matrices(k + 1)[2]))
    assert_close(report.delta_J_samples, ref[0], 1e-12)
    # the nominal's means are x_det, so the values scored about those
    # means stay
    assert np.abs(nominal.means - noiseless_nominal(plant, nominal)).max() < 1e-12
    assert_close(report.delta_J_samples, ref[1], 1e-10)


def test_linearized_filter_reads_each_steps_sensor_rows_on_a_time_varying_plant(monkeypatch):
    # A_k, B_k and C_k vary with k, so a filter or adjoint sweep that read
    # another step's matrices would score the runs differently
    _, b0, spec, lti_nominal, ctrl = linear_setup()
    N = lti_nominal.horizon
    rng = stream(4, "ltv")
    A = np.array([[0.92, 0.1], [0.0, 0.8]]) + 0.05 * rng.standard_normal((N, 2, 2))
    B = np.array([[1.0], [0.4]]) + 0.1 * rng.standard_normal((N, 2, 1))
    C = np.array([[1.0, 0.2]]) + 0.3 * rng.standard_normal((N + 1, 1, 2))
    plant = LinearPlant(A, B, C, W=0.2 * np.eye(1), V=0.3 * np.eye(1), horizon=N)
    states, obs = plant.simulate_nominal(b0.mean, lti_nominal.controls)
    nominal = replace(lti_nominal, means=states, observations=obs)
    report, ys, dus = recorded_run(monkeypatch, plant, lambda: run_monte_carlo(
        plant, nominal, ctrl, n_runs=20, base_seed=6, probe_positions=(), cost=spec))
    ref = reference_scores(plant, nominal, spec, ys, dus,
                           lambda k: (*plant.matrices(k)[:2], plant.output_matrix(k + 1)))
    assert_close(report.delta_J_samples, ref[0], 1e-12)


def test_delta_j_matches_a_per_run_kalman_filter_on_the_heat_slab(monkeypatch):
    # rebuild each run's delta_J on a heat slab, under per-entry weights,
    # from a per-run Kalman filter on the plant's Jacobians along x_det
    plant, spec, nominal, ctrl = heat_setup()
    spec = CostSpec.from_weights(16, 5, q_mean=np.linspace(0.5, 2.0, 16), r_u=np.linspace(1e-3, 5e-3, 5),
                                 q_terminal=3.0, target=150.0)
    report, ys, dus = recorded_run(monkeypatch, plant, lambda: run_monte_carlo(
        plant, nominal, ctrl, n_runs=4, base_seed=3, probe_positions=(), cost=spec))
    assert (len(ys), len(dus)) == (nominal.horizon + 1, nominal.horizon)
    ref = reference_scores(plant, nominal, spec, ys, dus, heat_model(plant, nominal))
    assert_close(report.delta_J_samples, ref[0], 1e-10)


def heat_model(plant, nominal):
    """model(k) of `reference_scores`: the heat slab's Jacobians along
    x_det."""
    x_det = noiseless_nominal(plant, nominal)

    def model(k):
        A, B = plant.step_vjp(x_det[k], nominal.controls[k], np.eye(plant.n_x), k)
        return A, B, plant.observe_vjp(np.eye(plant.n_y), k + 1)

    return model


def test_delta_j_spread_is_below_that_of_a_filter_started_at_the_prior(monkeypatch):
    # every run starts exactly at x0, so the filter starts at covariance
    # 0; one started at the 0.25 I spread of an initial state that no run
    # draws scores the same runs with the same mean but a wider spread.
    # Measured on these 100 runs: sd ratio 0.70 (0.61-0.80 at base seeds
    # 0-9); a program whose filter starts at 0.25 I gives 1 to 1e-10
    plant, spec, nominal, ctrl = heat_setup()
    report, ys, dus = recorded_run(monkeypatch, plant, lambda: run_monte_carlo(
        plant, nominal, ctrl, n_runs=100, base_seed=0, probe_positions=(), cost=spec))
    prior = reference_scores(plant, nominal, spec, ys, dus, heat_model(plant, nominal), P0=0.25 * np.eye(16))
    assert report.delta_J_samples.std(ddof=1) <= 0.85 * prior[0].std(ddof=1)


def test_heat_jacobians_match_central_differences_and_a_black_box_scores_alike():
    # a black box is linearized by central differences of step and
    # observe, the heat slab by its step_vjp and observe_vjp on the
    # identity batch: the Jacobians agree column by column
    plant, spec, nominal, ctrl = heat_setup()
    x_det = noiseless_nominal(plant, nominal)

    def jacobians(adjoint_pair, k):
        step_vjp, observe_vjp = adjoint_pair
        return (*step_vjp(x_det[k], nominal.controls[k], np.eye(16), k), observe_vjp(np.eye(5), k + 1))

    assert adjoints(plant, x_det, 1e-3) == (plant.step_vjp, plant.observe_vjp)
    for k in (0, 11, 29):
        exact = jacobians(adjoints(plant, x_det, 1e-3), k)
        for h in (1e-3, 1e-2):
            fd = jacobians(adjoints(BlackBox(plant), x_det, h), k)
            for J, ref in zip(fd, exact):
                for column, ref_column in zip(J.T, ref.T):
                    assert_close(column, ref_column, 1e-8)
    kw = dict(n_runs=6, base_seed=2, probe_positions=(), cost=spec)
    adjoint = run_monte_carlo(plant, nominal, ctrl, **kw)
    boxed = run_monte_carlo(BlackBox(plant), nominal, ctrl, **kw)
    assert np.array_equal(adjoint.mse_diff_samples, boxed.mse_diff_samples)
    assert_close(boxed.delta_J_samples, adjoint.delta_J_samples, 1e-6)


def test_black_box_weights_form_each_sensor_jacobian_once():
    # the nominal rollout observes N + 1 rows and each C_k+1 is one
    # central-difference batch of 2 n_x rows; the step Jacobian is still
    # formed in both sweeps, 2 (n_x + n_u) rows each per step
    plant, spec, nominal, ctrl = heat_setup()
    counting = CountingSlab(plant.config)
    harness._delta_j_weights(BlackBox(counting), nominal, spec, 1e-2)
    N, n_x, n_u = nominal.horizon, plant.n_x, plant.n_u
    assert counting.observed_rows == N + 1 + 2 * n_x * N == 991
    assert counting.rows == N + 4 * (n_x + n_u) * N == 2550


def test_open_loop_equals_closed_loop_with_zero_gains():
    # paired noise: with L = 0 the applied controls are the nominal ones,
    # so matched draws make both trajectories identical
    plant, b0, spec, nominal, ctrl = linear_setup()
    zero_ctrl = replace(ctrl, L_gains=np.zeros_like(ctrl.L_gains))
    assert np.abs(zero_ctrl.L_gains).max() < 1e-9
    report = run_monte_carlo(
        plant, nominal, zero_ctrl, n_runs=10, base_seed=7, probe_positions=(0.5,), cost=spec,
    )
    assert np.allclose(report.run0_closed_err, report.run0_open_err, atol=1e-7)
    assert np.allclose(report.mse_closed, report.mse_open, rtol=1e-6)


def test_paired_differences_are_the_runs_open_minus_closed_errors():
    plant, spec, nominal, ctrl = heat_setup()
    kw = dict(base_seed=4, probe_positions=(0.4, 0.9), cost=spec, chunk=5)
    report = run_monte_carlo(plant, nominal, ctrl, n_runs=12, **kw)
    N = nominal.horizon
    assert report.mse_diff_samples.shape == (12, 2)
    assert np.allclose(report.mse_diff_mean, report.mse_open - report.mse_closed, rtol=1e-12, atol=0)
    se = report.mse_diff_samples.std(axis=0, ddof=1) / np.sqrt(12)
    assert np.array_equal(report.mse_diff_se, se)
    # run 0's sample is its own time-averaged squared errors
    run0 = (report.run0_open_err**2 - report.run0_closed_err**2).sum(axis=0) / (N + 1)
    assert np.allclose(report.mse_diff_samples[0], run0, rtol=1e-12, atol=0)
    one = run_monte_carlo(plant, nominal, ctrl, n_runs=1, **kw)
    assert np.isnan(one.mse_diff_se).all()


class CountingHeatPlant(HeatPlant):
    """Heat slab that counts the rows it steps, by the number of axes of
    the state: 2 for the loop pass's batches and the impulse experiments,
    1 for the row-by-row retries and the nominal rollout; and its
    completed 2-D calls, by their number of rows."""

    def __init__(self, config, W=None, V=None):
        super().__init__(config, W, V)
        self.rows = Counter()
        self.batches = Counter()

    def step(self, state, control, process_noise, k=0):
        out = super().step(state, control, process_noise, k)
        self.rows[np.ndim(state)] += int(np.prod(np.shape(state)[:-1]))
        if np.ndim(state) == 2:
            self.batches[len(state)] += 1
        return out


def test_each_loop_step_steps_a_chunks_closed_and_open_loops_in_one_call():
    # without probes no impulse campaign runs, and the heat slab's filter
    # is linearized by its adjoints: every 2-D step is the loop pass's.  A chunk's
    # closed-loop runs and their open-loop partners are one batch.
    plant, spec, nominal, ctrl = heat_setup()
    counting = CountingHeatPlant(plant.config)
    run_monte_carlo(counting, nominal, ctrl, n_runs=12, base_seed=5, probe_positions=(), cost=spec, chunk=5)
    N = nominal.horizon
    assert counting.batches == Counter({10: 2 * N, 4: N})


class DivergesOnRun3(CountingHeatPlant):
    """Heat slab whose step diverges for the rows driven by Monte Carlo
    run 3's process noise at k = 10 (its closed- and open-loop steps)."""

    def __init__(self, config, base_seed):
        super().__init__(config)
        w = stream(base_seed, 3, "w").standard_normal((config.horizon, self.n_u))
        self.w_run3_k10 = (w @ psd_sqrt(self.W).T)[10]

    def step(self, state, control, process_noise, k=0):
        w = np.asarray(process_noise)
        if k == 10 and w.ndim and (w == self.w_run3_k10).all(axis=-1).any():
            raise IntegrationDivergedError(f"forced divergence at step k={k}")
        return super().step(state, control, process_noise, k)


def test_diverged_runs_are_left_out_of_every_average():
    plant, spec, nominal, ctrl = heat_setup()
    kw = dict(n_runs=16, base_seed=5, cost=spec, chunk=8)
    counting = CountingHeatPlant(plant.config)
    healthy = run_monte_carlo(counting, nominal, ctrl, **kw)
    failing = DivergesOnRun3(plant.config, base_seed=5)
    report = run_monte_carlo(failing, nominal, ctrl, **kw)
    assert (healthy.failures, healthy.n_effective) == (0, 16)
    assert (report.failures, report.n_effective, report.n_runs) == (1, 15, 16)
    assert len(report.delta_J_samples) == 15
    assert np.array_equal(report.delta_J_samples, np.delete(healthy.delta_J_samples, 3))
    assert np.array_equal(report.mse_diff_samples, np.delete(healthy.mse_diff_samples, 3, axis=0))

    # the loop pass of the failing chunk runs twice; in each of its passes
    # run 3's closed- and open-loop steps at k = 10 never complete
    N, chunk = nominal.horizon, 8

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


def test_run_monte_carlo_validates_inputs():
    plant, b0, spec, nominal, ctrl = linear_setup()
    with pytest.raises(ValueError):
        run_monte_carlo(plant, nominal, ctrl, n_runs=0, base_seed=0, cost=spec)


@pytest.mark.parametrize("chunk", [0, -1])
def test_chunk_below_one_is_rejected_before_any_step(chunk):
    # unchecked, chunk -1 made the chunk loop raise a raw error
    plant, spec, nominal, ctrl = heat_setup()
    plant = CountingHeatPlant(plant.config)
    with pytest.raises(ValueError, match=f"chunk must be >= 1, got {chunk}"):
        run_monte_carlo(plant, nominal, ctrl, n_runs=5, base_seed=0, cost=spec, chunk=chunk)
    assert not plant.rows


# ---------------------------------------------------------------------------
# theorem-1 style checks
# ---------------------------------------------------------------------------


def test_linear_exact_kf_mean_delta_j_statistically_zero():
    plant, b0, spec, nominal, ctrl = linear_setup()
    report = run_monte_carlo(
        plant, nominal, ctrl, n_runs=1000, base_seed=19, probe_positions=(), cost=spec
    )
    assert abs(report.delta_J_mean) <= 3.0 * report.delta_J_se
    assert report.nominal_cost == pytest.approx(nominal.nominal_cost)


def test_zero_noise_delta_j_identically_zero():
    plant, b0, spec, nominal, _ = linear_setup(W=0.0, V=0.0)
    rom = constant_rom(*plant.matrices(0), plant.horizon)
    ctrl = design_lqg(rom, W=np.zeros((1, 1)), V=np.eye(1), P0=np.zeros((2, 2)), **WEIGHTS)
    report = run_monte_carlo(
        plant, nominal, ctrl, n_runs=120, base_seed=3, probe_positions=(), cost=spec
    )
    assert np.abs(report.delta_J_samples).max() <= 1e-7


def test_zero_noise_heat_slab_delta_j_is_exactly_zero():
    # without noise every run is x_det bit for bit, so delta_J about x_det
    # is 0; about the optimizer's EnKF means it would not be
    plant, spec, nominal, ctrl = heat_setup()
    quiet = HeatPlant(plant.config, W=np.zeros((5, 5)), V=np.zeros((5, 5)))
    report = run_monte_carlo(quiet, nominal, ctrl, n_runs=5, base_seed=1, probe_positions=(), cost=spec)
    assert np.all(report.delta_J_samples == 0.0)
    assert np.abs(nominal.means - noiseless_nominal(plant, nominal)).max() > 1e-3


def test_heat_slab_mean_delta_j_statistically_zero():
    # Theorem 1 about the trajectory the loop regulates to; scored about
    # the optimizer's 8-member EnKF means, the offset
    # sum_k C_mu,k (x_det,k - mean_k) fails this test
    plant, spec, nominal, ctrl = heat_setup()
    report = run_monte_carlo(plant, nominal, ctrl, n_runs=400, base_seed=11, probe_positions=(), cost=spec)
    assert abs(report.delta_J_mean) <= 3.0 * report.delta_J_se


def test_delta_j_standard_error_scales_inverse_sqrt():
    plant, b0, spec, nominal, ctrl = linear_setup()
    se1, se4 = (
        run_monte_carlo(plant, nominal, ctrl, n_runs=n, base_seed=23, probe_positions=(),
                        cost=spec).delta_J_se
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
    W, V = np.zeros((1, 1)), 1e-12 * np.eye(1)
    noiseless = design_lqg(ctrl.rom, W=W, V=V, P0=np.zeros((2, 2)), **WEIGHTS)
    band = closed_loop_band(noiseless, np.ones((21, 1, 2)), W, V)
    assert np.allclose(band, 0.0, atol=1e-5)


def assert_close_per_step(a, b, rel):
    """|a_k - b_k| within rel times the largest |b_k| at every step k."""
    for a_k, b_k in zip(a, b):
        assert np.abs(a_k - b_k).max() <= rel * np.abs(b_k).max()


@pytest.mark.parametrize("lag", [None, 13])
def test_probe_rows_and_band_match_the_per_step_loops(monkeypatch, lag):
    # two blocks of fits on the heat slab; the fit at k = 1 is rank-poor
    # (5 impulse rows, 6 ROM states) and left to lstsq
    plant, spec, nominal, ctrl = heat_setup()
    lstsq, fits = np.linalg.lstsq, []

    def counted(a, b, rcond):
        fits.append(a.shape)
        return lstsq(a, b, rcond)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    rows = probe_output_rows(plant, nominal, ctrl.rom, nodes=(4, 10), lag=lag)
    monkeypatch.undo()
    assert len(fits) == 1
    ref = probe_rows_reference(plant, nominal, ctrl.rom, nodes=(4, 10), lag=lag)
    assert_close_per_step(rows, ref, 1e-12)
    band = closed_loop_band(ctrl, rows, plant.W, plant.V)
    assert np.all(band[1:] > 0.0)
    assert_close_per_step(band[1:], band_reference(ctrl, rows, plant.W, plant.V)[1:], 1e-12)


def test_probe_rows_hold_one_block_of_fits_at_a_time():
    # 200 fits of 80 rows: a stack of all of them, with its QR copy,
    # would add 3.5 MB to the impulse campaign's 3.2 MB; the per-k loop
    # peaked at 3,822,154 traced bytes here, the campaign's own peak,
    # with tens of bytes of jitter between calls
    plant = HeatPlant(HeatPlantConfig(n_grid=20, horizon=200))
    nominal = zero_nominal(plant)
    rom = tv_era(collect_impulse_responses(plant, nominal, max_lag=16), n_r=12, p=8, q=8)
    tracemalloc.start()
    try:
        probe_output_rows(plant, nominal, rom, nodes=(8, 15))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3_830_000


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
    # belief dimension 100 + 100^2, ratio 100^4 / 20^2 = 2.5e5
    assert complexity_report(100, 20) == (
        "10100 x 10100 vs 20 x 20 Riccati\n"
        "complexity reduction n_x^4/n_r^2 = 2.5e+05 (O(10^5))"
    )


def test_complexity_degenerate_order():
    assert complexity_report(50, 50) == (
        "2550 x 2550 vs 50 x 50 Riccati\n"
        "complexity reduction n_x^4/n_r^2 = 2.5e+03 (O(10^3))\n"
        "no reduction in estimator/controller order (n_r >= n_x)"
    )


def test_complexity_validates():
    with pytest.raises(ValueError):
        complexity_report(0, 5)
