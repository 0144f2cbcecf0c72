from dataclasses import replace

import numpy as np
import pytest
from kalman_reference import enkf_means_reference, kalman_predict, kalman_update

from seplqg.artifacts import read_json, stored_fields, write_json
from seplqg import trajopt
from seplqg.belief import GaussianBelief, enkf_update_members
from seplqg.exceptions import GradientEvaluationError, InsufficientEnsembleError
from seplqg.plant import HeatPlant, HeatPlantConfig, LinearPlant, Plant, adjoints
from seplqg.rng import stream
from seplqg.trajopt import CostSpec, NominalTrajectory, OptimizeOptions, optimize


def lq_toy(W=0.0, prior_var=1e-12):
    """Two-state LQ problem.  The optimizer's cost is the plain LQ cost;
    by default the reported EnKF belief is in the noiseless limit, no
    process noise and a near-exact prior."""
    A = np.array([[0.9, 0.15], [0.0, 0.7]])
    B = np.array([[0.2], [1.0]])
    C = np.array([[1.0, 0.0]])
    plant = LinearPlant(A, B, C, W=np.eye(1) * W, V=np.eye(1) * 0.3, horizon=10)
    b0 = GaussianBelief(np.array([1.0, -0.5]), prior_var * np.eye(2))
    spec = CostSpec.from_weights(2, 1, q_mean=1.0, r_u=0.5, q_terminal=2.0, target=[0.8, 0.0])
    return plant, b0, spec


def lq_direct_solution(plant, x0, spec, N):
    """Open-loop LQ optimum by assembling the least-squares problem in
    the stacked controls (independent of any Riccati machinery)."""
    A, B, _ = plant.matrices(0)
    n_x, n_u = B.shape
    # x_k = A^k x0 + sum_j A^(k-1-j) B u_j
    F = np.zeros(((N + 1) * n_x, N * n_u))
    c = np.zeros((N + 1) * n_x)
    for k in range(N + 1):
        c[k * n_x : (k + 1) * n_x] = np.linalg.matrix_power(A, k) @ x0
        for j in range(k):
            F[k * n_x : (k + 1) * n_x, j * n_u : (j + 1) * n_u] = (
                np.linalg.matrix_power(A, k - 1 - j) @ B
            )
    Q_mean, Q_terminal, R_u = (np.diag(w) for w in (spec.q_mean, spec.q_terminal, spec.r_u))
    Qbig = np.zeros(((N + 1) * n_x, (N + 1) * n_x))
    for k in range(N):
        Qbig[k * n_x : (k + 1) * n_x, k * n_x : (k + 1) * n_x] = Q_mean
    Qbig[N * n_x :, N * n_x :] = Q_terminal
    Rbig = np.kron(np.eye(N), R_u)
    t = np.tile(spec.target, N + 1)
    H = F.T @ Qbig @ F + Rbig
    g = F.T @ Qbig @ (c - t)
    U = np.linalg.solve(H, -g).reshape(N, n_u)
    x = (F @ U.ravel() + c).reshape(N + 1, n_x)
    d = x - spec.target
    J = np.einsum("ki,ij,kj->", d[:-1], Q_mean, d[:-1])
    J += d[-1] @ Q_terminal @ d[-1]
    J += np.einsum("ki,ij,kj->", U, R_u, U)
    return U, float(J)


class CubicPlant(Plant):
    """Scalar plant with a genuine third derivative for FD order checks."""

    def __init__(self, horizon=8, noise=1e-12):
        super().__init__(1, 1, 1, np.array([[noise]]), np.array([[noise]]), horizon, 1.0)

    def step(self, state, control, process_noise, k=0):
        x = np.asarray(state, dtype=float)
        drive = np.add(control, process_noise)
        return x + 0.25 * (-0.5 * x + 0.4 * x**3) + 0.5 * drive

    def observe(self, state, meas_noise, k=0):
        return np.asarray(state, dtype=float) + meas_noise


# ---------------------------------------------------------------------------
# CostSpec
# ---------------------------------------------------------------------------


def test_cost_zero_at_target():
    spec = CostSpec.from_weights(2, 1, target=[1.0, 2.0])
    assert spec.total(np.tile([1.0, 2.0], (4, 1)), np.zeros((3, 1))) == 0.0


def test_cost_hand_value():
    spec = CostSpec.from_weights(1, 1, q_mean=1.0, r_u=1.0, q_terminal=1.0, target=3.0)
    # stage: 0 + u^2 = 4; terminal: 1
    assert spec.total(np.array([[3.0], [4.0]]), np.array([[2.0]])) == pytest.approx(5.0)


def test_cost_dimension_mismatch():
    spec = CostSpec.from_weights(1, 1)
    with pytest.raises(ValueError, match=r"N\+1 = 2 means for N controls, got 1"):
        spec.total(np.zeros((1, 1)), np.zeros((1, 1)))
    # a width of 1 would broadcast against the weights of a wider spec
    spec = CostSpec.from_weights(2, 3)
    with pytest.raises(ValueError, match=r"n_u = 3 controls, got \(2, 2\) and \(1, 1\)"):
        spec.total(np.zeros((2, 2)), np.zeros((1, 1)))
    with pytest.raises(ValueError, match=r"n_x = 2 means"):
        spec.total(np.zeros((2, 1)), np.zeros((1, 3)))


# each bad from_weights(3, 2, ...) argument and the start of its message
BAD_WEIGHTS = [
    ({"r_u": 0.0}, "r_u must be > 0"),
    ({"r_u": [1.0, -2.0]}, "r_u must be > 0"),
    ({"q_mean": -1.0}, "q_mean must be >= 0"),
    ({"q_terminal": [1.0, -0.5, 1.0]}, "q_terminal must be >= 0"),
    # a weight or target whose length is not n_x = 3 (n_u = 2 for r_u)
    ({"q_mean": [1.0, 2.0]}, r"q_mean must have length 3, got shape \(2,\)"),
    ({"q_terminal": [1.0, 2.0]}, r"q_terminal must have length 3, got shape \(2,\)"),
    ({"target": np.zeros(4)}, r"target must have length 3, got shape \(4,\)"),
    ({"r_u": [1.0, 2.0, 3.0]}, r"r_u must have length 2, got shape \(3,\)"),
    ({"q_mean": np.eye(3)}, r"q_mean must have length 3, got shape \(3, 3\)"),
    # non-finite entries
    ({"target": np.inf}, "target must be finite"),
    ({"q_mean": [1.0, np.nan, 1.0]}, "q_mean must be finite"),
    ({"q_terminal": np.inf}, "q_terminal must be finite"),
    ({"r_u": [1.0, np.inf]}, "r_u must be finite"),
]


def test_cost_spec_validation():
    for kwargs, message in BAD_WEIGHTS:
        with pytest.raises(ValueError, match=message):
            CostSpec.from_weights(3, 2, **kwargs)
    # a direct construction takes n_x from q_mean and n_u from r_u, and
    # is checked the same way
    spec = CostSpec.from_weights(3, 2)
    for name, value, message in [
        ("q_terminal", np.ones(2), r"q_terminal must have length 3"),
        ("target", np.ones(4), r"target must have length 3"),
        ("q_mean", -np.ones(3), "q_mean must be >= 0"),
        ("r_u", np.array([1.0, 0.0]), "r_u must be > 0"),
        ("target", np.array([0.0, np.nan, 0.0]), "target must be finite"),
    ]:
        with pytest.raises(ValueError, match=message):
            replace(spec, **{name: value})


def test_cost_is_row_exact():
    # each row of a batch gets the bits of that row evaluated alone, which
    # the Monte Carlo's chunk-exactness rests on
    rng = stream(21, "row-exact")
    spec = CostSpec.from_weights(37, 5, q_mean=rng.uniform(0.5, 2.0, 37), r_u=rng.uniform(1e-3, 1.0, 5),
                                 q_terminal=rng.uniform(0.5, 2.0, 37), target=150.0)
    mu = 150.0 + rng.standard_normal((64, 37))
    u = rng.standard_normal((64, 5))
    for terminal in (False, True):
        batch = spec.state_cost(mu, terminal=terminal)
        assert batch.shape == (64,)
        assert all(batch[i] == spec.state_cost(mu[i], terminal=terminal) for i in range(64))
        assert all(batch[i] == spec.state_cost(mu[i : i + 1], terminal=terminal)[0] for i in range(64))
    batch = spec.control_cost(u)
    assert all(batch[i] == spec.control_cost(u[i]) for i in range(64))
    C_mu, C_u = spec.gradient(mu, u)
    for i in range(64):
        # mu[i : i + 2] ends in the terminal row exactly when mu[i] does
        C_mu_i, C_u_i = spec.gradient(mu[i : i + 2], u[i : i + 1])
        assert np.array_equal(C_mu[i], C_mu_i[0]) and np.array_equal(C_u[i], C_u_i[0])
    # the dense quadratic forms are an independent reference
    Q, R = np.diag(spec.q_mean), np.diag(spec.r_u)
    d = mu - spec.target
    np.testing.assert_allclose(spec.state_cost(mu), np.einsum("ki,ij,kj->k", d, Q, d), rtol=1e-13)
    np.testing.assert_allclose(spec.control_cost(u), np.einsum("ki,ij,kj->k", u, R, u), rtol=1e-13)
    np.testing.assert_array_equal(C_mu[:-1], 2.0 * d[:-1] @ Q)
    np.testing.assert_array_equal(C_mu[-1], 2.0 * d[-1] @ np.diag(spec.q_terminal))
    np.testing.assert_array_equal(C_u, 2.0 * u @ R)


# ---------------------------------------------------------------------------
# the reported belief: optimize's EnKF rollout, without descent
# ---------------------------------------------------------------------------


def reported_means(U, b0, plant, M, seed):
    """The means `optimize` reports for the controls U under an EnKF of
    M members and `seed`, with no descent step."""
    spec = CostSpec.from_weights(plant.n_x, plant.n_u)
    traj = optimize(U, b0, plant, spec, OptimizeOptions(max_iters=0, M=M, seed=seed))
    assert np.array_equal(traj.controls, U) and traj.means.shape == (len(U) + 1, plant.n_x)
    return traj.means


def test_rollout_matches_exact_kf_at_large_ensemble():
    plant, b0, _ = lq_toy(W=0.2, prior_var=0.4)
    U = stream(1, "u").standard_normal((10, 1)) * 0.5
    # the exact filter on the noiseless plant's observations
    A, B, C = plant.matrices(0)
    _, obs = plant.simulate_nominal(b0.mean, U)
    kf = [b0]
    for k in range(10):
        kf.append(kalman_update(kalman_predict(kf[-1], U[k], A, B, plant.W), obs[k + 1], C, plant.V))
    M = 20000
    en = reported_means(U, b0, plant, M, 123)
    for k in (3, 6, 10):
        se = np.sqrt(np.diag(kf[k].cov) / M)
        assert np.all(np.abs(en[k] - kf[k].mean) <= 3 * se)


def test_rollout_noiseless_limit_tracks_deterministic_states():
    cfg = HeatPlantConfig(n_grid=20, horizon=12)
    plant = HeatPlant(cfg, W=1e-12 * np.eye(5), V=1e-12 * np.eye(5))
    b0 = GaussianBelief(plant.initial_state(), 1e-12 * np.eye(20))
    U = 0.5 * stream(2, "u").standard_normal((12, 5))
    means = reported_means(U, b0, plant, 40, 5)
    states, _ = plant.simulate_nominal(plant.initial_state(), U)
    assert np.allclose(means, states, atol=1e-4)


def test_rollout_deterministic_given_seed():
    cfg = HeatPlantConfig(n_grid=16, horizon=8)
    plant = HeatPlant(cfg)
    b0 = GaussianBelief(plant.initial_state(), 0.25 * np.eye(16))
    U = np.zeros((8, 5))
    means = reported_means(U, b0, plant, 20, 99)
    assert np.array_equal(means, reported_means(U, b0, plant, 20, 99))
    assert not np.array_equal(means[1:], reported_means(U, b0, plant, 20, 98)[1:])


def test_rollout_initial_belief_is_prior():
    plant, b0, spec = lq_toy()
    traj = optimize(np.zeros((10, 1)), b0, plant, spec, OptimizeOptions(max_iters=0, M=50, seed=0))
    assert np.array_equal(traj.means[0], b0.mean)
    assert len(traj.means) == 11


# ---------------------------------------------------------------------------
# the gradient: one reverse pass over the plant's adjoint, or over the
# central-difference Jacobians of a black box's steps
# ---------------------------------------------------------------------------


class BlackBox(Plant):
    """A plant seen only through step/observe, as the paper's black box."""

    def __init__(self, plant):
        super().__init__(plant.n_x, plant.n_u, plant.n_y, plant.W, plant.V, plant.horizon, plant.dt)
        self.plant = plant

    def step(self, state, control, process_noise, k=0):
        return self.plant.step(state, control, process_noise, k)

    def observe(self, state, meas_noise, k=0):
        return self.plant.observe(state, meas_noise, k)


def gradient(U, b0, plant, spec, h=1e-2):
    """The optimizer's gradient of J(U) = spec.total(x_det(U), U), x_det
    the noiseless rollout from b0.mean; h is the difference step of a
    black box."""
    U = np.asarray(U, dtype=float)
    return trajopt._gradient(plant, spec, U, plant.rollout(b0.mean, U), h)


def closed_form_lq_gradient(plant, x0, spec, U):
    A, B, _ = plant.matrices(0)
    N = U.shape[0]
    x = [np.asarray(x0, dtype=float)]
    for k in range(N):
        x.append(A @ x[-1] + B @ U[k])
    grad = np.zeros_like(U)
    for j in range(N):
        for k in range(j + 1, N + 1):
            Q = np.diag(spec.q_terminal if k == N else spec.q_mean)
            G = np.linalg.matrix_power(A, k - 1 - j) @ B
            grad[j] += 2.0 * G.T @ Q @ (x[k] - spec.target)
        grad[j] += 2.0 * np.diag(spec.r_u) @ U[j]
    return grad


def test_gradient_matches_closed_form_lq():
    plant, b0, spec = lq_toy()
    U = 0.3 * stream(4, "u").standard_normal((10, 1))
    g_cf = closed_form_lq_gradient(plant, b0.mean, spec, U)
    # the plant's own adjoint and the black box's differenced Jacobians
    for route in (plant, BlackBox(plant)):
        g = gradient(U, b0, route, spec, h=1e-4)
        assert np.linalg.norm(g - g_cf) / np.linalg.norm(g_cf) < 1e-4


def test_gradient_vanishes_at_lq_optimum():
    plant, b0, spec = lq_toy()
    U_star, J_star = lq_direct_solution(plant, b0.mean, spec, 10)
    for route in (plant, BlackBox(plant)):
        g = gradient(U_star, b0, route, spec, h=1e-5)
        assert np.linalg.norm(g) <= 1e-3 * (1.0 + abs(J_star))


def test_gradient_error_scales_quadratically():
    # the heat slab's step is quadratic in the state and linear in the
    # control, so central differences of one of its steps are exact up to
    # roundoff: the truncation error is shown on a black box with a cubic
    # term
    plant = CubicPlant()
    b0 = GaussianBelief([0.8], [[1e-10]])
    spec = CostSpec.from_weights(1, 1, q_mean=1.0, r_u=0.1, q_terminal=1.0, target=1.2)
    U = np.full((8, 1), 0.3)
    g1 = gradient(U, b0, plant, spec, h=1e-4)
    g2 = gradient(U, b0, plant, spec, h=2e-4)
    g4 = gradient(U, b0, plant, spec, h=4e-4)
    num = np.linalg.norm(g4 - g2)
    den = np.linalg.norm(g2 - g1)
    ratio = num / den
    assert 2.0 <= ratio <= 8.0  # = 4 for a clean O(h^2) method


def test_gradient_halving_h_agrees():
    cfg = HeatPlantConfig(n_grid=20, horizon=10)
    plant = BlackBox(HeatPlant(cfg))
    b0 = GaussianBelief(plant.plant.initial_state(), 0.25 * np.eye(20))
    spec = CostSpec.from_weights(20, 5, q_mean=1.0, r_u=1e-3, q_terminal=1.0, target=150.0)
    U = np.zeros((10, 5))
    g1 = gradient(U, b0, plant, spec, h=1e-2)
    g2 = gradient(U, b0, plant, spec, h=5e-3)
    assert np.linalg.norm(g1 - g2) / np.linalg.norm(g2) < 0.05


def test_gradient_rejects_bad_h():
    # `adjoints`, through which every stage differentiates a plant,
    # rejects the step whether or not the plant has its own adjoint
    plant, b0, spec = lq_toy()
    for route in (plant, BlackBox(plant)):
        states = route.rollout(b0.mean, np.zeros((10, 1)))
        for h in (0.0, -1e-3, np.nan):
            with pytest.raises(ValueError, match="difference step h must be positive"):
                adjoints(route, states, h)
            with pytest.raises(ValueError, match="difference step h must be positive"):
                optimize(np.zeros((10, 1)), b0, route, spec, OptimizeOptions(h=h))


class CountingHeatPlant(HeatPlant):
    """Heat slab that counts the state rows it steps, the rows it
    observes and the rows its adjoint takes back."""

    rows = 0
    observed_rows = 0
    vjp_rows = 0

    def step(self, state, control, process_noise, k=0):
        self.rows += int(np.prod(np.shape(state)[:-1]))
        return super().step(state, control, process_noise, k)

    def observe(self, state, meas_noise, k=0):
        self.observed_rows += int(np.prod(np.shape(state)[:-1]))
        return super().observe(state, meas_noise, k)

    def step_vjp(self, state, control, g, k=0):
        self.vjp_rows += int(np.prod(np.shape(g)[:-1]))
        return super().step_vjp(state, control, g, k)


def heat_case():
    """16-node heat slab with q_terminal != q_mean and random nonzero
    controls over 12 steps."""
    n_grid, horizon = 16, 12
    plant = HeatPlant(HeatPlantConfig(n_grid=n_grid, horizon=horizon))
    b0 = GaussianBelief(plant.initial_state(), 0.25 * np.eye(n_grid))
    spec = CostSpec.from_weights(n_grid, 5, q_mean=np.linspace(0.5, 2.0, n_grid), r_u=1e-3, q_terminal=3.0,
                                 target=150.0)
    U = 2.0 * stream(1, "adjoint-u").standard_normal((horizon, 5))
    return plant, b0, spec, U


def linear_tv_case():
    """Time-varying linear plant whose C is dense, not a row selection."""
    rng = stream(5, "adjoint-linear")
    N, n, n_u, n_y = 10, 4, 2, 3
    A = 0.45 * rng.standard_normal((N, n, n))
    B = rng.standard_normal((N, n, n_u))
    C = rng.standard_normal((N + 1, n_y, n))
    plant = LinearPlant(A, B, C, W=0.3 * np.eye(n_u), V=0.5 * np.eye(n_y), horizon=N)
    b0 = GaussianBelief(rng.standard_normal(n), 0.4 * np.eye(n))
    spec = CostSpec.from_weights(n, n_u, q_mean=1.0, r_u=0.2, q_terminal=2.5, target=0.3)
    return plant, b0, spec, rng.standard_normal((N, n_u))


@pytest.mark.parametrize("case", ["heat", "linear-tv"])
def test_adjoint_gradient_matches_central_fd(case):
    if case == "linear-tv":
        plant, b0, spec, U = linear_tv_case()
        h = 1e-4
    else:
        plant, b0, spec, U = heat_case()
        h = 1e-3
    g_adj = gradient(U, b0, plant, spec)
    assert np.all(g_adj != 0.0)
    # the black box's gradient, over central-difference Jacobians of its
    # steps, against the adjoint: measured 2.7e-12 (heat) and 4.7e-14
    # (linear) at h = 1e-2, 2.2e-11 and 3.1e-13 at h = 1e-3, the roundoff
    # of the differences
    for h_box in (1e-2, 1e-3):
        g_box = gradient(U, b0, BlackBox(plant), spec, h=h_box)
        assert np.linalg.norm(g_box - g_adj) / np.linalg.norm(g_adj) <= 1e-10
    # the adjoint differentiates the cost of the noiseless rollout
    def J(V):
        return spec.total(plant.rollout(b0.mean, V), V)

    D = stream(8, "direction").standard_normal(U.shape)
    slope = (J(U + h * D) - J(U - h * D)) / (2.0 * h)
    # measured: 9.9e-12 (heat) and 8.4e-13 (linear) of the sum's scale
    assert abs(slope - (g_adj * D).sum()) <= 1e-10 * np.abs(g_adj * D).sum()


def test_adjoint_gradient_names_first_non_finite_step():
    class NanVjpPlant(HeatPlant):
        def step_vjp(self, state, control, g, k=0):
            g_state, g_control = super().step_vjp(state, control, g, k)
            if k == 5:
                g_control[..., 2] = np.nan
            return g_state, g_control

    class NanBatchBox(BlackBox):
        # a black box that fails only on batches of rows at k = 5, which
        # the gradient steps for that step's Jacobian alone
        def step(self, state, control, process_noise, k=0):
            out = super().step(state, control, process_noise, k)
            return np.full_like(out, np.nan) if k == 5 and np.ndim(state) == 2 else out

    plant, b0, spec, U = heat_case()
    opts = OptimizeOptions(alpha=20.0, max_iters=1, tol=0.0, M=8)
    for bad, match in ((NanVjpPlant(plant.config), r"k=5, channel=2"), (NanBatchBox(plant), r"k=5, channel=0")):
        with pytest.raises(GradientEvaluationError, match=match):
            gradient(U, b0, bad, spec)
        with pytest.raises(GradientEvaluationError, match=match):
            optimize(U, b0, bad, spec, opts)


def test_one_iteration_black_box_fd_matches_adjoint():
    plant, b0, spec, U = heat_case()
    opts = OptimizeOptions(alpha=20.0, max_iters=1, tol=0.0, M=12, seed=3, h=1e-3)
    counted = CountingHeatPlant(plant.config)
    adj = optimize(U, b0, counted, spec, opts)
    boxed = CountingHeatPlant(plant.config)
    fd = optimize(U, b0, BlackBox(boxed), spec, opts)
    assert adj.iterations == fd.iterations == 1
    # measured: 3.0e-11 of the largest control
    assert np.abs(adj.controls - fd.controls).max() <= 1e-9 * np.abs(fd.controls).max()
    # the black box has no adjoint, so each step of its gradient's reverse
    # pass steps one batch of 2 (n_x + n_u) rows for the step's Jacobian;
    # the rest of the work, the line search and the reported EnKF
    # rollout, is the same
    N, n_u = U.shape
    assert boxed.rows - counted.rows == 2 * (plant.n_x + n_u) * N
    assert counted.vjp_rows == N and boxed.vjp_rows == 0


def test_optimize_steps_each_iterate_once(monkeypatch):
    """Work count: one single-row rollout per trial point, one reverse
    pass of one row per step per iteration, and one EnKF rollout, N
    update calls, per `optimize` whatever the number of iterations."""
    N, M = 10, 8
    config = HeatPlantConfig(n_grid=16, horizon=N)
    b0 = GaussianBelief(HeatPlant(config).initial_state(), 0.25 * np.eye(16))
    spec = CostSpec.from_weights(16, 5, q_mean=1.0, r_u=1e-3, q_terminal=2.0, target=150.0)
    updates = []
    monkeypatch.setattr(trajopt, "enkf_update_members",
                        lambda *args: updates.append(args[0].shape) or enkf_update_members(*args))

    def cost(U):
        return spec.total(HeatPlant(config).simulate_nominal(b0.mean, U)[0], U)

    for iters in (0, 1, 3):
        opts = OptimizeOptions(alpha=3000.0, max_iters=iters, tol=0.0, M=M, seed=2)
        # replay the line search to learn how many points each iteration tries
        U, J, trials = np.zeros((N, 5)), cost(np.zeros((N, 5))), []
        for _ in range(iters):
            g = gradient(U, b0, HeatPlant(config), spec)
            alpha, n = opts.alpha / (1.0 + np.abs(g).max()), 1
            while (J_try := cost(U - alpha * g)) >= J:
                alpha, n = 0.5 * alpha, n + 1
            U, J = U - alpha * g, J_try
            trials.append(n)
        assert min(trials, default=2) >= 2  # every iteration halves its step at least once

        plant, updates[:] = CountingHeatPlant(config), []
        traj = optimize(np.zeros((N, 5)), b0, plant, spec, opts)
        assert traj.iterations == iters
        assert np.array_equal(traj.controls, U) and traj.cost_history[-1] == J
        # the descent's rollouts, then the EnKF's members, which filter the
        # observations of the final iterate's tape: no rollout of their own
        assert plant.rows == (1 + sum(trials)) * N + N * M
        assert plant.vjp_rows == iters * N
        # the descent's rollouts are not observed: the final tape's N+1
        # states are, once, for the EnKF, which observes its members
        assert plant.observed_rows == N + 1 + N * M
        assert updates == [(M, 16)] * N


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


def test_optimize_rejects_a_one_member_ensemble_before_any_step():
    plant = CountingHeatPlant(HeatPlantConfig(n_grid=16, horizon=10))
    b0 = GaussianBelief(plant.initial_state(), 0.25 * np.eye(16))
    spec = CostSpec.from_weights(16, 5, target=150.0)
    with pytest.raises(InsufficientEnsembleError, match="M=1"):
        optimize(np.zeros((10, 5)), b0, plant, spec, OptimizeOptions(M=1))
    assert plant.rows == 0


def test_optimize_reaches_lq_optimum():
    plant, b0, spec = lq_toy()
    U_star, J_star = lq_direct_solution(plant, b0.mean, spec, 10)
    opts = OptimizeOptions(alpha=0.3, max_iters=400, tol=1e-14, h=1e-5)
    traj = optimize(np.zeros((10, 1)), b0, plant, spec, opts)
    assert traj.converged
    # the descent's cost is the LQ cost of the noiseless rollout
    J_reached = traj.cost_history[-1]
    assert J_reached == spec.total(plant.simulate_nominal(b0.mean, traj.controls)[0], traj.controls)
    # measured: J_reached / J* - 1 = 8.9e-14 and max |U - U*| = 1.8e-7
    # after 79 iterations, with max |U*| = 0.34
    assert J_reached <= (1.0 + 1e-12) * J_star
    assert np.abs(traj.controls - U_star).max() <= 1e-6


def test_optimize_fixed_point_at_optimum():
    plant, b0, spec = lq_toy()
    U_star, _ = lq_direct_solution(plant, b0.mean, spec, 10)
    opts = OptimizeOptions(alpha=0.3, max_iters=50, tol=1e-6, h=1e-5)
    traj = optimize(U_star, b0, plant, spec, opts)
    assert traj.converged
    assert traj.iterations <= 2
    assert np.abs(traj.controls - U_star).max() <= 1e-3


def test_optimize_monotone_accepted_costs():
    plant, b0, spec = lq_toy()
    opts = OptimizeOptions(alpha=0.3, max_iters=40, tol=1e-12, h=1e-5)
    traj = optimize(np.zeros((10, 1)), b0, plant, spec, opts)
    hist = np.asarray(traj.cost_history)
    assert np.all(np.diff(hist) <= 0)


# max |means - reference| / max |reference| of the reported belief against
# `kalman_reference.enkf_means_reference` on the 16-node slab below:
# measured 8.8e-14 at seed 2, and 1.0e-14 to 8.8e-14 over seeds 0-5
ENKF_REFERENCE_TOL = 1e-12


def test_optimize_nominal_cost_consistency():
    cfg = HeatPlantConfig(n_grid=16, horizon=10)
    plant = HeatPlant(cfg)
    b0 = GaussianBelief(plant.initial_state(), 0.25 * np.eye(16))
    spec = CostSpec.from_weights(16, 5, q_mean=1.0, r_u=1e-3, q_terminal=1.0, target=150.0)
    opts = OptimizeOptions(alpha=20.0, max_iters=3, M=12, seed=2, h=1e-2)
    traj = optimize(np.zeros((10, 5)), b0, plant, spec, opts)
    assert traj.iterations == 3
    # the reported belief is the EnKF rollout of the returned controls with
    # the same M and seed, as a member-by-member filter written apart from
    # the program replays it from the same draws
    reference = enkf_means_reference(plant, b0.mean, b0.cov, traj.controls, M=12, seed=2)
    assert np.abs(traj.means - reference).max() <= ENKF_REFERENCE_TOL * np.abs(reference).max()
    assert traj.nominal_cost == spec.total(traj.means, traj.controls)
    # the descent's costs are those of the noiseless rollout, which also
    # gives the observations
    states, observations = plant.simulate_nominal(b0.mean, traj.controls)
    assert traj.cost_history[-1] == spec.total(states, traj.controls)
    assert np.array_equal(traj.observations, observations)
    assert traj.nominal_cost != traj.cost_history[-1]
    assert traj.means.shape == (11, 16)
    assert traj.controls.shape == (10, 5)


def test_optimize_runs_out_of_iterations_returns_best():
    plant, b0, spec = lq_toy()
    opts = OptimizeOptions(alpha=0.05, max_iters=2, tol=1e-14, h=1e-5)
    traj = optimize(np.zeros((10, 1)), b0, plant, spec, opts)
    assert not traj.converged
    assert traj.iterations == 2


def test_trajectory_json_roundtrip(tmp_path):
    plant, b0, spec = lq_toy()
    opts = OptimizeOptions(alpha=0.3, max_iters=3, h=1e-5)
    traj = optimize(np.zeros((10, 1)), b0, plant, spec, opts)
    path = tmp_path / "nominal.json"
    traj.to_json(path)
    back = NominalTrajectory.from_json(path)
    assert np.array_equal(back.controls, traj.controls)
    assert np.array_equal(back.means, traj.means)
    assert back.nominal_cost == traj.nominal_cost
    assert back.iterations == traj.iterations
    assert back.converged == traj.converged


def test_nominal_json_with_cov_traces_loads_as_without(tmp_path):
    # nominal.json files of earlier versions also hold the belief
    # covariance traces, which no stage reads: `load` ignores the key
    plant, b0, spec = lq_toy()
    traj = optimize(np.zeros((10, 1)), b0, plant, spec, OptimizeOptions(alpha=0.3, max_iters=3, h=1e-5))
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    traj.to_json(new)
    write_json(old, {**read_json(new), "cov_traces": np.linspace(1e-12, 0.4, 11)})
    assert "cov_traces" in read_json(old)
    fields = [stored_fields(NominalTrajectory.from_json(path)) for path in (new, old)]
    assert fields[0].keys() == fields[1].keys() == stored_fields(traj).keys()
    for name, value in stored_fields(traj).items():
        for loaded in fields:
            assert np.array_equal(loaded[name], value), name
            assert type(loaded[name]) is type(value), name


def test_trajectory_length_validation():
    with pytest.raises(ValueError, match="N\\+1"):
        NominalTrajectory(
            controls=np.zeros((5, 1)),
            means=np.zeros((5, 2)),
            observations=np.zeros((6, 1)),
            nominal_cost=0.0,
            iterations=0,
            converged=True,
        )
