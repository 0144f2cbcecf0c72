import numpy as np
import pytest

from seplqg.exceptions import DegenerateMeasurementError
from seplqg.lqg import LqgController, design_lqg, kf_forward, lqg_update, lqr_backward
from seplqg.plant import LinearPlant
from seplqg.rng import stream
from seplqg.sysid import LtvRom
from seplqg.trajopt import NominalTrajectory


def constant_rom(A, B, C, N):
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    return LtvRom(
        A_hat=np.tile(A, (N, 1, 1)),
        B_hat=np.tile(B, (N, 1, 1)),
        C_hat=np.tile(C, (N + 1, 1, 1)),
        n_r=A.shape[0],
        time_range=(0, N - 1),
        singular_values={},
    )


# the LQG weights of the built-in config
WEIGHTS = dict(q_y=1.0, r=0.1, terminal_scale=10.0, ridge=1e-8)


def unit_noise(rom):
    """Identity noise covariances W and V and prior P0 for the ROM."""
    return dict(W=np.eye(rom.n_u), V=np.eye(rom.n_y), P0=np.eye(rom.n_r))


def stage_weights(Q, rom):
    """The one stage weight Q at every step of the ROM's horizon."""
    return np.broadcast_to(Q, (rom.horizon, *np.shape(Q)))


def random_stable_ltv(n_r, n_u, n_y, N, seed):
    rng = stream(seed, "ltv-rom")
    A = np.stack([0.85 * np.eye(n_r) + 0.05 * rng.standard_normal((n_r, n_r)) for _ in range(N)])
    B = np.stack([rng.standard_normal((n_r, n_u)) for _ in range(N)])
    C = np.stack([rng.standard_normal((n_y, n_r)) for _ in range(N + 1)])
    return LtvRom(A_hat=A, B_hat=B, C_hat=C, n_r=n_r, time_range=(0, N - 1), singular_values={})


# ---------------------------------------------------------------------------
# lqr_backward
# ---------------------------------------------------------------------------


def test_lqr_scalar_hand_recursion():
    rom = constant_rom([[1.0]], [[1.0]], [[1.0]], N=1)
    L, S = lqr_backward(rom, Qk=stage_weights([[1.0]], rom), QN=np.array([[1.0]]), R=np.array([[1.0]]))
    assert S[1, 0, 0] == pytest.approx(1.0)
    assert L[0, 0, 0] == pytest.approx(0.5)
    assert S[0, 0, 0] == pytest.approx(1.5)


def test_lqr_uncontrollable_reduces_to_lyapunov():
    rng = stream(2, "lyap")
    A = 0.9 * np.eye(3) + 0.05 * rng.standard_normal((3, 3))
    rom = constant_rom(A, np.zeros((3, 1)), np.eye(3)[:2], N=6)
    Q = np.eye(3)
    R = np.eye(1)
    L, S = lqr_backward(rom, Qk=stage_weights(Q, rom), QN=2 * Q, R=R)
    assert np.allclose(L, 0.0)
    expected = 2 * Q
    for _ in range(6):
        expected = Q + A.T @ expected @ A
    assert np.allclose(S[0], expected, atol=1e-10)


def test_lqr_cost_to_go_psd_and_symmetric():
    rom = random_stable_ltv(4, 2, 2, 30, seed=5)
    Q = np.eye(4)
    L, S = lqr_backward(rom, Qk=stage_weights(Q, rom), QN=3 * Q, R=0.5 * np.eye(2))
    for k in range(31):
        assert np.allclose(S[k], S[k].T, atol=1e-12)
        assert np.linalg.eigvalsh(S[k]).min() >= -1e-8


def test_lqr_beats_random_gain_sequences():
    N = 30
    rom = random_stable_ltv(4, 2, 2, N, seed=7)
    Q = np.eye(4)
    QN = 2 * np.eye(4)
    R = 0.3 * np.eye(2)
    L_opt, _ = lqr_backward(rom, Qk=stage_weights(Q, rom), QN=QN, R=R)

    def closed_loop_cost(L_seq):
        x = np.array([1.0, -1.0, 0.5, 0.2])
        J = 0.0
        for k in range(N):
            u = -L_seq[k] @ x
            J += x @ Q @ x + u @ R @ u
            x = rom.A_hat[k] @ x + rom.B_hat[k] @ u
        return J + x @ QN @ x

    J_opt = closed_loop_cost(L_opt)
    rng = stream(8, "gains")
    for trial in range(100):
        if trial % 2:
            L_rand = L_opt + 0.2 * rng.standard_normal(L_opt.shape)
        else:
            L_rand = 0.5 * rng.standard_normal(L_opt.shape)
        assert J_opt <= closed_loop_cost(L_rand) + 1e-9


def test_lqr_gain_invariant_under_joint_weight_scaling():
    rom = random_stable_ltv(3, 1, 2, 12, seed=9)
    Q, QN, R = np.eye(3), 2 * np.eye(3), 0.4 * np.eye(1)
    L1, _ = lqr_backward(rom, stage_weights(Q, rom), QN, R)
    c = 37.5
    L2, _ = lqr_backward(rom, stage_weights(c * Q, rom), c * QN, c * R)
    assert np.allclose(L1, L2, atol=1e-10)


# ---------------------------------------------------------------------------
# kf_forward
# ---------------------------------------------------------------------------


def test_kf_uninformative_sensor_gains_vanish():
    rom = random_stable_ltv(3, 1, 2, 15, seed=11)
    K, P = kf_forward(rom, W=np.eye(1), V=1e12 * np.eye(2), P0=np.eye(3))
    assert np.abs(K).max() < 1e-6
    # covariance follows pure prediction
    Pk = np.eye(3)
    for k in range(15):
        A, B = rom.A_hat[k], rom.B_hat[k]
        Pk = A @ Pk @ A.T + B @ np.eye(1) @ B.T
    assert np.allclose(P[15], Pk, rtol=1e-5)


def test_kf_scalar_steady_state_fixed_point():
    a, b, c, W, V = 0.9, 1.0, 1.0, 0.3, 0.4
    N = 300
    rom = constant_rom([[a]], [[b]], [[c]], N=N)
    K, P = kf_forward(rom, W=np.array([[W]]), V=np.array([[V]]), P0=np.array([[2.0]]))
    # independent fixed-point iteration of the filtered-variance map
    p = 2.0
    for _ in range(10000):
        pp = a * a * p + b * b * W
        k = pp * c / (c * pp * c + V)
        p_new = (1 - k * c) ** 2 * pp + k * V * k
        if abs(p_new - p) < 1e-14:
            p = p_new
            break
        p = p_new
    assert abs(P[N, 0, 0] - p) <= 1e-10


def test_kf_zero_noise_zero_prior_is_degenerate():
    rom = random_stable_ltv(3, 1, 2, 10, seed=13)
    K, P = kf_forward(rom, W=np.zeros((1, 1)), V=np.eye(2), P0=np.zeros((3, 3)))
    assert np.allclose(K, 0.0)
    assert np.allclose(P, 0.0)


def test_kf_rejects_singular_innovation():
    rom = random_stable_ltv(3, 1, 2, 10, seed=14)
    with pytest.raises(DegenerateMeasurementError):
        kf_forward(rom, W=np.zeros((1, 1)), V=np.zeros((2, 2)), P0=np.zeros((3, 3)))


def test_kf_covariances_symmetric_psd():
    rom = random_stable_ltv(4, 2, 2, 25, seed=15)
    K, P = kf_forward(rom, W=np.eye(2), V=np.eye(2), P0=np.eye(4))
    for k in range(26):
        assert np.allclose(P[k], P[k].T, atol=1e-12)
        assert np.linalg.eigvalsh(P[k]).min() >= -1e-8


# ---------------------------------------------------------------------------
# separation structure
# ---------------------------------------------------------------------------


def test_lqr_gains_independent_of_noise():
    rom = random_stable_ltv(3, 1, 2, 12, seed=17)
    c1 = design_lqg(rom, W=np.eye(1), V=np.eye(2), P0=np.eye(3), **WEIGHTS)
    c2 = design_lqg(rom, W=7.3 * np.eye(1), V=0.1 * np.eye(2), P0=np.eye(3), **WEIGHTS)
    assert np.array_equal(c1.L_gains, c2.L_gains)
    assert not np.array_equal(c1.K_gains, c2.K_gains)


def test_kf_gains_independent_of_cost():
    rom = random_stable_ltv(3, 1, 2, 12, seed=18)
    noise = dict(W=np.eye(1), V=np.eye(2), P0=np.eye(3))
    c1 = design_lqg(rom, **noise, q_y=1.0, r=0.1, terminal_scale=10.0, ridge=1e-8)
    c2 = design_lqg(rom, **noise, q_y=11.0, r=3.0, terminal_scale=10.0, ridge=1e-8)
    assert np.array_equal(c1.K_gains, c2.K_gains)
    assert not np.array_equal(c1.L_gains, c2.L_gains)


# ---------------------------------------------------------------------------
# lqg_update in closed loop
# ---------------------------------------------------------------------------


def make_nominal_for(plant, N):
    states, obs = plant.simulate_nominal(np.zeros(plant.n_x), np.zeros((N, plant.n_u)))
    return NominalTrajectory(
        controls=np.zeros((N, plant.n_u)),
        means=states,
        prior_cov=np.zeros((plant.n_x, plant.n_x)),
        observations=obs,
        nominal_cost=0.0,
        iterations=0,
        converged=True,
    )


def test_closed_loop_tracks_nominal_exactly_without_deviation():
    rom = random_stable_ltv(3, 2, 2, 20, seed=21)
    ctrl = design_lqg(rom, **unit_noise(rom), **WEIGHTS)
    nominal = NominalTrajectory(
        controls=stream(1, "u").standard_normal((20, 2)),
        means=np.zeros((21, 3)),
        prior_cov=np.zeros((3, 3)),
        observations=stream(2, "y").standard_normal((21, 2)),
        nominal_cost=0.0,
        iterations=0,
        converged=True,
    )
    a_hat = np.zeros(3)
    for k in range(20):
        y = nominal.observations[k]  # the measurement the nominal predicts
        du, a_hat = lqg_update(ctrl, k, y - nominal.observations[k], a_hat)
        assert np.array_equal(nominal.controls[k] + du, nominal.controls[k])
    assert np.allclose(a_hat, 0.0)


def test_closed_loop_estimator_and_regulator_converge():
    # plant identical to the ROM, no noise, initial deviation decays
    rng = stream(23, "conv")
    n = 3
    A = np.diag([0.95, 0.9, 0.85])
    B = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    C = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    N = 60
    plant = LinearPlant(A, B, C, W=np.zeros((2, 2)), V=np.zeros((2, 2)), horizon=N)
    rom = constant_rom(A, B, C, N)
    ctrl = design_lqg(rom, W=0.1 * np.eye(2), V=0.1 * np.eye(2), P0=np.eye(3), q_y=1.0, r=0.05,
                      terminal_scale=10.0, ridge=1e-8)
    nominal = make_nominal_for(plant, N)
    x = np.array([1.0, -1.5, 0.8])  # deviation from the zero nominal
    a_hat = np.zeros(n)
    est_err = []
    track = []
    for k in range(N):
        y = plant.observe(x, 0.0, k)
        # estimate right after the measurement update, as the control sees it
        a_post = a_hat + ctrl.K_gains[k] @ (
            (y - nominal.observations[k]) - rom.C_hat[k] @ a_hat
        )
        du, a_hat = lqg_update(ctrl, k, y - nominal.observations[k], a_hat)
        u = nominal.controls[k] + du
        est_err.append(np.linalg.norm(a_post - x))
        track.append(np.linalg.norm(x))
        x = plant.step(x, u, 0.0, k)
    est_err = np.array(est_err)
    track = np.array(track)
    assert est_err[40:].max() < 0.05 * est_err[:10].max()
    assert track[40:].max() < 0.15 * track[:10].max()


def test_controller_json_roundtrip(tmp_path):
    rom = random_stable_ltv(3, 2, 2, 10, seed=27)
    ctrl = design_lqg(rom, **unit_noise(rom), **WEIGHTS)
    path = tmp_path / "controller.json"
    ctrl.to_json(path)
    back = LqgController.from_json(path)
    assert np.array_equal(back.L_gains, ctrl.L_gains)
    assert np.array_equal(back.K_gains, ctrl.K_gains)
    assert np.array_equal(back.P_traces, ctrl.P_traces)
    assert np.array_equal(back.S_traces, ctrl.S_traces)
    assert np.array_equal(back.rom.A_hat, ctrl.rom.A_hat)


def test_design_checks_weight_shapes():
    rom = random_stable_ltv(3, 1, 2, 10, seed=29)
    ctrl = design_lqg(rom, **unit_noise(rom), **WEIGHTS)
    assert ctrl.L_gains.shape == (10, 1, 3)
    assert ctrl.K_gains.shape == (11, 3, 2)
    assert ctrl.P_traces.shape == (11,)
    assert ctrl.S_traces.shape == (11,)
