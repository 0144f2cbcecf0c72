import numpy as np
import pytest

from seplqg.exceptions import IntegrationDivergedError
from seplqg.plant import HeatPlant, HeatPlantConfig, LinearPlant, PlantSpec
from seplqg.rng import stream


def paper_plant(**kw):
    return HeatPlant(HeatPlantConfig(**kw))


# ---------------------------------------------------------------------------
# PlantSpec validation
# ---------------------------------------------------------------------------


def test_spec_rejects_asymmetric_W():
    W = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        PlantSpec(n_x=3, n_u=2, n_y=1, W=W, V=np.eye(1), horizon=5, dt=0.1)


def test_spec_rejects_indefinite_V():
    V = np.array([[1.0, 0.0], [0.0, -0.1]])
    with pytest.raises(ValueError, match="positive semi-definite"):
        PlantSpec(n_x=3, n_u=1, n_y=2, W=np.eye(1), V=V, horizon=5, dt=0.1)


def test_spec_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        PlantSpec(n_x=0, n_u=1, n_y=1, W=np.eye(1), V=np.eye(1), horizon=5, dt=0.1)
    with pytest.raises(ValueError):
        PlantSpec(n_x=1, n_u=1, n_y=1, W=np.eye(1), V=np.eye(1), horizon=0, dt=0.1)


# ---------------------------------------------------------------------------
# Heat plant: one explicit Euler step
# ---------------------------------------------------------------------------


def test_zero_diffusivity_zero_decay_keeps_interior():
    hp = paper_plant(k0=0.0, k1=0.0, eta=0.0)
    x = hp.initial_state()  # uniform 100 except the boundary
    out = hp.step(x, np.zeros(5), np.zeros(5))
    assert np.array_equal(out, x)


def test_uniform_equilibrium_at_boundary_temperature():
    hp = paper_plant(eta=0.0, t_init=150.0)
    x = np.full(100, 150.0)
    out = hp.step(x, np.zeros(5), np.zeros(5))
    assert np.allclose(out, x, atol=1e-12)


def test_single_step_matches_straight_line_fd_oracle():
    # independent loop-based finite-difference step, paper defaults
    cfg = HeatPlantConfig()
    n, dt, dx = cfg.n_grid, cfg.dt, cfg.dx
    T = np.full(n, 100.0)
    T[-1] = 150.0
    oracle = T.copy()
    for i in range(n - 1):
        if i == 0:
            lap = 2.0 * (T[1] - T[0])
        else:
            lap = T[i + 1] - 2.0 * T[i] + T[i - 1]
        K = cfg.k0 * (1.0 + cfg.k1 * T[i])
        oracle[i] = T[i] + dt * (K * lap / dx**2 - cfg.eta * T[i])

    hp = HeatPlant(cfg)
    out = hp.step(T, np.zeros(5), np.zeros(5))
    node = int(round(0.99 * (n - 1)))  # node nearest x = 0.99 L
    assert out[node] == pytest.approx(oracle[node], rel=1e-12)
    # frozen oracle value: only the hot-boundary neighbour moves this step
    assert oracle[node] == pytest.approx(120.8875, abs=1e-9)
    assert np.allclose(out, oracle, rtol=1e-12, atol=1e-12)


def test_step_is_identity_on_dirichlet_entry():
    hp = paper_plant()
    x = hp.initial_state()
    x[-1] = 212.0
    rng = stream(0, "dirichlet")
    out = hp.step(x, rng.normal(size=5), rng.normal(size=5))
    assert out[-1] == 212.0


def test_step_deterministic():
    hp = paper_plant()
    rng = stream(1, "det")
    x = hp.initial_state() + rng.normal(size=100)
    u = rng.normal(size=5)
    w = rng.normal(size=5)
    out1 = hp.step(x, u, w)
    out2 = hp.step(x, u, w)
    assert np.array_equal(out1, out2)


def test_actuation_enters_at_point_sources():
    hp = paper_plant(k0=0.0, k1=0.0, eta=0.0)
    x = hp.initial_state()
    u = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    out = hp.step(x, u, np.zeros(5))
    nodes = hp.config.actuator_nodes
    assert np.allclose(out[list(nodes)] - x[list(nodes)], hp.dt * u)
    # noise shares the control channels
    out2 = hp.step(x, np.zeros(5), u)
    assert np.array_equal(out, out2)


def test_insulated_mode_conserves_total_temperature():
    cfg = HeatPlantConfig(k1=0.0, eta=0.0, insulated=True)
    hp = HeatPlant(cfg)
    rng = stream(7, "conserve")
    x = 100.0 + 10.0 * rng.random(100)
    total = x.sum()
    for _ in range(50):
        x = hp.step(x, np.zeros(5), np.zeros(5))
        assert x.sum() == pytest.approx(total, rel=1e-9)


def test_divergence_raises_named_step():
    hp = paper_plant()
    x = hp.initial_state()
    with pytest.raises(IntegrationDivergedError, match="k=3"):
        hp.step(x * np.inf, np.zeros(5), np.zeros(5), k=3)


def strided_laplacian(T, insulated):
    """The second difference on (..., n) views, in the operation order of
    `HeatPlant._laplacian`."""
    lap = np.empty(T.shape)
    np.subtract(T[..., 2:], T[..., 1:-1], out=lap[..., 1:-1])
    lap[..., 1:-1] -= T[..., 1:-1]
    lap[..., 1:-1] += T[..., :-2]
    if insulated:
        lap[..., 0] = T[..., 1] - T[..., 0]
        lap[..., -1] = T[..., -2] - T[..., -1]
    else:
        lap[..., 0] = 2.0 * (T[..., 1] - T[..., 0])
        lap[..., -1] = 0.0
    return lap


@pytest.mark.parametrize("insulated", [False, True])
@pytest.mark.parametrize("n", [3, 4, 17])
def test_laplacian_matches_strided_reference_bit_for_bit(insulated, n):
    hp = HeatPlant(HeatPlantConfig(n_grid=n, insulated=insulated, actuators=(0.0,), sensors=(1.0,)))
    rng = stream(4, n, "lap")
    base = 100.0 + 30.0 * rng.standard_normal((5, 6, 2 * n))
    inputs = [
        base[0, 0, :n],  # (n,)
        base[0, :, :n].copy(),  # (R, n)
        base[..., :n].copy(),  # (R, M, n)
        base[..., :n],  # rows not adjacent in memory
        base[..., ::2],  # strided entries
        base[:, ::2, :n].transpose(1, 0, 2),  # permuted axes
    ]
    for T in inputs:
        assert np.array_equal(hp._laplacian(T), strided_laplacian(T, insulated)), T.shape


# ---------------------------------------------------------------------------
# Stability guard and config validation
# ---------------------------------------------------------------------------


def test_stability_guard_fails_at_construction():
    dx = 1.0 / 99
    with pytest.raises(ValueError, match="unstable"):
        HeatPlantConfig(k0=0.6 * dx**2 / 0.25)


def test_default_diffusivity_is_stable_over_operating_range():
    cfg = HeatPlantConfig()
    lo, hi = cfg.temp_range
    worst = cfg.k0 * max(1 + cfg.k1 * lo, 1 + cfg.k1 * hi) * cfg.dt / cfg.dx**2
    assert worst <= 0.5 + 1e-12


def test_diffusivity_positivity_guard():
    with pytest.raises(ValueError, match="positive"):
        HeatPlantConfig(k1=-0.005)  # 1 + k1*T crosses zero below 300 F
    with pytest.raises(ValueError):
        HeatPlantConfig(k0=-1.0)


def test_default_positions_evenly_spaced():
    cfg = HeatPlantConfig()
    assert np.allclose(cfg.actuators, np.linspace(0.1, 0.9, 5))
    assert cfg.actuators == cfg.sensors


def test_config_from_dict_defaults_k0_and_maps_sensor_nodes():
    raw = {
        "n_grid": 50,
        "L": 2.0,
        "eta": 1e-3,
        "k0": None,
        "k1": 1e-3,
        "actuators": [0.1, 0.3, 0.5, 0.7, 0.9],
        "sensors": [0.2, 0.5, 0.8],
        "t_init": 90.0,
        "t_right": 140.0,
        "dt": 0.5,
        "horizon": 100,
        "temp_range": [0.0, 250.0],
    }
    cfg = HeatPlantConfig.from_dict(raw)
    assert cfg.n_grid == 50 and cfg.horizon == 100
    assert cfg.k0 == pytest.approx(0.38 * cfg.dx**2 / cfg.dt)
    assert cfg.sensors == (0.2, 0.5, 0.8) and cfg.temp_range == (0.0, 250.0)
    assert cfg.sensor_nodes == (10, 24, 39)


# ---------------------------------------------------------------------------
# observe
# ---------------------------------------------------------------------------


def test_observe_selects_sensor_nodes():
    hp = paper_plant()
    x = np.arange(100.0)
    y = hp.observe(x, np.zeros(5))
    assert np.array_equal(y, x[list(hp.config.sensor_nodes)])


def test_observe_additive_noise():
    hp = paper_plant()
    v = np.array([0.3, -0.2, 0.1, 0.0, 2.0])
    assert np.array_equal(hp.observe(np.zeros(100), v), v)


def test_observe_noise_moments():
    hp = paper_plant()
    V = hp.spec.V
    rng = stream(11, "obs-moments")
    draws = rng.standard_normal((1000, 5)) @ np.linalg.cholesky(V).T
    ys = hp.observe(np.zeros(100), draws)
    S = np.cov(ys.T)
    assert np.linalg.norm(S - V) / np.linalg.norm(V) < 0.15


# ---------------------------------------------------------------------------
# simulate_nominal
# ---------------------------------------------------------------------------


def test_simulate_nominal_equilibrium():
    hp = paper_plant(eta=0.0, t_init=150.0)
    x0 = np.full(100, 150.0)
    states, obs = hp.simulate_nominal(x0, np.zeros((1, 5)))
    assert np.allclose(states[0], states[1], atol=1e-12)
    assert np.allclose(obs, 150.0, atol=1e-12)


def test_linear_simulate_matches_matrix_power_oracle():
    rng = stream(3, "linear-oracle")
    A = 0.5 * rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 2))
    C = rng.standard_normal((2, 3))
    lp = LinearPlant(A, B, C, horizon=12)
    x0 = rng.standard_normal(3)
    U = rng.standard_normal((12, 2))
    states, obs = lp.simulate_nominal(x0, U)
    for k in range(13):
        xk = np.linalg.matrix_power(A, k) @ x0
        for j in range(k):
            xk = xk + np.linalg.matrix_power(A, k - 1 - j) @ B @ U[j]
        assert np.allclose(states[k], xk, atol=1e-10)
        assert np.allclose(obs[k], C @ xk, atol=1e-10)


def test_heat_profile_monotone_toward_hot_boundary():
    # independent FD rollout confirms the property, then the plant must agree
    cfg = HeatPlantConfig()
    n, dt, dx = cfg.n_grid, cfg.dt, cfg.dx
    T = np.full(n, 100.0)
    T[-1] = 150.0
    for _ in range(250):
        lap = np.empty(n)
        lap[1:-1] = T[2:] - 2 * T[1:-1] + T[:-2]
        lap[0] = 2 * (T[1] - T[0])
        lap[-1] = 0.0
        T = T + dt * (cfg.k0 * (1 + cfg.k1 * T) * lap / dx**2 - cfg.eta * T)
        T[-1] = 150.0
    assert np.all(np.diff(T) >= -1e-12)

    hp = HeatPlant(cfg)
    states, _ = hp.simulate_nominal(hp.initial_state(), np.zeros((250, 5)))
    assert np.allclose(states[-1], T, rtol=1e-12)
    assert np.all(np.diff(states[-1]) >= -1e-12)


def test_time_varying_linear_plant_uses_k():
    A = np.stack([np.eye(2) * (0.5 + 0.1 * k) for k in range(3)])
    B = np.stack([np.eye(2) for _ in range(3)])
    C = np.stack([np.eye(2) for _ in range(4)])
    lp = LinearPlant(A, B, C, horizon=3)
    x = np.ones(2)
    assert np.allclose(lp.step(x, np.zeros(2), np.zeros(2), k=0), 0.5 * x)
    assert np.allclose(lp.step(x, np.zeros(2), np.zeros(2), k=2), 0.7 * x)


# ---------------------------------------------------------------------------
# Tangent of the step: the transpose of the adjoint, row by row
# ---------------------------------------------------------------------------


def assert_tangent_is_adjoint_transpose(plant, x, u, rng, k=0):
    """<g, jvp(d, e)> = <vjp(g)_x, d> + <vjp(g)_u, e> to 1e-12."""
    d, e, g = rng.standard_normal(x.shape), rng.standard_normal(u.shape), rng.standard_normal(x.shape)
    lhs = np.vdot(g, plant.step_jvp(x, u, d, e, k))
    g_x, g_u = plant.step_vjp(x, u, g, k)
    rhs = np.vdot(g_x, d) + np.vdot(g_u, e)
    assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + abs(rhs))


@pytest.mark.parametrize("insulated", [False, True])
def test_heat_step_jvp_is_the_transpose_of_step_vjp(insulated):
    hp = HeatPlant(HeatPlantConfig(n_grid=17, insulated=insulated))
    rng = stream(5, int(insulated), "heat-jvp")
    for shape in ((17,), (4, 17)):
        T = rng.uniform(*hp.config.temp_range, shape)
        assert_tangent_is_adjoint_transpose(hp, T, rng.standard_normal(shape[:-1] + (5,)), rng)


def test_time_varying_linear_step_jvp_is_the_transpose_of_step_vjp():
    rng = stream(6, "linear-jvp")
    A, B, C = rng.standard_normal((4, 3, 3)), rng.standard_normal((4, 3, 2)), rng.standard_normal((5, 2, 3))
    lp = LinearPlant(A, B, C, horizon=4)
    for k in range(4):
        x, u = rng.standard_normal((3, 3)), rng.standard_normal((3, 2))
        assert_tangent_is_adjoint_transpose(lp, x, u, rng, k)
        assert np.array_equal(lp.step_jvp(x, u, x, u, k), lp.step(x, u, 0.0, k))


@pytest.mark.parametrize("insulated", [False, True])
def test_heat_step_jvp_rows_equal_single_row_calls_bit_for_bit(insulated):
    hp = HeatPlant(HeatPlantConfig(n_grid=17, insulated=insulated))
    rng = stream(7, int(insulated), "heat-jvp-rows")
    T = rng.uniform(*hp.config.temp_range, (6, 17))
    u, d, e = rng.standard_normal((6, 5)), rng.standard_normal((6, 17)), rng.standard_normal((6, 5))
    shared = hp.step_jvp(T[0], u[0], d, e)
    batched = hp.step_jvp(T, u, d, e)
    for i in range(6):
        assert np.array_equal(shared[i], hp.step_jvp(T[0], u[0], d[i], e[i]))
        assert np.array_equal(batched[i], hp.step_jvp(T[i], u[i], d[i], e[i]))


def test_heat_step_jvp_carries_the_dirichlet_entry():
    # an actuator on the Dirichlet node drives nothing there, as in step
    hp = paper_plant(actuators=(0.1, 1.0))
    rng = stream(8, "heat-jvp-dirichlet")
    T = rng.uniform(100.0, 200.0, (3, 100))
    d, e = rng.standard_normal((3, 100)), rng.standard_normal((3, 2))
    assert np.array_equal(hp.step_jvp(T, np.zeros(2), d, e)[:, -1], d[:, -1])
