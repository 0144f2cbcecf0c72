import numpy as np
import pytest
from test_properties import assert_dot_product_identity

from seplqg.exceptions import IntegrationDivergedError
from seplqg.plant import HeatPlant, HeatPlantConfig, LinearPlant, Plant
from seplqg.rng import stream


def paper_plant(**kw):
    return HeatPlant(HeatPlantConfig(**kw))


# ---------------------------------------------------------------------------
# Plant validation
# ---------------------------------------------------------------------------


def test_spec_rejects_asymmetric_W():
    W = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        Plant(n_x=3, n_u=2, n_y=1, W=W, V=np.eye(1), horizon=5, dt=0.1)


def test_spec_rejects_indefinite_V():
    V = np.array([[1.0, 0.0], [0.0, -0.1]])
    with pytest.raises(ValueError, match="positive semi-definite"):
        Plant(n_x=3, n_u=1, n_y=2, W=np.eye(1), V=V, horizon=5, dt=0.1)


def test_spec_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        Plant(n_x=0, n_u=1, n_y=1, W=np.eye(1), V=np.eye(1), horizon=5, dt=0.1)
    with pytest.raises(ValueError):
        Plant(n_x=1, n_u=1, n_y=1, W=np.eye(1), V=np.eye(1), horizon=0, dt=0.1)
    with pytest.raises(ValueError, match="dt must be positive"):
        Plant(n_x=1, n_u=1, n_y=1, W=np.eye(1), V=np.eye(1), horizon=5, dt=0.0)
    with pytest.raises(ValueError, match="W must be 2x2"):
        Plant(n_x=1, n_u=2, n_y=1, W=np.eye(1), V=np.eye(1), horizon=5, dt=0.1)


def test_plant_holds_its_settings_as_attributes():
    # the plant facts every stage reads, W and V as float arrays
    plant = Plant(n_x=3, n_u=2, n_y=1, W=[[2, 0], [0, 1]], V=[[0.5]], horizon=5, dt=0.1)
    assert (plant.n_x, plant.n_u, plant.n_y, plant.horizon, plant.dt) == (3, 2, 1, 5, 0.1)
    assert plant.W.dtype == plant.V.dtype == float
    assert np.array_equal(plant.W, np.diag([2.0, 1.0])) and np.array_equal(plant.V, [[0.5]])


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


def test_slab_energy_changes_by_the_boundary_flux():
    # with k1 = eta = 0 and no drive, the trapezoid sum over the nodes the
    # step moves, S = T_0/2 + sum_{i=1}^{n-2} T_i, changes each step only
    # by the flux from the Dirichlet end, a (T_{n-1} - T_{n-2}) with
    # a = k0 dt/dx^2: the insulated left end lets none out
    cfg = HeatPlantConfig(k1=0.0, eta=0.0)
    hp = HeatPlant(cfg)
    a = cfg.k0 * cfg.dt / cfg.dx**2
    rng = stream(7, "conserve")
    x = hp.initial_state() + 10.0 * rng.random(100)

    def energy(T):
        return 0.5 * T[0] + T[1:-1].sum()

    for _ in range(50):
        expected = energy(x) + a * (x[-1] - x[-2])
        x = hp.step(x, np.zeros(5), np.zeros(5))
        assert energy(x) == pytest.approx(expected, rel=1e-9)


def test_divergence_raises_named_step():
    hp = paper_plant()
    x = hp.initial_state()
    with pytest.raises(IntegrationDivergedError, match="k=3"):
        hp.step(x * np.inf, np.zeros(5), np.zeros(5), k=3)


def strided_laplacian(T):
    """The second difference on (..., n) views, in the operation order of
    `HeatPlant._laplacian`."""
    lap = np.empty(T.shape)
    np.subtract(T[..., 2:], T[..., 1:-1], out=lap[..., 1:-1])
    lap[..., 1:-1] -= T[..., 1:-1]
    lap[..., 1:-1] += T[..., :-2]
    lap[..., 0] = 2.0 * (T[..., 1] - T[..., 0])
    lap[..., -1] = 0.0
    return lap


@pytest.mark.parametrize("n", [3, 4, 17])
def test_laplacian_matches_strided_reference_bit_for_bit(n):
    hp = HeatPlant(HeatPlantConfig(n_grid=n, actuators=(0.0,), sensors=(1.0,)))
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
        assert np.array_equal(hp._laplacian(T), strided_laplacian(T)), T.shape


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


def test_config_of_json_values_defaults_k0_and_maps_sensor_nodes():
    # the lists and the null of a JSON plant section
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
    cfg = HeatPlantConfig(**raw)
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
    V = hp.V
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


def test_rollout_is_simulate_nominal_unobserved():
    # on a time-varying plant, whose observation depends on k
    rng = stream(4, "rollout")
    A, B, C = 0.5 * rng.standard_normal((6, 3, 3)), rng.standard_normal((6, 3, 2)), rng.standard_normal((7, 2, 3))
    lp = LinearPlant(A, B, C, horizon=6)
    x0, U = rng.standard_normal(3), rng.standard_normal((6, 2))
    states, obs = lp.simulate_nominal(x0, U)
    np.testing.assert_allclose(obs, [C[k] @ x for k, x in enumerate(states)], rtol=1e-12)
    lp.observe = None  # the rollout alone calls no observe
    assert np.array_equal(lp.rollout(x0, U), states)


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
# Adjoint of the step on a slab actuated at its Dirichlet node
# ---------------------------------------------------------------------------


def dirichlet_actuated_slab(on_dirichlet_node):
    """17-node slab with five actuators, the last on the Dirichlet node
    if asked, where its drive is overwritten like the rest of the step."""
    last = 1.0 if on_dirichlet_node else 0.9
    return HeatPlant(HeatPlantConfig(n_grid=17, actuators=(0.1, 0.3, 0.5, 0.7, last)))


@pytest.mark.parametrize("on_dirichlet_node", [False, True])
def test_heat_step_vjp_matches_central_differences(on_dirichlet_node):
    # the step is quadratic in T and affine in u, so the central
    # difference is exact up to roundoff; an actuator on the Dirichlet
    # node drives nothing there, and its adjoint is 0
    hp = dirichlet_actuated_slab(on_dirichlet_node)
    rng = stream(5, int(on_dirichlet_node), "heat-vjp-dirichlet")
    for shape in ((17,), (4, 17)):
        T = rng.uniform(*hp.config.temp_range, shape)
        u = rng.standard_normal(shape[:-1] + (5,))
        v = (rng.standard_normal(T.shape), rng.standard_normal(u.shape))
        g = rng.standard_normal(T.shape)
        assert_dot_product_identity(lambda x, c: hp.step(x, c, 0.0), lambda g: hp.step_vjp(T, u, g),
                                    (T, u), v, g, eps=1e-2, rtol=1e-9)
        g_u = hp.step_vjp(T, u, g)[1]
        assert np.all(g_u[..., :4] != 0.0)
        assert np.all((g_u[..., 4] == 0.0) == on_dirichlet_node)
