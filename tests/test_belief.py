import numpy as np
import pytest

from kalman_reference import kalman_predict, kalman_update
from seplqg.belief import GaussianBelief, _enkf_gain, enkf_update_members, psd_sqrt
from seplqg.exceptions import FilterDegenerateError
from seplqg.plant import HeatPlant, HeatPlantConfig, LinearPlant
from seplqg.rng import stream


def scalar_plant(a=1.0, b=1.0, c=1.0, W=0.0, V=0.5):
    return LinearPlant(
        np.array([[a]]), np.array([[b]]), np.array([[c]]),
        W=np.array([[W]]), V=np.array([[V]]), horizon=10,
    )


def draw(rng, M, cov):
    """M rows of N(0, cov) noise: M standard normal rows from rng times
    psd_sqrt(cov)', as the Monte Carlo engine draws filter noise."""
    return rng.standard_normal((M, cov.shape[0])) @ psd_sqrt(cov).T


def sample(belief, M, rng):
    """An M-member ensemble drawn from a GaussianBelief."""
    return belief.mean + draw(rng, M, belief.cov)


def predict(members, control, plant, rng, k=0):
    """One forecast, as `optimize`'s EnKF makes it: the members stepped
    as one batch, each with its own w ~ N(0, W)."""
    return plant.step(members, control, draw(rng, len(members), plant.W), k)


def update(members, y, plant, rng, k=0):
    """One perturbed-observation analysis with draws v_i ~ N(0, V)."""
    return enkf_update_members(members, y, draw(rng, len(members), plant.V), plant, plant.V, k)


# ---------------------------------------------------------------------------
# GaussianBelief
# ---------------------------------------------------------------------------


def test_belief_symmetrizes_and_floors():
    cov = np.array([[1.0, 0.3 + 5e-11], [0.3, 1.0]])
    b = GaussianBelief([0.0, 0.0], cov)
    assert np.array_equal(b.cov, b.cov.T)

    indef = np.array([[1.0, 0.0], [0.0, -0.5]])
    b2 = GaussianBelief([0.0, 0.0], indef)
    assert np.linalg.eigvalsh(b2.cov).min() >= -1e-8


def test_belief_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        GaussianBelief([0.0, 0.0], np.eye(3))


def test_psd_sqrt_handles_singular():
    M = np.array([[1.0, 1.0], [1.0, 1.0]])
    S = psd_sqrt(M)
    assert np.allclose(S @ S.T, M, atol=1e-12)
    assert np.allclose(psd_sqrt(np.zeros((2, 2))), 0.0)


# ---------------------------------------------------------------------------
# EnKF forecast
# ---------------------------------------------------------------------------


def test_predict_degenerate_without_noise():
    lp = scalar_plant(a=0.8, b=2.0, W=0.0)
    ens = np.full((6, 1), 1.5)
    out = predict(ens, np.array([0.25]), lp, stream(0, "p"))
    assert out.shape == (6, 1)
    expected = lp.step(np.array([1.5]), np.array([0.25]), np.array([0.0]))
    assert np.allclose(out, expected)


def test_predict_mean_matches_kalman():
    A = np.array([[0.9, 0.2], [0.0, 0.7]])
    B = np.array([[1.0, 0.0], [0.3, 1.0]])
    C = np.eye(2)
    W = np.diag([0.3, 0.1])
    lp = LinearPlant(A, B, C, W=W, V=np.eye(2), horizon=5)
    mu0 = np.array([1.0, -1.0])
    P0 = 0.5 * np.eye(2)
    M = 5000
    ens = sample(GaussianBelief(mu0, P0), M, stream(2, "init"))
    u = np.array([0.5, -0.2])
    out = predict(ens, u, lp, stream(2, "w"))
    exact = kalman_predict(GaussianBelief(mu0, P0), u, A, B, W)
    se = np.sqrt(np.diag(exact.cov) / M)
    assert np.all(np.abs(np.mean(out, axis=0) - exact.mean) <= 3 * se)


def test_predict_deterministic_under_seed():
    lp = scalar_plant(W=0.4)
    ens = np.linspace(-1, 1, 50)[:, None]
    out1 = predict(ens, np.zeros(1), lp, stream(9, "fixed"))
    out2 = predict(ens, np.zeros(1), lp, stream(9, "fixed"))
    assert np.array_equal(out1, out2)
    assert out1.shape == ens.shape


# ---------------------------------------------------------------------------
# enkf_update_members
# ---------------------------------------------------------------------------


def test_update_uninformative_measurement():
    # V -> infinity: gain ~ 1/V, perturbed observations ~ sqrt(V), so the
    # member shift is O(1/sqrt(V)) = 1e-6
    lp = scalar_plant(V=1e12)
    rng = stream(4, "uninf")
    members = 0.5 * rng.standard_normal((200, 1))
    out = update(members, np.array([5.0]), lp, rng)
    rel = np.linalg.norm(out - members) / np.linalg.norm(members)
    assert rel <= 1e-6


def test_update_matches_exact_kalman_scalar():
    V = 0.5
    lp = scalar_plant(V=V)
    mu0, P0 = 2.0, 1.5
    y = 3.2
    M = 20000
    ens = sample(GaussianBelief([mu0], [[P0]]), M, stream(8, "init"))
    out = update(ens, np.array([y]), lp, stream(8, "v"))
    post = kalman_update(GaussianBelief([mu0], [[P0]]), [y], np.array([[1.0]]), np.array([[V]]))
    se_mean = np.sqrt(post.cov[0, 0] / M) * (1 + P0 / V)  # prior sampling inflates the estimator
    se_var = post.cov[0, 0] * np.sqrt(2.0 / (M - 1)) * (1 + P0 / V)
    assert abs(np.mean(out) - post.mean[0]) <= 3 * se_mean
    assert abs(np.cov(out[:, 0]) - post.cov[0, 0]) <= 3 * se_var


def test_update_identical_members_zero_gain():
    lp = scalar_plant(V=0.3)
    members = np.full((30, 1), 0.7)
    out = update(members, np.array([9.0]), lp, stream(1, "zg"))
    assert np.allclose(out, members)


def test_gain_from_inverse_matches_solve():
    # a batch of 3 runs of 12 members on a 16-node slab with correlated V
    plant = HeatPlant(HeatPlantConfig(n_grid=16, horizon=5))
    rng = stream(6, "gain")
    members = 100.0 + 5.0 * rng.standard_normal((3, 12, 16))
    A = rng.standard_normal((5, 5))
    V = A @ A.T / 5 + 0.1 * np.eye(5)
    Kt = _enkf_gain(members, plant, V, 2)[-1]
    Xc = members - members.mean(axis=1, keepdims=True)
    Y = plant.observe(members, 0.0, 2)
    Yc = Y - Y.mean(axis=1, keepdims=True)
    Pxy = np.swapaxes(Xc, 1, 2) @ Yc / 11
    S = np.swapaxes(Yc, 1, 2) @ Yc / 11 + V
    expected = np.linalg.solve(S, np.swapaxes(Pxy, 1, 2))
    assert np.allclose(Kt, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


def test_update_with_singular_innovation_covariance_raises():
    # identical members and no measurement noise: S = P_yy + V = 0
    lp = scalar_plant(V=0.0)
    members = np.full((2, 30, 1), 0.5)
    with pytest.raises(FilterDegenerateError, match="k=4"):
        enkf_update_members(members, np.ones((2, 1)), np.zeros((2, 30, 1)), lp, lp.V, 4)


def test_update_preserves_member_count():
    lp = scalar_plant(V=0.3, W=0.1)
    rng = stream(3, "count")
    ens = rng.standard_normal((37, 1))
    assert update(ens, np.array([0.1]), lp, rng).shape == (37, 1)
    assert predict(ens, np.zeros(1), lp, rng).shape == (37, 1)


def test_enkf_converges_to_kalman_with_ensemble_size():
    # posterior error at M=20000 below error at M=200 in nearly all seeded trials
    V, P0, mu0, y = 0.4, 1.2, 0.5, 1.7
    lp = scalar_plant(V=V)
    post = kalman_update(GaussianBelief([mu0], [[P0]]), [y], np.array([[1.0]]), np.array([[V]]))

    def posterior_error(M, seed):
        ens = sample(GaussianBelief([mu0], [[P0]]), M, stream(seed, "init"))
        out = update(ens, np.array([y]), lp, stream(seed, "v"))[:, 0]
        return abs(np.mean(out) - post.mean[0]) + abs(np.cov(out) - post.cov[0, 0])

    wins = sum(posterior_error(20000, s) < posterior_error(200, s) for s in range(12))
    assert wins >= 10


# ---------------------------------------------------------------------------
# exact Kalman recursions (reference path)
# ---------------------------------------------------------------------------


def test_kalman_update_hand_scalar():
    # P=1, V=1: gain 1/2, posterior variance 1/2
    b = kalman_update(GaussianBelief([0.0], [[1.0]]), [2.0], np.array([[1.0]]), np.array([[1.0]]))
    assert b.mean[0] == pytest.approx(1.0)
    assert b.cov[0, 0] == pytest.approx(0.5)


def test_kalman_predict_hand_scalar():
    b = kalman_predict(GaussianBelief([1.0], [[0.5]]), [2.0], np.array([[0.8]]), np.array([[1.0]]), np.array([[0.2]]))
    assert b.mean[0] == pytest.approx(0.8 + 2.0)
    assert b.cov[0, 0] == pytest.approx(0.64 * 0.5 + 0.2)
