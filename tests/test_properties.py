"""Property tests of the Riccati recursions on random stable LTV systems
and of the adjoints the reverse-mode gradient is built from."""

import numpy as np
from hypothesis import given, settings, strategies as st

from kalman_reference import kalman_predict, kalman_update
from seplqg.belief import GaussianBelief, enkf_update_members, enkf_update_vjp
from seplqg.lqg import kf_recursion, lqr_backward
from seplqg.plant import HeatPlant, HeatPlantConfig, LinearPlant
from seplqg.rng import stream
from seplqg.sysid import LtvRom


def random_ltv(n, n_u, n_y, N, seed):
    """A_k scaled to spectral norm 0.95, Gaussian B_k and C_k, positive
    definite W and V, and a PSD (possibly singular) prior covariance."""
    rng = stream(seed, "prop-ltv")
    A = rng.standard_normal((N, n, n))
    A *= 0.95 / np.maximum(np.linalg.norm(A, 2, axis=(1, 2)), 1e-12)[:, None, None]
    B = rng.standard_normal((N, n, n_u))
    C = rng.standard_normal((N + 1, n_y, n))

    def psd(m, rank, ridge):
        F = rng.standard_normal((m, rank))
        M = F @ F.T + ridge * np.eye(m)
        return 0.5 * (M + M.T)

    return A, B, C, psd(n_u, n_u, 0.1), psd(n_y, n_y, 0.1), psd(n, max(1, n - 1), 0.0)


def assert_symmetric_psd(P):
    assert np.array_equal(P, np.swapaxes(P, -1, -2))
    scale = max(1.0, float(np.abs(P).max()))
    assert np.linalg.eigvalsh(P).min() >= -1e-9 * scale


systems = st.builds(
    random_ltv,
    n=st.integers(1, 4),
    n_u=st.integers(1, 3),
    n_y=st.integers(1, 3),
    N=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(systems)
def test_kf_recursion_matches_stepwise_kalman(system):
    A, B, C, W, V, P0 = system
    n, n_y = A.shape[1], C.shape[1]
    K, P = kf_recursion(A, B, C[1:], W, V, P0)
    belief = GaussianBelief(np.zeros(n), P0)
    for k in range(len(A)):
        pred = kalman_predict(belief, np.zeros(B.shape[2]), A[k], B[k], W)
        # with a zero prior mean, the updated mean on measurement e_j is column j of the gain
        gain = np.column_stack([kalman_update(pred, e, C[k + 1], V).mean for e in np.eye(n_y)])
        belief = kalman_update(pred, np.zeros(n_y), C[k + 1], V)
        scale = max(1.0, float(np.abs(belief.cov).max()))
        assert np.allclose(P[k + 1], belief.cov, rtol=1e-8, atol=1e-10 * scale)
        assert np.allclose(K[k], gain, rtol=1e-8, atol=1e-10)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(systems)
def test_riccati_outputs_symmetric_psd(system):
    A, B, C, W, V, P0 = system
    N, n, n_u = B.shape
    _, P = kf_recursion(A, B, C[1:], W, V, P0)
    assert_symmetric_psd(P)
    rom = LtvRom(A_hat=A, B_hat=B, C_hat=C, n_r=n, time_range=(0, N - 1), singular_values={})
    CtC = np.einsum("kyi,kyj->kij", C, C)
    CtC = 0.5 * (CtC + np.swapaxes(CtC, 1, 2))
    _, S = lqr_backward(rom, CtC[:-1], 2.0 * CtC[-1], 0.1 * np.eye(n_u))
    assert_symmetric_psd(S)


# ---------------------------------------------------------------------------
# adjoints: <g, J v> = <J' g, v>, with J v a central difference
# ---------------------------------------------------------------------------


def assert_dot_product_identity(f, vjp, x, v, g, eps, rtol):
    """f maps a tuple of arrays to one array, vjp(g) returns the tuple of
    adjoints; J v is the central difference of f along v."""
    fp = f(*(a + eps * d for a, d in zip(x, v)))
    fm = f(*(a - eps * d for a, d in zip(x, v)))
    lhs = np.vdot(g, (fp - fm) / (2.0 * eps))
    rhs = sum(np.vdot(a, d) for a, d in zip(vjp(g), v))
    assert abs(lhs - rhs) <= rtol * (abs(lhs) + abs(rhs))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n_grid=st.integers(10, 24), batch=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_heat_step_vjp_dot_product(n_grid, batch, seed):
    rng = stream(seed, "prop-heat-vjp")
    plant = HeatPlant(HeatPlantConfig(n_grid=n_grid, horizon=4))
    lo, hi = plant.config.temp_range
    T = rng.uniform(lo, hi, (batch, n_grid))
    u = rng.standard_normal((batch, plant.n_u))
    v = (rng.standard_normal(T.shape), rng.standard_normal(u.shape))
    g = rng.standard_normal(T.shape)
    # the step is quadratic in T and affine in u: the central difference is exact
    assert_dot_product_identity(lambda x, c: plant.step(x, c, 0.0), lambda g: plant.step_vjp(T, u, g),
                                (T, u), v, g, eps=1e-2, rtol=1e-9)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(systems, st.integers(0, 5), st.integers(1, 3))
def test_linear_step_and_observe_vjp_dot_product(system, k, batch):
    A, B, C = system[:3]
    plant = LinearPlant(A, B, C, horizon=len(A))
    k = min(k, len(A) - 1)
    rng = stream(k, batch, "prop-linear-vjp")
    x = rng.standard_normal((batch, A.shape[1]))
    u = rng.standard_normal((batch, B.shape[2]))
    v = (rng.standard_normal(x.shape), rng.standard_normal(u.shape))
    assert_dot_product_identity(lambda x, c: plant.step(x, c, 0.0, k), lambda g: plant.step_vjp(x, u, g, k),
                                (x, u), v, rng.standard_normal(x.shape), eps=1e-3, rtol=1e-9)
    assert_dot_product_identity(lambda x: plant.observe(x, 0.0, k + 1), lambda g: (plant.observe_vjp(g, k + 1),),
                                (x,), v[:1], rng.standard_normal((batch, C.shape[1])), eps=1e-3, rtol=1e-9)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(systems, st.integers(3, 10))
def test_enkf_update_vjp_dot_product(system, M):
    A, B, C, W, V, _ = system
    plant = LinearPlant(A, B, C, W=W, V=V, horizon=len(A))
    n, n_y = A.shape[1], C.shape[1]
    rng = stream(M, n, n_y, "prop-enkf-vjp")
    X = rng.standard_normal((M, n))
    y = rng.standard_normal(n_y)
    v_draws = rng.standard_normal((M, n_y))
    v = (rng.standard_normal(X.shape), rng.standard_normal(y.shape))
    assert_dot_product_identity(
        lambda X, y: enkf_update_members(X, y, v_draws, plant, V, 1),
        lambda g: enkf_update_vjp(X, y, v_draws, plant, V, g, 1),
        (X, y), v, rng.standard_normal(X.shape), eps=1e-6, rtol=1e-6,
    )
