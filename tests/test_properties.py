"""Property tests of the Riccati recursions on random stable LTV systems."""

import numpy as np
from hypothesis import given, settings, strategies as st

from seplqg.belief import GaussianBelief, kalman_predict, kalman_update
from seplqg.lqg import kf_recursion, lqr_backward
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
