"""Exact Kalman predict and update steps on a GaussianBelief, one
measurement at a time: the reference the EnKF kernels and the
covariance recursion `lqg.kf_steps` are tested against; and a
member-by-member stochastic EnKF, the reference of the belief
`optimize` reports."""

import numpy as np

from seplqg.belief import GaussianBelief
from seplqg.exceptions import FilterDegenerateError
from seplqg.rng import stream


def kalman_predict(belief, control, A, B, W):
    """mu' = A mu + B u,  P' = A P A' + B W B'."""
    mean = A @ belief.mean + B @ np.asarray(control, dtype=float)
    cov = A @ belief.cov @ A.T + B @ W @ B.T
    return GaussianBelief(mean, cov)


def kalman_update(belief, measurement, C, V):
    """Standard measurement update with the Joseph-form covariance."""
    P = belief.cov
    S = C @ P @ C.T + V
    try:
        K = np.linalg.solve(S, C @ P).T
    except np.linalg.LinAlgError as e:
        raise FilterDegenerateError("innovation covariance singular") from e
    mean = belief.mean + K @ (np.asarray(measurement, dtype=float) - C @ belief.mean)
    IKC = np.eye(P.shape[0]) - K @ C
    cov = IKC @ P @ IKC.T + K @ V @ K.T
    return GaussianBelief(mean, cov)


def enkf_means_reference(plant, mean0, P0, U, M, seed):
    """Means (N+1, n_x) of a perturbed-observation EnKF of M members
    that filters the noiseless observations of the controls U, each
    member stepped and observed alone, the gain solved from np.cov's
    (M-1)-denominator covariances.  Its noise is drawn as `optimize`'s
    is: the streams "enkf-init", "enkf-w" and "enkf-v" of `seed` give
    (M, n_x), (N, M, n_u) and (N, M, n_y) standard normals, times the
    Cholesky factors of P0, W and V (all positive definite here)."""
    N, n_x = len(U), len(mean0)
    W, V = plant.W, plant.V
    X = mean0 + stream(seed, "enkf-init").standard_normal((M, n_x)) @ np.linalg.cholesky(P0).T
    w = stream(seed, "enkf-w").standard_normal((N, M, plant.n_u)) @ np.linalg.cholesky(W).T
    v = stream(seed, "enkf-v").standard_normal((N, M, plant.n_y)) @ np.linalg.cholesky(V).T
    x = np.asarray(mean0, dtype=float)
    means = [x]
    for k in range(N):
        x = plant.step(x, U[k], 0.0, k)
        y = plant.observe(x, 0.0, k + 1)
        X = np.stack([plant.step(X[i], U[k], w[k, i], k) for i in range(M)])
        Y = np.stack([plant.observe(X[i], 0.0, k + 1) for i in range(M)])
        joint = np.cov(X, Y, rowvar=False)
        P_xy, P_yy = joint[:n_x, n_x:], joint[n_x:, n_x:]
        K = np.linalg.solve(P_yy + V, P_xy.T).T
        X = X + (y + v[k] - Y) @ K.T
        means.append(X.mean(axis=0))
    return np.stack(means)
