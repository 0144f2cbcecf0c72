"""Exact Kalman predict and update steps on a GaussianBelief, one
measurement at a time: the reference the EnKF kernels and the
covariance recursion `lqg.kf_steps` are tested against."""

import numpy as np

from seplqg.belief import GaussianBelief
from seplqg.exceptions import FilterDegenerateError


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
