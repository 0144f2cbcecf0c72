"""Gaussian beliefs and their propagation.

The belief over the plant state is kept as a Gaussian (mean, covariance)
pair.  The trajectory optimizer reports the belief of its final
controls from one rollout of a stochastic (perturbed-observation)
Ensemble Kalman Filter, whose kernels take pre-drawn noise and
broadcast over leading batch axes.  The Monte Carlo scores its runs by
weights that one backward sweep of a linearized Kalman filter forms
(`harness`), and carries no filter in its runs.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import FilterDegenerateError, InsufficientEnsembleError

__all__ = [
    "GaussianBelief",
    "belief_from_ensemble",
    "enkf_predict_members",
    "enkf_update_members",
    "psd_sqrt",
]


def psd_sqrt(M):
    """A factor S with S @ S.T = M for symmetric PSD M.

    Cholesky when M is definite, eigen square root (negatives clipped)
    otherwise.
    """
    M = np.asarray(M, dtype=float)
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        w, Q = np.linalg.eigh(0.5 * (M + M.T))
        return Q * np.sqrt(np.clip(w, 0.0, None))


@dataclass
class GaussianBelief:
    """Belief (mean, cov); construction re-symmetrizes the covariance and
    floors its spectrum at zero if it is indefinite beyond roundoff."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = np.asarray(self.cov, dtype=float)
        n = self.mean.size
        if cov.shape != (n, n):
            raise ValueError(f"cov must be {n}x{n}, got {cov.shape}")
        cov = 0.5 * (cov + cov.T)
        # cheap PSD probe; full eigen floor only when it fails
        jitter = 1e-12 * max(1.0, float(np.trace(cov)))
        try:
            np.linalg.cholesky(cov + jitter * np.eye(n))
        except np.linalg.LinAlgError:
            w, Q = np.linalg.eigh(cov)
            cov = (Q * np.clip(w, 0.0, None)) @ Q.T
            cov = 0.5 * (cov + cov.T)
        self.cov = cov


def belief_from_ensemble(members):
    """Sample mean and unbiased (M-1 denominator) sample covariance of
    members (M, n_x)."""
    members = np.atleast_2d(members)
    M = members.shape[0]
    if M < 2:
        raise InsufficientEnsembleError("need at least 2 members for a covariance")
    mean = members.mean(axis=0)
    Xc = members - mean
    cov = Xc.T @ Xc / (M - 1)
    return GaussianBelief(mean, cov)


# ---------------------------------------------------------------------------
# Stochastic EnKF
# ---------------------------------------------------------------------------


def enkf_predict_members(members, control, w_draws, plant, k=0):
    """Propagate members (..., M, n_x) through plant.step with noise draws."""
    control = np.asarray(control)
    return plant.step(members, control[..., None, :], w_draws, k)


def _enkf_gain(members, plant, V, k):
    """Predicted observations Yp and the transposed gain K' = S^-1 P_xy'
    of the perturbed-observation update, S = P_yy + V."""
    M = members.shape[-2]
    Yp = plant.observe(members, 0.0, k)
    Yc = Yp - Yp.mean(axis=-2, keepdims=True)
    fac = 1.0 / (M - 1)
    Yc_t = np.swapaxes(Yc, -1, -2)
    # Yc sums to zero over the members, so Yc' X = Yc' (X - mean X): the
    # state anomalies are never formed
    Pxy_t = Yc_t @ members * fac
    Pyy = Yc_t @ Yc * fac
    try:
        # S is n_y x n_y: one small inverse and a product beat a solve
        # against the n_x columns of P_xy'
        S_inv = np.linalg.inv(Pyy + V)
    except np.linalg.LinAlgError as e:
        raise FilterDegenerateError(f"innovation covariance singular at step k={k}") from e
    return Yp, S_inv @ Pxy_t


def enkf_update_members(members, y, v_draws, plant, V, k=0):
    """Perturbed-observation EnKF update, batched over leading axes.

    Gain K = P_xy (P_yy + V)^-1 from ensemble cross-covariances; each
    member is shifted by K (y + v_i - h(x_i, 0)).
    """
    Yp, Kt = _enkf_gain(members, plant, V, k)
    innov = np.asarray(y)[..., None, :] + v_draws - Yp
    return members + innov @ Kt
