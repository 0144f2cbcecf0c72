"""Time-varying LQG synthesis on the identified reduced-order model.

Backward LQR Riccati recursion for the feedback gains, forward Kalman
Riccati recursion for the estimator gains (`kf_steps`, the one
covariance recursion, which the design and the Monte Carlo's linearized
filter share, its measurement update in the closed form P_pred - K C
P_pred), and the online control law that tracks the nominal trajectory
(`lqg_update`, batched over runs; the Monte Carlo engine steps all runs
of a chunk with it):

    du_k = -L_k da_hat_k,     u_k = u_bar_k + du_k

with da_hat the estimate of the ROM deviation state, updated on the
output deviation dy_k = y_k - y_bar_k from the nominal observations.  Process noise
enters the ROM through the input matrix (B W B'), matching the plant
contract where disturbances share the control channels.
"""

from dataclasses import dataclass

import numpy as np

from .artifacts import load, memory_only, save
from .exceptions import IllPosedCostError
from .sysid import LtvRom

__all__ = [
    "LqgController",
    "lqr_backward",
    "kf_steps",
    "kf_forward",
    "design_lqg",
    "lqg_update",
]


def lqr_backward(rom, Qk, QN, R):
    """Finite-horizon discrete LQR on the ROM sequences.

    S_N = Q_N
    L_k = (R + B' S_{k+1} B)^-1 B' S_{k+1} A
    S_k = Q_k + A' S_{k+1} A - A' S_{k+1} B L_k

    Qk is the per-step stack (N, n_r, n_r), QN and R one matrix each.
    Returns (L_gains (N, n_u, n_r), S (N+1, n_r, n_r)).
    """
    N = rom.horizon
    n_r, n_u = rom.n_r, rom.n_u
    L = np.empty((N, n_u, n_r))
    S = np.empty((N + 1, n_r, n_r))
    S[N] = QN
    for k in range(N - 1, -1, -1):
        A, B = rom.A_hat[k], rom.B_hat[k]
        SB = S[k + 1] @ B
        G = R + B.T @ SB
        try:
            L[k] = np.linalg.solve(G, SB.T @ A)
        except np.linalg.LinAlgError as e:
            raise IllPosedCostError(f"R + B'SB singular at step k={k}") from e
        Sk = Qk[k] + A.T @ S[k + 1] @ A - A.T @ SB @ L[k]
        S[k] = 0.5 * (Sk + Sk.T)
    return L, S


def _kf_update(P_pred, C, V):
    """Measurement update: the gain K = P_pred C' S^-1, S = C P_pred C' +
    V (the minimum-norm P_pred C' S^+ if S is singular), and the
    covariance P_pred - K C P_pred, symmetrized.  That is the Joseph
    form's exact value for either gain, as the columns of C P_pred lie in
    S's range: K S K' = P_pred C' S^+ S S^+ C P_pred = K C P_pred."""
    CP = C @ P_pred
    S = CP @ C.T + V
    try:
        K = np.linalg.solve(S, CP).T
    except np.linalg.LinAlgError:
        K = np.linalg.lstsq(S, CP, rcond=None)[0].T
    P = P_pred - K @ CP
    return K, 0.5 * (P + P.T)


def kf_steps(models, W, V, P):
    """Kalman covariance recursion, one step at a time, from the
    post-update covariance P at step 0:

    P_pred = A_k P_k A_k' + B_k W B_k'
    K_{k+1} = P_pred C_{k+1}' (C_{k+1} P_pred C_{k+1}' + V)^-1, ^+ if singular
    P_{k+1} = P_pred - K_{k+1} C_{k+1} P_pred, symmetrized

    `models` yields (A_k, B_k, C_{k+1}) for k = 0, 1, ...; the generator
    yields (K_{k+1}, P_{k+1}), so a caller that keeps no covariance
    holds one at a time.
    """
    for A, B, C in models:
        P_pred = A @ P @ A.T + B @ W @ B.T
        K, P = _kf_update(P_pred, C, V)
        yield K, P


def kf_forward(rom, W, V, P0):
    """Forward Kalman Riccati recursion on the ROM: `kf_steps`, each
    step written into the stacks as it comes.

    K_0 comes from the prior P0 the same way, so a measurement update is
    available at every step 0..N.  Returns (K_gains (N+1, n_r, n_y),
    P (N+1, n_r, n_r)) with P the post-update covariances.
    """
    V = np.asarray(V, dtype=float)
    K = np.empty((rom.horizon + 1, rom.n_r, rom.n_y))
    P = np.empty((rom.horizon + 1, rom.n_r, rom.n_r))
    K[0], P[0] = _kf_update(np.asarray(P0, dtype=float), rom.C_hat[0], V)
    steps = kf_steps(zip(rom.A_hat, rom.B_hat, rom.C_hat[1:]), np.asarray(W, dtype=float), V, P[0])
    for k, (K_k, P_k) in enumerate(steps, 1):
        K[k], P[k] = K_k, P_k
    return K, P


@dataclass
class LqgController:
    """Offline gains of the LQG law on a ROM.

    The controller holds no run state: the ROM deviation estimate a_hat
    is passed to and returned by `lqg_update`.  P_traces holds the
    traces of the post-update estimator covariances, S_traces those of
    the LQR cost-to-go, diagnostics kept in memory (design writes them to
    lqg_diag.csv).  controller.json stores the gains and the ROM, as the
    same object rom.json holds.  The noise covariances the gains were
    designed for are the plant's (`Plant.W` and `.V`), which the
    controller does not copy; an older file's other keys are ignored.
    """

    rom: LtvRom
    L_gains: np.ndarray
    K_gains: np.ndarray
    P_traces: np.ndarray = memory_only(lambda: np.zeros(0))
    S_traces: np.ndarray = memory_only(lambda: np.zeros(0))

    to_json = save
    from_json = classmethod(load)


def design_lqg(rom, *, W, V, P0, q_y, r, terminal_scale, ridge):
    """Design the tracking LQG controller for a ROM.

    The cost is output-weighted in ROM space: Q_k = C_k' (q_y I) C_k +
    ridge I, the ridge keeping the stage weights positive definite, for
    all k = 0..N in one batched product; Q_N = terminal_scale times the
    weight of k = N, and R = r I, for scalar q_y and r.  W and V are the
    process and measurement noise covariances, P0 the prior covariance
    in ROM coordinates.
    """
    C = rom.C_hat
    Q = C.transpose(0, 2, 1) @ (q_y * np.eye(rom.n_y)) @ C + ridge * np.eye(rom.n_r)
    L, S = lqr_backward(rom, Q[:-1], terminal_scale * Q[-1], r * np.eye(rom.n_u))
    K, P = kf_forward(rom, W, V, P0)
    return LqgController(
        rom=rom,
        L_gains=L,
        K_gains=K,
        P_traces=np.trace(P, axis1=1, axis2=2),
        S_traces=np.einsum("kii->k", S),
    )


def lqg_update(ctrl, k, dy, a_hat):
    """One step of the LQG law, batched over the leading axes of dy and
    a_hat (row vectors).

    Order: measurement update of a_hat with K_k on the output deviation
    dy, control du = -L_k a_hat, then the time update with (A_k, B_k).
    Each row's result is the same bits for any number of rows.
    Returns (du_k, a_hat for step k+1).
    """
    rom = ctrl.rom
    a = a_hat + _times_t(dy - _times_t(a_hat, rom.C_hat[k]), ctrl.K_gains[k])
    du = -_times_t(a, ctrl.L_gains[k])
    return du, _times_t(a, rom.A_hat[k]) + _times_t(du, rom.B_hat[k])


def _times_t(x, M):
    """x @ M.T by einsum, which sums each row in the same order whatever
    the number of rows: a BLAS product rounds a row differently depending
    on how many rows it has, which would make the Monte Carlo depend on
    its chunk size."""
    return np.einsum("...j,ij->...i", x, M)

