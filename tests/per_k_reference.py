"""Per-k loops that the batched identify and band code is tested
against: TV-ERA by one full SVD per Hankel matrix, the probe output rows
by one least-squares fit per time and the closed-loop band by one
`np.block` matrix per step.  They are the loops the program ran before
it batched them; the ERA loop adds the sign rule of `sysid.tv_era`,
written out per k."""

import numpy as np

from seplqg.sysid import LtvRom, collect_impulse_responses


def hankel(markov, k, p, q, shift=0):
    """Generalized Hankel at time k: block (i, l) = Y[k + shift + i][k-1-l]."""
    markov.check_lag(shift + p + q - 1)
    blocks = markov.data[k + shift + np.arange(p)[:, None], k - 1 - np.arange(q)]
    return blocks.transpose(0, 2, 1, 3).reshape(p * markov.n_y, q * markov.n_u)


def era_reference(markov, n_r, p, q, svd=np.linalg.svd):
    """TV-ERA with one full SVD per k; each triple's sign is canonical at
    k_min (largest-magnitude entry of u_i positive) and continuous from
    there (u_i'u_i^- + v_i'v_i^- >= 0 with the triple at k - 1).  `svd`
    factors one Hankel matrix, as np.linalg.svd does."""
    n_y, n_u, N = markov.n_y, markov.n_u, markov.horizon
    k_min, k_max = q, N - p
    singvals = {}
    ruled = {}

    def factors(k):
        U, s, Vt = svd(hankel(markov, k, p, q), full_matrices=False)
        U, Vt = U[:, :n_r].copy(), Vt[:n_r].copy()
        for i in range(n_r):
            if k == k_min:
                u = U[:, i]
                flip = u[np.argmax(np.abs(u))] < 0
            else:
                U0, Vt0 = ruled[k - 1]
                flip = U[:, i] @ U0[:, i] + Vt[i] @ Vt0[i] < 0
            if flip:
                U[:, i] *= -1.0
                Vt[i] *= -1.0
        ruled[k] = U, Vt
        singvals[k] = s[: n_r + 1]
        floor = max(s[0], 1.0) * 1e-14
        return U, np.maximum(s[:n_r], floor), Vt

    A_hat = np.empty((N, n_r, n_r))
    B_hat = np.empty((N, n_r, n_u))
    C_hat = np.empty((N + 1, n_y, n_r))
    U, S, Vt = factors(k_min)
    for k in range(k_min, k_max + 1):
        U1, S1, Vt1 = factors(k + 1)
        Hs = hankel(markov, k, p, q, shift=1)
        A_hat[k] = (U1 / S1**0.5).T @ Hs @ (Vt.T / S**0.5)
        B_hat[k] = (S1**0.5)[:, None] * Vt1[:, :n_u]
        C_hat[k] = U[:n_y] * S**0.5
        U, S, Vt = U1, S1, Vt1
    C_hat[k_max + 1] = U[:n_y] * S**0.5
    A_hat[:k_min] = A_hat[k_min]
    B_hat[:k_min] = B_hat[k_min]
    C_hat[:k_min] = C_hat[k_min]
    A_hat[k_max + 1 :] = A_hat[k_max]
    B_hat[k_max + 1 :] = B_hat[k_max]
    C_hat[k_max + 2 :] = C_hat[k_max + 1]
    gap_warning = any(n_r < s.size and s[0] > 0 and s[n_r] / s[0] > 0.5 for s in singvals.values())
    return LtvRom(A_hat=A_hat, B_hat=B_hat, C_hat=C_hat, n_r=n_r, time_range=(k_min, k_max),
                  singular_values=singvals, gap_warning=gap_warning)


def probe_rows_reference(plant, nominal, rom, nodes, epsilon=1e-2, lag=None):
    """Probe output rows by one `np.linalg.lstsq` fit per time k, over the
    ROM impulse states propagated one impulse time j at a time."""
    if lag is None:
        lag = max(2 * rom.time_range[0], 8)
    probe_markov = collect_impulse_responses(plant, nominal, epsilon, nodes=nodes, max_lag=lag)
    N = rom.horizon
    C_probe = np.zeros((N + 1, len(nodes), rom.n_r))
    states = {}
    for k in range(1, N + 1):
        states[k - 1] = rom.B_hat[k - 1].copy()
        rows = [states[j].T for j in range(max(0, k - lag), k)]
        targets = [probe_markov.data[k, j].T for j in range(max(0, k - lag), k)]
        sol, *_ = np.linalg.lstsq(np.concatenate(rows), np.concatenate(targets), rcond=None)
        C_probe[k] = sol.T
        if k < N:
            for j in list(states):
                if j < k - lag:
                    del states[j]
                else:
                    states[j] = rom.A_hat[k] @ states[j]
    C_probe[0] = C_probe[1]
    return C_probe


def band_reference(controller, C_rows):
    """The closed-loop two-sigma band, its transition matrix built by
    `np.block` at each step."""
    rom = controller.rom
    N, n_r = rom.horizon, rom.n_r
    W = np.asarray(controller.W, dtype=float)
    V = np.asarray(controller.V, dtype=float)
    band = np.zeros((N + 1, C_rows.shape[1]))
    Z = np.zeros((2 * n_r, 2 * n_r))
    eye = np.eye(n_r)
    for k in range(N):
        A, B, C = rom.A_hat[k], rom.B_hat[k], rom.C_hat[k]
        K, L = controller.K_gains[k], controller.L_gains[k]
        BL = B @ L
        KC = K @ C
        F = np.block([[A - BL @ KC, -BL @ (eye - KC)], [(A - BL) @ KC, (A - BL) @ (eye - KC)]])
        Gw = np.vstack([B, np.zeros_like(B)])
        Gv = np.vstack([-BL @ K, (A - BL) @ K])
        Z = F @ Z @ F.T + Gw @ W @ Gw.T + Gv @ V @ Gv.T
        Z = 0.5 * (Z + Z.T)
        var = np.einsum("pi,ij,pj->p", C_rows[k + 1], Z[:n_r, :n_r], C_rows[k + 1])
        band[k + 1] = 2.0 * np.sqrt(np.clip(var, 0.0, None))
    return band
