"""Time-varying system identification around the nominal trajectory.

The perturbation system

    dx[k+1] = A_k dx[k] + B_k (du[k] + w[k]),   dy[k] = C_k dx[k] + v[k]

is probed with one-shot input impulses on the noiseless simulator, which
yields the time-varying Markov parameters

    Y[k][j] = C_k Phi(k, j+1) B_j,      Phi(k, j) = A_{k-1} ... A_j,

and realized as a reduced-order LTV triple (A_hat_k, B_hat_k, C_hat_k)
by SVD of generalized Hankel matrices with p block rows and q block
columns (time-varying ERA, `tv_era(markov, n_r, p, q)`):

    H_k[i, l]       = Y[k+i][k-1-l]            = O_k R_k
    H_k^shift[i, l] = Y[k+1+i][k-1-l]          = O_{k+1} A_k R_k

with O_k = U_k S_k^(1/2) and R_k = S_k^(1/2) V_k' from the truncated
SVD H_k = U_k S_k V_k'.  Then

    C_hat_k = first n_y rows of O_k
    B_hat_k = first n_u columns of R_{k+1}
    A_hat_k = pinv(O_{k+1}) H_k^shift pinv(R_k)

Only the n_r leading triplets of each H_k and its s_(n_r+1) are needed,
and an n_r above the numerical rank of some H_k is rejected.
The Hankels are gathered and factored in blocks of _BLOCK times k, each
by a block subspace iteration with a Rayleigh-Ritz step (Halko,
Martinsson & Tropp, SIAM Review 53(2), 2011, sec. 4.5); a k whose kept
triples leave a residual |H_k v_i - s_i u_i| above _RESIDUAL_TOL s_i,
the iteration not having converged for want of a gap after s_(n_r),
falls back to the full SVD.  A triple's sign is arbitrary in any SVD,
and a sign flip between consecutive k changes the ROM's coordinates
there (at the horizon ends, also the held-constant models), so a sign
rule fixes them: canonical at k_min (the largest-magnitude entry of
each u_i positive) and continuous from there (u_i'u_i^- + v_i'v_i^- >= 0
with the triple at k - 1).  The ROM is then independent of the SVD
routine's signs and of the block size, bit for bit.

Near the horizon ends full Hankel matrices cannot be formed; the nearest
valid matrices are held constant there, and `time_range` records the
fully valid span.  `validate_rom(rom, markov, lag, extra)` scores the
ROM on the lags (lag, lag + extra] past the lag = p + q - 1 ERA reads.

The Hankel blocks read lags k - j up to p + q only, so an impulse
campaign may be lag-limited: with `max_lag` L each perturbed rollout
stops L steps after its impulse, and the work and memory of the
campaign scale with L rather than the horizon.  A lag past the
campaign's `max_lag` was never measured and cannot be read:
`MarkovParams.check_lag`, and so `tv_era` and `validate_rom`, raise
IndexError for it rather than return the zero stored there.
"""

from dataclasses import dataclass

import numpy as np

from .artifacts import load, memory_only, save
from .exceptions import IntegrationDivergedError, PerturbationDivergedError
from .rng import stream

__all__ = [
    "MarkovParams",
    "LtvRom",
    "collect_impulse_responses",
    "tv_era",
    "validate_rom",
]


@dataclass
class MarkovParams:
    """Impulse-response matrices: data[k, j] is the n_y x n_u response of
    dy_k to a unit impulse du_j, defined for j < k (zero at j = k: the
    system has a one-step delay and no feedthrough).  With `max_lag` set
    only lags k - j <= max_lag were measured; data is zero beyond."""

    data: np.ndarray  # (N+1, N, n_y, n_u)
    max_lag: int | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 4 or self.data.shape[0] != self.data.shape[1] + 1:
            raise ValueError("data must have shape (N+1, N, n_y, n_u)")
        if not np.isfinite(self.data).all():
            raise ValueError("Markov parameters must be finite")

    @property
    def horizon(self):
        return self.data.shape[1]

    @property
    def n_y(self):
        return self.data.shape[2]

    @property
    def n_u(self):
        return self.data.shape[3]

    def check_lag(self, lag):
        """Raise IndexError unless lags up to `lag` were measured."""
        if self.max_lag is not None and lag > self.max_lag:
            raise IndexError(f"lag {lag} past the campaign's max_lag {self.max_lag}")


@dataclass
class LtvRom:
    """Identified reduced-order LTV model.

    A_hat: (N, n_r, n_r), B_hat: (N, n_r, n_u), C_hat: (N+1, n_y, n_r);
    entries outside time_range = (k_min, k_max) hold the nearest valid
    matrices.  singular_values[k] holds s_1..s_(n_r+1) of the Hankel H_k
    at each valid k for diagnostics, the kept singular values and the
    first discarded one (`tv_era` computes no others); gap_warning is
    set when the retained/discarded singular value gap is weak
    (s_(nr+1)/s_1 > 0.5 somewhere).
    rom.json and the controller's copy store neither, as no later stage
    reads them: identify writes them to sysid_singvals.csv and
    rom_validation.json.  A loaded ROM has none, and gap_warning False.
    """

    A_hat: np.ndarray
    B_hat: np.ndarray
    C_hat: np.ndarray
    n_r: int
    time_range: tuple
    singular_values: dict = memory_only(dict)
    gap_warning: bool = memory_only(bool)

    def __post_init__(self):
        self.A_hat = np.asarray(self.A_hat, dtype=float)
        self.B_hat = np.asarray(self.B_hat, dtype=float)
        self.C_hat = np.asarray(self.C_hat, dtype=float)
        if not (np.isfinite(self.A_hat).all() and np.isfinite(self.B_hat).all() and np.isfinite(self.C_hat).all()):
            raise ValueError("ROM matrices must be finite")
        n_r = self.n_r
        if self.A_hat.shape[1:] != (n_r, n_r) or self.B_hat.shape[1] != n_r or self.C_hat.shape[2] != n_r:
            raise ValueError("ROM matrix shapes inconsistent with n_r")
        if self.C_hat.shape[0] != self.A_hat.shape[0] + 1 or self.B_hat.shape[0] != self.A_hat.shape[0]:
            raise ValueError("ROM sequence lengths inconsistent")

    @property
    def horizon(self):
        return self.A_hat.shape[0]

    @property
    def n_u(self):
        return self.B_hat.shape[2]

    @property
    def n_y(self):
        return self.C_hat.shape[1]

    to_json = save
    from_json = classmethod(load)


def collect_impulse_responses(plant, nominal, epsilon=1e-2, nodes=None, max_lag=None):
    """Estimate Markov parameters by one-shot input perturbations.

    For every input channel m and time j, one noiseless rollout applies
    the nominal controls with +epsilon on channel m at time j only;
    column m of data[k, j] is (y_k_pert - y_k_nominal) / epsilon.  All
    rollouts share the nominal prefix up to j, so they are spawned from
    the baseline trajectory there (N * n_u rollouts, ~N^2 n_u / 2 plant
    steps total).  With `max_lag` L each rollout stops at k = j + L, so
    only the lags 1 <= k - j <= L are measured (~N L n_u plant steps).
    The outputs y are the plant's sensors (`plant.observe`) by default,
    or the state entries `nodes`.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if max_lag is not None and max_lag < 1:
        raise ValueError(f"max_lag must be >= 1, got {max_lag}")
    U = np.asarray(nominal.controls, dtype=float)
    N, n_u = U.shape
    lag = N if max_lag is None else max_lag
    x0 = np.asarray(nominal.means[0], dtype=float)
    try:
        states_base, obs_base = plant.simulate_nominal(x0, U)
    except IntegrationDivergedError as e:
        raise PerturbationDivergedError(f"nominal rollout diverged: {e}") from e
    if nodes is not None:
        nodes = np.asarray(nodes, dtype=int)
        obs_base = states_base[:, nodes]
    n_out = obs_base.shape[1]

    data = np.zeros((N + 1, N, n_out, n_u))
    X = np.empty((N * n_u, plant.n_x))
    try:
        for k in range(N):
            # spawn the n_u jobs perturbed at time j = k; job index
            # n_u j + m probes channel m at time j, and the window holds
            # the jobs still within `lag` steps of their impulse
            j0 = max(0, k + 1 - lag)
            lo, hi = n_u * j0, n_u * (k + 1)
            X[hi - n_u : hi] = states_base[k]
            ub = np.broadcast_to(U[k], (hi - lo, n_u)).copy()
            ub[-n_u:] += epsilon * np.eye(n_u)
            X[lo:hi] = plant.step(X[lo:hi], ub, 0.0, k)
            Y = plant.observe(X[lo:hi], 0.0, k + 1) if nodes is None else X[lo:hi, nodes]
            dy = (Y - obs_base[k + 1]) / epsilon  # (hi - lo, n_out)
            if not np.isfinite(dy).all():
                raise PerturbationDivergedError("non-finite impulse response; retry with a smaller epsilon")
            block = dy.reshape(k + 1 - j0, n_u, n_out)
            data[k + 1, j0 : k + 1] = np.swapaxes(block, 1, 2)
    except IntegrationDivergedError as e:
        raise PerturbationDivergedError(
            f"impulse rollout diverged ({e}); retry with a smaller epsilon"
        ) from e
    return MarkovParams(data, max_lag)


# times k per block of Hankels; columns of the subspace iteration beyond
# n_r; its sweeps, which leave residuals below 3e-13 s_i on the benchmark
# slabs (s_(n_r+9)/s_(n_r) <= 0.04 at 100 nodes); the residual above
# which a k falls back to the full SVD
_BLOCK = 16
_OVERSAMPLE = 8
_SWEEPS = 4
_RESIDUAL_TOL = 1e-10


def _hankels(markov, ks, p, q, shift=0):
    """Generalized Hankels at the times ks, (len(ks), p n_y, q n_u):
    block (i, l) of the one at time k is Y[k + shift + i][k-1-l],
    gathered in one fancy index."""
    markov.check_lag(shift + p + q - 1)
    t = ks[:, None, None]
    blocks = markov.data[t + shift + np.arange(p)[:, None], t - 1 - np.arange(q)]
    return blocks.transpose(0, 1, 3, 2, 4).reshape(len(t), p * markov.n_y, q * markov.n_u)


def _leading_triplets(H, n_r, omega):
    """The n_r leading singular triplets of each matrix of the stack H,
    and its s_(n_r+1): U (nb, m, n_r), s (nb, n_r + 1), Vt (nb, n_r, n).

    A block subspace iteration (Halko, Martinsson & Tropp 2011, sec. 4.5)
    from the test matrix omega (n, b) finds an orthonormal Q (m, b)
    whose span holds the leading left singular vectors: Q = orth(H omega),
    then Q = orth(H H' Q) per sweep, each orth a batched Householder QR.
    H'Q = Z R gives the Rayleigh-Ritz triplets from the b x b SVD
    R' = U_r S V_r': U = Q U_r, V = Z V_r, for which H'u_i = s_i v_i
    holds to rounding.  A matrix whose kept triples leave a residual
    |H v_i - s_i u_i| above _RESIDUAL_TOL s_i, the iteration not having
    converged (no gap after s_(n_r)), is factored by the full SVD
    instead.  The signs are the SVD routine's.
    """
    Ht = H.transpose(0, 2, 1)
    Q = np.linalg.qr(H @ omega)[0]
    for _ in range(_SWEEPS):
        Q = np.linalg.qr(H @ (Ht @ Q))[0]
    Z, R = np.linalg.qr(Ht @ Q)
    U_r, s, V_rt = np.linalg.svd(R.transpose(0, 2, 1))
    U = Q @ U_r[:, :, :n_r]
    Vt = V_rt[:, :n_r] @ Z.transpose(0, 2, 1)
    s = s[:, : n_r + 1]
    residual = np.linalg.norm(H @ Vt.transpose(0, 2, 1) - U * s[:, None, :n_r], axis=1)
    for i in np.flatnonzero((residual > _RESIDUAL_TOL * s[:, :n_r]).any(axis=1)):
        U_f, s_f, Vt_f = np.linalg.svd(H[i], full_matrices=False)
        U[i], s[i], Vt[i] = U_f[:, :n_r], s_f[: n_r + 1], Vt_f[:n_r]
    return U, s, Vt


def _rule_signs(U, Vt, prev):
    """Negate triples in place so that the ROM does not depend on the
    SVD routine's sign choices: triple i of each time has u_i'u_i^- +
    v_i'v_i^- >= 0 with the ruled triple (u_i^-, v_i^-) of the time
    before, prev = (U^-, Vt^-) of the time before the block; with prev
    None the block's first time is canonical instead, the entry of
    largest magnitude of each u_i positive.  Negating any triple negates
    its dot products exactly, so the ruled factors are the same bits."""

    def dots(U1, Vt1, U0, Vt0):
        return np.einsum("...ij,...ij->...j", U1, U0) + np.einsum("...ji,...ji->...j", Vt1, Vt0)

    if prev is None:
        first = U[0][np.abs(U[0]).argmax(axis=0), np.arange(U.shape[2])]
    else:
        first = dots(U[0], Vt[0], *prev)
    d = np.concatenate([first[None], dots(U[1:], Vt[1:], U[:-1], Vt[:-1])])
    sign = np.cumprod(np.where(d < 0, -1.0, 1.0), axis=0)
    U *= sign[:, None, :]
    Vt *= sign[:, :, None]


def tv_era(markov, n_r, p, q):
    """Realize a reduced-order LTV model from Markov parameters.

    Returns an LtvRom whose A/B/C sequences cover the full horizon, with
    the nearest valid matrices held constant outside time_range.  The
    Hankels H_k and H_k^shift are gathered and factored in blocks of
    _BLOCK times, so no more than one block of them is held: each H_k by
    `_leading_triplets`, a subspace iteration that falls back to the
    full SVD where its residual shows it has not converged.  The sign
    rule of `_rule_signs`, canonical at k_min and continuous in k from
    there, makes the ROM independent of the SVD routine's sign choices
    and of the block size, which changes no bit.  singular_values[k]
    holds s_1..s_(n_r+1) of H_k, which `gap_warning` reads.
    The realization divides by s_i^(1/2), so an n_r above the numerical
    rank of some H_k, s_(n_r) <= max(p n_y, q n_u) eps s_1 (numpy's
    `matrix_rank` tolerance), raises ValueError.
    """
    n_y, n_u, N = markov.n_y, markov.n_u, markov.horizon
    if p * n_y < n_r or q * n_u < n_r:
        raise ValueError(f"need p*n_y >= n_r and q*n_u >= n_r, got p={p}, q={q}, n_r={n_r}")
    k_min, k_max = q, N - p  # A_hat_k valid on [k_min, k_max]
    if k_max < k_min:
        raise IndexError(f"horizon {N} too short for Hankel blocks p={p}, q={q}")
    tol = max(p * n_y, q * n_u) * np.finfo(float).eps
    omega = stream(0, "tv_era").standard_normal((q * n_u, n_r + _OVERSAMPLE))
    singvals = {}
    A_hat = np.empty((N, n_r, n_r))
    B_hat = np.empty((N, n_r, n_u))
    C_hat = np.empty((N + 1, n_y, n_r))
    prev = None  # the ruled factors (U, root S, Vt) of the time before the block
    # H_k exists for k in [q, N-p+1]
    for k0 in range(k_min, k_max + 2, _BLOCK):
        ks = np.arange(k0, min(k0 + _BLOCK, k_max + 2))
        U, s, Vt = _leading_triplets(_hankels(markov, ks, p, q), n_r, omega)
        _rule_signs(U, Vt, None if prev is None else (prev[0], prev[2]))
        singvals.update(zip(ks.tolist(), s))
        rank = (s[:, :n_r] > tol * s[:, :1]).sum(axis=1)
        if (rank < n_r).any():
            i = np.argmax(rank < n_r)
            raise ValueError(f"sysid n_r = {n_r} exceeds the numerical rank {rank[i]} of the Hankel "
                             f"matrix at k={ks[i]}")
        root = s[:, :n_r] ** 0.5
        C_hat[ks] = U[:, :n_y] * root[:, None, :]
        if prev is not None:
            U, root, Vt = (np.concatenate([x[None], y]) for x, y in zip(prev, (U, root, Vt)))
            ks = np.concatenate([[k0 - 1], ks])
        prev = U[-1], root[-1], Vt[-1]
        # for each k of ks but the last: A_hat_k = pinv(O_{k+1}) H_k^shift
        # pinv(R_k) with inv_o = S^-1/2 U' of H_{k+1} and inv_r = V S^-1/2
        # of H_k, and B_hat_k the first n_u columns of R_{k+1} = S^1/2 V'
        inv_o = (U[1:] / root[1:, None, :]).transpose(0, 2, 1)
        inv_r = Vt[:-1].transpose(0, 2, 1) / root[:-1, None, :]
        A_hat[ks[:-1]] = inv_o @ _hankels(markov, ks[:-1], p, q, shift=1) @ inv_r
        B_hat[ks[:-1]] = root[1:, :, None] * Vt[1:, :, :n_u]
    gap_warning = any(n_r < s.size and s[0] > 0 and s[n_r] / s[0] > 0.5 for s in singvals.values())

    # hold nearest valid matrices at the horizon ends
    A_hat[:k_min] = A_hat[k_min]
    B_hat[:k_min] = B_hat[k_min]
    C_hat[:k_min] = C_hat[k_min]
    A_hat[k_max + 1 :] = A_hat[k_max]
    B_hat[k_max + 1 :] = B_hat[k_max]
    C_hat[k_max + 2 :] = C_hat[k_max + 1]

    return LtvRom(
        A_hat=A_hat,
        B_hat=B_hat,
        C_hat=C_hat,
        n_r=n_r,
        time_range=(k_min, k_max),
        singular_values=singvals,
        gap_warning=gap_warning,
    )


def validate_rom(rom, markov, lag, extra):
    """Relative Frobenius error of ROM-reconstructed Markov parameters
    over the held-out window: lags k - j in (lag, lag + extra], past
    the lag = p + q - 1 ERA reads, so genuine extrapolation, within the
    ROM's valid span k in [k_min, min(k_max + 1, N)], j >= k_min - 1
    ((k_min, k_max) = rom.time_range; outside it the matrices are only
    held constant).  An empty window raises ValueError.  The ROM's
    impulse responses are propagated one lag k - j at a time for all
    impulse times j at once.

    It is inf when every held-out Markov parameter is zero and the ROM
    predicts a nonzero one; `seplqg identify` then stops with the
    ValueError of `write_json`, which stores no non-finite number."""
    k_lo, k_hi = rom.time_range[0], min(rom.time_range[1] + 1, rom.horizon)
    j_lo = max(0, k_lo - 1, k_lo - lag - extra)
    j_hi = k_hi - lag - 1
    if extra < 1 or j_hi < j_lo:
        raise ValueError(f"holdout window (lag {lag}, extra {extra}) is empty")
    markov.check_lag(min(lag + extra, k_hi - j_lo))
    # M[i] = Phi_hat(k, j+1) B_hat_j at k = j + d for the impulse times
    # j = j_lo + i whose k is still in the span, advanced one lag d at a
    # time for all of them at once
    j = np.arange(j_lo, j_hi + 1)
    M = rom.B_hat[j]
    err2 = 0.0
    ref2 = 0.0
    for d in range(1, lag + extra + 1):
        j = j[: max(0, k_hi - d - j_lo + 1)]
        if d > 1:
            M = rom.A_hat[j + d - 1] @ M[: len(j)]
        if d > lag:
            seen = j + d >= k_lo
            k = j[seen] + d
            Y = markov.data[k, j[seen]]
            diff = rom.C_hat[k] @ M[seen] - Y
            err2 += float((diff**2).sum())
            ref2 += float((Y**2).sum())
    if ref2 == 0.0:
        return 0.0 if err2 == 0.0 else float("inf")
    return float(np.sqrt(err2 / ref2))
