"""Time-varying system identification around the nominal trajectory.

The perturbation system

    dx[k+1] = A_k dx[k] + B_k (du[k] + w[k]),   dy[k] = C_k dx[k] + v[k]

is probed with one-shot input impulses on the noiseless simulator, which
yields the time-varying Markov parameters

    Y[k][j] = C_k Phi(k, j+1) B_j,      Phi(k, j) = A_{k-1} ... A_j,

and realized as a reduced-order LTV triple (A_hat_k, B_hat_k, C_hat_k)
by SVD of generalized Hankel matrices (time-varying ERA):

    H_k[i, l]       = Y[k+i][k-1-l]            = O_k R_k
    H_k^shift[i, l] = Y[k+1+i][k-1-l]          = O_{k+1} A_k R_k

with O_k = U_k S_k^(1/2) and R_k = S_k^(1/2) V_k' from the truncated
SVD H_k = U_k S_k V_k'.  Then

    C_hat_k = first n_y rows of O_k
    B_hat_k = first n_u columns of R_{k+1}
    A_hat_k = pinv(O_{k+1}) H_k^shift pinv(R_k)

Near the horizon ends full Hankel matrices cannot be formed; the nearest
valid matrices are held constant there, and `time_range` records the
fully valid span.

The Hankel blocks read lags k - j up to p + q only, so an impulse
campaign may be lag-limited: with `max_lag` L each perturbed rollout
stops L steps after its impulse, and the work and memory of the
campaign scale with L rather than the horizon.  A lag past the
campaign's `max_lag` was never measured and cannot be read: `get` and
`tv_era` raise IndexError for it rather than return the zero stored
there.
"""

from dataclasses import dataclass
import json

import numpy as np

from .artifacts import write_json
from .exceptions import IntegrationDivergedError, PerturbationDivergedError

__all__ = [
    "MarkovParams",
    "LtvRom",
    "collect_impulse_responses",
    "tv_era",
    "validate_rom",
    "holdout_pairs",
    "default_block_counts",
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

    def get(self, k, j):
        if not 0 <= j <= k <= self.horizon:
            raise IndexError(f"Markov parameter ({k}, {j}) out of range")
        self.check_lag(k - j)
        if j == k:
            return np.zeros((self.n_y, self.n_u))
        return self.data[k, j]


@dataclass
class LtvRom:
    """Identified reduced-order LTV model.

    A_hat: (N, n_r, n_r), B_hat: (N, n_r, n_u), C_hat: (N+1, n_y, n_r);
    entries outside time_range = (k_min, k_max) hold the nearest valid
    matrices.  singular_values[k] stores the Hankel spectrum at each
    valid k for diagnostics; gap_warning is set when the retained/
    discarded singular value gap is weak (s_(nr+1)/s_1 > 0.5 somewhere).
    """

    A_hat: np.ndarray
    B_hat: np.ndarray
    C_hat: np.ndarray
    n_r: int
    time_range: tuple
    singular_values: dict
    gap_warning: bool = False

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

    def to_json(self, path):
        write_json(path, {
            "A_hat": self.A_hat,
            "B_hat": self.B_hat,
            "C_hat": self.C_hat,
            "n_r": int(self.n_r),
            "time_range": list(self.time_range),
            "singular_values": {str(k): v for k, v in self.singular_values.items()},
            "gap_warning": bool(self.gap_warning),
        })

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            payload = json.load(fh)
        return cls(
            A_hat=np.asarray(payload["A_hat"], dtype=float),
            B_hat=np.asarray(payload["B_hat"], dtype=float),
            C_hat=np.asarray(payload["C_hat"], dtype=float),
            n_r=payload["n_r"],
            time_range=tuple(payload["time_range"]),
            singular_values={int(k): np.asarray(v) for k, v in payload["singular_values"].items()},
            gap_warning=payload.get("gap_warning", False),
        )


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


def default_block_counts(n_r, n_y, n_u):
    """Observability/controllability block counts p = q = ceil(2 n_r / min(n_y, n_u))."""
    p = int(np.ceil(2.0 * n_r / min(n_y, n_u)))
    return p, p


def _hankel(markov, k, p, q, shift=0):
    """Generalized Hankel at time k: block (i, l) = Y[k + shift + i][k-1-l],
    gathered in one fancy index."""
    markov.check_lag(shift + p + q - 1)
    blocks = markov.data[k + shift + np.arange(p)[:, None], k - 1 - np.arange(q)]
    return blocks.transpose(0, 2, 1, 3).reshape(p * markov.n_y, q * markov.n_u)


def tv_era(markov, n_r, p=None, q=None):
    """Realize a reduced-order LTV model from Markov parameters.

    Returns an LtvRom whose A/B/C sequences cover the full horizon, with
    the nearest valid matrices held constant outside time_range.  One
    pass over k keeps the truncated SVD factors of H_k and H_{k+1} only.
    """
    n_y, n_u, N = markov.n_y, markov.n_u, markov.horizon
    if p is None or q is None:
        dp, dq = default_block_counts(n_r, n_y, n_u)
        p = dp if p is None else p
        q = dq if q is None else q
    if p * n_y < n_r or q * n_u < n_r:
        raise ValueError(f"need p*n_y >= n_r and q*n_u >= n_r, got p={p}, q={q}, n_r={n_r}")
    k_min, k_max = q, N - p  # A_hat_k valid on [k_min, k_max]
    if k_max < k_min:
        raise IndexError(f"horizon {N} too short for Hankel blocks p={p}, q={q}")
    singvals = {}

    def factors(k):
        """Copies of the n_r leading SVD factors of H_k, with the
        singular values floored away from zero."""
        U, s, Vt = np.linalg.svd(_hankel(markov, k, p, q), full_matrices=False)
        singvals[k] = s
        floor = max(s[0], 1.0) * 1e-14
        return U[:, :n_r].copy(), np.maximum(s[:n_r], floor), Vt[:n_r].copy()

    A_hat = np.empty((N, n_r, n_r))
    B_hat = np.empty((N, n_r, n_u))
    C_hat = np.empty((N + 1, n_y, n_r))
    # H_k exists for k in [q, N-p+1]
    U, S, Vt = factors(k_min)
    for k in range(k_min, k_max + 1):
        U1, S1, Vt1 = factors(k + 1)
        Hs = _hankel(markov, k, p, q, shift=1)
        inv_o = (U1 / S1**0.5).T  # S^-1/2 U'
        inv_r = Vt.T / S**0.5  # V S^-1/2
        A_hat[k] = inv_o @ Hs @ inv_r
        # R_{k+1} = S^(1/2) V'; its first n_u columns
        B_hat[k] = (S1**0.5)[:, None] * Vt1[:, :n_u]
        C_hat[k] = U[:n_y] * S**0.5
        U, S, Vt = U1, S1, Vt1
    C_hat[k_max + 1] = U[:n_y] * S**0.5
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


def holdout_pairs(N, p, q, extra=None, time_range=None):
    """(k, j) pairs at lags beyond what the Hankel blocks ever see.

    ERA consumes lags k - j <= p + q - 1; holding out the lag window
    (p+q-1, p+q-1+extra] tests genuine extrapolation of the realized
    model.  Passing the ROM's time_range restricts the pairs to the
    span where the realization is valid (outside it the matrices are
    held constant, which is boundary patching rather than
    identification).
    """
    lag_lo = p + q - 1
    extra = p + q if extra is None else extra
    k_lo, k_hi = 1, N
    j_min = 0
    if time_range is not None:
        k_lo, k_hi = time_range[0], min(time_range[1] + 1, N)
        j_min = max(0, time_range[0] - 1)
    pairs = []
    for k in range(k_lo, k_hi + 1):
        for j in range(max(j_min, k - lag_lo - extra), k - lag_lo):
            pairs.append((k, j))
    return pairs


def validate_rom(rom, markov, holdout):
    """Relative Frobenius error of ROM-reconstructed Markov parameters
    over the held-out (k, j) pairs."""
    holdout = list(holdout)
    if not holdout:
        raise ValueError("holdout set is empty")
    # group by j and propagate B_hat_j forward once per j
    by_j = {}
    for k, j in holdout:
        if not 0 <= j < k <= rom.horizon:
            raise IndexError(f"holdout pair ({k}, {j}) out of range")
        by_j.setdefault(j, []).append(k)
    err2 = 0.0
    ref2 = 0.0
    for j, ks in by_j.items():
        k_stop = max(ks)
        want = set(ks)
        M = rom.B_hat[j]
        for k in range(j + 1, k_stop + 1):
            if k in want:
                pred = rom.C_hat[k] @ M
                diff = pred - markov.get(k, j)
                err2 += float((diff**2).sum())
                ref2 += float((markov.get(k, j) ** 2).sum())
            if k < k_stop:
                M = rom.A_hat[k] @ M
    if ref2 == 0.0:
        return 0.0 if err2 == 0.0 else float("inf")
    return float(np.sqrt(err2 / ref2))

