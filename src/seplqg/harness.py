"""End-to-end evaluation: Monte Carlo closed-loop runs, the cost
linearization-error check, probe-position error bands, and complexity
accounting.

Every Monte Carlo run draws its noise from counter-based streams keyed
(base_seed, run_index, channel), so reports are bit-reproducible under a
fixed seed.  On the heat slab they are also chunk-exact: the same bits
for any chunk size, because every product that mixes a run's entries
(the LQG law of `lqg_update` and the delta_J sums) is a row-wise
reduction, whose rounding does not depend on how many runs a batch has,
and the heat slab's `step` is a stencil.
On linear plants the BLAS products of `LinearPlant.step` and `observe`
still round a row differently for different batch sizes.

Open-loop comparison runs consume the same draws as their closed-loop
partner (common random numbers), making the error comparison paired.

A chunk of runs is simulated in one pass, in this process, its R
closed-loop states and their R open-loop partners held as one (2R, n_x)
batch.  Each step observes the closed loop, applies the LQG law, and
steps the whole batch once: the closed-loop rows under the LQG controls
and the open-loop rows under the nominal controls, each pair with the
same draws.

Each run is scored by its first-order cost deviation about the
noiseless nominal x_det, the rollout of the nominal controls from the
nominal's initial state, so that Theorem 1's zero mean is tested about
the trajectory the loop regulates to:

    delta_J = sum_k C_u,k du_k + C_mu,k+1 dmu_k+1,

with (C_mu, C_u) = `CostSpec.gradient` at x_det and the nominal
controls, and dmu the mean of the run's linearized Kalman filter (LKF)
along x_det, which starts at 0 and follows the run's control deviations
du and measurement deviations e_k+1 = y_k+1 - y_det,k+1:

    dmu_k+1 = M_k (A_k dmu_k + B_k du_k) + K_k+1 e_k+1,  M_k = I - K_k+1 C_k+1.

So delta_J is linear in each run's du and e.  One backward (adjoint)
sweep per `run_monte_carlo`, lambda_N = C_mu,N and lambda_k = C_mu,k +
A_k' M_k' lambda_k+1, gives its weights g_u,k = C_u,k + B_k' M_k'
lambda_k+1 and g_e,k = K_k+1' lambda_k+1, by one adjoint row of the
plant per step: each step of a chunk adds two row-wise dot products to
delta_J, and no run carries a filter.  The filter never feeds back into
the loop, so it changes no other output.  The probe errors, `mean_traj`
and the frozen states of diverged runs are still taken against the
stored belief means `nominal.means`, because the benchmark's run-0
check (`perfbench/checks.py`) replays the probe errors against them.
"""

from dataclasses import dataclass

import numpy as np

from .artifacts import memory_only
# enkf_update_members is not called here: `perfbench/tracer.py` patches
# it in this module's namespace, until the benchmark reads the program's
# own metrics
from .belief import enkf_update_members, psd_sqrt  # noqa: F401
from .exceptions import IntegrationDivergedError
from .lqg import kf_steps, lqg_update
from .plant import _grid_nodes
from .rng import stream
from .sysid import collect_impulse_responses

__all__ = [
    "MonteCarloReport",
    "ComplexityReport",
    "run_monte_carlo",
    "complexity_report",
    "probe_output_rows",
    "closed_loop_band",
    "probe_nodes_from_fractions",
]


def probe_nodes_from_fractions(n_x, fractions):
    """State indices of probes at fractions of the slab, 0 and 1 being
    its ends."""
    for f in fractions:
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"probe position {f} outside [0, 1]")
    return _grid_nodes(n_x, fractions)


# ---------------------------------------------------------------------------
# Probe output rows and closed-loop bands
# ---------------------------------------------------------------------------

# the probe rows and the band are computed in blocks of _BLOCK times; a
# probe fit whose R has a diagonal entry at most _RANK_TOL times its
# largest is left to the minimum-norm least squares
_BLOCK = 16
_RANK_TOL = 1e-10


def probe_output_rows(plant, nominal, rom, nodes, epsilon=1e-2, lag=None):
    """Identify ROM output rows for extra state entries.

    Collects impulse responses of the probed entries and fits, at each
    time k, the map from the ROM deviation state to the probe deviation
    by least squares over the impulses j within `lag` steps (default:
    twice the ROM's Hankel depth, time_range start, and at least 8).
    The fits are made in blocks of _BLOCK times k.  The ROM impulse
    states a^(j)_k = Phi_hat(k, j+1) B_hat_j of a block are propagated
    one lag k - j at a time, each lag one batched product, into the
    block's stack of fits [rows | targets], and a batched QR of that
    stack gives each fit's R and Q'targets.  A time whose fit is
    rank-poor, a diagonal entry of R at most _RANK_TOL times the largest
    (as when it has fewer impulse rows than ROM states), is solved by
    `np.linalg.lstsq` instead, the minimum-norm fit.  Returns
    (N+1, n_probe, n_r).
    """
    if lag is None:
        lag = max(2 * rom.time_range[0], 8)
    probe_markov = collect_impulse_responses(plant, nominal, epsilon, nodes=nodes, max_lag=lag)
    N, n_r, n_u = rom.horizon, rom.n_r, rom.n_u
    n_p = len(nodes)
    C_probe = np.zeros((N + 1, n_p, n_r))
    for k0 in range(1, N + 1, _BLOCK):
        k1 = min(k0 + _BLOCK, N + 1)
        ks = np.arange(k0, k1)
        nb = len(ks)
        # fits[i, d-1] holds the n_u rows of the impulse at j = k - d,
        # k = ks[i]: a^(j)_k' and the probe responses Y[k][j]'; the rows
        # of j < 0 have zero states, so they leave the fit as it is
        fits = np.zeros((nb, lag, n_u, n_r + n_p))
        j = np.maximum(ks[:, None] - np.arange(1, lag + 1), 0)
        fits[..., n_r:] = probe_markov.data[ks[:, None], j].transpose(0, 1, 3, 2)
        # X: the states at lag d of the times [t0 + d - 1, k1), those of
        # the block and of the times before it that later lags reach
        t0 = max(k0 - lag + 1, 1)
        X = rom.B_hat[t0 - 1 : k1 - 1]
        for d in range(1, lag + 1):
            if d > 1:
                X = rom.A_hat[t0 + d - 2 : k1 - 1] @ X[:-1]
            n = min(nb, len(X))
            fits[nb - n :, d - 1, :, :n_r] = X[len(X) - n :].transpose(0, 2, 1)
        fits = fits.reshape(nb, lag * n_u, n_r + n_p)
        R = np.linalg.qr(fits, mode="r")
        diag = np.abs(np.diagonal(R[:, :n_r, :n_r], axis1=1, axis2=2))
        poor = diag.min(axis=1) <= _RANK_TOL * diag.max(axis=1)
        sol = np.empty((nb, n_r, n_p))
        sol[~poor] = np.linalg.solve(R[~poor, :n_r, :n_r], R[~poor, :n_r, n_r:])
        for i in np.flatnonzero(poor):
            sol[i] = np.linalg.lstsq(fits[i, :, :n_r], fits[i, :, n_r:], rcond=None)[0]
        C_probe[ks] = sol.transpose(0, 2, 1)
    C_probe[0] = C_probe[1]
    return C_probe


def closed_loop_band(controller, C_rows):
    """Two-sigma envelope of probe deviations under the closed loop.

    Propagates the joint covariance Z of (true ROM deviation, estimator
    prior) exactly through the LQG loop from zero initial deviation,
    Z_(k+1) = F_k Z_k F_k' + G_k, and projects it with the probe output
    rows; returns (N+1, n_probe).  The transition matrices F_k and noise
    terms G_k = Gw W Gw' + Gv V Gv' of a block of _BLOCK steps are
    formed by batched products, so each step of the recursion is the
    one product F Z F'.
    """
    rom = controller.rom
    N, n_r = rom.horizon, rom.n_r
    W = np.asarray(controller.W, dtype=float)
    V = np.asarray(controller.V, dtype=float)
    band = np.zeros((N + 1, C_rows.shape[1]))
    Z = np.zeros((2 * n_r, 2 * n_r))  # cov of (da, da_hat_prior)
    eye = np.eye(n_r)
    for k0 in range(0, N, _BLOCK):
        k1 = min(k0 + _BLOCK, N)
        ks = slice(k0, k1)
        A, B, C = rom.A_hat[ks], rom.B_hat[ks], rom.C_hat[ks]
        K, L = controller.K_gains[ks], controller.L_gains[ks]
        BL = B @ L
        KC = K @ C
        ABL = A - BL
        F = np.block([[A - BL @ KC, -BL @ (eye - KC)], [ABL @ KC, ABL @ (eye - KC)]])
        Gw = np.concatenate([B, np.zeros_like(B)], axis=1)
        Gv = np.concatenate([-BL @ K, ABL @ K], axis=1)
        G = Gw @ W @ Gw.transpose(0, 2, 1) + Gv @ V @ Gv.transpose(0, 2, 1)
        S = np.empty_like(A)
        for i in range(len(F)):
            Z = F[i] @ Z @ F[i].T + G[i]
            Z = 0.5 * (Z + Z.T)
            S[i] = Z[:n_r, :n_r]
        rows = C_rows[k0 + 1 : k1 + 1]
        var = np.einsum("kpi,kij,kpj->kp", rows, S, rows)
        band[k0 + 1 : k1 + 1] = 2.0 * np.sqrt(np.clip(var, 0.0, None))
    return band


# ---------------------------------------------------------------------------
# Monte Carlo engine
# ---------------------------------------------------------------------------


@dataclass
class MonteCarloReport:
    """Aggregated paired closed/open-loop Monte Carlo results.

    n_runs counts the runs requested; the averages, delta_J_samples and
    mse_diff_samples cover only the n_effective runs that did not
    diverge (failures = n_runs - n_effective).  `run_monte_carlo` raises
    a RuntimeError instead of returning a report when every run, or more
    than max(1, n_runs // 100) of them, diverged.  delta_J_samples
    (n_effective,) holds each kept run's first-order cost deviation
    under the cost spec.
    mse_diff_samples (n_effective, n_probe), each run's time-averaged
    squared probe error of the open loop minus that of the closed loop,
    is kept in memory only; report.json holds its mean, se and z.
    """

    n_runs: int
    n_effective: int
    base_seed: int
    mean_traj: np.ndarray  # (N+1, n_x) closed-loop average
    probe_positions: tuple
    probe_nodes: tuple
    run0_closed_err: np.ndarray  # (N+1, n_probe)
    run0_open_err: np.ndarray
    two_sigma: np.ndarray
    mse_closed: np.ndarray  # (n_probe,) time- and run-averaged squared error
    mse_open: np.ndarray
    delta_J_samples: np.ndarray
    nominal_cost: float
    failures: int
    mse_diff_samples: np.ndarray = memory_only(lambda: np.zeros((0, 0)))

    @property
    def delta_J_mean(self):
        return float(self.delta_J_samples.mean())

    @property
    def delta_J_se(self):
        """Standard error of the mean delta J; NaN with fewer than 2
        kept runs, where it is undefined."""
        return float(_se(self.delta_J_samples))

    @property
    def mse_diff_mean(self):
        """Mean paired open-minus-closed squared probe error, per probe."""
        return self.mse_diff_samples.mean(axis=0)

    @property
    def mse_diff_se(self):
        """Its standard error per probe; NaN with fewer than 2 kept runs."""
        return _se(self.mse_diff_samples)


def _se(samples):
    """Standard error of the mean over the first axis; NaN with fewer
    than 2 samples."""
    n = len(samples)
    if n < 2:
        return np.full(np.shape(samples)[1:], np.nan)
    return samples.std(axis=0, ddof=1) / np.sqrt(n)


def _safe_step(plant, X, U, w, k):
    """Step a batch of rows; on divergence, retry row by row instead of
    aborting the whole batch.  Returns the stepped rows and the mask of
    those whose step diverged."""
    bad = np.zeros(X.shape[0], dtype=bool)
    try:
        return plant.step(X, U, w, k), bad
    except IntegrationDivergedError:
        out = np.empty_like(X)
        for i in range(X.shape[0]):
            try:
                out[i] = plant.step(X[i], U[i], w[i], k)
            except IntegrationDivergedError:
                out[i] = 0.0
                bad[i] = True
        return out, bad


def _adjoints(plant, x_det, h):
    """The plant's (step_vjp, observe_vjp).  A black box lacking one gets
    the adjoint times the Jacobian of `step` at (x, u), or of `observe`
    at x_det,k, from central differences with step h in one batch."""
    def jacobian(f, z):
        E = h * np.eye(len(z))
        out = f(z + np.concatenate([E, -E]))
        return ((out[: len(z)] - out[len(z) :]) / (2.0 * h)).T

    def step_vjp(x, u, g, k):
        n_x = len(x)
        gz = g @ jacobian(lambda z: plant.step(z[:, :n_x], z[:, n_x:], 0.0, k), np.concatenate([x, u]))
        return gz[..., :n_x], gz[..., n_x:]

    def observe_vjp(g, k):
        return g @ jacobian(lambda x: plant.observe(x, 0.0, k), x_det[k])

    return getattr(plant, "step_vjp", step_vjp), getattr(plant, "observe_vjp", observe_vjp)


def _linearize(plant, x_det, controls, k, h):
    """(A_k, B_k, C_{k+1}): the Jacobians of the noiseless step at
    (x_det,k, u_k) and of the noiseless observation at x_det,k+1, the
    adjoints of the identity."""
    step_vjp, observe_vjp = _adjoints(plant, x_det, h)
    A, B = step_vjp(x_det[k], controls[k], np.eye(plant.n_x), k)
    return A, B, observe_vjp(np.eye(plant.n_y), k + 1)


def _delta_j_weights(plant, nominal, cost, h):
    """The weights that score each run's delta_J from its control and
    measurement deviations along the noiseless nominal x_det; returns
    (y_det (N+1, n_y), g_u (N, n_u), g_e (N, n_y)), y_det the noiseless
    observations.

    A forward `kf_steps` sweep from the nominal prior covariance gives
    the LKF's gains K_{k+1}.  A backward sweep from lambda_N = C_mu,N
    then forms g_e,k = K_{k+1}' lambda_{k+1} and, with v = M_k'
    lambda_{k+1} = lambda_{k+1} - observe_vjp(g_e,k) and (g_x, g_v) =
    step_vjp(x_k, u_k, v), g_u,k = C_u,k + g_v and lambda_k = C_mu,k +
    g_x.  Only the forward sweep takes each step's Jacobians from
    `_linearize`; the backward one takes one adjoint row per step, and
    neither holds an (N, n_x, n_x) array.  `h` is the difference step
    for a plant without `step_vjp` or `observe_vjp`."""
    x_det, y_det = plant.simulate_nominal(nominal.means[0], nominal.controls)
    C_mu, g_u = cost.gradient(x_det, nominal.controls)
    N = nominal.horizon
    models = (_linearize(plant, x_det, nominal.controls, k, h) for k in range(N))
    gains = [K for K, _ in kf_steps(models, plant.spec.W, plant.spec.V, nominal.prior_cov)]
    step_vjp, observe_vjp = _adjoints(plant, x_det, h)
    g_e = np.empty((N, plant.n_y))
    lam = C_mu[N]
    for k in range(N - 1, -1, -1):
        g_e[k] = lam @ gains[k]
        g_x, g_v = step_vjp(x_det[k], nominal.controls[k], lam - observe_vjp(g_e[k], k + 1), k)
        g_u[k] += g_v
        lam = C_mu[k] + g_x
    return y_det, g_u, g_e


def _fold(total, rows):
    """`total` plus each of `rows` in turn: np.add.accumulate adds
    strictly in row order, as a loop of += does, where np.add.reduce
    sums one-column rows pairwise and rounds differently."""
    return np.add.accumulate(np.concatenate([total[None], rows]))[-1]


def _simulate_chunk(plant, nominal, controller, run_ids, base_seed, probe_nodes, weights, mean_sum, summed=None):
    """Simulate one chunk of paired runs; returns per-run aggregates, the
    mask of diverged runs, which are frozen on the nominal so the batch
    stays healthy, and each run's delta_J, scored by the `weights`
    (y_det, g_u, g_e) of `_delta_j_weights`.

    The chunk's R closed-loop states and their R open-loop partners are
    one (2R, n_x) batch, a pair being row i and row R + i: each step
    steps the batch once, under the controls [u; u_bar_k] and with the
    run's process noise in both halves, tests it once for divergence and
    freezes a diverged pair once.  The squared probe errors `sq` come
    back stacked the same way, (2R, n_probe), and `run0` (N+1, 2,
    n_probe) holds the closed- and open-loop errors of the chunk's first
    run.  The closed-loop states of the runs in the mask `summed`
    (default: all) are added to mean_sum (N+1, n_x) in strict run-index
    order."""
    rom = controller.rom
    N = nominal.horizon
    R = len(run_ids)
    n_x, n_u, n_y = plant.n_x, plant.n_u, plant.n_y
    x0 = nominal.means[0]
    W_s = psd_sqrt(plant.spec.W)
    V_s = psd_sqrt(plant.spec.V)

    # per-run streams, predrawn
    w_all = np.empty((R, N, n_u))
    v_all = np.empty((R, N + 1, n_y))
    for i, r in enumerate(run_ids):
        w_all[i] = stream(base_seed, r, "w").standard_normal((N, n_u)) @ W_s.T
        v_all[i] = stream(base_seed, r, "v").standard_normal((N + 1, n_y)) @ V_s.T

    x = np.broadcast_to(x0, (2 * R, n_x)).copy()
    U = np.empty((2 * R, n_u))
    a_hat = np.zeros((R, rom.n_r))
    failed = np.zeros(R, dtype=bool)

    summed = np.arange(R) if summed is None else np.flatnonzero(summed)
    mean_sum[0] = _fold(mean_sum[0], np.broadcast_to(x0, (len(summed), n_x)))

    probe_nodes = np.asarray(probe_nodes, dtype=int)
    n_p = len(probe_nodes)
    sq = np.zeros((2 * R, n_p))
    run0 = np.zeros((N + 1, 2, n_p))

    y_det, g_u, g_e = weights
    delta_J = np.zeros(R)

    y = plant.observe(x[:R], v_all[:, 0], 0)
    for k in range(N):
        # controller update
        du, a_hat = lqg_update(controller, k, y - nominal.observations[k], a_hat)
        u = nominal.controls[k] + du
        U[:R], U[R:] = u, nominal.controls[k]

        # the paired plant steps, with shared process noise draws
        w = w_all[:, k]
        x, bad = _safe_step(plant, x, U, np.concatenate([w, w]), k)
        bad |= ~np.isfinite(np.sum(x, axis=-1))
        failed |= bad[:R] | bad[R:] | ~np.isfinite(np.sum(a_hat, axis=-1))
        if failed.any():
            # freeze failed pairs on the nominal so the batch stays healthy
            x[np.concatenate([failed, failed])] = nominal.means[k + 1]
            a_hat[failed] = 0.0

        mean_sum[k + 1] = _fold(mean_sum[k + 1], x[summed])
        if n_p:
            err = x[:, probe_nodes] - nominal.means[k + 1][probe_nodes]
            sq += err**2
            run0[k + 1] = err[[0, R]]
        y = plant.observe(x[:R], v_all[:, k + 1], k + 1)

        # delta_J's terms of step k, by row-wise products: BLAS sums a
        # row in an order that depends on the number of rows
        delta_J += (du * g_u[k]).sum(axis=-1)
        delta_J += ((y - y_det[k + 1]) * g_e[k]).sum(axis=-1)

    return {"sq": sq, "run0": run0, "failed": failed, "delta_J": delta_J}


def run_monte_carlo(plant, nominal, controller, n_runs, base_seed, probe_positions=(0.4, 0.9), *,
                    cost, chunk=100, epsilon=1e-2):
    """Paired closed/open-loop Monte Carlo evaluation, in one pass per
    chunk of runs and in this process.

    Each run simulates the true plant under the LQG loop and, with the
    same noise draws, under the open-loop nominal controls.  Each
    closed-loop run is scored by its first-order cost deviation under
    the cost spec `cost`, delta_J = sum C_u du + C_mu dmu, dmu the mean
    of its linearized Kalman filter along the noiseless nominal x_det
    and C_mu taken at x_det.  delta_J is linear in the run's control and
    measurement deviations, whose weights one backward sweep forms
    before the first chunk (`_delta_j_weights`).  The probe errors and
    `mean_traj` stay measured against `nominal.means`, which the
    benchmark's run-0 check replays.

    Runs whose plant step diverges are counted in `failures` and left
    out of every average and sample; if every run, or more than
    max(1, n_runs // 100) of them, diverged, a RuntimeError is raised
    instead.  `epsilon` is the impulse size used to identify the probe
    output rows of the two-sigma band, and the difference step of the
    filter's linearization for a plant without `step_vjp` or
    `observe_vjp`.  Fewer than 1 run or a chunk of fewer than 1 run and
    probe positions outside [0, 1] are rejected before any run starts.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    probe_nodes = probe_nodes_from_fractions(plant.n_x, probe_positions)
    two_sigma = np.zeros((nominal.horizon + 1, len(probe_nodes)))
    if probe_nodes:
        probe_rows = probe_output_rows(plant, nominal, controller.rom, probe_nodes, epsilon)
        two_sigma = closed_loop_band(controller, probe_rows)
    weights = _delta_j_weights(plant, nominal, cost, epsilon)

    N, n_p = nominal.horizon, len(probe_nodes)
    mean_sum = np.zeros((N + 1, plant.n_x))
    sq_sum = np.zeros((2, n_p))  # closed, open
    delta_J = []
    mse_diff = []
    failures = 0
    for lo in range(0, n_runs, chunk):
        run_ids = list(range(lo, min(lo + chunk, n_runs)))
        args = (plant, nominal, controller, run_ids, base_seed, probe_nodes, weights)
        mean_before = mean_sum.copy()
        out = _simulate_chunk(*args, mean_sum)
        ok = ~out["failed"]
        if not ok.all():
            # replay the same batch, so that every run repeats bit for
            # bit, and sum only the runs that did not diverge into
            # mean_sum; the replay's scores are not needed
            mean_sum[:] = mean_before
            _simulate_chunk(*args, mean_sum, summed=ok)
        failures += int((~ok).sum())
        delta_J.append(out["delta_J"][ok])
        # a strict run-order fold, column by column, keeps the sums
        # independent of chunking
        sq = out["sq"].reshape(2, len(ok), n_p)[:, ok]
        sq_sum = _fold(sq_sum, sq.transpose(1, 0, 2))
        mse_diff.append((sq[1] - sq[0]) / (N + 1))
        if lo == 0:
            run0 = out["run0"]
    if failures == n_runs or failures > max(1, n_runs // 100):
        raise RuntimeError(f"{failures}/{n_runs} Monte Carlo runs diverged")

    n_effective = n_runs - failures
    denom = n_effective * (N + 1)
    return MonteCarloReport(
        n_runs=n_runs,
        n_effective=n_effective,
        base_seed=base_seed,
        mean_traj=mean_sum / n_effective,
        probe_positions=tuple(probe_positions),
        probe_nodes=probe_nodes,
        run0_closed_err=run0[:, 0],
        run0_open_err=run0[:, 1],
        two_sigma=two_sigma,
        mse_closed=sq_sum[0] / denom,
        mse_open=sq_sum[1] / denom,
        delta_J_samples=np.concatenate(delta_J),
        nominal_cost=float(nominal.nominal_cost),
        failures=failures,
        mse_diff_samples=np.concatenate(mse_diff),
    )


# ---------------------------------------------------------------------------
# Complexity accounting
# ---------------------------------------------------------------------------


@dataclass
class ComplexityReport:
    """Riccati sizes of the full belief-space design versus the ROM design."""

    n_x: int
    n_r: int
    belief_dim: int
    ratio: float
    order_exponent: int
    no_reduction: bool

    def summary(self):
        lines = [
            f"{self.belief_dim} x {self.belief_dim} vs {self.n_r} x {self.n_r} Riccati",
            f"complexity reduction n_x^4/n_r^2 = {self.ratio:.3g} (O(10^{self.order_exponent}))",
        ]
        if self.no_reduction:
            lines.append("no reduction in estimator/controller order (n_r >= n_x)")
        return "\n".join(lines)


def complexity_report(n_x, n_r):
    """Arithmetic reproduction of the design-complexity comparison.

    The full belief-space design would solve Riccati equations in the
    belief dimension n_x + n_x^2 (mean plus covariance entries); the ROM
    design solves two n_r x n_r recursions.  The reduction ratio is
    n_x^4 / n_r^2.
    """
    if n_x < 1 or n_r < 1:
        raise ValueError("n_x and n_r must be >= 1")
    ratio = float(n_x) ** 4 / float(n_r) ** 2
    return ComplexityReport(
        n_x=n_x,
        n_r=n_r,
        belief_dim=n_x + n_x * n_x,
        ratio=ratio,
        order_exponent=int(round(np.log10(ratio))),
        no_reduction=n_r >= n_x,
    )
