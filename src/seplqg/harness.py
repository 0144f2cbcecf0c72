"""End-to-end evaluation: Monte Carlo closed-loop runs, the cost
linearization-error check, probe-position error bands, and complexity
accounting.

Every Monte Carlo run draws its noise from counter-based streams keyed
(base_seed, run_index, channel), so reports are bit-reproducible under a
fixed seed.  On the heat slab they are also chunk-exact: the same bits
for any chunk size, because every product that mixes a run's entries
(the LQG law of `lqg_update`, the cost and delta_J sums) is a row-wise
reduction, whose rounding does not depend on how many runs a batch has,
and each EnKF operation acts on one run's ensemble at a time.  On
linear plants the BLAS products of `LinearPlant.step` and of the
exact-KF belief still round a row differently for different batch sizes.

Open-loop comparison runs consume the same draws as their closed-loop
partner (common random numbers), making the error comparison paired.
With a cost spec, one belief filter per run (EnKF, or the exact KF for
linear plants) yields the realized cost and the first-order deviation
delta_J = C_u du + C_mu dmu + c tr(dSigma), summed over the steps.

A chunk of runs is simulated in two passes.  The loop pass steps the
plant under the LQG law and, with the same draws, under the open-loop
controls, and records each run's control deviations and measurements.
The scoring pass then runs the belief filters from those records, one
block of runs at a time over the whole horizon, sized so that a block's
ensembles stay in cache, with blocks spread over worker processes, one
per CPU, forked from this one so that they inherit the records instead
of receiving them pickled.  The split is exact because the filter never
feeds back into the loop, and each run's cost and delta_J terms are
summed in the same order as in one pass, so reports do not depend on the
block size or on the number of workers.
"""

import os
from dataclasses import dataclass

import numpy as np

from .belief import enkf_predict_members, enkf_update_members, psd_sqrt
from .exceptions import InsufficientEnsembleError, IntegrationDivergedError
from .lqg import kf_recursion, lqg_update
from .rng import stream
from .sysid import collect_impulse_responses

__all__ = [
    "MonteCarloReport",
    "ComplexityReport",
    "run_monte_carlo",
    "complexity_report",
    "cost_gradient_coefficients",
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
    return tuple(int(round(f * (n_x - 1))) for f in fractions)


# ---------------------------------------------------------------------------
# Cost linearization coefficients (closed-form gradients of the stage costs)
# ---------------------------------------------------------------------------


def cost_gradient_coefficients(nominal, spec):
    """Gradients of the quadratic stage costs at the nominal trajectory.

    C_mu[k] = 2 Q (mu_k - target) with Q = Q_terminal at k = N and
    Q_mean before, C_u[k] = 2 R_u u_k, and the trace weight q_trace,
    the derivative of the cost in every covariance diagonal entry.
    Returns (C_mu (N+1, n_x), C_u (N, n_u), c_trace).
    """
    d = nominal.means - spec.target
    C_mu = 2.0 * (d @ spec.Q_mean)
    C_mu[-1] = 2.0 * (d[-1] @ spec.Q_terminal)
    C_u = 2.0 * (nominal.controls @ spec.R_u)
    return C_mu, C_u, float(spec.q_trace)


# ---------------------------------------------------------------------------
# Probe output rows and closed-loop bands
# ---------------------------------------------------------------------------


def probe_output_rows(plant, nominal, rom, nodes, epsilon=1e-2, lag=None):
    """Identify ROM output rows for extra state entries.

    Collects impulse responses of the probed entries and fits, at each
    time k, the map from the ROM deviation state to the probe deviation
    by least squares over the impulses within `lag` steps (default: the
    ROM's own Hankel depth, time_range start).  Returns (N+1, n_probe,
    n_r).
    """
    if lag is None:
        lag = max(2 * rom.time_range[0], 8)
    probe_markov = collect_impulse_responses(plant, nominal, epsilon, nodes=nodes, max_lag=lag)
    N = rom.horizon
    n_r, n_u = rom.n_r, rom.n_u
    n_p = len(nodes)
    C_probe = np.zeros((N + 1, n_p, n_r))
    # impulse-driven ROM states a^{(j,m)}_k = Phi_hat(k, j+1) B_hat_j e_m,
    # propagated lazily: states[j] holds the (n_r, n_u) block for impulse time j
    states = {}
    for k in range(1, N + 1):
        states[k - 1] = rom.B_hat[k - 1].copy()
        rows = []
        targets = []
        for j in range(max(0, k - lag), k):
            rows.append(states[j].T)  # (n_u, n_r)
            targets.append(probe_markov.data[k, j].T)  # (n_u, n_p)
        A_mat = np.concatenate(rows)
        b_mat = np.concatenate(targets)
        sol, *_ = np.linalg.lstsq(A_mat, b_mat, rcond=None)
        C_probe[k] = sol.T
        if k < N:
            for j in list(states):
                if j < k - lag:
                    del states[j]
                else:
                    states[j] = rom.A_hat[k] @ states[j]
    C_probe[0] = C_probe[1]
    return C_probe


def closed_loop_band(controller, C_rows):
    """Two-sigma envelope of probe deviations under the closed loop.

    Propagates the joint covariance of (true ROM deviation, estimator
    prior) exactly through the LQG loop from zero initial deviation and
    projects it with the probe output rows; returns (N+1, n_probe).
    """
    rom = controller.rom
    N, n_r = rom.horizon, rom.n_r
    W = np.asarray(controller.W, dtype=float)
    V = np.asarray(controller.V, dtype=float)
    n_p = C_rows.shape[1]
    band = np.zeros((N + 1, n_p))
    Z = np.zeros((2 * n_r, 2 * n_r))  # cov of (da, da_hat_prior)
    eye = np.eye(n_r)
    for k in range(N):
        A, B, C = rom.A_hat[k], rom.B_hat[k], rom.C_hat[k]
        K, L = controller.K_gains[k], controller.L_gains[k]
        BL = B @ L
        KC = K @ C
        F = np.block(
            [
                [A - BL @ KC, -BL @ (eye - KC)],
                [(A - BL) @ KC, (A - BL) @ (eye - KC)],
            ]
        )
        Gw = np.vstack([B, np.zeros_like(B)])
        Gv = np.vstack([-BL @ K, (A - BL) @ K])
        Z = F @ Z @ F.T + Gw @ W @ Gw.T + Gv @ V @ Gv.T
        Z = 0.5 * (Z + Z.T)
        Saa = Z[:n_r, :n_r]
        var = np.einsum("pi,ij,pj->p", C_rows[k + 1], Saa, C_rows[k + 1])
        band[k + 1] = 2.0 * np.sqrt(np.clip(var, 0.0, None))
    return band


# ---------------------------------------------------------------------------
# Monte Carlo engine
# ---------------------------------------------------------------------------

# ensemble storage of one scoring block, half of a 2 MB per-core L2 (a
# whole 100-run chunk of 100-member ensembles spends much of its time in
# page faults on the temporaries of each plant step), and the most that
# its slab of predrawn filter noise may take.  A serial sweep from 256 KB
# to 2 MB on a 2-vCPU Xeon found no budget clearly faster than this one.
_SCORE_BLOCK_BYTES = 1 << 20


@dataclass
class MonteCarloReport:
    """Aggregated paired closed/open-loop Monte Carlo results.

    n_runs counts the runs requested; the averages, delta_J_samples and
    cost_samples cover only the n_effective runs that did not diverge
    (failures = n_runs - n_effective).  `run_monte_carlo` raises a
    RuntimeError instead of returning a report when every run, or more
    than max(1, n_runs // 100) of them, diverged.
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
    cost_samples: np.ndarray
    nominal_cost: float
    failures: int

    @property
    def delta_J_mean(self):
        return float(self.delta_J_samples.mean())

    @property
    def delta_J_se(self):
        """Standard error of the mean delta J; NaN with fewer than 2
        kept runs, where it is undefined."""
        n = len(self.delta_J_samples)
        if n < 2:
            return float("nan")
        return float(self.delta_J_samples.std(ddof=1) / np.sqrt(n))


def _safe_step(plant, X, U, w, k):
    """Step a batch of runs; on divergence, retry row by row and report
    which runs failed instead of aborting the whole batch."""
    try:
        return plant.step(X, U, w, k), None
    except IntegrationDivergedError:
        out = np.empty_like(X)
        bad = np.zeros(X.shape[0], dtype=bool)
        for i in range(X.shape[0]):
            try:
                out[i] = plant.step(X[i], U[i], w[i], k)
            except IntegrationDivergedError:
                out[i] = 0.0
                bad[i] = True
        return out, bad


def _simulate_chunk(plant, nominal, controller, run_ids, base_seed, probe_nodes, collect_first,
                    mean_sum, summed=None):
    """Loop pass: simulate one chunk of paired runs; returns per-run
    aggregates, the mask of diverged runs, which are frozen on the
    nominal so the batch stays healthy, and the records the scoring pass
    reads: the control deviations du (N, R, n_u) and the measurements y
    (N+1, R, n_y), step-major so that a block of runs is contiguous at
    every step.

    The closed-loop states of the runs in the mask `summed` (default:
    all) are added to mean_sum (N+1, n_x) in strict run-index order."""
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

    x_cl = np.broadcast_to(x0, (R, n_x)).copy()
    x_ol = x_cl.copy()
    a_hat = np.zeros((R, rom.n_r))
    failed = np.zeros(R, dtype=bool)
    du_all = np.empty((N, R, n_u))
    y_all = np.empty((N + 1, R, n_y))

    summed = range(R) if summed is None else np.flatnonzero(summed)
    for _ in summed:
        mean_sum[0] += x0

    probe_nodes = np.asarray(probe_nodes, dtype=int)
    n_p = len(probe_nodes)
    sq_closed = np.zeros((R, n_p))
    sq_open = np.zeros((R, n_p))
    run0 = None
    if collect_first:
        run0 = {
            "closed": np.zeros((N + 1, n_p)),
            "open": np.zeros((N + 1, n_p)),
        }

    for k in range(N):
        # measurement and controller update
        y = y_all[k] = plant.observe(x_cl, v_all[:, k], k)
        du, a_hat = lqg_update(controller, k, y - nominal.observations[k], a_hat)
        u = nominal.controls[k] + du
        du_all[k] = du

        # paired plant steps (shared process noise draws)
        x_cl, bad_cl = _safe_step(plant, x_cl, u, w_all[:, k], k)
        U_ol = np.broadcast_to(nominal.controls[k], (R, n_u))
        x_ol, bad_ol = _safe_step(plant, x_ol, U_ol, w_all[:, k], k)

        bad = ~(np.isfinite(np.sum(x_cl, axis=-1)) & np.isfinite(np.sum(x_ol, axis=-1)) & np.isfinite(np.sum(a_hat, axis=-1)))
        if bad_cl is not None:
            bad |= bad_cl
        if bad_ol is not None:
            bad |= bad_ol
        if bad.any():
            failed |= bad
        if failed.any():
            # freeze failed runs on the nominal so the batch stays healthy
            x_cl[failed] = nominal.means[k + 1]
            x_ol[failed] = nominal.means[k + 1]
            a_hat[failed] = 0.0

        for i in summed:
            mean_sum[k + 1] += x_cl[i]
        if n_p:
            err_c = x_cl[:, probe_nodes] - nominal.means[k + 1][probe_nodes]
            err_o = x_ol[:, probe_nodes] - nominal.means[k + 1][probe_nodes]
            sq_closed += err_c**2
            sq_open += err_o**2
            if collect_first:
                run0["closed"][k + 1] = err_c[0]
                run0["open"][k + 1] = err_o[0]
    y_all[N] = plant.observe(x_cl, v_all[:, N], N)

    return {
        "sq_closed": sq_closed,
        "sq_open": sq_open,
        "run0": run0,
        "failed": failed,
        "du": du_all,
        "y": y_all,
    }


def _score_block(plant, nominal, cost, coefs, belief, run_ids, base_seed, du_all, y_all):
    """Scoring pass over one block of runs: the belief filter (`belief`
    is ("enkf", M) or ("kf", _kf_gain_table(...))) driven by the applied
    controls, nominal plus du_all, and the measurements y_all the
    controller saw, and the
    realized cost and first-order deviation delta_J (coefs = (C_mu, C_u))
    that every step adds its control terms and then its belief terms to.
    Returns (delta_J, cost) per run."""
    N = nominal.horizon
    R = len(run_ids)
    n_x, n_u, n_y = plant.n_x, plant.n_u, plant.n_y
    x0 = nominal.means[0]
    C_mu, C_u = coefs
    # CostSpec weights are diagonal: each quadratic form is a row-wise sum
    q_mean, q_terminal, r_u = (np.diag(w) for w in (cost.Q_mean, cost.Q_terminal, cost.R_u))
    delta_J = np.zeros(R)
    cost_acc = np.zeros(R)
    d0 = x0 - cost.target
    cost_acc += float((d0 * d0 * q_mean).sum())
    if cost.q_trace:
        cost_acc += cost.q_trace * np.trace(nominal.prior_cov)
    mu_belief = np.broadcast_to(x0, (R, n_x)).copy()
    if belief[0] == "enkf":
        M = belief[1]
        W_s = psd_sqrt(plant.spec.W)
        V_s = psd_sqrt(plant.spec.V)
        gens_w = [stream(base_seed, r, "enkf-w") for r in run_ids]
        gens_v = [stream(base_seed, r, "enkf-v") for r in run_ids]
        # steps of filter noise drawn per generator call: as many as fit
        # the block's byte budget
        slab = max(1, _SCORE_BLOCK_BYTES // (8 * R * M * (n_u + n_y)))
        members = np.empty((R, M, n_x))
        S0 = psd_sqrt(nominal.prior_cov)
        for i, r in enumerate(run_ids):
            Z = stream(base_seed, r, "enkf-init").standard_normal((M, n_x))
            # Z @ S0.T without BLAS: at M = n_x = 100 OpenBLAS runs that
            # GEMM on a second thread, which takes the CPU of the other
            # scoring worker (one 100-run chunk on a 2-vCPU Xeon: 2.92 s,
            # against 2.19 s with one BLAS thread per worker).  The
            # einsum costs 0.48 ms a run against 0.07 ms, and with the
            # CLI's diagonal prior it gives the same bits.
            members[i] = x0 + np.einsum("mj,ij->mi", Z, S0)
    else:
        A_s, B_s, C1_s, K_s, kf_traces = belief[1]

    for k in range(N):
        u = nominal.controls[k] + du_all[k]
        y_next = y_all[k + 1]
        # row-wise reductions, not matrix-vector products: BLAS sums a
        # row in an order that depends on the number of rows
        delta_J += (du_all[k] * C_u[k]).sum(axis=-1)
        cost_acc += (u * u * r_u).sum(axis=-1)
        if belief[0] == "enkf":
            s = k % slab
            if s == 0:
                # one draw per run and slab of steps: the same stream order
                # as a draw per step, and far fewer generator calls
                S = min(slab, N - k)
                wb_slab = np.empty((S, R, M, n_u))
                vb_slab = np.empty((S, R, M, n_y))
                for i in range(R):
                    wb_slab[:, i] = gens_w[i].standard_normal((S, M, n_u)) @ W_s.T
                    vb_slab[:, i] = gens_v[i].standard_normal((S, M, n_y)) @ V_s.T
            members = enkf_predict_members(members, u, wb_slab[s], plant, k)
            members = enkf_update_members(members, y_next, vb_slab[s], plant, plant.spec.V, k + 1)
            mu_belief = members.mean(axis=1)
        else:
            mu_pred = mu_belief @ A_s[k].T + u @ B_s[k].T
            mu_belief = mu_pred + (y_next - mu_pred @ C1_s[k].T) @ K_s[k].T
        delta_J += ((mu_belief - nominal.means[k + 1]) * C_mu[k + 1]).sum(axis=-1)
        d = mu_belief - cost.target
        cost_acc += (d * d * (q_terminal if k == N - 1 else q_mean)).sum(axis=-1)
        if cost.q_trace:
            if belief[0] == "enkf":
                tr = ((members - mu_belief[:, None, :]) ** 2).sum(axis=(1, 2)) / (M - 1)
            else:
                tr = kf_traces[k + 1]
            delta_J += cost.q_trace * (tr - nominal.cov_traces[k + 1])
            cost_acc += cost.q_trace * tr
    return delta_J, cost_acc


def _workers():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _score_slice(chunk, bounds):
    """`_score_block` on runs lo..hi of a chunk, given as the arguments
    of `_score_chunk`."""
    plant, nominal, cost, coefs, belief, run_ids, base_seed, loop = chunk
    lo, hi = bounds
    return _score_block(plant, nominal, cost, coefs, belief, run_ids[lo:hi], base_seed,
                        loop["du"][:, lo:hi], loop["y"][:, lo:hi])


# the chunk a forked scoring worker scores blocks of; set only in the
# worker, by `_inherit_chunk` at its start
_worker_chunk = None


def _inherit_chunk(chunk):
    global _worker_chunk
    _worker_chunk = chunk


def _score_in_worker(bounds):
    return _score_slice(_worker_chunk, bounds)


def _score_chunk(plant, nominal, cost, coefs, belief, run_ids, base_seed, loop):
    """Scoring pass over a chunk: `_score_block` on as few blocks of runs
    as keep each block's ensembles within _SCORE_BLOCK_BYTES, of sizes
    that differ by at most one run, on worker processes, one per CPU.

    The workers are forked, so they inherit the chunk's records and
    inputs without pickling them, and only each block's (delta_J, cost)
    is pickled back; a spawned worker would first re-import numpy and
    seplqg, about as long as a whole CLI set-up (0.27 s).  Each EnKF
    operation and each sum acts on one run at a time, so the result does
    not depend on the block size or the number of workers.  The exact-KF
    belief, one row per run, is scored as one block: its matrix products
    go through BLAS, which rounds a one-row product differently.  Blocks
    run in this process on one CPU and where the platform cannot fork.
    An error raised in a block reaches the caller.

    A worker owns one CPU, so a block must make no BLAS call large
    enough for the BLAS library to start a helper thread: that thread
    would run on another worker's CPU."""
    R = len(run_ids)
    cap = R
    if belief[0] == "enkf":
        cap = max(1, _SCORE_BLOCK_BYTES // (8 * plant.n_x * belief[1]))
    n_blocks = -(-R // cap)
    size, extra = divmod(R, n_blocks)
    edges = [b * size + min(b, extra) for b in range(n_blocks + 1)]
    blocks = list(zip(edges[:-1], edges[1:]))
    chunk = (plant, nominal, cost, coefs, belief, run_ids, base_seed, loop)
    workers = min(_workers(), n_blocks)
    if workers == 1 or not hasattr(os, "fork"):
        scored = [_score_slice(chunk, b) for b in blocks]
    else:
        # imported only here, so that neither a serial run nor the CLI's
        # start-up pays for them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                 initializer=_inherit_chunk, initargs=(chunk,)) as pool:
            # consuming map re-raises the first failed block's error and
            # cancels the blocks not yet started
            scored = list(pool.map(_score_in_worker, blocks))
    delta_J, cost_acc = zip(*scored)
    return np.concatenate(delta_J), np.concatenate(cost_acc)


def run_monte_carlo(plant, nominal, controller, n_runs, base_seed, probe_positions=(0.4, 0.9),
                    cost=None, belief="enkf", belief_size=100, chunk=100, epsilon=1e-2):
    """Paired closed/open-loop Monte Carlo evaluation.

    Each run simulates the true plant under the LQG loop and, with the
    same noise draws, under the open-loop nominal controls.  When a cost
    spec is given, a belief filter follows each closed-loop run on its
    controls and measurements (EnKF of size belief_size, or the exact KF
    via belief="kf" for linear plants) to produce per-run realized costs and
    first-order cost deviations.  Runs whose plant step diverges are
    counted in `failures` and left out of every average and sample; if
    every run, or more than max(1, n_runs // 100) of them, diverged, a
    RuntimeError is raised instead.  `epsilon` is the impulse size used
    to identify the probe output rows of the two-sigma band.  Fewer
    than 1 run or a chunk of fewer than 1 run, probe positions outside
    [0, 1] and an EnKF of fewer than 2 members are rejected before any
    run starts.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    if cost is not None and belief == "enkf" and belief_size < 2:
        raise InsufficientEnsembleError(
            f"the belief EnKF needs at least 2 members, got belief_size={belief_size}")
    probe_nodes = probe_nodes_from_fractions(plant.n_x, probe_positions)
    two_sigma = np.zeros((nominal.horizon + 1, len(probe_nodes)))
    if probe_nodes:
        probe_rows = probe_output_rows(plant, nominal, controller.rom, probe_nodes, epsilon)
        two_sigma = closed_loop_band(controller, probe_rows)

    belief_arg = None
    if cost is not None:
        coefs = cost_gradient_coefficients(nominal, cost)[:2]
        if belief == "enkf":
            belief_arg = ("enkf", belief_size)
        elif belief == "kf":
            belief_arg = ("kf", _kf_gain_table(plant, nominal))
        else:
            raise ValueError(f"unknown belief mode {belief!r}")

    N = nominal.horizon
    mean_sum = np.zeros((N + 1, plant.n_x))
    sq_closed = np.zeros(len(probe_nodes))
    sq_open = np.zeros(len(probe_nodes))
    delta_J = []
    cost_samples = []
    failures = 0
    run0 = None
    for lo in range(0, n_runs, chunk):
        run_ids = list(range(lo, min(lo + chunk, n_runs)))
        args = (plant, nominal, controller, run_ids, base_seed, probe_nodes, lo == 0)
        mean_before = mean_sum.copy()
        out = _simulate_chunk(*args, mean_sum)
        ok = ~out["failed"]
        if not ok.all():
            # replay the loop pass of the same batch, so that every run
            # repeats bit for bit, and sum only the runs that did not
            # diverge into mean_sum
            mean_sum[:] = mean_before
            _simulate_chunk(*args, mean_sum, summed=ok)
        failures += int((~ok).sum())
        if cost is not None:
            dj, cj = _score_chunk(plant, nominal, cost, coefs, belief_arg, run_ids, base_seed, out)
            delta_J.append(dj[ok])
            cost_samples.append(cj[ok])
        # strict run-order folds keep aggregates independent of chunking
        for i in np.flatnonzero(ok):
            sq_closed += out["sq_closed"][i]
            sq_open += out["sq_open"][i]
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
        run0_closed_err=run0["closed"] if run0 else np.zeros((N + 1, 0)),
        run0_open_err=run0["open"] if run0 else np.zeros((N + 1, 0)),
        two_sigma=two_sigma,
        mse_closed=sq_closed / denom,
        mse_open=sq_open / denom,
        delta_J_samples=np.concatenate(delta_J) if cost is not None else np.zeros(0),
        cost_samples=np.concatenate(cost_samples) if cost is not None else np.zeros(0),
        nominal_cost=float(nominal.nominal_cost),
        failures=failures,
    )


def _kf_gain_table(plant, nominal):
    """Plant sequences, exact-KF gains and covariance traces for linear
    plants, from the nominal prior: (A_k, B_k, C_{k+1}, K_{k+1}) for
    k = 0..N-1 and tr P_k for k = 0..N."""
    if not hasattr(plant, "sequences"):
        raise ValueError('belief="kf" needs a linear plant exposing sequences(N)')
    A, B, C = plant.sequences(nominal.horizon)
    K, P = kf_recursion(A, B, C[1:], plant.spec.W, plant.spec.V, nominal.prior_cov)
    return A, B, C[1:], K, np.einsum("kii->k", P)


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
