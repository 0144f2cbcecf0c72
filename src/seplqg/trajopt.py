"""Open-loop trajectory optimization in belief space.

Minimizes a quadratic belief-space cost over the control sequence by
plain gradient descent with backtracking,

    U <- U - alpha * grad J(U),

where J(U) is evaluated through a deterministic belief rollout: the
nominal observations come from the noiseless plant rollout under U, and
the belief is filtered against those observations (EnKF for black-box
plants, exact Kalman filter for linear ones).  With a fixed seed the
map U -> J(U) is deterministic: noise draws are pre-generated per step
and shared by every rollout (common random numbers).

The gradient is the hot path.  One EnKF rollout records its whole tape:
the noiseless plant states, the observations and the ensembles at every
step.  When the plant exposes its adjoint (`step_vjp`, `observe_vjp`,
see `plant`), one reverse pass over that tape through the cost, the
perturbed-observation update and the plant step gives the exact
gradient for about the work of two more rollouts.  A black-box plant
with only `step` and `observe` gets central finite differences, 2*N*n_u
perturbed rollouts, each forked from the tape at its perturbation time
(a rollout perturbed at time j agrees bit for bit with the unperturbed
one up to j).  `gradient_fd` always takes this path, so it is also the
oracle the adjoint is tested against.  The exact-KF engine for linear
plants uses finite differences on the means alone, since its
covariances do not depend on the controls.

`optimize` keeps the tape of the accepted iterate: the line search's
rollout of it serves the next gradient and the returned nominal, so no
iterate is rolled out twice.
"""

from dataclasses import dataclass

import numpy as np

from .artifacts import load, memory_only, save
from .belief import (
    GaussianBelief,
    belief_from_ensemble,
    enkf_predict_members,
    enkf_update_members,
    enkf_update_vjp,
    psd_sqrt,
)
from .exceptions import GradientEvaluationError, InsufficientEnsembleError
from .lqg import kf_recursion
from .rng import stream

__all__ = [
    "CostSpec",
    "NominalTrajectory",
    "OptimizeOptions",
    "nominal_cost",
    "rollout_belief",
    "gradient_fd",
    "gradient_adjoint",
    "optimize",
]


def _diag_check(M, name, positive=False):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square")
    w = np.diag(M)
    if np.count_nonzero(M - np.diag(w)):
        raise ValueError(f"{name} must be diagonal")
    if positive and w.min() <= 0:
        raise ValueError(f"{name} must be positive definite")
    if not positive and w.min() < 0:
        raise ValueError(f"{name} must be positive semi-definite")
    return M


@dataclass(frozen=True)
class CostSpec:
    """Quadratic belief-space cost.

    Stage k:  (mu_k - target)' Q_mean (mu_k - target)
              + q_trace * tr(Sigma_k) + u_k' R_u u_k
    Terminal: (mu_N - target)' Q_terminal (mu_N - target)
              + q_trace * tr(Sigma_N)

    Q_mean, Q_terminal and R_u must be diagonal, so the Monte Carlo
    scoring sums the realized cost from their diagonals alone.
    """

    Q_mean: np.ndarray
    q_trace: float
    R_u: np.ndarray
    Q_terminal: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Q_mean", _diag_check(self.Q_mean, "Q_mean"))
        object.__setattr__(self, "Q_terminal", _diag_check(self.Q_terminal, "Q_terminal"))
        object.__setattr__(self, "R_u", _diag_check(self.R_u, "R_u", positive=True))
        object.__setattr__(self, "target", np.asarray(self.target, dtype=float).reshape(-1))
        if self.q_trace < 0:
            raise ValueError("q_trace must be >= 0")
        if self.target.size != self.Q_mean.shape[0]:
            raise ValueError("target length must match Q_mean")

    @classmethod
    def from_weights(cls, n_x, n_u, q_mean=1.0, r_u=1.0, q_terminal=1.0, q_trace=0.0, target=0.0):
        """Build diagonal weights from scalars or per-entry vectors."""

        def diag(v, n):
            v = np.asarray(v, dtype=float)
            return np.diag(np.full(n, float(v))) if v.ndim == 0 else np.diag(v)

        tgt = np.asarray(target, dtype=float)
        if tgt.ndim == 0:
            tgt = np.full(n_x, float(tgt))
        return cls(
            Q_mean=diag(q_mean, n_x),
            q_trace=float(q_trace),
            R_u=diag(r_u, n_u),
            Q_terminal=diag(q_terminal, n_x),
            target=tgt,
        )


@dataclass
class NominalTrajectory:
    """Optimized nominal: controls (N, n_u), belief means and noiseless
    observations over k = 0..N, the prior covariance (n_x, n_x), the
    belief covariance traces over k = 0..N, the nominal cost, and
    optimizer bookkeeping.  Later stages read no other covariance, so
    the per-step covariances are not kept.  nominal.json stores every
    field but cost_history, the accepted-iterate costs, which are an
    in-memory diagnostic."""

    controls: np.ndarray
    means: np.ndarray
    prior_cov: np.ndarray
    cov_traces: np.ndarray
    observations: np.ndarray
    nominal_cost: float
    iterations: int
    converged: bool
    cost_history: list = memory_only(list)

    def __post_init__(self):
        self.controls = np.atleast_2d(np.asarray(self.controls, dtype=float))
        self.means = np.atleast_2d(np.asarray(self.means, dtype=float))
        self.prior_cov = np.asarray(self.prior_cov, dtype=float)
        self.cov_traces = np.asarray(self.cov_traces, dtype=float).reshape(-1)
        self.observations = np.atleast_2d(np.asarray(self.observations, dtype=float))
        n = self.controls.shape[0]
        if self.prior_cov.shape != (self.means.shape[1],) * 2:
            raise ValueError(f"prior_cov must be n_x x n_x, got {self.prior_cov.shape}")
        for name, arr in (("means", self.means), ("cov_traces", self.cov_traces),
                          ("observations", self.observations)):
            if arr.shape[0] != n + 1:
                raise ValueError(f"{name} must have length N+1 = {n + 1}, got {arr.shape[0]}")
        if not np.isfinite(self.nominal_cost):
            raise ValueError("nominal_cost must be finite")

    @property
    def horizon(self):
        return self.controls.shape[0]

    to_json = save
    from_json = classmethod(load)


def _cost_from_arrays(means, covs_trace, controls, spec):
    """Total cost from stacked means (N+1, n_x), per-step covariance
    traces (N+1,) and controls (N, n_u)."""
    d = means - spec.target
    stage_state = np.einsum("ki,ij,kj->k", d[:-1], spec.Q_mean, d[:-1])
    term = d[-1] @ spec.Q_terminal @ d[-1]
    ctrl = np.einsum("ki,ij,kj->k", controls, spec.R_u, controls)
    total = stage_state.sum() + ctrl.sum() + term
    if spec.q_trace:
        total += spec.q_trace * covs_trace.sum()
    return float(total)


def nominal_cost(beliefs, controls, spec):
    """Cost of a belief trajectory under a control sequence."""
    controls = np.atleast_2d(np.asarray(controls, dtype=float))
    if len(beliefs) != controls.shape[0] + 1:
        raise ValueError(f"need N+1 = {controls.shape[0] + 1} beliefs, got {len(beliefs)}")
    means = np.stack([b.mean for b in beliefs])
    if means.shape[1] != spec.target.size:
        raise ValueError("belief dimension does not match cost spec")
    traces = np.array([np.trace(b.cov) for b in beliefs])
    return _cost_from_arrays(means, traces, controls, spec)


# ---------------------------------------------------------------------------
# Rollout engines
# ---------------------------------------------------------------------------

# perturbation times whose forked rollouts are batched together, bounding
# the memory of one batch to 2*n_u*_FD_CHUNK ensembles
_FD_CHUNK = 64


def _check_finite(costs, n_u, j0=0):
    """Raise on the first non-finite perturbed cost; entry 2*(n_u*(j-j0)+m)
    is the +h and the next one the -h rollout of control entry (j, m)."""
    if not np.all(np.isfinite(costs)):
        bad = int(np.flatnonzero(~np.isfinite(costs))[0])
        raise GradientEvaluationError(
            f"non-finite cost perturbing control entry (k={j0 + bad // (2 * n_u)}, "
            f"channel={(bad % (2 * n_u)) // 2}, {'+' if bad % 2 == 0 else '-'}h)"
        )


def _check_finite_gradient(grad):
    """Raise on a non-finite adjoint gradient.  The reverse pass reaches
    the latest step first and a non-finite adjoint spreads from there to
    every earlier one, so the latest bad step is the one named."""
    bad = np.flatnonzero(~np.isfinite(grad).all(axis=1))
    if bad.size:
        k = int(bad[-1])
        channel = int(np.flatnonzero(~np.isfinite(grad[k]))[0])
        raise GradientEvaluationError(f"non-finite adjoint gradient at control entry (k={k}, channel={channel})")


class _EnkfEngine:
    """Batched deterministic EnKF rollouts with shared noise draws.

    All rollouts of one engine instance consume identical per-step
    draws, so costs are common-random-number comparable across control
    sequences.
    """

    def __init__(self, plant, b0, M, seed):
        if M < 2:
            raise InsufficientEnsembleError(f"the EnKF needs at least 2 members, got M={M}")
        self.plant = plant
        self.b0 = b0
        self.M = int(M)
        N = plant.horizon
        W_s = psd_sqrt(plant.spec.W)
        V_s = psd_sqrt(plant.spec.V)
        g_init = stream(seed, "enkf-init")
        g_w = stream(seed, "enkf-w")
        g_v = stream(seed, "enkf-v")
        self.members0 = b0.mean + g_init.standard_normal((self.M, plant.n_x)) @ psd_sqrt(b0.cov).T
        self.w_draws = g_w.standard_normal((N, self.M, plant.n_u)) @ W_s.T
        self.v_draws = g_v.standard_normal((N, self.M, plant.n_y)) @ V_s.T

    def _step_batch(self, D, E, controls, k):
        """Advance det states D (B, n_x) and ensembles E (B, M, n_x) one
        step under controls (B, n_u); returns (D', E', y', post_means)."""
        plant = self.plant
        D_next = plant.step(D, controls, 0.0, k)
        y_next = plant.observe(D_next, 0.0, k + 1)
        E_pred = enkf_predict_members(E, controls, self.w_draws[k], plant, k)
        E_next = enkf_update_members(E_pred, y_next, self.v_draws[k], plant, plant.spec.V, k + 1)
        return D_next, E_next, y_next, E_next.mean(axis=-2)

    def rollout(self, controls):
        """Single rollout; returns (means, traces, observations, states,
        ensembles) over k = 0..N, with states the noiseless plant states.
        means[0] and traces[0] are the exact prior's (the belief at k=0 is
        the given prior, not a sample estimate)."""
        plant, b0 = self.plant, self.b0
        N = controls.shape[0]
        means = np.empty((N + 1, plant.n_x))
        traces = np.empty(N + 1)
        obs = np.empty((N + 1, plant.n_y))
        states = np.empty((N + 1, plant.n_x))
        ensembles = np.empty((N + 1, self.M, plant.n_x))
        means[0] = states[0] = b0.mean
        traces[0] = np.trace(b0.cov)
        obs[0] = plant.observe(b0.mean, 0.0, 0)
        ensembles[0] = self.members0
        for k in range(N):
            D, E, y, post_mean = self._step_batch(
                states[k][None], ensembles[k][None], controls[k][None], k
            )
            states[k + 1], ensembles[k + 1], obs[k + 1], means[k + 1] = D[0], E[0], y[0], post_mean[0]
            traces[k + 1] = float(((E[0] - post_mean[0]) ** 2).sum() / (self.M - 1))
        return means, traces, obs, states, ensembles

    def beliefs(self, controls):
        ensembles = self.rollout(controls)[4]
        return [GaussianBelief(self.b0.mean, self.b0.cov)] + [belief_from_ensemble(E) for E in ensembles[1:]]

    def gradient(self, U, spec, h, tape):
        """Gradient (N, n_u) at U, whose rollout tape is given: reverse
        mode when the plant has an adjoint, finite differences if not."""
        if hasattr(self.plant, "step_vjp"):
            return self.gradient_adjoint(U, spec, tape)
        return self.gradient_fd(U, spec, h, tape)

    def gradient_adjoint(self, U, spec, tape):
        """Exact gradient (N, n_u) by one reverse pass over the tape.

        Carries the adjoints of the noiseless state and of the M members
        back from k = N: at each step it adds the cost's mean and trace
        terms, goes back through the EnKF update (whose innovation also
        reaches the noiseless state through y = h(x_det)) and then
        through the plant step of both.  The forecast ensemble the
        update saw is recomputed from the tape.
        """
        plant, M = self.plant, self.M
        means, _, obs, states, ensembles = tape
        N = U.shape[0]
        Q_mean = spec.Q_mean + spec.Q_mean.T
        Q_terminal = spec.Q_terminal + spec.Q_terminal.T
        grad = U @ (spec.R_u + spec.R_u.T)
        g_D = np.zeros(plant.n_x)
        g_E = np.zeros((M, plant.n_x))
        for k in range(N - 1, -1, -1):
            q = Q_terminal if k == N - 1 else Q_mean
            g_E += (means[k + 1] - spec.target) @ q / M
            if spec.q_trace:
                g_E += (2.0 * spec.q_trace / (M - 1)) * (ensembles[k + 1] - means[k + 1])
            E_pred = enkf_predict_members(ensembles[k], U[k], self.w_draws[k], plant, k)
            g_E, g_y = enkf_update_vjp(E_pred, obs[k + 1], self.v_draws[k], plant, plant.spec.V, g_E, k + 1)
            g_D, g_u = plant.step_vjp(states[k], U[k], g_D + plant.observe_vjp(g_y, k + 1), k)
            g_E, g_w = plant.step_vjp(ensembles[k], U[k] + self.w_draws[k], g_E, k)
            grad[k] += g_u + g_w.sum(axis=0)
        _check_finite_gradient(grad)
        return grad

    def gradient_fd(self, U, spec, h, tape):
        """Central-difference gradient (N, n_u).

        Each perturbed rollout is forked from the tape's states at its
        perturbation time; perturbation times are processed in chunks of
        _FD_CHUNK to bound memory.
        """
        plant = self.plant
        N, n_u = U.shape
        _, _, _, states, ensembles = tape
        grad = np.zeros((N, n_u))
        Qm = spec.Q_mean
        Qt = spec.Q_terminal
        tgt = spec.target
        for j0 in range(0, N, _FD_CHUNK):
            j1 = min(j0 + _FD_CHUNK, N)
            n_jobs = 2 * n_u * (j1 - j0)
            Db = np.empty((n_jobs, plant.n_x))
            Eb = np.empty((n_jobs, self.M, plant.n_x))
            # suffix state costs for every perturbed rollout
            suffix = np.zeros(n_jobs)
            active = 0
            for k in range(j0, N):
                if k < j1:
                    lo = 2 * n_u * (k - j0)
                    Db[lo : lo + 2 * n_u] = states[k]
                    Eb[lo : lo + 2 * n_u] = ensembles[k]
                    active = lo + 2 * n_u
                ub = np.broadcast_to(U[k], (active, n_u)).copy()
                if k < j1:
                    for m in range(n_u):
                        ub[lo + 2 * m, m] += h
                        ub[lo + 2 * m + 1, m] -= h
                try:
                    Db[:active], Eb[:active], _, post_mean = self._step_batch(
                        Db[:active], Eb[:active], ub, k
                    )
                except FloatingPointError as e:  # pragma: no cover - defensive
                    raise GradientEvaluationError(str(e)) from e
                dd = post_mean - tgt
                q = Qt if k == N - 1 else Qm
                suffix[:active] += np.einsum("bi,bi->b", dd @ q, dd)
                if spec.q_trace:
                    ctr = ((Eb[:active] - post_mean[:, None, :]) ** 2).sum(axis=(1, 2)) / (self.M - 1)
                    suffix[:active] += spec.q_trace * ctr
            _check_finite(suffix, n_u, j0)
            # assemble central differences; shared prefixes cancel exactly,
            # and the control term of a quadratic is exact under central FD
            for j in range(j0, j1):
                lo = 2 * n_u * (j - j0)
                plus = suffix[lo : lo + 2 * n_u : 2]
                minus = suffix[lo + 1 : lo + 2 * n_u : 2]
                grad[j] = (plus - minus) / (2.0 * h) + 2.0 * (spec.R_u @ U[j])
        return grad


class _KalmanEngine:
    """Exact-KF counterpart of _EnkfEngine for linear plants.

    The covariance recursion is control-independent, so gains and
    covariances are computed once; batched rollouts only carry means.
    """

    def __init__(self, plant, b0):
        if not hasattr(plant, "sequences"):
            raise ValueError("exact-KF rollouts need a linear plant exposing sequences(N)")
        self.plant = plant
        self.b0 = b0
        self.A, self.B, C = plant.sequences(plant.horizon)
        self.C1 = C[1:]
        self.gains, self.covs = kf_recursion(self.A, self.B, self.C1, plant.spec.W, plant.spec.V, b0.cov)
        self.traces = np.einsum("kii->k", self.covs)

    def _roll_means(self, U_batch):
        """Means (B, N+1, n_x) of the filtered belief for each control
        sequence, tracking each sequence's own nominal observations."""
        plant = self.plant
        B_, N, _ = U_batch.shape
        mu = np.broadcast_to(self.b0.mean, (B_, plant.n_x)).copy()
        xd = mu.copy()
        out = np.empty((B_, N + 1, plant.n_x))
        out[:, 0] = mu
        for k in range(N):
            A, Bm, C1 = self.A[k], self.B[k], self.C1[k]
            xd = xd @ A.T + U_batch[:, k] @ Bm.T
            y = xd @ C1.T
            mu = mu @ A.T + U_batch[:, k] @ Bm.T
            mu = mu + (y - mu @ C1.T) @ self.gains[k].T
            out[:, k + 1] = mu
        return out

    def rollout(self, controls):
        """Single rollout; returns (means, traces, observations)."""
        _, obs = self.plant.simulate_nominal(self.b0.mean, controls)
        return self._roll_means(controls[None])[0], self.traces.copy(), obs

    def beliefs(self, controls):
        return [GaussianBelief(m, c) for m, c in zip(self._roll_means(controls[None])[0], self.covs)]

    def gradient_fd(self, U, spec, h, tape=None):
        N, n_u = U.shape
        batch = np.repeat(U[None], 2 * N * n_u, axis=0)
        idx = 0
        for j in range(N):
            for m in range(n_u):
                batch[idx, j, m] += h
                batch[idx + 1, j, m] -= h
                idx += 2
        means = self._roll_means(batch)
        d = means - spec.target
        sc = np.einsum("bki,ij,bkj->bk", d[:, :-1], spec.Q_mean, d[:, :-1]).sum(axis=1)
        sc += np.einsum("bi,ij,bj->b", d[:, -1], spec.Q_terminal, d[:, -1])
        cc = np.einsum("bki,ij,bkj->bk", batch, spec.R_u, batch).sum(axis=1)
        tot = sc + cc
        if spec.q_trace:
            tot += spec.q_trace * self.traces.sum()
        _check_finite(tot, n_u)
        return ((tot[0::2] - tot[1::2]) / (2.0 * h)).reshape(N, n_u)

    gradient = gradient_fd


def _make_engine(plant, b0, M, seed, method):
    if method == "enkf":
        return _EnkfEngine(plant, b0, M, seed)
    if method == "kf":
        return _KalmanEngine(plant, b0)
    raise ValueError(f"unknown rollout method {method!r}")


def _as_controls(u_seq):
    return np.atleast_2d(np.asarray(u_seq, dtype=float))


def rollout_belief(u_seq, b0, plant, M=100, seed=0, method="enkf"):
    """Deterministic belief rollout under u_seq; returns N+1 beliefs.

    Nominal observations are generated by the noiseless plant rollout
    from the prior mean, and the filter tracks those observations.  The
    fixed seed makes the whole map u_seq -> beliefs a pure function.
    """
    return _make_engine(plant, b0, M, seed, method).beliefs(_as_controls(u_seq))


def gradient_fd(u_seq, b0, plant, spec, h=1e-4, seed=0, M=100, method="enkf"):
    """Central-difference gradient of the rollout cost, (N, n_u).

    The same seed drives the +h and -h rollouts (common random
    numbers), so EnKF sampling noise cancels to first order.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    engine = _make_engine(plant, b0, M, seed, method)
    U = _as_controls(u_seq)
    return engine.gradient_fd(U, spec, h, engine.rollout(U))


def gradient_adjoint(u_seq, b0, plant, spec, seed=0, M=100):
    """Exact gradient of the EnKF rollout cost, (N, n_u), by reverse
    mode; the plant must have `step_vjp` and `observe_vjp`."""
    if not hasattr(plant, "step_vjp"):
        raise ValueError("the adjoint gradient needs a plant with step_vjp and observe_vjp")
    engine = _EnkfEngine(plant, b0, M, seed)
    U = _as_controls(u_seq)
    return engine.gradient_adjoint(U, spec, engine.rollout(U))


@dataclass
class OptimizeOptions:
    alpha: float = 1e-2
    max_iters: int = 200
    tol: float = 1e-4
    M: int = 100
    seed: int = 0
    # finite-difference step, used only for plants without an adjoint
    # and by the exact-KF engine
    h: float = 1e-4
    method: str = "enkf"


_MAX_HALVINGS = 30


def optimize(u_init, b0, plant, spec, opts=None):
    """Gradient descent with backtracking on the rollout cost.

    The step size alpha / (1 + max|grad|) is restored at every iteration
    and halved, at most 30 times, within an iteration until the cost
    decreases.  Stops when the cost improvement falls below
    tol*(1+|J|), when the gradient norm falls below tol, or at max_iters
    (returning the best iterate seen, converged=False).
    """
    opts = opts or OptimizeOptions()
    U = _as_controls(u_init).copy()
    engine = _make_engine(plant, b0, opts.M, opts.seed, opts.method)
    tape = engine.rollout(U)
    J = _cost_from_arrays(*tape[:2], U, spec)
    history = [J]
    iterations = 0
    converged = False
    for it in range(opts.max_iters):
        grad = engine.gradient(U, spec, opts.h, tape)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= opts.tol:
            converged = True
            break
        alpha = opts.alpha / (1.0 + np.abs(grad).max())
        accepted = False
        for _ in range(_MAX_HALVINGS):
            U_try = U - alpha * grad
            tape_try = engine.rollout(U_try)
            J_try = _cost_from_arrays(*tape_try[:2], U_try, spec)
            if J_try < J:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            # stuck at the sampling-noise floor; keep the best iterate
            break
        delta = J - J_try
        U, J, tape = U_try, J_try, tape_try
        history.append(J)
        iterations = it + 1
        if delta <= opts.tol * (1.0 + abs(J)):
            converged = True
            break
    means, traces, obs = tape[:3]
    return NominalTrajectory(
        controls=U,
        means=means,
        prior_cov=b0.cov,
        cov_traces=traces,
        observations=obs,
        nominal_cost=J,
        iterations=iterations,
        converged=converged,
        cost_history=history,
    )
