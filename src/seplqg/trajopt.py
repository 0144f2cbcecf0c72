"""Open-loop trajectory optimization in belief space.

Minimizes a quadratic belief-space cost over the control sequence by
plain gradient descent with backtracking,

    U <- U - alpha * grad J(U),

where J(U) is evaluated through a deterministic belief rollout: the
nominal observations come from the noiseless plant rollout under U, and
the belief is filtered against those observations with an EnKF.  With
a fixed seed the map U -> J(U) is deterministic: noise draws are
pre-generated per step and shared by every rollout (common random
numbers).

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
oracle the adjoint is tested against.

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


def _vector(name, value, n):
    """`value`, a scalar or n entries, as a float vector of n entries; a
    ValueError names `name` if it has another length or is not finite."""
    v = np.asarray(value, dtype=float)
    if v.ndim == 0:
        v = np.full(n, float(v))
    if v.shape != (n,):
        raise ValueError(f"{name} must have length {n}, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} must be finite")
    return v


@dataclass(frozen=True)
class CostSpec:
    """Quadratic belief-space cost with diagonal weights, held as the
    vectors of their diagonals: q_mean and q_terminal (n_x,), r_u (n_u,).

    Stage k:  sum_i q_mean_i (mu_k,i - target_i)^2 + sum_m r_u,m u_k,m^2
    Terminal: sum_i q_terminal_i (mu_N,i - target_i)^2

    This class is the one place the cost is evaluated.  `state_cost`,
    `control_cost` and `gradient` work row by row over the last axis,
    with elementwise products and a row-wise sum, so a row of an (R, n)
    batch gets the same bits as that row alone: the Monte Carlo scores
    a chunk of runs in one batch and stays chunk-exact.  The weights
    and the target must be finite, the weights >= 0 and r_u > 0; a
    ValueError names the field that is not.
    """

    q_mean: np.ndarray
    r_u: np.ndarray
    q_terminal: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        n_x, n_u = len(np.atleast_1d(self.q_mean)), len(np.atleast_1d(self.r_u))
        for name, n in (("q_mean", n_x), ("q_terminal", n_x), ("target", n_x), ("r_u", n_u)):
            object.__setattr__(self, name, _vector(name, getattr(self, name), n))
        for name in ("q_mean", "q_terminal"):
            if getattr(self, name).min() < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.r_u.min() <= 0:
            raise ValueError("r_u must be > 0")

    @classmethod
    def from_weights(cls, n_x, n_u, q_mean=1.0, r_u=1.0, q_terminal=1.0, target=0.0):
        """Build the weights from scalars or per-entry vectors."""
        return cls(
            q_mean=_vector("q_mean", q_mean, n_x),
            r_u=_vector("r_u", r_u, n_u),
            q_terminal=_vector("q_terminal", q_terminal, n_x),
            target=_vector("target", target, n_x),
        )

    def state_cost(self, mu, terminal=False):
        """(mu - target)' diag(q) (mu - target) of each row of mu, q
        being q_terminal if `terminal` and q_mean if not."""
        d = mu - self.target
        return (d * d * (self.q_terminal if terminal else self.q_mean)).sum(-1)

    def control_cost(self, u):
        """u' diag(r_u) u of each row of u."""
        return (u * u * self.r_u).sum(-1)

    def gradient(self, means, controls):
        """The stage costs' gradients along a trajectory: (C_mu (N+1,
        n_x), C_u (N, n_u)), C_mu[k] = 2 q o (mu_k - target) with q =
        q_terminal on the last row of `means` and q_mean before, and
        C_u[k] = 2 r_u o u_k."""
        d = means - self.target
        C_mu = 2.0 * d * self.q_mean
        C_mu[-1] = 2.0 * d[-1] * self.q_terminal
        return C_mu, 2.0 * controls * self.r_u

    def total(self, means, controls):
        """Cost of a whole trajectory: means (N+1, n_x) and controls (N,
        n_u).  A row of another width is rejected, where the row-wise sums
        would broadcast a width of 1."""
        if means.shape[1:] != self.q_mean.shape or controls.shape[1:] != self.r_u.shape:
            raise ValueError(f"the cost needs rows of n_x = {self.q_mean.size} means and n_u = "
                             f"{self.r_u.size} controls, got {means.shape} and {controls.shape}")
        total = self.state_cost(means[:-1]).sum() + self.control_cost(controls).sum()
        total += self.state_cost(means[-1], terminal=True)
        return float(total)


@dataclass
class NominalTrajectory:
    """Optimized nominal: controls (N, n_u), belief means and noiseless
    observations over k = 0..N, the prior covariance (n_x, n_x), the
    nominal cost, and optimizer bookkeeping.  Later stages read no other
    covariance, so the per-step belief covariances are not kept.
    nominal.json stores every field but cost_history, the
    accepted-iterate costs, which are an in-memory diagnostic.  Keys of
    the file besides the stored fields, such as those an older
    nominal.json holds, are ignored."""

    controls: np.ndarray
    means: np.ndarray
    prior_cov: np.ndarray
    observations: np.ndarray
    nominal_cost: float
    iterations: int
    converged: bool
    cost_history: list = memory_only(list)

    def __post_init__(self):
        self.controls = np.atleast_2d(np.asarray(self.controls, dtype=float))
        self.means = np.atleast_2d(np.asarray(self.means, dtype=float))
        self.prior_cov = np.asarray(self.prior_cov, dtype=float)
        self.observations = np.atleast_2d(np.asarray(self.observations, dtype=float))
        n = self.controls.shape[0]
        if self.prior_cov.shape != (self.means.shape[1],) * 2:
            raise ValueError(f"prior_cov must be n_x x n_x, got {self.prior_cov.shape}")
        for name, arr in (("means", self.means), ("observations", self.observations)):
            if arr.shape[0] != n + 1:
                raise ValueError(f"{name} must have length N+1 = {n + 1}, got {arr.shape[0]}")
        if not np.isfinite(self.nominal_cost):
            raise ValueError("nominal_cost must be finite")

    @property
    def horizon(self):
        return self.controls.shape[0]

    to_json = save
    from_json = classmethod(load)


def nominal_cost(beliefs, controls, spec):
    """Cost of a belief trajectory under a control sequence."""
    controls = np.atleast_2d(np.asarray(controls, dtype=float))
    if len(beliefs) != controls.shape[0] + 1:
        raise ValueError(f"need N+1 = {controls.shape[0] + 1} beliefs, got {len(beliefs)}")
    return spec.total(np.stack([b.mean for b in beliefs]), controls)


# ---------------------------------------------------------------------------
# Rollout engine
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
        """Single rollout; returns (means, observations, states,
        ensembles) over k = 0..N, with states the noiseless plant states.
        means[0] is the exact prior's (the belief at k=0 is the given
        prior, not a sample estimate)."""
        plant, b0 = self.plant, self.b0
        N = controls.shape[0]
        means = np.empty((N + 1, plant.n_x))
        obs = np.empty((N + 1, plant.n_y))
        states = np.empty((N + 1, plant.n_x))
        ensembles = np.empty((N + 1, self.M, plant.n_x))
        means[0] = states[0] = b0.mean
        obs[0] = plant.observe(b0.mean, 0.0, 0)
        ensembles[0] = self.members0
        for k in range(N):
            D, E, y, post_mean = self._step_batch(
                states[k][None], ensembles[k][None], controls[k][None], k
            )
            states[k + 1], ensembles[k + 1], obs[k + 1], means[k + 1] = D[0], E[0], y[0], post_mean[0]
        return means, obs, states, ensembles

    def beliefs(self, controls):
        ensembles = self.rollout(controls)[3]
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
        back from k = N: at each step it adds the cost's mean term, goes
        back through the EnKF update (whose innovation also reaches the
        noiseless state through y = h(x_det)) and then through the plant
        step of both.  The forecast ensemble the
        update saw is recomputed from the tape.
        """
        plant, M = self.plant, self.M
        means, obs, states, ensembles = tape
        N = U.shape[0]
        C_mu, grad = spec.gradient(means, U)
        g_D = np.zeros(plant.n_x)
        g_E = np.zeros((M, plant.n_x))
        for k in range(N - 1, -1, -1):
            g_E += C_mu[k + 1] / M
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
        means, _, states, ensembles = tape
        # the control term of a quadratic is exact under central FD
        grad = spec.gradient(means, U)[1]
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
                suffix[:active] += spec.state_cost(post_mean, terminal=k == N - 1)
            _check_finite(suffix, n_u, j0)
            # assemble central differences; shared prefixes cancel exactly
            for j in range(j0, j1):
                lo = 2 * n_u * (j - j0)
                plus = suffix[lo : lo + 2 * n_u : 2]
                minus = suffix[lo + 1 : lo + 2 * n_u : 2]
                grad[j] += (plus - minus) / (2.0 * h)
        return grad


def _as_controls(u_seq):
    return np.atleast_2d(np.asarray(u_seq, dtype=float))


def rollout_belief(u_seq, b0, plant, M=100, seed=0):
    """Deterministic belief rollout under u_seq; returns N+1 beliefs.

    Nominal observations are generated by the noiseless plant rollout
    from the prior mean, and the filter tracks those observations.  The
    fixed seed makes the whole map u_seq -> beliefs a pure function.
    """
    return _EnkfEngine(plant, b0, M, seed).beliefs(_as_controls(u_seq))


def gradient_fd(u_seq, b0, plant, spec, h=1e-4, seed=0, M=100):
    """Central-difference gradient of the rollout cost, (N, n_u).

    The same seed drives the +h and -h rollouts (common random
    numbers), so EnKF sampling noise cancels to first order.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    engine = _EnkfEngine(plant, b0, M, seed)
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
    h: float = 1e-4


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
    engine = _EnkfEngine(plant, b0, opts.M, opts.seed)
    tape = engine.rollout(U)
    J = spec.total(tape[0], U)
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
            J_try = spec.total(tape_try[0], U_try)
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
    return NominalTrajectory(
        controls=U,
        means=tape[0],
        prior_cov=b0.cov,
        observations=tape[1],
        nominal_cost=J,
        iterations=iterations,
        converged=converged,
        cost_history=history,
    )
