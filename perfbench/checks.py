"""Independent checks of the artifacts one `seplqg pipeline` run leaves.

Each check recomputes what an artifact should hold from the model
equations and the generated config, with code written apart from the
program: the heat slab's explicit-Euler step and its analytic Jacobian,
the spatial cost weights, a stochastic EnKF, the held-out Markov error,
the LQR and Kalman Riccati recursions and the closed-loop replay of
Monte Carlo run 0.  The only program code called is
`collect_impulse_responses`, whose output is the subject of the
`sysid.markov` check.  The seeded noise streams follow the program's
documented key protocol: Philox keyed by (seed, *tags), string tags
hashed with 64-bit FNV-1a.

`run_checks` returns {name: (ok, measured, limit)}.  The limits sit
far above the differences measured on working code (README), so a
check fails on a real fault, not on roundoff.
"""

import json
from pathlib import Path

import numpy as np

# relative differences allowed; see README for what each measures today
LIMITS = {
    "plant.observations": 1e-10,
    "trajopt.cost": 1e-12,
    "belief.means": 1e-8,
    "sysid.markov": 1e-4,
    "sysid.holdout": 1e-9,
    "lqg.gains": 1e-8,
    "harness.run0": 1e-8,
}


def _fnv1a(tag):
    if isinstance(tag, str):
        h = 0xCBF29CE484222325
        for b in tag.encode():
            h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        return h
    return int(tag) & 0xFFFFFFFFFFFFFFFF


def noise(seed, *tags):
    """The generator the program draws from for the key (seed, *tags)."""
    words = [_fnv1a(t) for t in (seed, *tags)]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(words)))


def _rel(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return float("inf")
    scale = np.linalg.norm(b)
    return float(np.linalg.norm(a - b) / (scale if scale > 0 else 1.0))


def nodes(fractions, n):
    return [int(round(f * (n - 1))) for f in fractions]


class HeatSlab:
    """dT/dt = k0 (1 + k1 T) T_xx - eta T + sum_m (u_m + w_m) delta(x - x_m)
    on [0, L]: insulated left end (ghost node), T(L) held fixed, one
    explicit-Euler step per dt on a uniform grid."""

    def __init__(self, plant):
        self.n = plant["n_grid"]
        self.dt = plant["dt"]
        self.eta = plant["eta"]
        self.k1 = plant["k1"]
        self.c = plant["k0"] / (plant["L"] / (self.n - 1)) ** 2
        self.act = nodes(plant["actuators"], self.n)
        self.sen = nodes(plant["sensors"], self.n)
        self.x0 = np.full(self.n, float(plant["t_init"]))
        self.x0[-1] = plant["t_right"]
        lap = np.zeros((self.n, self.n))
        lap[0, :2] = (-2.0, 2.0)
        for i in range(1, self.n - 1):
            lap[i, i - 1 : i + 2] = (1.0, -2.0, 1.0)
        self.lap = lap
        self.B = np.zeros((self.n, len(self.act)))
        self.B[self.act, range(len(self.act))] = self.dt

    def step(self, T, u, w=0.0):
        lap = T @ self.lap.T
        out = T + self.dt * (self.c * (1.0 + self.k1 * T) * lap - self.eta * T)
        out[..., self.act] += self.dt * (np.asarray(u) + w)
        out[..., -1] = T[..., -1]
        return out

    def jacobian(self, T):
        """d step / d T at state T."""
        J = self.dt * self.c * (self.k1 * (self.lap @ T)[:, None] * np.eye(self.n)
                                + (1.0 + self.k1 * T)[:, None] * self.lap)
        J += (1.0 - self.dt * self.eta) * np.eye(self.n)
        J[-1] = 0.0
        J[-1, -1] = 1.0
        return J

    def rollout(self, U):
        X = np.empty((len(U) + 1, self.n))
        X[0] = self.x0
        for k, u in enumerate(U):
            X[k + 1] = self.step(X[k], u)
        return X


def spatial_weights(plant, gain, reach):
    """1 + gain (d/reach)^2, d the grid distance to the nearest actuator
    or to the fixed right end, whose own weight is 0."""
    n = plant["n_grid"]
    sources = nodes(plant["actuators"], n) + [n - 1]
    d = np.array([min(abs(i - s) for s in sources) for i in range(n)], dtype=float)
    w = 1.0 + gain * (d / reach) ** 2
    w[-1] = 0.0
    return w


def belief_cost(means, U, cfg):
    c = cfg["cost"]
    w = spatial_weights(cfg["plant"], c["spatial_gain"], c["spatial_reach"])
    d = means - c["target"]
    return float(((d**2) @ w).sum() + c["r_u"] * (U**2).sum())


def enkf_means(slab, cfg, U, seed):
    """Means of the seeded perturbed-observation EnKF that tracks the
    noiseless observations under controls U."""
    M = cfg["optimize"]["M"]
    N, n_u = U.shape
    n_y = len(slab.sen)
    ws = np.sqrt(cfg["plant"]["w_scale"])
    vs = np.sqrt(cfg["plant"]["v_scale"])
    E = slab.x0 + cfg["prior"]["std"] * noise(seed, "enkf-init").standard_normal((M, slab.n))
    W = ws * noise(seed, "enkf-w").standard_normal((N, M, n_u))
    V = vs * noise(seed, "enkf-v").standard_normal((N, M, n_y))
    x = slab.x0
    means = np.empty((N + 1, slab.n))
    means[0] = slab.x0
    for k in range(N):
        x = slab.step(x, U[k])
        E = slab.step(E, U[k], W[k])
        Y = E[:, slab.sen]
        Xc = E - E.mean(axis=0)
        Yc = Y - Y.mean(axis=0)
        Pxy = Xc.T @ Yc / (M - 1)
        Pyy = Yc.T @ Yc / (M - 1) + vs**2 * np.eye(n_y)
        gain = np.linalg.solve(Pyy, Pxy.T).T
        E = E + (x[slab.sen] + V[k] - Y) @ gain.T
        means[k + 1] = E.mean(axis=0)
    return means


def analytic_markov(slab, X):
    """C Phi(k, j+1) B for j < k along the state trajectory X, shaped
    like MarkovParams.data: (N+1, N, n_y, n_u)."""
    N = len(X) - 1
    n_u, n_y = slab.B.shape[1], len(slab.sen)
    out = np.zeros((N + 1, N, n_y, n_u))
    P = np.zeros((slab.n, N * n_u))  # column block j: Phi(k, j+1) B
    for k in range(1, N + 1):
        P[:, (k - 1) * n_u : k * n_u] = slab.B
        live = P[:, : k * n_u]
        out[k, :k] = (live[slab.sen].reshape(n_y, k, n_u)).transpose(1, 0, 2)
        if k < N:
            P[:, : k * n_u] = slab.jacobian(X[k]) @ live
    return out


def holdout_error(rom, markov, sid, N):
    """Relative Frobenius error of the ROM's Markov parameters at the
    lags (p+q-1, p+q-1+extra] that the Hankel blocks never see, over
    the ROM's valid time range."""
    A, B, C = (np.asarray(rom[key]) for key in ("A_hat", "B_hat", "C_hat"))
    k_lo, k_hi = rom["time_range"]
    lag = sid["p"] + sid["q"] - 1
    err2 = ref2 = 0.0
    for k in range(k_lo, min(k_hi + 1, N) + 1):
        for j in range(max(max(0, k_lo - 1), k - lag - sid["holdout_extra"]), k - lag):
            G = B[j]
            for i in range(j + 1, k):
                G = A[i] @ G
            err2 += float(((C[k] @ G - markov[k, j]) ** 2).sum())
            ref2 += float((markov[k, j] ** 2).sum())
    return float(np.sqrt(err2 / ref2))


def lqg_gains(rom, lq, W, V):
    """Backward LQR gains L (N, n_u, n_r) for the output-weighted cost
    and forward Kalman gains K (N+1, n_r, n_y) from the prior p0 I."""
    A, B, C = (np.asarray(rom[key]) for key in ("A_hat", "B_hat", "C_hat"))
    N, n_r, n_u = B.shape
    eye = np.eye(n_r)
    S = lq["terminal_scale"] * (lq["q_y"] * C[N].T @ C[N] + lq["ridge"] * eye)
    R = lq["r"] * np.eye(n_u)
    L = np.empty((N, n_u, n_r))
    for k in range(N - 1, -1, -1):
        L[k] = np.linalg.solve(R + B[k].T @ S @ B[k], B[k].T @ S @ A[k])
        S = lq["q_y"] * C[k].T @ C[k] + lq["ridge"] * eye + A[k].T @ S @ (A[k] - B[k] @ L[k])
        S = 0.5 * (S + S.T)
    K = np.empty((N + 1, n_r, C.shape[1]))
    P = lq["p0"] * eye
    for k in range(N + 1):
        if k:
            P = A[k - 1] @ P @ A[k - 1].T + B[k - 1] @ W @ B[k - 1].T
        K[k] = np.linalg.solve(C[k] @ P @ C[k].T + V, C[k] @ P).T
        P = (eye - K[k] @ C[k]) @ P
        P = 0.5 * (P + P.T)
    return L, K


def replay_run0(slab, nominal, ctrl, probes, seed, cfg):
    """Probe errors of Monte Carlo run 0, closed and open loop, from the
    run's own noise draws and the stored gains."""
    U = np.asarray(nominal["controls"])
    obs = np.asarray(nominal["observations"])
    means = np.asarray(nominal["means"])
    N, n_u = U.shape
    n_y = len(slab.sen)
    w = np.sqrt(cfg["plant"]["w_scale"]) * noise(seed, 0, "w").standard_normal((N, n_u))
    v = np.sqrt(cfg["plant"]["v_scale"]) * noise(seed, 0, "v").standard_normal((N + 1, n_y))
    rom = ctrl["rom"]
    A, B, C = (np.asarray(rom[key]) for key in ("A_hat", "B_hat", "C_hat"))
    L, K = np.asarray(ctrl["L_gains"]), np.asarray(ctrl["K_gains"])
    x_cl = x_ol = slab.x0
    a = np.zeros(A.shape[1])
    err = np.zeros((2, N + 1, len(probes)))
    for k in range(N):
        a = a + K[k] @ (x_cl[slab.sen] + v[k] - obs[k] - C[k] @ a)
        du = -L[k] @ a
        a = A[k] @ a + B[k] @ du
        x_cl = slab.step(x_cl, U[k] + du, w[k])
        x_ol = slab.step(x_ol, U[k], w[k])
        err[0, k + 1] = x_cl[probes] - means[k + 1, probes]
        err[1, k + 1] = x_ol[probes] - means[k + 1, probes]
    return err


ARTIFACTS = ("nominal", "rom", "controller", "report", "rom_validation")


def load_artifacts(out):
    """The JSON artifacts of one pipeline run in directory `out`."""
    return {name: json.loads((Path(out) / f"{name}.json").read_text()) for name in ARTIFACTS}


def run_checks(cfg, art, seed, markov=None):
    """Check the artifacts `art` (see `load_artifacts`) of one pipeline
    run of `cfg` under `seed`.  `markov` is the (N+1, N, n_y, n_u)
    impulse-response array to check; by default the program's
    `collect_impulse_responses` is run on the stored nominal."""
    nominal, rom, ctrl, report, validation = (art[name] for name in ARTIFACTS)
    slab = HeatSlab(cfg["plant"])
    U = np.asarray(nominal["controls"])
    N = len(U)
    res = {}

    def record(name, measured, ok=None):
        limit = LIMITS.get(name)
        if ok is None:
            ok = bool(measured <= limit)
        res[name] = (bool(ok), float(measured), limit)

    X = slab.rollout(U)
    record("plant.observations", _rel(X[:, slab.sen], nominal["observations"]))

    means = np.asarray(nominal["means"])
    cost = nominal["nominal_cost"]
    record("trajopt.cost", abs(belief_cost(means, U, cfg) - cost) / abs(cost))
    record("belief.means", _rel(enkf_means(slab, cfg, U, seed), means))
    iters = cfg["optimize"]["max_iters"]
    record("trajopt.iterations", nominal["iterations"], nominal["iterations"] == iters)
    if iters:
        zero = np.zeros_like(U)
        j0 = belief_cost(enkf_means(slab, cfg, zero, seed), zero, cfg)
        record("trajopt.descent", cost / j0, cost < j0)

    if markov is None:
        markov = _program_markov(cfg, nominal)
    record("sysid.markov", _rel(markov, analytic_markov(slab, X)))
    sid = {k: validation[k] for k in ("p", "q", "holdout_extra")}
    err = holdout_error(rom, markov, sid, N)
    record("sysid.holdout", abs(err - validation["holdout_error"]) / err)

    W = cfg["plant"]["w_scale"] * np.eye(U.shape[1])
    V = cfg["plant"]["v_scale"] * np.eye(len(slab.sen))
    L, K = lqg_gains(rom, cfg["lqg"], W, V)
    same_rom = all(np.array_equal(rom[key], ctrl["rom"][key]) for key in ("A_hat", "B_hat", "C_hat"))
    gains = max(_rel(ctrl["L_gains"], L), _rel(ctrl["K_gains"], K))
    record("lqg.gains", gains, same_rom and gains <= LIMITS["lqg.gains"])

    probes = nodes(cfg["evaluate"]["probes"], slab.n)
    err0 = replay_run0(slab, nominal, ctrl, probes, seed, cfg)
    record("harness.run0", max(_rel(report["run0_closed_err"], err0[0]),
                               _rel(report["run0_open_err"], err0[1])))
    ratio = np.asarray(report["mse_closed"]) / np.asarray(report["mse_open"])
    record("harness.closed_beats_open", ratio.max(), bool(np.all(ratio < 1.0)))
    record("harness.runs", report["n_runs"], report["n_runs"] == cfg["evaluate"]["runs"])
    return res


def _program_markov(cfg, nominal):
    from seplqg.config import ExperimentConfig
    from seplqg.sysid import collect_impulse_responses

    plant = ExperimentConfig(cfg).plant()

    class Stored:  # the two fields collect_impulse_responses reads
        controls = np.asarray(nominal["controls"])
        means = np.asarray(nominal["means"])

    return collect_impulse_responses(plant, Stored, cfg["sysid"]["epsilon"]).data
