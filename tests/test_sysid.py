import tracemalloc

import numpy as np
import pytest
from per_k_reference import era_reference

from seplqg import sysid
from seplqg.exceptions import PerturbationDivergedError
from seplqg.plant import HeatPlant, HeatPlantConfig, LinearPlant
from seplqg.rng import stream
from seplqg.sysid import (
    MarkovParams,
    collect_impulse_responses,
    tv_era,
    validate_rom,
)
from seplqg.trajopt import NominalTrajectory


def zero_nominal(plant, x0=None):
    N = plant.horizon
    x0 = plant.initial_state() if x0 is None and hasattr(plant, "initial_state") else x0
    states, obs = plant.simulate_nominal(x0, np.zeros((N, plant.n_u)))
    return NominalTrajectory(
        controls=np.zeros((N, plant.n_u)),
        means=states,
        prior_cov=np.zeros((plant.n_x, plant.n_x)),
        observations=obs,
        nominal_cost=0.0,
        iterations=0,
        converged=True,
    )


def order3_lti(N=40, seed=0):
    rng = stream(seed, "lti3")
    A = np.array([[0.85, 0.2, 0.0], [0.0, 0.7, 0.1], [0.05, 0.0, 0.9]])
    B = rng.standard_normal((3, 2))
    C = rng.standard_normal((2, 3))
    return LinearPlant(A, B, C, horizon=N), A, B, C


def exact_markov_lti(A, B, C, N):
    data = np.zeros((N + 1, N, C.shape[0], B.shape[1]))
    for j in range(N):
        M = B.copy()
        for k in range(j + 1, N + 1):
            data[k, j] = C @ M
            M = A @ M
    return MarkovParams(data)


def rom_markov(rom, k, j):
    """The ROM's Markov parameter C_hat_k A_hat_{k-1} ... A_hat_{j+1} B_hat_j."""
    M = rom.B_hat[j]
    for i in range(j + 1, k):
        M = rom.A_hat[i] @ M
    return rom.C_hat[k] @ M


# ---------------------------------------------------------------------------
# collect_impulse_responses
# ---------------------------------------------------------------------------


def test_impulses_match_matrix_powers_on_lti():
    plant, A, B, C = order3_lti()
    nominal = zero_nominal(plant, x0=np.zeros(3))
    mk = collect_impulse_responses(plant, nominal, epsilon=1e-3)
    exact = exact_markov_lti(A, B, C, 40)
    assert np.abs(mk.data - exact.data).max() < 1e-8


def test_impulses_zero_at_equal_times():
    plant, A, B, C = order3_lti()
    nominal = zero_nominal(plant, x0=np.zeros(3))
    mk = collect_impulse_responses(plant, nominal, epsilon=1e-3)
    for k in range(5):
        assert np.array_equal(mk.data[k, k], np.zeros((2, 2)))


def test_impulses_on_time_varying_linear_plant():
    # exact LTV oracle: params[k][j] = C_k Phi(k, j+1) B_j
    rng = stream(3, "ltv")
    N = 25
    A = np.stack([np.diag([0.9, 0.8]) + 0.05 * rng.standard_normal((2, 2)) for _ in range(N)])
    B = np.stack([rng.standard_normal((2, 1)) for _ in range(N)])
    C = np.stack([rng.standard_normal((1, 2)) for _ in range(N + 1)])
    plant = LinearPlant(A, B, C, horizon=N)
    nominal = zero_nominal(plant, x0=np.zeros(2))
    mk = collect_impulse_responses(plant, nominal, epsilon=1e-4)
    for j in range(0, N, 5):
        Phi = np.eye(2)
        for k in range(j + 1, N + 1):
            expected = C[k] @ Phi @ B[j]
            assert np.abs(mk.data[k, j] - expected).max() < 1e-8
            if k < N:
                Phi = A[k] @ Phi


def test_impulses_two_epsilon_consistency_on_heat():
    cfg = HeatPlantConfig(n_grid=40, horizon=60)
    plant = HeatPlant(cfg)
    nominal = zero_nominal(plant)
    m1 = collect_impulse_responses(plant, nominal, epsilon=1e-2)
    m2 = collect_impulse_responses(plant, nominal, epsilon=1e-3)
    rel = np.linalg.norm(m1.data - m2.data) / np.linalg.norm(m2.data)
    assert rel < 0.01


def test_impulses_reject_bad_epsilon():
    plant, *_ = order3_lti()
    nominal = zero_nominal(plant, x0=np.zeros(3))
    with pytest.raises(ValueError):
        collect_impulse_responses(plant, nominal, epsilon=0.0)


def test_impulse_divergence_advises_smaller_epsilon():
    A = np.array([[2.5]])  # violently unstable
    plant = LinearPlant(A, np.array([[1.0]]), np.array([[1.0]]), horizon=500)
    nominal = NominalTrajectory(
        controls=np.zeros((500, 1)),
        means=np.zeros((501, 1)),
        prior_cov=np.zeros((1, 1)),
        observations=np.zeros((501, 1)),
        nominal_cost=0.0,
        iterations=0,
        converged=True,
    )
    with pytest.raises(PerturbationDivergedError, match="epsilon"):
        collect_impulse_responses(plant, nominal, epsilon=1e300)


class RowCountingHeatPlant(HeatPlant):
    """Counts the rows of the batched steps: the impulse rollouts (the
    nominal rollout steps one 1-D state at a time)."""

    impulse_rows = 0

    def step(self, state, control, process_noise, k=0):
        if np.ndim(state) == 2:
            self.impulse_rows += len(state)
        return super().step(state, control, process_noise, k)


@pytest.mark.parametrize("L", [1, 7, 60])
def test_lag_limited_campaign_steps_only_the_band(L):
    N = 40
    plant = RowCountingHeatPlant(HeatPlantConfig(n_grid=20, horizon=N))
    nominal = zero_nominal(plant)
    full = collect_impulse_responses(plant, nominal)
    plant.impulse_rows = 0
    mk = collect_impulse_responses(plant, nominal, max_lag=L)
    assert plant.impulse_rows == sum(min(k + 1, L) * plant.n_u for k in range(N))
    assert mk.max_lag == L and full.max_lag is None
    lag = np.arange(N + 1)[:, None] - np.arange(N)[None, :]
    band = (lag >= 1) & (lag <= L)
    assert np.array_equal(mk.data[band], full.data[band])
    assert not np.any(mk.data[~band])
    assert np.any(mk.data[band])


def test_lag_past_max_lag_cannot_be_read():
    plant = HeatPlant(HeatPlantConfig(n_grid=20, horizon=40))
    mk = collect_impulse_responses(plant, zero_nominal(plant), max_lag=8)
    mk.check_lag(8)
    with pytest.raises(IndexError, match="max_lag 8"):
        mk.check_lag(9)
    # the shifted Hankel blocks read lags up to p + q = 9
    with pytest.raises(IndexError, match="max_lag 8"):
        tv_era(mk, n_r=4, p=4, q=5)
    with pytest.raises(ValueError, match="max_lag"):
        collect_impulse_responses(plant, zero_nominal(plant), max_lag=0)


def test_lag_limited_campaign_gives_the_same_rom():
    plant = HeatPlant(HeatPlantConfig(n_grid=30, horizon=60))
    nominal = zero_nominal(plant)
    full = collect_impulse_responses(plant, nominal)
    mk = collect_impulse_responses(plant, nominal, max_lag=6 + 6 - 1 + 4)
    rom_full, rom = tv_era(full, n_r=6, p=6, q=6), tv_era(mk, n_r=6, p=6, q=6)
    for name in ("A_hat", "B_hat", "C_hat"):
        assert np.array_equal(getattr(rom, name), getattr(rom_full, name))
    assert validate_rom(rom, mk, 11, 4) == validate_rom(rom_full, full, 11, 4)


# ---------------------------------------------------------------------------
# tv_era
# ---------------------------------------------------------------------------


def test_era_keeps_only_the_factors_it_reads():
    # p n_y = 40 rows per Hankel matrix against n_r = 4 kept columns: the
    # full SVD factors of every k would take about 2.7 MB
    rng = stream(5, "era-memory")
    mk = MarkovParams(rng.standard_normal((121, 120, 5, 5)))
    tracemalloc.start()
    try:
        tv_era(mk, n_r=4, p=8, q=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def slab_markov(N=60, lag=12):
    """Impulse responses of the 20-node slab about its unforced rollout."""
    plant = HeatPlant(HeatPlantConfig(n_grid=20, horizon=N))
    return collect_impulse_responses(plant, zero_nominal(plant), max_lag=lag)


def full_svds(monkeypatch):
    """Count the full SVDs of one Hankel matrix, the fallback of the
    subspace iteration."""
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        if np.ndim(a) == 2:
            calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def negating_svd(seed):
    """np.linalg.svd with each singular triple of each matrix negated at
    random: a routine that chose the other signs."""
    svd = np.linalg.svd
    rng = stream(seed, "svd-signs")

    def negated(a, *args, **kwargs):
        U, s, Vt = svd(a, *args, **kwargs)
        sign = rng.choice([-1.0, 1.0], size=s.shape)
        assert (sign < 0).any()
        return U * sign[..., None, :], s, Vt * sign[..., :, None]

    return negated


def assert_rom_close(rom, ref, rel):
    for name in ("A_hat", "B_hat", "C_hat"):
        a, b = getattr(rom, name), getattr(ref, name)
        assert np.abs(a - b).max() <= rel * np.abs(b).max(), name
    assert rom.time_range == ref.time_range and rom.gap_warning == ref.gap_warning
    assert sorted(rom.singular_values) == sorted(ref.singular_values)
    for k, s in ref.singular_values.items():
        assert np.abs(rom.singular_values[k] - s).max() <= rel * s[0]


def rom_bytes(rom):
    return [getattr(rom, name).tobytes() for name in ("A_hat", "B_hat", "C_hat")]


@pytest.mark.parametrize("case", ["slab", "order3"])
def test_era_matches_the_full_svd_loop(monkeypatch, case):
    if case == "slab":
        mk, n_r, p = slab_markov(), 6, 6
    else:
        plant, A, B, C = order3_lti()
        mk, n_r, p = exact_markov_lti(A, B, C, 40), 3, 8
    ref = era_reference(mk, n_r, p, p)
    calls = full_svds(monkeypatch)
    rom = tv_era(mk, n_r=n_r, p=p, q=p)
    # the subspace iteration converged at every k: no fallback
    assert calls == []
    assert_rom_close(rom, ref, 1e-10)
    assert all(s.size == n_r + 1 for s in rom.singular_values.values())


def test_era_falls_back_to_the_full_svd_without_a_gap(monkeypatch):
    # the no-gap input of test_era_keeps_only_the_factors_it_reads: the
    # residual check sends every k to the full SVD
    mk = MarkovParams(stream(5, "era-memory").standard_normal((121, 120, 5, 5)))
    ref = era_reference(mk, 4, 8, 8)
    calls = full_svds(monkeypatch)
    rom = tv_era(mk, n_r=4, p=8, q=8)
    assert calls == [(40, 40)] * len(ref.singular_values)
    assert_rom_close(rom, ref, 1e-12)


@pytest.mark.parametrize("block", [1, 7])
def test_era_is_the_same_bits_for_any_block_size(monkeypatch, block):
    mk = slab_markov()
    default = tv_era(mk, n_r=6, p=6, q=6)
    monkeypatch.setattr(sysid, "_BLOCK", block)
    rom = tv_era(mk, n_r=6, p=6, q=6)
    assert rom_bytes(rom) == rom_bytes(default)
    for k, s in default.singular_values.items():
        assert rom.singular_values[k].tobytes() == s.tobytes()


@pytest.mark.parametrize("case", ["slab", "no-gap"])
def test_sign_rule_makes_the_rom_independent_of_svd_signs(monkeypatch, case):
    # a triple's sign is arbitrary in any SVD; LAPACK flips leading
    # triples between consecutive k on the benchmark slabs
    if case == "slab":
        mk, n_r, p = slab_markov(), 6, 6
    else:
        mk, n_r, p = MarkovParams(stream(5, "era-memory").standard_normal((61, 60, 5, 5))), 4, 8
    rom = tv_era(mk, n_r=n_r, p=p, q=p)
    ref = era_reference(mk, n_r, p, p)
    assert rom_bytes(era_reference(mk, n_r, p, p, svd=negating_svd(1))) == rom_bytes(ref)
    monkeypatch.setattr(np.linalg, "svd", negating_svd(2))
    assert rom_bytes(tv_era(mk, n_r=n_r, p=p, q=p)) == rom_bytes(rom)


def test_era_roundtrip_exact_order3():
    plant, A, B, C = order3_lti()
    mk = exact_markov_lti(A, B, C, 40)
    rom = tv_era(mk, n_r=3, p=4, q=4)
    k_min, k_max = rom.time_range
    for k in range(k_min + 1, k_max + 1):
        for j in range(max(k_min - 1, k - 8), k):
            assert np.abs(rom_markov(rom, k, j) - mk.data[k, j]).max() < 1e-8
    assert not rom.gap_warning


def test_era_rank_gap_for_exact_system():
    plant, A, B, C = order3_lti()
    mk = exact_markov_lti(A, B, C, 40)
    rom = tv_era(mk, n_r=3, p=4, q=4)
    for k, s in rom.singular_values.items():
        assert s[3] / s[0] <= 1e-10


def test_era_respects_dimension_preconditions():
    plant, A, B, C = order3_lti()
    mk = exact_markov_lti(A, B, C, 40)
    with pytest.raises(ValueError, match="p\\*n_y"):
        tv_era(mk, n_r=5, p=2, q=2)  # p*n_y = 4 < 5
    with pytest.raises(IndexError):
        tv_era(exact_markov_lti(A, B, C, 6), n_r=3, p=4, q=4)


def test_era_sequences_cover_horizon():
    plant, A, B, C = order3_lti()
    mk = exact_markov_lti(A, B, C, 40)
    rom = tv_era(mk, n_r=3, p=4, q=4)
    assert rom.A_hat.shape == (40, 3, 3)
    assert rom.B_hat.shape == (40, 3, 2)
    assert rom.C_hat.shape == (41, 2, 3)
    k_min, k_max = rom.time_range
    assert np.array_equal(rom.A_hat[0], rom.A_hat[k_min])
    assert np.array_equal(rom.A_hat[-1], rom.A_hat[k_max])


def test_era_markov_reconstruction_is_coordinate_invariant():
    # two realizations from different block counts agree on Markov params
    plant, A, B, C = order3_lti()
    mk = exact_markov_lti(A, B, C, 40)
    rom1 = tv_era(mk, n_r=3, p=4, q=4)
    rom2 = tv_era(mk, n_r=3, p=5, q=5)
    for k in range(10, 30):
        for j in range(k - 6, k):
            assert np.allclose(
                rom_markov(rom1, k, j), rom_markov(rom2, k, j), atol=1e-8
            )
    assert not np.allclose(rom1.A_hat[15], rom2.A_hat[15])  # coordinates differ


# ---------------------------------------------------------------------------
# validate_rom
# ---------------------------------------------------------------------------


def test_validate_exact_realization():
    plant, A, B, C = order3_lti()
    mk = exact_markov_lti(A, B, C, 40)
    rom = tv_era(mk, n_r=3, p=4, q=4)
    assert validate_rom(rom, mk, 7, 8) <= 1e-8


def test_validate_truncation_monotone_in_order():
    plant, A, B, C = order3_lti()
    mk = exact_markov_lti(A, B, C, 40)
    rom1 = tv_era(mk, n_r=1, p=4, q=4)
    rom3 = tv_era(mk, n_r=3, p=4, q=4)
    assert rom1.time_range == rom3.time_range
    assert validate_rom(rom1, mk, 7, 8) > validate_rom(rom3, mk, 7, 8)


def test_validate_error_bounded_by_singular_gap():
    plant, A, B, C = order3_lti()
    mk = exact_markov_lti(A, B, C, 40)
    for n_r in (1, 2, 3):
        rom = tv_era(mk, n_r=n_r, p=4, q=4)
        err = validate_rom(rom, mk, 7, 4)
        gap = max(s[min(n_r, len(s) - 1)] / s[0] for s in rom.singular_values.values())
        assert err <= 10.0 * gap + 1e-12


def brute_force_holdout_error(rom, mk, lag, extra):
    """The held-out error by definition: every (k, j) with k in the ROM's
    valid span [k_min, min(k_max + 1, N)], j >= k_min - 1 and lag k - j
    in (lag, lag + extra]."""
    k_min, k_max = rom.time_range
    err2 = ref2 = 0.0
    for k in range(k_min, min(k_max + 1, rom.horizon) + 1):
        for j in range(max(0, k_min - 1), k):
            if lag < k - j <= lag + extra:
                Y = mk.data[k, j]
                err2 += ((rom_markov(rom, k, j) - Y) ** 2).sum()
                ref2 += (Y**2).sum()
    return np.sqrt(err2 / ref2)


@pytest.mark.parametrize("p, q, extra", [(4, 4, 8), (3, 5, 1), (5, 3, 6)])
def test_validate_matches_brute_force_over_the_window(p, q, extra):
    # an order-2 ROM of the 20-node slab, so every held-out pair has an error
    plant = HeatPlant(HeatPlantConfig(n_grid=20, horizon=40))
    lag = p + q - 1
    mk = collect_impulse_responses(plant, zero_nominal(plant), max_lag=lag + extra)
    rom = tv_era(mk, n_r=2, p=p, q=q)
    err = validate_rom(rom, mk, lag, extra)
    expected = brute_force_holdout_error(rom, mk, lag, extra)
    assert expected > 1e-3
    assert err == pytest.approx(expected, rel=1e-12)


def test_validate_rejects_empty_holdout():
    plant, A, B, C = order3_lti()
    mk = exact_markov_lti(A, B, C, 40)
    rom = tv_era(mk, n_r=3, p=4, q=4)
    # no lag past 40 fits in the horizon
    with pytest.raises(ValueError, match="empty"):
        validate_rom(rom, mk, 40, 8)
    # a campaign measured up to lag 10 cannot score lags up to 7 + 8
    limited = collect_impulse_responses(plant, zero_nominal(plant, np.zeros(3)), max_lag=10)
    rom = tv_era(limited, n_r=3, p=4, q=4)
    with pytest.raises(IndexError, match="max_lag 10"):
        validate_rom(rom, limited, 7, 8)


def test_heat_rom_fidelity_monotone_in_order():
    cfg = HeatPlantConfig(n_grid=40, horizon=80)
    plant = HeatPlant(cfg)
    nominal = zero_nominal(plant)
    mk = collect_impulse_responses(plant, nominal, epsilon=1e-2)
    errs = []
    for n_r in (2, 5, 10, 20):
        rom = tv_era(mk, n_r=n_r, p=8, q=8)
        errs.append(validate_rom(rom, mk, 15, 8))
    assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(len(errs) - 1))


def test_select_order_finds_true_rank():
    # The order is read off the Hankel spectra tv_era keeps: the smallest n_r
    # whose discarded/leading singular-value ratio is below tol at every time.
    plant, A, B, C = order3_lti()
    mk = exact_markov_lti(A, B, C, 40)
    rom = tv_era(mk, n_r=3, p=4, q=4)
    worst = np.max([s / s[0] for s in rom.singular_values.values()], axis=0)
    assert min(n for n in range(1, worst.size) if worst[n] <= 1e-8) == 3


def test_markov_params_validation():
    with pytest.raises(ValueError):
        MarkovParams(np.zeros((5, 5, 2, 2)))  # needs (N+1, N, ...)
    with pytest.raises(ValueError, match="finite"):
        MarkovParams(np.full((6, 5, 2, 2), np.nan))
    mk = MarkovParams(np.zeros((6, 5, 2, 2)), max_lag=2)
    assert (mk.horizon, mk.n_y, mk.n_u) == (5, 2, 2)
    with pytest.raises(IndexError, match="lag 3 past the campaign's max_lag 2"):
        mk.check_lag(3)


def test_rom_json_roundtrip(tmp_path):
    plant, A, B, C = order3_lti()
    mk = exact_markov_lti(A, B, C, 40)
    rom = tv_era(mk, n_r=3, p=4, q=4)
    path = tmp_path / "rom.json"
    rom.to_json(path)
    from seplqg.sysid import LtvRom

    back = LtvRom.from_json(path)
    assert np.array_equal(back.A_hat, rom.A_hat)
    assert np.array_equal(back.B_hat, rom.B_hat)
    assert np.array_equal(back.C_hat, rom.C_hat)
    assert back.time_range == rom.time_range
    assert back.n_r == 3
