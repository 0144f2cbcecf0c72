import numpy as np
import pytest

from seplqg.exceptions import PerturbationDivergedError
from seplqg.plant import HeatPlant, HeatPlantConfig, LinearPlant
from seplqg.rng import stream
from seplqg.sysid import (
    MarkovParams,
    collect_impulse_responses,
    default_block_counts,
    holdout_pairs,
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
        cov_traces=np.zeros(N + 1),
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
        assert np.array_equal(mk.get(k, k), np.zeros((2, 2)))


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
            assert np.abs(mk.get(k, j) - expected).max() < 1e-8
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
        cov_traces=np.zeros(501),
        observations=np.zeros((501, 1)),
        nominal_cost=0.0,
        iterations=0,
        converged=True,
    )
    with pytest.raises(PerturbationDivergedError, match="epsilon"):
        collect_impulse_responses(plant, nominal, epsilon=1e300)


# ---------------------------------------------------------------------------
# tv_era
# ---------------------------------------------------------------------------


def test_era_roundtrip_exact_order3():
    plant, A, B, C = order3_lti()
    mk = exact_markov_lti(A, B, C, 40)
    rom = tv_era(mk, n_r=3, p=4, q=4)
    k_min, k_max = rom.time_range
    for k in range(k_min + 1, k_max + 1):
        for j in range(max(k_min - 1, k - 8), k):
            assert np.abs(rom_markov(rom, k, j) - mk.get(k, j)).max() < 1e-8
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


def test_era_default_block_counts():
    assert default_block_counts(20, 5, 5) == (8, 8)
    assert default_block_counts(3, 2, 2) == (3, 3)


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
    pairs = holdout_pairs(40, 4, 4, extra=8, time_range=rom.time_range)
    assert validate_rom(rom, mk, pairs) <= 1e-8


def test_validate_truncation_monotone_in_order():
    plant, A, B, C = order3_lti()
    mk = exact_markov_lti(A, B, C, 40)
    rom1 = tv_era(mk, n_r=1, p=4, q=4)
    rom3 = tv_era(mk, n_r=3, p=4, q=4)
    pairs = holdout_pairs(40, 4, 4, extra=8, time_range=rom3.time_range)
    assert validate_rom(rom1, mk, pairs) > validate_rom(rom3, mk, pairs)


def test_validate_error_bounded_by_singular_gap():
    plant, A, B, C = order3_lti()
    mk = exact_markov_lti(A, B, C, 40)
    for n_r in (1, 2, 3):
        rom = tv_era(mk, n_r=n_r, p=4, q=4)
        pairs = holdout_pairs(40, 4, 4, extra=4, time_range=rom.time_range)
        err = validate_rom(rom, mk, pairs)
        gap = max(s[min(n_r, len(s) - 1)] / s[0] for s in rom.singular_values.values())
        assert err <= 10.0 * gap + 1e-12


def test_validate_rejects_empty_holdout():
    plant, A, B, C = order3_lti()
    mk = exact_markov_lti(A, B, C, 40)
    rom = tv_era(mk, n_r=3, p=4, q=4)
    with pytest.raises(ValueError):
        validate_rom(rom, mk, [])
    with pytest.raises(IndexError):
        validate_rom(rom, mk, [(5, 7)])


def test_heat_rom_fidelity_monotone_in_order():
    cfg = HeatPlantConfig(n_grid=40, horizon=80)
    plant = HeatPlant(cfg)
    nominal = zero_nominal(plant)
    mk = collect_impulse_responses(plant, nominal, epsilon=1e-2)
    errs = []
    for n_r in (2, 5, 10, 20):
        rom = tv_era(mk, n_r=n_r, p=8, q=8)
        pairs = holdout_pairs(80, 8, 8, extra=8, time_range=rom.time_range)
        errs.append(validate_rom(rom, mk, pairs))
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
    mk = MarkovParams(np.zeros((6, 5, 2, 2)))
    with pytest.raises(IndexError):
        mk.get(3, 4)


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
