import numpy as np
import pytest

from artigen.basis import BasisSet
from artigen.sync import (
    SyncState,
    optimize_global_coeff,
    optimize_sync_matrix,
    svd_pinv,
    sync_objective,
    synced_bases,
    synchronize,
)
from oracle import synchronize_per_target


def _exact_model(rng, m, k, n_targets):
    s_true = [rng.normal(size=(k, k)) for _ in range(m)]
    z = rng.normal(size=(n_targets, k))
    y = np.stack([(s @ z.T).T for s in s_true])
    bases = [BasisSet(rng.normal(size=(k, 6, 3))) for _ in range(m)]
    return bases, y, z, s_true


def oracle_objective(bases, s_matrices, z, y):
    """Nested-loop reimplementation of the alignment objective."""
    total = 0.0
    for m in range(y.shape[0]):
        flat = bases[m].bases.reshape(bases[m].k, -1)
        for i in range(y.shape[1]):
            total += np.linalg.norm((s_matrices[m] @ z[i] - y[m, i]) @ flat)
    return total


def test_objective_matches_oracle(rng):
    bases, y, z, s_true = _exact_model(rng, 3, 4, 5)
    s = [rng.normal(size=(4, 4)) for _ in range(3)]
    zz = rng.normal(size=(5, 4))
    assert sync_objective(bases, s, zz, y) == pytest.approx(
        oracle_objective(bases, s, zz, y), rel=1e-12)


@pytest.mark.parametrize("m", [2, 5])
@pytest.mark.parametrize("k", [3, 16])
@pytest.mark.parametrize("n_targets", [4, 10])
def test_exact_model_converges(rng, m, k, n_targets):
    bases, y, _, _ = _exact_model(rng, m, k, n_targets)
    state = synchronize(bases, y, iters=100)
    h = state.objective_history
    assert h[0] > 0
    assert h[-1] < 1e-6 * h[0]


def test_transform_update_equals_pinv_product(rng):
    k, n_targets = 5, 7
    z = rng.normal(size=(n_targets, k))
    y = rng.normal(size=(n_targets, k))
    s = optimize_sync_matrix(z.T, y.T)
    expect = y.T @ np.linalg.pinv(z.T)
    assert np.abs(s - expect).max() < 1e-10


def test_transform_update_rank_deficient(rng):
    k = 4
    z = rng.normal(size=(2, k))  # fewer targets than dimensions
    y = rng.normal(size=(2, k))
    s = optimize_sync_matrix(z.T, y.T)
    expect = y.T @ np.linalg.pinv(z.T)
    assert np.abs(s - expect).max() < 1e-10


def test_coefficient_update_residual_orthogonality(rng):
    k, m = 6, 4
    s_list = [rng.normal(size=(k, k)) for _ in range(m)]
    # make one transformation singular on purpose
    s_list[0][:, 0] = s_list[0][:, 1]
    y_i = rng.normal(size=(m, k))
    for s, y in zip(s_list, y_i):
        z_hat = svd_pinv(s) @ y
        residual = s @ z_hat - y
        # least-squares residual is orthogonal to the column space
        assert np.abs(s.T @ residual).max() < 1e-8
    z = optimize_global_coeff(s_list, y_i[:, None, :])[0]
    expect = np.mean([np.linalg.pinv(s) @ y for s, y in zip(s_list, y_i)], axis=0)
    np.testing.assert_allclose(z, expect, atol=1e-10)


@pytest.mark.parametrize("case", ["exact", "noisy", "rank_deficient"])
def test_synchronize_matches_per_target_oracle(rng, case):
    if case == "rank_deficient":
        # fewer targets than dimensions, as in a 5-shot fit with K = 16
        bases, y, _, _ = _exact_model(rng, 4, 16, 5)
    else:
        bases, y, _, _ = _exact_model(rng, 3, 4, 6)
    if case != "exact":
        y = y + rng.normal(scale=0.1, size=y.shape)
    state = synchronize(bases, y, iters=15)
    s_matrices, z, history = synchronize_per_target(bases, y, iters=15)
    for a, b in zip(state.s_matrices, s_matrices, strict=True):
        assert np.array_equal(a, b)
    assert np.array_equal(state.global_coeffs, z)
    assert state.objective_history == history


def test_zero_iters_still_defined(rng):
    bases, y, _, _ = _exact_model(rng, 2, 3, 4)
    state = synchronize(bases, y, iters=0)
    assert len(state.s_matrices) == 2
    assert state.global_coeffs.shape == (4, 3)
    assert len(state.objective_history) == 2  # identity baseline + first pass


def test_synchronize_deterministic(rng):
    bases, y, _, _ = _exact_model(rng, 3, 4, 5)
    s1 = synchronize(bases, y, iters=10)
    s2 = synchronize(bases, y, iters=10)
    for a, b in zip(s1.s_matrices, s2.s_matrices):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(s1.global_coeffs, s2.global_coeffs)


def test_synced_bases_composition(rng):
    bases = BasisSet(rng.normal(size=(4, 6, 3)))
    s = rng.normal(size=(4, 4))
    z = rng.normal(size=4)
    direct = bases.cage_offsets(s @ z)
    composed = BasisSet(synced_bases(bases, s)).cage_offsets(z)
    np.testing.assert_allclose(direct, composed, atol=1e-12)


def test_state_round_trip(rng):
    bases, y, _, _ = _exact_model(rng, 2, 3, 4)
    state = synchronize(bases, y, iters=5)
    rec = state.to_dict()
    back = SyncState.from_dict(rec)
    for a, b in zip(state.s_matrices, back.s_matrices):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(state.global_coeffs, back.global_coeffs)
    assert state.objective_history == back.objective_history
