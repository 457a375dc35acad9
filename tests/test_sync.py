import numpy as np
import pytest

from artigen.basis import BasisSet
from artigen.sync import (
    SyncState,
    optimize_sync_matrices,
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


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


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
    state = synchronize(bases, y)
    h = state.objective_history
    assert h[0] > 0
    assert h[-1] < 1e-6 * h[0]


def test_transform_update_equals_pinv_product(rng):
    k, n_targets = 5, 7
    z = rng.normal(size=(n_targets, k))
    y = rng.normal(size=(n_targets, k))
    s, = optimize_sync_matrices(z, y[None])
    expect = y.T @ np.linalg.pinv(z.T)
    assert np.abs(s - expect).max() < 1e-10


def test_transform_update_rank_deficient(rng):
    k = 4
    z = rng.normal(size=(2, k))  # fewer targets than dimensions
    y = rng.normal(size=(2, k))
    s, = optimize_sync_matrices(z, y[None])
    expect = y.T @ np.linalg.pinv(z.T)
    assert np.abs(s - expect).max() < 1e-10


def _noisy_overdetermined(rng, noise=0.1):
    """A noisy case with more targets than bases, as with 18 shots at K = 16."""
    m, k = int(rng.integers(2, 6)), int(rng.integers(2, 17))
    bases, y, _, _ = _exact_model(rng, m, k, int(rng.integers(k + 1, 2 * k + 3)))
    return bases, y + rng.normal(scale=noise, size=y.shape)


def test_coefficient_update_residual_orthogonality(rng):
    # the result is a stationary point of sum_m ||R_m B_m||_F^2, with
    # R_m = Z S_m^T - Y_m, in both factors: each R_m is orthogonal to the
    # columns of Z (the S update is least squares given Z), and
    # sum_m R_m B_m B_m^T S_m = 0 (so is Z given every S_m, which a mean of
    # per-convex min-norm solves is not)
    for _ in range(10):
        bases, y = _noisy_overdetermined(rng)
        state = synchronize(bases, y)
        z, s_list = state.global_coeffs, state.s_matrices
        residuals = [z @ s.T - y_m for s, y_m in zip(s_list, y)]
        scale = np.abs(y).max() ** 2 * y.shape[1]
        for r in residuals:
            assert np.abs(z.T @ r).max() < 1e-10 * scale
        grams = [b.bases.reshape(b.k, -1) @ b.bases.reshape(b.k, -1).T
                 for b in bases]
        grad_z = sum(r @ g @ s for r, g, s in zip(residuals, grams, s_list))
        gram_scale = max(np.abs(g).max() for g in grams) * len(bases)
        assert np.abs(grad_z).max() < 1e-10 * scale * gram_scale


@pytest.mark.parametrize("case", ["exact", "noisy", "rank_deficient"])
def test_synchronize_matches_per_target_oracle(rng, case):
    if case == "rank_deficient":
        # fewer targets than dimensions, as in a 5-shot fit with K = 16
        bases, y, _, _ = _exact_model(rng, 4, 16, 5)
    else:
        bases, y, _, _ = _exact_model(rng, 3, 4, 6)
    if case != "exact":
        y = y + rng.normal(scale=0.1, size=y.shape)
    state = synchronize(bases, y)
    _, z, history = synchronize_per_target(bases, y)
    objective = sync_objective(bases, state.s_matrices, state.global_coeffs, y)
    assert state.objective_history == [history[0], objective]
    assert objective <= history[-1] + 1e-12 * history[0]
    if case == "rank_deficient":
        assert _rel(state.global_coeffs, z) < 1e-9
    elif case == "noisy":
        # more targets than dimensions: no alternation step comes out lower
        assert objective <= min(history[1:])


def test_closed_form_matches_alternation_when_interpolating(rng):
    worst = 0.0
    for _ in range(12):
        m, k = rng.integers(2, 6), rng.integers(2, 17)
        n_targets = rng.integers(1, k + 1)
        bases, y, _, _ = _exact_model(rng, m, k, n_targets)
        y = y + rng.normal(scale=rng.choice([0.0, 0.1, 1.0]), size=y.shape)
        state = synchronize(bases, y)
        assert len(state.objective_history) == 2
        _, z, history = synchronize_per_target(bases, y)
        assert state.objective_history[-1] <= history[-1] + 1e-12 * history[0]
        worst = max(worst, _rel(state.global_coeffs, z))
    assert worst < 1e-9


def test_low_rank_fit_below_best_alternation_step():
    # |A| > K with noise: this case's alternation dips below its closed-form
    # start and ends above it; the projected fit is below its best step
    rng = np.random.default_rng(248)
    bases, y, _, _ = _exact_model(rng, 3, 4, 6)
    y = y + rng.normal(scale=0.1, size=y.shape)
    _, _, history = synchronize_per_target(bases, y)
    assert min(history[1:]) < history[1] < history[-1]
    state = synchronize(bases, y)
    objective = sync_objective(bases, state.s_matrices, state.global_coeffs, y)
    assert state.objective_history == [history[0], objective]
    assert objective < min(history[1:])


def test_squared_objective_is_eckart_young_tail(rng):
    # sum_m ||(Z S_m^T - Y_m) B_m||_F^2 over rank-K Z is at least the tail
    # sum_{i>K} sigma_i^2 of the stacked cage offsets [Y_1 B_1, ..., Y_M B_M];
    # the result attains it
    for _ in range(20):
        bases, y = _noisy_overdetermined(rng, noise=rng.choice([0.01, 0.1, 1.0]))
        k = y.shape[2]
        state = synchronize(bases, y)
        flats = [b.bases.reshape(k, -1) for b in bases]
        got = sum(np.sum(((state.global_coeffs @ s.T - y_m) @ f) ** 2)
                  for s, y_m, f in zip(state.s_matrices, y, flats))
        sv = np.linalg.svd(np.hstack([y_m @ f for y_m, f in zip(y, flats)]),
                           compute_uv=False)
        tail = np.sum(sv[k:] ** 2)
        assert abs(got - tail) <= 1e-9 * tail


def test_weighted_objective_at_or_below_alternation(rng):
    # the projection minimizes the sum of squared norms, not this sum of
    # norms; with noise at a tenth of the signal it still ends at or below
    # the 100-step alternation (with noise as large as the signal and
    # K <= 5, a few percent of random cases end above it)
    for _ in range(8):
        bases, y = _noisy_overdetermined(rng)
        state = synchronize(bases, y)
        _, _, history = synchronize_per_target(bases, y)
        assert len(state.objective_history) == 2
        assert state.objective_history[-1] <= history[-1]


@pytest.mark.parametrize("n_targets", [3, 7])
def test_duplicated_targets_fit_exactly(rng, n_targets):
    # repeated shots leave Z rank-deficient (and the stacked Y of rank 2 even
    # with more targets than bases); the fit stays exact
    k = 4
    bases, y, _, _ = _exact_model(rng, 3, k, 2)
    y = y[:, np.r_[0, 1, rng.integers(0, 2, size=n_targets - 2)]]
    state = synchronize(bases, y)
    h = state.objective_history
    assert state.global_coeffs.shape == (n_targets, k)
    assert h[-1] < 1e-9 * h[0]


def test_zero_iters_still_defined(rng):
    # |A| <= K: the closed form interpolates and no alternation step runs
    bases, y, _, _ = _exact_model(rng, 2, 4, 3)
    state = synchronize(bases, y)
    assert len(state.s_matrices) == 2
    assert state.global_coeffs.shape == (3, 4)
    assert len(state.objective_history) == 2  # identity baseline + closed form


def test_synchronize_deterministic(rng):
    bases, y, _, _ = _exact_model(rng, 3, 4, 5)
    s1 = synchronize(bases, y)
    s2 = synchronize(bases, y)
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


def test_synced_bases_wide_map(rng):
    # a K x K_total map, as the stacked per-convex layout passes one
    bases = BasisSet(rng.normal(size=(4, 6, 3)))
    s = rng.normal(size=(4, 7))
    z = rng.normal(size=7)
    composed = synced_bases(bases, s)
    assert composed.shape == (7, 6, 3)
    np.testing.assert_allclose(BasisSet(composed).cage_offsets(z),
                               bases.cage_offsets(s @ z), atol=1e-12)
    with pytest.raises(ValueError, match="S must have 4 rows"):
        synced_bases(bases, rng.normal(size=(3, 4)))


def test_state_round_trip(rng):
    bases, y, _, _ = _exact_model(rng, 2, 3, 4)
    # a record with 100 alternation steps, as models written before the
    # closed form hold, loads the same way
    old = SyncState.from_dict({
        "s_matrices": [rng.normal(size=(3, 3)).tolist() for _ in range(2)],
        "global_coeffs": rng.normal(size=(4, 3)).tolist(),
        "objective_history": rng.random(102).tolist(),
    })
    for state in (synchronize(bases, y), old):
        rec = state.to_dict()
        back = SyncState.from_dict(rec)
        for a, b in zip(state.s_matrices, back.s_matrices, strict=True):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(state.global_coeffs, back.global_coeffs)
        assert state.objective_history == back.objective_history
    assert len(old.objective_history) == 102
