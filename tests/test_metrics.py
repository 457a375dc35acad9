import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from artigen import metrics
from artigen.basis import chamfer_distance
from artigen.metrics import (
    EvalResult,
    _box_lower_bounds,
    _trees,
    cov,
    evaluate,
    jsd,
    mmd,
    one_nna,
    pairwise_chamfer,
)
from artigen.physics import CollisionReport
from oracle import apd, one_nna_full_table, self_chamfer


def _clouds(rng, n_sets, n_pts=30, shift=0.0):
    return [rng.normal(size=(n_pts, 3)) + shift for _ in range(n_sets)]


def brute_mmd(gen, ref):
    return np.mean([min(chamfer_distance(g, r) for g in gen) for r in ref])


def brute_cov(gen, ref):
    hits = set()
    for g in gen:
        ds = [chamfer_distance(g, r) for r in ref]
        hits.add(int(np.argmin(ds)))
    return len(hits) / len(ref)


def brute_one_nna(gen, ref):
    pool = list(gen) + list(ref)
    labels = [0] * len(gen) + [1] * len(ref)
    correct = 0
    for i, p in enumerate(pool):
        best, best_d = None, np.inf
        for j, q in enumerate(pool):
            if j == i:
                continue
            dij = chamfer_distance(p, q)
            if dij < best_d:
                best, best_d = j, dij
        correct += labels[best] == labels[i]
    return correct / len(pool)


def test_pairwise_matrix_matches_direct(rng):
    gen, ref = _clouds(rng, 3), _clouds(rng, 4)
    d = pairwise_chamfer(gen, ref)
    assert d.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            assert d[i, j] == chamfer_distance(gen[i], ref[j])
    # the 1-NNA oracle's gen-gen block is built from its upper triangle
    np.testing.assert_array_equal(self_chamfer(ref), pairwise_chamfer(ref, ref))


def test_mmd_matches_brute_force(rng):
    gen, ref = _clouds(rng, 5), _clouds(rng, 4)
    assert mmd(gen, ref) == pytest.approx(brute_mmd(gen, ref), rel=1e-12)


def test_cov_matches_brute_force(rng):
    gen, ref = _clouds(rng, 6), _clouds(rng, 4)
    assert cov(gen, ref) == pytest.approx(brute_cov(gen, ref), abs=0)


def test_one_nna_matches_brute_force(rng):
    gen, ref = _clouds(rng, 4), _clouds(rng, 5)
    assert one_nna(gen, ref) == pytest.approx(brute_one_nna(gen, ref), abs=0)


def test_one_nna_with_precomputed_matrix(rng):
    gen, ref = _clouds(rng, 3), _clouds(rng, 3)
    d = pairwise_chamfer(gen, ref)
    assert one_nna(gen, ref, d) == one_nna(gen, ref)


def test_identical_populations(rng):
    pts = _clouds(rng, 4)
    gen = [np.array(p) for p in pts]
    assert mmd(gen, pts) == 0.0
    assert cov(gen, pts) == 1.0
    assert jsd(gen, pts) == 0.0


def test_one_nna_tie_break_prefers_lower_index(rng):
    # duplicated clouds produce zero-distance ties; each element's nearest
    # neighbor is its twin at the lowest other index, splitting the classes
    a = rng.normal(size=(20, 3))
    b = rng.normal(size=(20, 3)) + 4.0
    val = one_nna([a, b], [np.array(a), np.array(b)])
    assert val == 0.0


def _layout_clouds(layout, rng, n, n_pts):
    """Base clouds: far-apart clusters, or clouds that all span one cube."""
    if layout == "separated":
        centers = 10.0 * rng.integers(0, 3, size=(n, 3))
        return [centers[k] + 0.1 * rng.normal(size=(n_pts, 3)) for k in range(n)]
    # the cube's corners in every cloud make every box the same: no bound prunes
    corners = np.array(np.meshgrid([0.0, 1.0], [0.0, 1.0], [0.0, 1.0])).reshape(3, -1).T
    return [np.vstack([corners, rng.uniform(size=(n_pts, 3))]) for _ in range(n)]


@pytest.mark.parametrize("layout", ["separated", "overlapping"])
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       picks=st.tuples(st.lists(st.integers(0, 5), min_size=1, max_size=8),
                       st.lists(st.integers(0, 5), min_size=1, max_size=8)),
       n_pts=st.integers(1, 12), scale=st.sampled_from([1.0, 1e-150, 1e150]),
       offset=st.sampled_from([0.0, 1e6]), precomputed=st.booleans())
def test_one_nna_matches_full_table(layout, seed, picks, n_pts, scale, offset,
                                    precomputed):
    # repeated picks copy a base cloud within and across the sets: exact ties
    base = [c * scale + offset
            for c in _layout_clouds(layout, np.random.default_rng(seed), 6, n_pts)]
    gen, ref = ([np.array(base[k]) for k in ks] for ks in picks)
    d = pairwise_chamfer(gen, ref) if precomputed else None
    assert one_nna(gen, ref, d) == one_nna_full_table(gen, ref, d)


@pytest.mark.parametrize("layout", ["separated", "overlapping"])
def test_one_nna_with_one_generation_or_one_reference(rng, layout):
    clouds = _layout_clouds(layout, rng, 6, 8)
    for gen, ref in ((clouds[:1], clouds[1:]), (clouds[1:], clouds[:1]),
                     (clouds[:1], clouds[1:2]), (clouds[:1], [np.array(clouds[0])])):
        assert one_nna(gen, ref) == one_nna_full_table(gen, ref)


def test_one_nna_prunes_separated_clusters(rng, monkeypatch):
    centers = 10.0 * np.arange(5)[:, None] * np.ones(3)
    gen = [centers[k % 5] + 0.1 * rng.normal(size=(20, 3)) for k in range(30)]
    ref = [centers[k] + 0.1 * rng.normal(size=(20, 3)) for k in range(5)]
    d = pairwise_chamfer(gen, ref)
    calls = []

    def counting(p, q):
        calls.append(1)
        return chamfer_distance(p, q)

    monkeypatch.setattr(metrics, "chamfer_distance", counting)
    got = one_nna(gen, ref, d)
    monkeypatch.undo()
    assert got == one_nna_full_table(gen, ref, d)
    # the full table computes every same-set pair
    assert 0 < len(calls) < 30 * 29 // 2 + 5 * 4 // 2


@pytest.mark.parametrize("case", ["random", "one_point", "coincident", "flat",
                                  "offset", "tiny", "huge"])
def test_box_lower_bound_below_chamfer(rng, case):
    n_pts = 1 if case == "one_point" else 16
    clouds = [rng.normal(size=(n_pts, 3)) + rng.normal(size=3) for _ in range(40)]
    if case == "coincident":
        clouds = [np.repeat(c[:1], n_pts, axis=0) for c in clouds]
    elif case == "flat":
        for c in clouds:
            c[:, 2] = 0.5
    elif case == "offset":
        clouds = [c + 1e6 for c in clouds]
    elif case in ("tiny", "huge"):
        clouds = [c * (1e-150 if case == "tiny" else 1e150) for c in clouds]
    trees = _trees(clouds)
    lb = _box_lower_bounds(trees)
    cd = np.array([[chamfer_distance(p, q) for q in trees] for p in trees])
    assert np.all(lb <= cd)


def test_jsd_disjoint_supports(rng):
    gen = _clouds(rng, 3, shift=0.0)
    ref = [c + 100.0 for c in _clouds(rng, 3)]
    assert jsd(gen, ref) == pytest.approx(1.0, abs=1e-12)


def test_jsd_between_zero_and_one(rng):
    gen = _clouds(rng, 3)
    ref = _clouds(rng, 3, shift=0.5)
    v = jsd(gen, ref)
    assert 0.0 < v < 1.0


def test_jsd_invariant_to_cloud_count_duplication(rng):
    gen = _clouds(rng, 2)
    ref = _clouds(rng, 2, shift=0.5)
    assert jsd(gen + gen, ref) == pytest.approx(jsd(gen, ref), rel=1e-12)


def test_apd_mean_of_reports():
    reports = [CollisionReport(0.1, 0.0), CollisionReport(0.3, 0.0)]
    assert apd(reports) == pytest.approx(0.2)
    assert apd([0.5, 1.5]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        apd([])


def test_empty_sets_rejected(rng):
    pts = _clouds(rng, 2)
    for fn in (mmd, cov, one_nna, jsd):
        with pytest.raises(ValueError):
            fn([], pts)


def test_table_scaling():
    res = EvalResult(mmd=0.0025, cov=0.75, one_nna=0.5, jsd=0.125, apd=0.0125)
    out = res.table()
    assert "MMD (x1e3)" in out and "2.5000" in out
    assert "COV (%)" in out and "75.00" in out
    assert "1-NNA (%)" in out and "50.00" in out
    assert "APD (x1e2)" in out and "1.2500" in out


def test_evaluate_bundle(rng):
    gen, ref = _clouds(rng, 3), _clouds(rng, 3)
    res = evaluate(gen, ref, apd_value=0.01)
    assert res.mmd == pytest.approx(brute_mmd(gen, ref), rel=1e-12)
    assert res.apd == 0.01
    assert set(res.to_dict()) == {"mmd", "cov", "one_nna", "jsd", "apd"}


def test_evaluate_builds_one_tree_per_cloud(rng, monkeypatch):
    gen, ref = _clouds(rng, 5), _clouds(rng, 4, shift=0.3)
    built = []

    class CountingTree(cKDTree):
        def __init__(self, data, *args, **kwargs):
            built.append(len(data))
            super().__init__(data, *args, **kwargs)

    monkeypatch.setattr(metrics, "cKDTree", CountingTree)
    res = evaluate(gen, ref)
    assert len(built) == len(gen) + len(ref)
    monkeypatch.undo()
    # the shared trees give the same numbers as clouds passed one metric at a time
    assert (res.mmd, res.cov, res.one_nna) == (mmd(gen, ref), cov(gen, ref),
                                               one_nna(gen, ref))
