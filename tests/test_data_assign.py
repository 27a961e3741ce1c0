import numpy as np
import pytest

from gradflux.data_assign import (DataSet, assign_to_elements, build_dataset,
                                  nearest_sample_index, write_dataset_csv)
from gradflux.manufactured import case3
from gradflux.mesh import unit_square_mesh


def brute_force_nearest(dataset, points):
    """Reference linear-scan argmin (lowest index wins on ties)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    diff = pts[:, None, :] - dataset.sample_points[None, :, :]
    return np.argmin(np.sum(diff ** 2, axis=-1), axis=1)


def test_sample_point_layout():
    case = case3()
    ds = build_dataset(2, case.e, case.s)
    expected = np.array([[0.25, 0.25], [0.75, 0.25],
                         [0.25, 0.75], [0.75, 0.75]])
    assert np.allclose(ds.sample_points, expected)
    assert ds.n_samples == 4


def test_single_sample_at_center():
    case = case3()
    ds = build_dataset(1, case.e, case.s)
    assert np.allclose(ds.sample_points, [[0.5, 0.5]])
    # cos(pi/2) = 0 in both components at the center
    assert np.allclose(ds.e_values, [[0.0, 0.0]], atol=1e-15)
    assert np.allclose(ds.s_values, [[0.0, 0.0]], atol=1e-15)


def test_build_dataset_rejects_zero():
    case = case3()
    with pytest.raises(ValueError):
        build_dataset(0, case.e, case.s)


def test_nearest_on_sample_point_and_simple_cases():
    case = case3()
    ds = build_dataset(2, case.e, case.s)
    assert nearest_sample_index(ds, [[0.25, 0.25]])[0] == 0
    assert nearest_sample_index(ds, [[0.1, 0.1]])[0] == 0
    assert nearest_sample_index(ds, [[0.8, 0.7]])[0] == 3


def test_tie_breaks_to_lowest_index():
    case = case3()
    ds = build_dataset(2, case.e, case.s)
    # (0.5, 0.25) is equidistant to samples 0 and 1
    assert nearest_sample_index(ds, [[0.5, 0.25]])[0] == 0
    assert brute_force_nearest(ds, [[0.5, 0.25]])[0] == 0
    # the center ties all four samples
    assert nearest_sample_index(ds, [[0.5, 0.5]])[0] == 0
    assert brute_force_nearest(ds, [[0.5, 0.5]])[0] == 0


@pytest.mark.parametrize("nd", [1, 2, 7, 64])
def test_grid_lookup_matches_brute_force(nd):
    case = case3()
    ds = build_dataset(nd, case.e, case.s)
    rng = np.random.default_rng(nd)
    pts = rng.random((1000, 2))
    assert np.array_equal(nearest_sample_index(ds, pts),
                          brute_force_nearest(ds, pts))


def test_assignment_gives_element_constants():
    case = case3()
    ds = build_dataset(4, case.e, case.s)
    mesh = unit_square_mesh(8)
    e_field, s_field = assign_to_elements(mesh, ds)
    assert e_field.values.shape == (mesh.n_triangles, 2)
    idx = brute_force_nearest(ds, mesh.centroids)
    assert np.array_equal(e_field.values, ds.e_values[idx])
    assert np.array_equal(s_field.values, ds.s_values[idx])


def test_assignment_rejects_empty_dataset():
    empty = DataSet(nd=0, sample_points=np.empty((0, 2)),
                    e_values=np.empty((0, 2)), s_values=np.empty((0, 2)))
    with pytest.raises(ValueError):
        assign_to_elements(unit_square_mesh(2), empty)


def test_refinement_consistency_bound():
    # Lipschitz bound: |assigned - exact at centroid| <= L (sqrt(2)/(2 nd)
    # + h_K) with L = pi^2 valid for the reference fields
    case = case3()
    lipschitz = np.pi ** 2
    mesh = unit_square_mesh(16)
    h_k = mesh.diameters.max()
    exact = case.e(mesh.centroids[:, 0], mesh.centroids[:, 1])
    for nd in (8, 32):
        ds = build_dataset(nd, case.e, case.s)
        e_field, _ = assign_to_elements(mesh, ds)
        gap = np.linalg.norm(e_field.values - exact, axis=1).max()
        assert gap <= lipschitz * (np.sqrt(2) / (2 * nd) + h_k)


def test_csv_serialization(tmp_path):
    case = case3()
    ds = build_dataset(2, case.e, case.s)
    path = tmp_path / "dataset.csv"
    write_dataset_csv(ds, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,ex,ey,sx,sy"
    assert len(lines) == 1 + ds.n_samples
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[:2] == [0.25, 0.25]
    assert np.allclose(first[2:4], ds.e_values[0])
    assert np.allclose(first[4:6], ds.s_values[0])
