"""Sampled gradient/flux data sets and nearest-centroid assignment.

The data set lives on an nd x nd cell grid of the unit square; each mesh
element receives the pair sampled at the grid centroid nearest to its
own centroid.  Ties break toward the lowest sample index, which the
closed-form grid lookup reproduces exactly, so assignment stays
deterministic under refinement.
"""

from dataclasses import dataclass

import numpy as np

from .forms import ElementField


@dataclass
class DataSet:
    """Gradient/flux pairs sampled at the centroids of an nd x nd grid.

    sample index = i + nd * j for the cell column i, row j, so
    sample_points[i + nd * j] = ((i + 0.5) / nd, (j + 0.5) / nd).
    """

    nd: int
    sample_points: np.ndarray   # (nd^2, 2)
    e_values: np.ndarray        # (nd^2, 2)
    s_values: np.ndarray        # (nd^2, 2)

    @property
    def n_samples(self):
        return self.nd * self.nd


def build_dataset(nd, exact_e, exact_s):
    """Evaluate the exact fields at the nd x nd cell centroids."""
    if nd < 1:
        raise ValueError(f"sample grid count must be >= 1, got {nd}")
    nd = int(nd)
    centers = (np.arange(nd) + 0.5) / nd
    xs, ys = np.meshgrid(centers, centers, indexing="xy")
    x = xs.ravel()
    y = ys.ravel()
    pts = np.column_stack([x, y])
    return DataSet(nd=nd, sample_points=pts,
                   e_values=np.asarray(exact_e(x, y), dtype=float),
                   s_values=np.asarray(exact_s(x, y), dtype=float))


def nearest_sample_index(dataset, points):
    """Index of the nearest sample centroid for each query point.

    Uses the closed-form per-axis argmin of the regular grid; exact ties
    resolve to the lower index on each axis, hence to the lowest flat
    sample index.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    nd = dataset.nd
    ix = np.clip(np.ceil(pts[:, 0] * nd - 1.0), 0, nd - 1).astype(np.int64)
    iy = np.clip(np.ceil(pts[:, 1] * nd - 1.0), 0, nd - 1).astype(np.int64)
    return ix + nd * iy


def assign_to_elements(mesh, dataset):
    """Element-constant data fields from the nearest-sample rule.

    Every quadrature point of an element sees the single pair assigned
    to the element centroid.
    """
    if dataset.n_samples == 0:
        raise ValueError("empty data set")
    idx = nearest_sample_index(dataset, mesh.centroids)
    e_field = ElementField(mesh, dataset.e_values[idx])
    s_field = ElementField(mesh, dataset.s_values[idx])
    return e_field, s_field


def write_dataset_csv(dataset, path):
    """One 'x, y, ex, ey, sx, sy' row per sample."""
    with open(path, "w") as fh:
        fh.write("x,y,ex,ey,sx,sy\n")
        for p, e, s in zip(dataset.sample_points, dataset.e_values,
                           dataset.s_values):
            fh.write(f"{float(p[0])!r},{float(p[1])!r},"
                     f"{float(e[0])!r},{float(e[1])!r},"
                     f"{float(s[0])!r},{float(s[1])!r}\n")
