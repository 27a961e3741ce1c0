"""Correctness checks on the benchmark's outputs, made apart from the
program.

Mesh sizes, rates, nodal values, sign products and nearest-sample
searches are recomputed here from the meshes, coefficient vectors and
data sets themselves; only the error norms are the program's own.  Every
check returns a list of failure messages, empty when it passes, so one
round collects all failures before the run reports ``correct``.
"""

import numpy as np

RATE_TOL = 0.2           # window half-width around an a priori rate
AUDIT_TOL = 1e-10        # s.e above this violates the second law
STATIONARY_TOL = 1e-8    # |exact gradient| below this: a stationary point
PATCH_TOL = 1e-8         # linear fields are reproduced to this
DIRICHLET_TOL = 1e-10    # boundary vertices carry the exact potential
STAGNATION = 0.10        # coarsest data set: finest pair differs less


def mesh_h(mesh):
    """Largest edge length of a triangulation."""
    p = mesh.vertices[mesh.triangles]
    edges = p - np.roll(p, 1, axis=1)
    return float(np.sqrt(np.sum(edges ** 2, axis=-1)).max())


def last_pair_rate(hs, errors):
    return float(np.log(errors[-1] / errors[-2]) / np.log(hs[-1] / hs[-2]))


def rate_floor(column, k):
    """Lowest acceptable decay rate of an error column other than u's.

    L2 and H1 columns carry a priori rate k + 1.  The H(div) columns add
    the divergence of a vector field, one derivative more, so their a
    priori rate is k.
    """
    order = k if column.endswith("_Hdiv") else k + 1
    return order - RATE_TOL


def check_sweep(label, hs, errors, k):
    """Rates and monotone decay of one convergence sweep.

    ``hs`` lists mesh sizes coarse to fine, ``errors`` maps an error
    column to its values on those meshes.  The potential must sit in
    the windows k + 2 +- 0.2 (L2) and k + 1 +- 0.2 (H1); every other
    column must decay at least at ``rate_floor``.
    """
    failures = []
    for col, errs in errors.items():
        if any(later >= earlier for earlier, later in zip(errs, errs[1:])):
            failures.append(f"{label}: {col} does not decrease under "
                            "refinement (" + ", ".join(
                                f"{e:.3e}" for e in errs) + ")")
        rate = last_pair_rate(hs, errs)
        if col in ("u_L2", "u_H1"):
            center = k + 2 if col == "u_L2" else k + 1
            if abs(rate - center) > RATE_TOL:
                failures.append(f"{label}: {col} rate {rate:.2f} outside "
                                f"{center} +- {RATE_TOL}")
        elif rate < rate_floor(col, k):
            failures.append(f"{label}: {col} rate {rate:.2f} below "
                            f"{rate_floor(col, k):.1f}")
    return failures


def check_data_study(label, nds, finest, coarsest_pair):
    """Sampled-data stagnation study.

    ``finest`` is the finest-mesh u_L2 per data set in ascending nd;
    ``coarsest_pair`` the u_L2 of the coarsest data set on the two
    finest meshes.
    """
    failures = []
    for (nd0, e0), (nd1, e1) in zip(zip(nds, finest),
                                    zip(nds[1:], finest[1:])):
        if not e1 < e0:
            failures.append(f"{label}: finest-mesh u_L2 does not fall from "
                            f"nd={nd0} ({e0:.3e}) to nd={nd1} ({e1:.3e})")
    a, b = coarsest_pair
    rel = abs(b - a) / a
    if not rel < STAGNATION:
        failures.append(f"{label}: coarsest data set nd={nds[0]} does not "
                        f"stagnate (two finest meshes differ by {rel:.1%})")
    return failures


def sample_centres(nd):
    """Cell centres of an nd x nd sample grid, index i + nd * j."""
    centres = (np.arange(nd) + 0.5) / nd
    gx, gy = np.meshgrid(centres, centres, indexing="xy")
    return np.column_stack([gx.ravel(), gy.ravel()])


def squared_distances(points, nd):
    """(n_points, nd^2) squared distances to the sample cell centres."""
    samples = sample_centres(nd)
    return (np.sum(points ** 2, axis=1)[:, None]
            - 2.0 * points @ samples.T
            + np.sum(samples ** 2, axis=1)[None, :])


def nearest_samples(points, nd, chunk=256):
    """Index of the nearest cell centre of an nd x nd sample grid for
    each point, by a full search over all centres.  Points go through
    in chunks, so the search stays small next to the program's own
    memory use."""
    return np.concatenate(
        [np.argmin(squared_distances(points[i:i + chunk], nd), axis=1)
         for i in range(0, len(points), chunk)])


def check_assignment(label, mesh, dataset, e_values, s_values):
    """Element data must be the pair of a nearest sample.

    Where the pair differs from the one at the search's own nearest
    sample, it must equal the pair of another sample at the same
    distance (an exact tie the program may break its own way).
    """
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    idx = nearest_samples(centroids, dataset.nd)
    pairs = np.concatenate([dataset.e_values, dataset.s_values], axis=1)
    got = np.concatenate([e_values, s_values], axis=1)
    bad = []
    for t in np.flatnonzero(np.any(got != pairs[idx], axis=1)):
        d2 = squared_distances(centroids[t:t + 1], dataset.nd)[0]
        ties = d2 <= d2[idx[t]] + 1e-12
        if not np.any(np.all(pairs[ties] == got[t], axis=1)):
            bad.append(t)
    if bad:
        return [f"{label}: {len(bad)} of {len(got)} elements carry data of "
                "a sample that is not the nearest (first: element "
                f"{bad[0]})"]
    return []


def check_second_law(label, case, spaces, solution, nd=None):
    """Location rule: s.e > AUDIT_TOL only where the exact gradient
    vanishes.

    The gradient and flux fields share one node set in every
    formulation, so s.e at a node is the dot product of the two
    interleaved coefficient pairs.  A sector's corner counts as a point
    of nonzero gradient: there the exact gradient is singular.  With
    data sampled on an nd x nd grid (``nd``), a node also counts as
    stationary where the exact gradient vanishes at its nearest sample:
    the whole cell then carries zero gradient and flux data.
    """
    coords = spaces.e.node_coords
    if not np.array_equal(coords, spaces.s.node_coords):
        return [f"{label}: gradient and flux spaces differ in their nodes"]
    dots = np.sum(solution["e"].reshape(-1, 2) * solution["s"].reshape(-1, 2),
                  axis=1)
    bad = dots > AUDIT_TOL
    points, values = coords[bad], dots[bad]
    regular = ((case.domain[0] != "sector")
               | (np.hypot(points[:, 0], points[:, 1]) > 0.0))
    grad = np.full(len(points), np.inf)
    grad[regular] = np.linalg.norm(case.e(*points[regular].T), axis=-1)
    if nd is not None and len(points):
        sample = sample_centres(nd)[nearest_samples(points, nd)]
        grad = np.minimum(grad, np.linalg.norm(case.e(*sample.T), axis=-1))
    located = grad > STATIONARY_TOL
    if np.any(located):
        worst = np.argmax(np.where(located, values, -np.inf))
        x, y = points[worst]
        return [f"{label}: s.e > {AUDIT_TOL:g} at {int(located.sum())} "
                f"node(s) of nonzero gradient, worst {values[worst]:.2e} "
                f"at ({x:.4g}, {y:.4g})"]
    return []


def check_dirichlet(label, case, mesh, tags, u_coeffs):
    """u_h equals the exact potential at the vertices of the edges
    tagged ``tags`` (vertex nodes come first in a continuous space)."""
    on = np.isin(np.asarray(mesh.boundary_tags), list(tags))
    vertices = np.unique(mesh.boundary_edges[on])
    x, y = mesh.vertices[vertices].T
    gap = np.abs(u_coeffs[vertices] - case.u(x, y))
    if gap.size and gap.max() > DIRICHLET_TOL:
        return [f"{label}: u_h misses the boundary value by "
                f"{gap.max():.2e} at {int(np.sum(gap > DIRICHLET_TOL))} "
                "Dirichlet vertex(es)"]
    return []


def check_patch(label, case, spaces, solution, errors):
    """A linear state is reproduced to PATCH_TOL at every node of every
    field and in every error norm."""
    failures = []
    for name, exact in (("u", case.u), ("lam", case.lam), ("e", case.e),
                        ("s", case.s), ("mu", case.mu)):
        x, y = spaces.by_name(name).node_coords.T
        want = np.asarray(exact(x, y), dtype=float)
        got = solution[name].reshape(want.shape)
        gap = float(np.abs(got - want).max())
        if gap > PATCH_TOL:
            failures.append(f"{label}: field {name} misses the linear "
                            f"state by {gap:.2e} at a node")
    worst = max(errors, key=errors.get)
    if errors[worst] > PATCH_TOL:
        failures.append(f"{label}: {worst} = {errors[worst]:.2e} "
                        f"> {PATCH_TOL:g}")
    return failures


def check_refinement(label, coarse, fine):
    """u_L2 and u_H1 must drop from the coarse to the fine mesh."""
    return [f"{label}: {col} does not drop under refinement "
            f"({coarse[col]:.3e} -> {fine[col]:.3e})"
            for col in ("u_L2", "u_H1") if not fine[col] < coarse[col]]
