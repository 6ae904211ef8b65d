"""Mixed Dirichlet-Neumann solver on a sector grid.

The discretization is one finite-volume operator div(a grad u) in the mapped
rectangle (s, theta) = (r/R(theta), theta), made of 1-D stencils (the face
difference, the averaged cross derivative, the face average of a), metric
weights that carry the full metric/mapping tensor, and the divergence over
the cell volumes.  The vertex face (h(0) = 0) and the Neumann walls carry
exactly zero flux; the outer Dirichlet curve is imposed through the half-cell
mirror ghost at s = 1.  The solvers invert its sparse matrix A(a); the Laplace
probe is the same operator at a = 1 on the interior cells.  On an unperturbed
sector it reduces to the classic 5-point curvilinear stencil for
u_rr + (h_dot/h) u_r + u_thth/h^2 + N K u = -1.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import SectorGrid
from .profiles import OperatorProfile, regularize

__all__ = [
    "ScalarField",
    "MatrixField",
    "SolveReport",
    "solve_linear_spaceform",
    "solve_Lf",
    "normal_derivative_gamma0",
    "neumann_statistics",
    "gradient_field",
    "mapped_gradient",
    "hessian_W_field",
    "metric_gradient",
    "laplace_beltrami_probe",
    "cell_volumes",
    "grid_h",
]

# the regularization epsilons of the Picard stages, and the step cap of each stage
SCHEDULE = (1e-1, 1e-2, 1e-3, 1e-4)
MAX_ITERS = 80
ANDERSON_WINDOW = 5
# a Picard step reuses the last factor while max(a / a_lu) <= REUSE_SPREAD * min(a / a_lu)
REUSE_SPREAD = 1.5
# scaled residual a preconditioned (stale-factor) linear solve must reach
LINEAR_TOL = 1e-13
# GMRES steps of one stale-factor cycle, and the correction cycles allowed after
# a cycle that stopped early above LINEAR_TOL
STALE_RESTART = 30
REFINE_CYCLES = 2


@dataclass
class ScalarField:
    grid: SectorGrid
    values: np.ndarray  # (Nr, Nt)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.Nr, self.grid.Nt):
            raise ValueError("field shape does not match the grid")

    def __array__(self, dtype=None, copy=None):
        a = np.asarray(self.values, dtype=dtype)
        return a.copy() if copy else a


@dataclass
class MatrixField:
    grid: SectorGrid
    values: np.ndarray  # (Nr, Nt, 2, 2), w[i,j] = d_j V_i
    mask: np.ndarray  # True where the entry is excluded (degenerate gradient)

    @property
    def masked_count(self) -> int:
        return int(np.sum(self.mask))


@dataclass
class SolveReport:
    iterations: int
    final_residual: float
    epsilon_schedule: list = field(default_factory=list)
    converged: bool = False
    message: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# difference stencils on the cell-centered grid


# End closures of the cell stencils.  Each maps an end cell u0 and its inward
# neighbours u1, u2 to the stencil's value at u0.  'one-sided' assumes no
# boundary data (the vertex, or an arbitrary field); 'mirror' is the even ghost
# u0 of a Neumann wall; 'dirichlet' is the quadratic ghost -2 u0 + u1/3 of a
# field vanishing on Gamma_0, the high s end.  A first difference changes sign
# between the ends, a second difference does not.
_FIRST_LOW = {
    "one-sided": lambda u0, u1, u2: -3.0 * u0 + 4.0 * u1 - u2,
    "mirror": lambda u0, u1, u2: u1 - u0,
}
_FIRST_HIGH = {
    "one-sided": lambda u0, u1, u2: 3.0 * u0 - 4.0 * u1 + u2,
    "mirror": lambda u0, u1, u2: u0 - u1,
    "dirichlet": lambda u0, u1, u2: -2.0 * u0 - (2.0 / 3.0) * u1,
}
_SECOND = {
    "one-sided": lambda u0, u1, u2: u0 - 2.0 * u1 + u2,
    "mirror": lambda u0, u1, u2: u1 - u0,
}


def _cell_difference(u: np.ndarray, axis: int, low: str, high: str, second: bool = False):
    """Twice the first difference (2h u'), or the second difference (h^2 u''), at cell centers.

    Taken along `axis` and closed by the named end closures; a second
    difference closes only by 'one-sided' or 'mirror'.  Applied to an
    identity matrix it gives the stencil's own matrix.
    """
    v = np.moveaxis(u, axis, 0)
    out = np.empty_like(v)
    if second:
        out[1:-1] = v[2:] - 2.0 * v[1:-1] + v[:-2]
        at_low, at_high = _SECOND[low], _SECOND[high]
    else:
        out[1:-1] = v[2:] - v[:-2]
        at_low, at_high = _FIRST_LOW[low], _FIRST_HIGH[high]
    out[0] = at_low(v[0], v[1], v[2])
    out[-1] = at_high(v[-1], v[-2], v[-3])
    return np.moveaxis(out, 0, axis)


@lru_cache(maxsize=None)
def _half_difference_matrix(n: int, low: str, high: str) -> sp.csr_matrix:
    """The first difference of `_cell_difference` on n cells, halved, as a CSR matrix."""
    return sp.csr_matrix(0.5 * _cell_difference(np.eye(n), 0, low, high))


def _d_ds(grid: SectorGrid, u: np.ndarray, kind: str) -> np.ndarray:
    """d/ds at cell centers; 'solution' closes Gamma_0 by the quadratic Dirichlet ghost."""
    high = "dirichlet" if kind == "solution" else "one-sided"
    return _cell_difference(u, 0, "one-sided", high) / (2.0 * grid.ds)


def _d_dtheta(grid: SectorGrid, u: np.ndarray, kind: str) -> np.ndarray:
    """d/dtheta at cell centers; 'solution' mirrors across the Neumann walls."""
    end = "mirror" if kind == "solution" else "one-sided"
    return _cell_difference(u, 1, end, end) / (2.0 * grid.dtheta)


def _beta_centers(grid: SectorGrid) -> np.ndarray:
    return grid.s_centers[:, None] * (grid.Rp_centers / grid.R_centers)[None, :]


def metric_gradient(grid: SectorGrid, u: np.ndarray, kind: str = "solution"):
    """Orthonormal-frame gradient components (u_r, u_theta/h) at cells."""
    us = _d_ds(grid, u, kind)
    ut = _d_dtheta(grid, u, kind)
    u_r = us / grid.R_centers[None, :]
    u_tan = (ut - _beta_centers(grid) * us) / grid.h_centers
    return u_r, u_tan


def cell_volumes(grid: SectorGrid) -> np.ndarray:
    """Exact per-column radial integral of the volume density h(r)."""
    sf = grid.cone.space_form
    s_faces = np.arange(grid.Nr + 1) * grid.ds
    r_faces = s_faces[:, None] * grid.R_centers[None, :]
    H = sf.H(r_faces)
    return (H[1:] - H[:-1]) * grid.dtheta


def grid_h(grid: SectorGrid) -> float:
    """Representative mesh size: max of radial and angular physical spacings."""
    sf = grid.cone.space_form
    arc = float(np.max(sf.h(grid.R_centers)) * grid.dtheta)
    return max(float(np.max(grid.dr)), arc)


# ---------------------------------------------------------------------------
# the finite-volume operator: stencils, metric weights and divergence


def _face_geometry(grid: SectorGrid, s: np.ndarray, R: np.ndarray, Rp: np.ndarray):
    """Metric data (G, h, beta) at faces of scaled radius s on rays of boundary radius R, R'."""
    h = grid.cone.space_form.h(s * R)
    return h * R, h, s * Rp / R


def _finite_volume(grid: SectorGrid):
    """The operator div(a grad u) of the scheme on one grid, as (inv_volume, families).

    The face families are the s-faces fi = 1..Nr, the last one on Gamma_0,
    and the interior theta-faces fj = 1..Nt-1; the vertex and the walls carry
    no flux.  A family (face_avg, div, terms) has the flux
    face_avg(a) * sum(weight * stencil(u) over terms), and the operator is
    inv_volume * sum(div(flux) over families).  Every operator is a pair
    (radial, angular) of 1-D sparse matrices, None for the identity, that
    acts on (Nr, Nt) arrays as their Kronecker product.  Stencil entries are
    small exact fractions and the spacings sit in the weights, so a
    difference is taken before it is weighted and a constant field carries
    exactly zero flux.
    """
    Nr, Nt = grid.Nr, grid.Nt
    ds, dt = grid.ds, grid.dtheta
    # the last s-face lies on Gamma_0: it differences against the half-cell
    # mirror ghost -u[-1] and takes the coefficient a[-1]
    diff_s = sp.diags([np.r_[-np.ones(Nr - 1), -2.0], 1.0], [0, 1], shape=(Nr, Nr))
    avg_s = sp.diags([np.r_[np.full(Nr - 1, 0.5), 1.0], 0.5], [0, 1], shape=(Nr, Nr))
    div_s = sp.diags([1.0, -1.0], [0, -1], shape=(Nr, Nr))
    diff_t = sp.diags([-1.0, 1.0], [0, 1], shape=(Nt - 1, Nt))
    avg_t = sp.diags([0.5, 0.5], [0, 1], shape=(Nt - 1, Nt))
    div_t = sp.diags([1.0, -1.0], [0, -1], shape=(Nt, Nt - 1))

    # metric data at the s-faces (fi = 1..Nr) and the interior theta-faces (fj = 1..Nt-1)
    R = grid.R_centers[None, :]
    s_f = (np.arange(1, Nr + 1) * ds)[:, None]
    Gs, h_s, beta_s = _face_geometry(grid, s_f, R, grid.Rp_centers[None, :])
    Gt, h_t, beta_t = _face_geometry(
        grid, grid.s_centers[:, None], grid.R_faces[None, 1:-1], grid.Rp_faces[None, 1:-1]
    )
    s_terms = [(Gs * (1.0 / (R * R) + (beta_s / h_s) ** 2) * (dt / ds), (diff_s, None))]
    t_terms = [(Gt * (1.0 / (h_t * h_t)) * (ds / dt), (None, diff_t))]
    if grid.radius.epsilon != 0.0:
        # the 'solution'-kind cell derivatives of _d_ds and _d_dtheta, times ds and dtheta
        der_s = _half_difference_matrix(Nr, "one-sided", "dirichlet")
        der_t = _half_difference_matrix(Nt, "mirror", "mirror")
        w_st = Gs * (-beta_s / (h_s * h_s))
        w_st[-1] = 0.0  # u_theta vanishes along Gamma_0
        s_terms.append((w_st, (avg_s, der_t)))
        t_terms.append((Gt * (-beta_t / (h_t * h_t)), (der_s, avg_t)))
    families = [
        ((avg_s, None), (div_s, None), s_terms),
        ((None, avg_t), (None, div_t), t_terms),
    ]
    return 1.0 / cell_volumes(grid), families


def _along(pair, x: np.ndarray) -> np.ndarray:
    """Apply the Kronecker product of a (radial, angular) pair to a 2-D array."""
    radial, angular = pair
    x = x if radial is None else radial @ x
    return x if angular is None else (angular @ x.T).T


def _diagonals(m) -> dict:
    """The diagonals {k: values} of a 1-D operator, values[r] = m[r, r + k], 0 where m stores nothing.

    None is an identity; its one diagonal is None, a factor 1 that is left out.
    """
    if m is None:
        return {0: None}
    m = m.todia()
    bands = {}
    for k, values in zip(m.offsets.tolist(), m.data):
        rows = np.arange(max(0, -k), min(m.shape[0], m.shape[1] - k))
        band = bands.setdefault(k, np.zeros(m.shape[0]))
        band[rows] += values[rows + k]
    return bands


def _reach(div_band, e: int, grad_band, n: int):
    """Along one axis of n cells, chain div's diagonal e with a diagonal of grad.

    Returns the runs of cells i (as slices) where div stores (i, i + e) and
    grad stores the row of face i + e, and grad's value there for each cell
    (None for an identity).
    """
    stored = np.zeros(n + 2, dtype=bool)
    stored[1:-1] = True if div_band is None else div_band != 0
    g = None
    if grad_band is not None:
        face = np.arange(n) + e
        inside = (face >= 0) & (face < grad_band.size)
        g = np.zeros(n)
        g[inside] = grad_band[face[inside]]
        stored[1:-1] &= g != 0
    edges = np.flatnonzero(stored[1:] != stored[:-1])
    return [slice(int(s), int(t)) for s, t in zip(edges[::2], edges[1::2])], g


def _support(band, n: int) -> slice:
    """The cells from the first to the last stored entry of a diagonal (all n for an identity)."""
    if band is None:
        return slice(0, n)
    on = np.flatnonzero(band)
    return slice(int(on[0]), int(on[-1]) + 1) if on.size else slice(0, 0)


def _kron_entries(r, t):
    """The Kronecker entries r[i] * t[j] on a rectangle, as an array that broadcasts over it.

    An identity side (None) is a factor 1.  A side that is constant on the
    rectangle folds into the other, which gives the same products; only two
    varying sides need the full outer product.
    """
    if r is None or t is None:
        return 1.0 if r is None and t is None else t if r is None else r[:, None]
    if (t == t[0]).all():
        return (r * t[0])[:, None]
    if (r == r[0]).all():
        return r[0] * t
    return np.multiply.outer(r, t)


def _within(inner: tuple, outer: tuple) -> tuple:
    """The rectangle `inner` (a pair of slices) in the coordinates of the rectangle `outer` that holds it."""
    return tuple(slice(i.start - o.start, i.stop - o.start) for i, o in zip(inner, outer))


def _contributions(grid: SectorGrid, inv_volume: np.ndarray, families) -> list:
    """The operator's contributions to A(a), expanded from the diagonals of its 1-D operators.

    A flux term with div pair (D_r, D_t), face coefficient c and stencil pair
    (G_r, G_t) adds to row (i, j) at stencil offset (p, q)
    ((inv_volume D_r[i, i+e] D_t[j, j+f]) c[i+e, j+f]) (G_r[i+e, i+p] G_t[j+f, j+q])
    for each div diagonal (e, f).  Returns groups in the order of the sparse
    product's summation: the last flux term first, its div diagonals by
    decreasing offset (the faces by decreasing index), their stencil
    diagonals by increasing offset.  A group (term, inv_volume times the div
    entries on the group's rectangle of cells, the matching rectangle of
    faces, events) is one term and div diagonal; an event ((p, q), cells, the
    cells within the group's rectangle, stencil entries) is one stencil
    diagonal on a rectangle of cells where every factor is stored.  Summing
    each entry's contributions in this order gives the product's bits.
    """
    Nr, Nt = grid.Nr, grid.Nt
    terms = [(k, div, st) for k, (_, div, ts) in enumerate(families) for _, st in ts]
    groups, scaled, bands = [], {}, {}

    def diagonals(m):  # each 1-D operator is read once; terms share them
        if id(m) not in bands:
            bands[id(m)] = _diagonals(m)
        return bands[id(m)]

    for b in reversed(range(len(terms))):
        family, div, st = terms[b]
        (dR, dT), (gR, gT) = [[diagonals(m) for m in pair] for pair in (div, st)]
        reach_r = {(e, g): _reach(dR[e], e, gR[g], Nr) for e in dR for g in gR}
        reach_t = {(f, h): _reach(dT[f], f, gT[h], Nt) for f in dT for h in gT}
        for e, f in product(sorted(dR, reverse=True), sorted(dT, reverse=True)):
            rect = (_support(dR[e], Nr), _support(dT[f], Nt))
            if (family, e, f) not in scaled:
                d_r, d_t = (d if d is None else d[axis] for d, axis in zip((dR[e], dT[f]), rect))
                scaled[family, e, f] = inv_volume[rect] * _kron_entries(d_r, d_t)
            faces = tuple(slice(axis.start + k, axis.stop + k) for axis, k in zip(rect, (e, f)))
            events = []
            for g, h in product(sorted(gR), sorted(gT)):
                (runs_r, g_r), (runs_t, g_t) = reach_r[e, g], reach_t[f, h]
                for cells in product(runs_r, runs_t):
                    r, t = (v if v is None else v[axis] for v, axis in zip((g_r, g_t), cells))
                    events.append(((e + g, f + h), cells, _within(cells, rect), _kron_entries(r, t)))
            groups.append((b, scaled[family, e, f], faces, events))
    return groups


def _operator_matrix(grid: SectorGrid, N: int, K: int):
    """Return a -> A(a), the CSR matrix of div(a grad u) + N K u on the grid.

    The grid fixes the contributions (`_contributions`).  A call sums the
    contributions of each stencil offset (p, q) (the 9-point stencil, plus
    two rows more at the vertex) in its own row of one zeroed array of
    diagonals, and adds N K on the centre offset.  Matrix row i of offset
    d = p Nt + q lands in column i + d, so that column j holds A[j - d, j];
    scipy converts these diagonals to CSR, lists each row's columns in
    ascending order and drops exact zeros.

    Each entry adds its contributions in the order of the sparse product the
    operator defines, diag(inv_volume) [D_1 .. D_m] diag(c) [G_1; ..; G_m]
    (+ N K I) over its stacked flux terms.  So A(a) is that product bit for
    bit, entries and dropped zeros alike, once the product's rows are sorted.
    """
    inv_volume, families = _finite_volume(grid)
    groups = _contributions(grid, inv_volume, families)
    n, shift = grid.n_cells, N * K
    offsets = sorted({o for *_, events in groups for o, *_ in events} | {(0, 0)})
    delta = np.array([p * grid.Nt + q for p, q in offsets])
    coefficient = [(w, avg) for avg, _, terms in families for w, _ in terms]

    # the diagonals are rows of `width` in a flat array that starts `pad` early,
    # so that offset k's matrix rows i = 0..n-1 sit at pad + k width + d + i:
    # never before the start, and apart from every other offset's rows
    pad = -delta.min()
    width = n + delta.max() + pad
    starts = [(o, pad + k * width + d) for k, (o, d) in enumerate(zip(offsets, delta.tolist()))]

    def matrix(a: np.ndarray):
        c = [w * _along(avg, a) for w, avg in coefficient]
        flat = np.zeros(pad + len(offsets) * width)
        sums = {o: flat[at : at + n].reshape(grid.Nr, grid.Nt) for o, at in starts}
        for b, scaled_inv, faces, events in groups:
            flux = scaled_inv * c[b][faces]
            for o, cells, sub, entries in events:
                sums[o][cells] += flux[sub] * entries
        del c
        if shift:
            sums[0, 0] += shift
        A = sp.dia_matrix((flat[pad:].reshape(len(offsets), width), delta), shape=(n, n)).tocsr()
        del flat, sums
        if A.data.base is not None and A.data.base.size > A.nnz:
            # the conversion's buffers hold a slot for every stored diagonal entry:
            # copy the entries down to nnz, once the diagonals are freed
            A.data, A.indices = A.data.copy(), A.indices.copy()
        return A

    return matrix


def laplace_beltrami_probe(grid: SectorGrid, q: np.ndarray):
    """Discrete Laplace-Beltrami of an arbitrary cell field.

    The solver's operator with a = 1, applied along the array axes and kept
    only on cells whose stencil reaches neither the Gamma_0 ghost nor the
    wall mirror (no boundary data is assumed for q).  Returns (values, valid)
    where valid marks the evaluated cells.
    """
    inv_volume, families = _finite_volume(grid)
    lap = inv_volume * sum(
        _along(div, sum(w * _along(st, q) for w, st in terms)) for _, div, terms in families
    )
    valid = np.zeros(q.shape, dtype=bool)
    valid[: grid.Nr - 1, 1 : grid.Nt - 1] = True
    return np.where(valid, lap, np.nan), valid


def _factor(A):
    """SuperLU factor of A under a minimum-degree ordering of A^T + A, or None if singular.

    The finite-volume matrix is nearly symmetric in pattern, so the symmetric
    ordering fills in less than SuperLU's default COLAMD.  Column panels of
    width 1 factored these matrices 10-25% faster than SuperLU's default width
    on a 2-core x86 VM (64^2 to 256^2), with less workspace, which matters
    because a factor is kept alive across Picard steps.
    """
    try:
        return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", panel_size=1)
    except RuntimeError as err:
        if "exactly singular" not in str(err):
            raise
        return None


def _stale_solve(lu, A, b, x0):
    """Solve A x = b by GMRES preconditioned by the factor lu of a nearby matrix.

    One cycle of at most STALE_RESTART steps starts from x0.  GMRES stops on
    the 2-norm of the preconditioned residual, which bounds the componentwise
    scaled residual only loosely: the vertex rows are about (h dtheta)^-2
    larger than the Gamma_0 rows, so that norm bottoms out near 1e-9 and a
    cycle may stop on its own while the scaled residual still misses
    LINEAR_TOL.  Such a cycle is refined: at most REFINE_CYCLES more cycles
    solve A dx = b - A x (rtol 1e-3) with the same factor.  A cycle that uses
    all its steps means the factor is too far off, and ends the attempt.
    Returns x only if its scaled residual meets LINEAR_TOL, else None.
    """
    M = spla.LinearOperator(A.shape, matvec=lu.solve, dtype=float)  # a dtype spares a probe solve

    def cycle(rhs, start, rtol):
        steps = []
        y, _ = spla.gmres(A, rhs, x0=start, rtol=rtol, restart=STALE_RESTART, maxiter=1, M=M,
                          callback=steps.append, callback_type="pr_norm")
        return y, len(steps) < STALE_RESTART

    # aim two orders below LINEAR_TOL, then refine what stopped early above it
    x, early = cycle(b, x0, 1e-2 * LINEAR_TOL)
    refined = 0
    while _scaled_residual(A, x, b) > LINEAR_TOL:
        if not early or refined == REFINE_CYCLES:
            return None
        dx, early = cycle(b - A @ x, None, 1e-3)
        x, refined = x + dx, refined + 1
    return x


def _scaled_residual(A, x, b) -> float:
    """Componentwise-relative residual max |Ax-b| / (|A||x| + |b|).

    Near the vertex the divided operator rows scale like 1/(h dtheta)^2, so a
    raw pointwise residual bottoms out around 1e-8 at 128^2 in double
    precision regardless of the solver; the scaled form measures what the
    linear algebra and the Picard lag actually control.
    """
    r = np.abs(A @ x - b)
    scale = np.abs(A) @ np.abs(x) + np.abs(b)
    return float(np.max(r / scale))


def solve_linear_spaceform(grid: SectorGrid, N: int = 2, tol: float = 1e-9, *, factor: list | None = None):
    """Solve Delta u + N K u = -1 with u = 0 on Gamma_0, du/dnu = 0 on walls.

    K is the grid's space-form curvature.  Failure to meet the residual
    tolerance (singular or indefinite operator, e.g. large spherical caps) is
    reported, not raised.

    factor, when given, is a caller-owned slot: a list holding at most one
    SuperLU factor, from an earlier solve on a grid of the same size.  A held
    factor first serves as the preconditioner of `_stale_solve`, started from
    its own solution lu.solve(b).  If that misses LINEAR_TOL, the slot is
    emptied, freeing the factor, before A is factored; the new factor is left
    in the slot.  Without a slot A is always factored, and the factor dies
    with the call.
    """
    K = grid.cone.space_form.curvature
    A = _operator_matrix(grid, N, K)(np.ones((grid.Nr, grid.Nt)))
    b = -np.ones(grid.n_cells)
    x = _stale_solve(factor[0], A, b, factor[0].solve(b)) if factor else None
    if x is None:
        if factor:
            factor.clear()  # a rejected factor is freed before the new one is built
        lu = _factor(A)
        x = None if lu is None else lu.solve(b)
        if factor is not None and lu is not None:
            factor.append(lu)
    if x is None or not np.all(np.isfinite(x)):
        x, res = np.zeros(grid.n_cells), float("inf")
        message = "linear solve produced non-finite values (operator indefinite or singular)"
    else:
        res = _scaled_residual(A, x, b)
        message = "" if res <= tol else f"residual {res:.3e} above tolerance {tol:.1e}"
    report = SolveReport(iterations=1, final_residual=res, converged=not message, message=message)
    return ScalarField(grid, x.reshape(grid.Nr, grid.Nt)), report


def solve_Lf(grid: SectorGrid, profile: OperatorProfile, tol: float = 1e-8, omega: float | None = None):
    """Picard continuation for L_f u = -1 on a Euclidean sector grid.

    Each iteration freezes the coefficient a(x) = f_eps'(|grad u|)/|grad u| of
    the current iterate u_k (continuous at critical points thanks to the
    epsilon regularization) and solves the linear anisotropic problem for
    x = A(a)^{-1} b.  Stages walk down the epsilon SCHEDULE with warm starts,
    each capped at MAX_ITERS steps.

    The first stage starts from the closed form of the unperturbed sector,
    u0 = N (g(R(theta)/N) - g(s R(theta)/N)) on the cell centers, each column
    at its own radius, which vanishes on Gamma_0.  That start needs the
    profile's conjugate g and max R(theta)/N below profile.slope_sup, where g
    is finite; otherwise the first stage starts cold from u = 0 and takes the
    damped Picard step u_{k+1} = g_k = u_k + omega (x - u_k).  Every
    warm-started stage (every later stage, and the first when it starts from
    the radial profile) mixes the damped steps by type-II Anderson
    acceleration (Walker & Ni 2011) over the last ANDERSON_WINDOW iterations:
    with f_k = x - u_k, u_{k+1} = g_k - dG gamma, where gamma minimizes
    ||f_k - dF gamma||_2 over the differences dF, dG of successive f and g.
    omega is the damping weight of both kinds of update.  If the scaled
    residual stops improving, omega is halved once and the mixing history is
    cleared; a second stall ends the solve with converged=False.

    The linear solves reuse the last SuperLU factor lu, built from the
    coefficient a_lu.  While the ratio r = a / a_lu over the cells has
    max r <= REUSE_SPREAD * min r, a step solves A(a) x = b by one cycle of
    GMRES (restart STALE_RESTART = 30) preconditioned by lu and started from
    the previous x; a cycle that stops early above LINEAR_TOL is refined by
    at most REFINE_CYCLES correction cycles on the residual (`_stale_solve`).
    The step accepts x only if its scaled residual is at most LINEAR_TOL.
    Otherwise the stale factor is dropped and A(a) is factored anew; a
    singular factor ends the solve with converged=False.  Convergence is
    always judged on the exact A(a).

    The Laplacian has a identically 1 and is one linear solve: the result is
    `solve_linear_spaceform`'s, whose report has an empty epsilon_schedule.
    """
    if grid.cone.space_form.curvature != 0:
        raise ValueError("the quasilinear solver is Euclidean-only; use solve_linear_spaceform")
    if profile.is_laplacian:
        # a is identically 1: a single linear solve is exact
        return solve_linear_spaceform(grid, 2, tol=tol)

    p = profile.degeneracy_exponent
    if omega is None:
        omega = 1.0 if (p is not None and 2.0 <= p <= 3.0) else 0.5

    N, K = 2, 0
    # the radial start is defined only below the profile's slope bound, where g is finite
    warm = profile.g is not None and grid.radius.max_radius / N < profile.slope_sup
    if warm:
        # the unperturbed sector's closed form, each column at its own radius R(theta)
        R = grid.R_centers[None, :] / N
        u = N * (profile.g(R) - profile.g(grid.s_centers[:, None] * R))
    else:
        u = np.zeros((grid.Nr, grid.Nt))

    def speed(v):
        vr, vt = metric_gradient(grid, v, kind="solution")
        return np.hypot(vr, vt)

    matrix = _operator_matrix(grid, N, K)
    b = -np.ones(grid.n_cells)
    lu = a_lu = None  # the last factor and the coefficient it was built from
    total_iters = 0

    def result(res, message=""):
        report = SolveReport(total_iters, res, list(SCHEDULE), converged=not message, message=message)
        return ScalarField(grid, u), report

    halved = False
    res = float("inf")
    for stage, eps in enumerate(SCHEDULE):
        reg = regularize(profile, eps)
        stage_tol = tol if stage == len(SCHEDULE) - 1 else max(tol, 1e-2 * eps)
        best = float("inf")
        no_improvement = 0
        stage_done = False
        # Anderson history: the last ANDERSON_WINDOW + 1 residuals f and damped steps g
        hist_f = deque(maxlen=ANDERSON_WINDOW + 1)
        hist_g = deque(maxlen=ANDERSON_WINDOW + 1)
        for _ in range(MAX_ITERS):
            a = reg.coefficient(speed(u))
            if lu is not None:
                ratio = a / a_lu
                if ratio.max() > REUSE_SPREAD * ratio.min():
                    lu = None  # freed before this step's matrix is built
            A = matrix(a)
            res = _scaled_residual(A, u.ravel(), b)
            if res <= stage_tol:
                stage_done = True
                break
            # stalls show up as period-2 oscillation for p > 2, not blow-up:
            # treat lack of progress as divergence and halve omega once
            no_improvement = 0 if res < 0.9 * best else no_improvement + 1
            best = min(best, res)
            if no_improvement >= 5:
                if not halved:
                    omega *= 0.5
                    halved = True
                    no_improvement = 0
                    hist_f.clear()
                    hist_g.clear()
                else:
                    return result(res, f"Picard stalled at epsilon={eps} (omega={omega})")
            total_iters += 1
            # lu is only set once a step has solved, so x holds the last solution
            x = None if lu is None else _stale_solve(lu, A, b, x.ravel())
            if x is None:
                lu = None  # a rejected factor is freed before the new one is built
                lu, a_lu = _factor(A), a
                x = None if lu is None else lu.solve(b)
            if x is None or not np.all(np.isfinite(x)):
                return result(float("inf"), f"linear stage solve failed at epsilon={eps}")
            x = x.reshape(grid.Nr, grid.Nt)
            g = (1.0 - omega) * u + omega * x
            if warm or stage > 0:
                hist_f.append((x - u).ravel())
                hist_g.append(g.ravel())
                if len(hist_f) > 1:
                    dF = np.diff(hist_f, axis=0).T
                    dG = np.diff(hist_g, axis=0).T
                    gamma = np.linalg.lstsq(dF, hist_f[-1], rcond=None)[0]
                    g = g - (dG @ gamma).reshape(grid.Nr, grid.Nt)
            u = g
        if not stage_done and stage == len(SCHEDULE) - 1:
            return result(res, f"iteration cap {MAX_ITERS} hit at epsilon={eps}")
    return result(res)


# ---------------------------------------------------------------------------
# post-processing


def normal_derivative_gamma0(grid: SectorGrid, u) -> np.ndarray:
    """One-sided second-order normal derivative on each Gamma_0 face.

    Differences the last three interior cells only (no boundary value): the
    half-cell Dirichlet imposition shifts the discrete field by a constant
    that pure interior differencing cancels.  The tangential derivative of u
    vanishes along the outer curve, which supplies the normal-frame factor.
    """
    vals = np.asarray(u)
    sf = grid.cone.space_form
    us_boundary = (2.0 * vals[-1] - 3.0 * vals[-2] + vals[-3]) / grid.ds
    u_r = us_boundary / grid.R_centers
    hR = sf.h(grid.R_centers)
    return u_r * np.sqrt(hR**2 + grid.Rp_centers**2) / hR


def neumann_statistics(grid: SectorGrid, u):
    """(mean, spread, max deviation) of the Neumann data -du/dnu over Gamma_0.

    The mean and the RMS spread about it are weighted by face length; the max
    deviation is the largest |-du/dnu - mean| over the faces.
    """
    dn = -normal_derivative_gamma0(grid, u)
    w = grid.gamma0_weights
    mean = float(np.sum(w * dn) / np.sum(w))
    spread = float(np.sqrt(np.sum(w * (dn - mean) ** 2) / np.sum(w)))
    return mean, spread, float(np.max(np.abs(dn - mean)))


def gradient_field(grid: SectorGrid, u) -> np.ndarray:
    """Cell-centered gradient, Cartesian components last (Euclidean grids only)."""
    if grid.cone.space_form.curvature != 0:
        raise ValueError("Cartesian gradient components require the Euclidean space form")
    return np.stack(_cartesian_derivatives(grid, np.asarray(u), "solution"), axis=-1)


def _cartesian_derivatives(grid: SectorGrid, q: np.ndarray, kind: str):
    """(d/dx, d/dy) of a cell field: the metric gradient rotated to Cartesian axes."""
    q_r, q_tan = metric_gradient(grid, q, kind)
    theta = grid.theta_centers[None, :]
    ct, st = np.cos(theta), np.sin(theta)
    return q_r * ct - q_tan * st, q_r * st + q_tan * ct


def mapped_gradient(grid: SectorGrid, u, profile: OperatorProfile):
    """(grad u, V, degenerate) with V = f'(|grad u|) grad u / |grad u|, Cartesian components last.

    Degenerate cells, where |grad u| <= 1e-8 max |grad u| (every cell of a
    constant field), get V = 0.
    """
    grad = gradient_field(grid, u)
    speed = np.hypot(grad[..., 0], grad[..., 1])
    degenerate = speed <= 1e-8 * float(speed.max())
    safe = np.where(degenerate, 1.0, speed)
    coef = np.where(degenerate, 0.0, profile.f_prime(safe) / safe)
    return grad, coef[..., None] * grad, degenerate


def hessian_W_field(grid: SectorGrid, u, profile: OperatorProfile) -> MatrixField:
    """W = Jacobian of the mapped gradient x -> f'(|grad u|) grad u / |grad u|.

    Degenerate cells are masked together with every cell whose difference
    stencil touches them; the masked count is reported, not hidden.
    """
    if grid.cone.space_form.curvature != 0:
        raise ValueError("W is Euclidean-specific; space forms audit the Hessian instead")
    _, V, degenerate = mapped_gradient(grid, u, profile)
    W = np.empty((grid.Nr, grid.Nt, 2, 2))
    W[..., 0, 0], W[..., 0, 1] = _cartesian_derivatives(grid, V[..., 0], "generic")
    W[..., 1, 0], W[..., 1, 1] = _cartesian_derivatives(grid, V[..., 1], "generic")
    # one-sided edge stencils reach two cells inward
    return MatrixField(grid, W, _dilate(degenerate, 2))


def _dilate(mask: np.ndarray, reach: int) -> np.ndarray:
    """Cells within `reach` cells of a True cell in both directions (a square dilation).

    The square is separable: a running maximum along each axis in turn, with
    False beyond the grid.
    """
    for axis in (0, 1):
        m = np.moveaxis(mask, axis, 0)
        padded = np.zeros((m.shape[0] + 2 * reach,) + m.shape[1:], dtype=bool)
        padded[reach:-reach] = m
        out = np.zeros_like(m)
        for k in range(2 * reach + 1):
            out |= padded[k : k + m.shape[0]]
        mask = np.moveaxis(out, 0, axis)
    return mask


def interior_cell_mask(grid: SectorGrid) -> np.ndarray:
    """Cells off every grid edge."""
    m = np.zeros((grid.Nr, grid.Nt), dtype=bool)
    m[1:-1, 1:-1] = True
    return m
