"""Mixed Dirichlet-Neumann solver on a sector grid.

The discretization is one finite-volume operator div(a grad u) in the mapped
rectangle (s, theta) = (r/R(theta), theta): four flux terms, the face
difference and the averaged cross derivative through the s-faces and the
theta-faces, each a metric weight and a pair of 1-D stencils, divided by the
cell volumes.  The vertex face (h(0) = 0) and the Neumann walls carry exactly
zero flux; the outer Dirichlet curve is imposed through the half-cell mirror
ghost at s = 1.  The solvers invert its sparse matrix A(a), filled from the
terms' stencil weights; the Laplace probe applies the same terms at a = 1 on
the interior cells.  On an unperturbed sector it reduces to the classic
5-point curvilinear stencil for u_rr + (h_dot/h) u_r + u_thth/h^2 + N K u = -1.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from weakref import WeakKeyDictionary

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack, solve_triangular

from .mesh import SectorGrid
from .profiles import OperatorProfile, regularize

__all__ = [
    "MatrixField",
    "SolveReport",
    "solve_linear_spaceform",
    "solve_Lf",
    "normal_derivative_gamma0",
    "neumann_statistics",
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
# a Picard step solves to FORCING times the step's own nonlinear residual, but
# to no scaled residual above LINEAR_TOL (at FORCING 1e-2 one p = 3 rigidity
# rung stopped an iteration early); a linear solve reaches its caller's tol
LINEAR_TOL = 1e-13
FORCING = 1e-3
# GMRES steps of one cycle, and the correction cycles allowed after a cycle
# that stopped early above its tolerance
GMRES_RESTART = 30
REFINE_CYCLES = 2
# numpy writes a binary operation's result into a temporary operand of 256 KiB
# or more; a (..., 2, 2) float64 stack reaches that size at 8192 cells
_TRANSPOSED_FROM_CELLS = 256 * 1024 // 32


@dataclass
class MatrixField:
    """A field of 2x2 matrices W with its N = 2 algebra: Tr, S_2 and the minor form.

    The algebra is formed once, on the entries a = w00, b = w01, c = w10,
    d = w11.  Each sum runs in the order np.einsum takes in the general
    (..., n, n) stack forms (kept in tests/reference.py), so every value is
    bitwise theirs, signed zeros included: einsum's trace starts from +0.0,
    and the minor form's off-diagonal entries add the zeros of Tr(W) Id.
    """

    values: np.ndarray  # (Nr, Nt, 2, 2), w[i,j] = d_j V_i; hessian_W_field stores each w[i,j] contiguous
    mask: np.ndarray  # True where the entry is excluded (degenerate gradient)

    def __post_init__(self):
        v = self.values
        self.a, self.b, self.c, self.d = a, b, c, d = v[..., 0, 0], v[..., 0, 1], v[..., 1, 0], v[..., 1, 1]
        self.tr = tr = 0.0 + a + d
        # S2(W) = (Tr(W)^2 - Tr(W^2)) / 2
        self.s2 = 0.5 * (tr * tr - ((a * a + b * c) + (c * b + d * d)))
        # S2_ij(W) = -w_ji + delta_ij Tr(W)
        zero = tr * 0.0
        self.minor = (-a + tr, -c + zero, -b + zero, -d + tr)

    @property
    def masked_count(self) -> int:
        return int(np.sum(self.mask))

    def newton_gap(self) -> np.ndarray:
        """(N-1)/(2N) Tr(W)^2 - S2(W); nonnegative for W = BC, B sym PSD, C sym."""
        return 0.25 * self.tr * self.tr - self.s2

    def consistency_gap(self) -> np.ndarray:
        """|(1/2) sum_ij S2_ij w_ij - S2(W)|, an exact algebraic identity."""
        s00, s01, s10, s11 = self.minor
        return np.abs(0.5 * ((s00 * self.a + s01 * self.b) + (s10 * self.c + s11 * self.d)) - self.s2)

    def contract(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """sum_ij S2_ij(W) x_i y_j for fields of vectors, components last.

        np.einsum sums the general form in the order the minor form's stack
        is stored: by rows, but by columns from 8192 cells on, where numpy
        builds -W^T + Tr(W) Id in the 256 KiB buffer of its temporary -W^T,
        which is stored transposed.  The sum here follows the same rule.
        """
        s00, s01, s10, s11 = self.minor
        x0, x1, y0, y1 = x[..., 0], x[..., 1], y[..., 0], y[..., 1]
        t00, t01, t10, t11 = (s00 * x0) * y0, (s01 * x0) * y1, (s10 * x1) * y0, (s11 * x1) * y1
        if self.tr.size >= _TRANSPOSED_FROM_CELLS:
            return ((t00 + t10) + t01) + t11
        return ((t00 + t01) + t10) + t11


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
    # the interior is differenced straight into out: a temporary of the
    # field's size would cost more in page faults than the arithmetic
    if second:
        mid = np.multiply(v[1:-1], 2.0, out=out[1:-1])
        np.add(np.subtract(v[2:], mid, out=mid), v[:-2], out=mid)  # v[2:] - 2 v[1:-1] + v[:-2]
        at_low, at_high = _SECOND[low], _SECOND[high]
    else:
        np.subtract(v[2:], v[:-2], out=out[1:-1])
        at_low, at_high = _FIRST_LOW[low], _FIRST_HIGH[high]
    out[0] = at_low(v[0], v[1], v[2])
    out[-1] = at_high(v[-1], v[-2], v[-3])
    return np.moveaxis(out, 0, axis)


@lru_cache(maxsize=None)
def _half_difference(n: int, low: str, high: str) -> dict:
    """The first difference of `_cell_difference` on n cells, halved, as a stencil {offset: entries per row}."""
    m = 0.5 * _cell_difference(np.eye(n), 0, low, high)
    diagonals = {k: np.diagonal(m, k) for k in range(-2, 3)}
    return {k: np.pad(v, (max(0, -k), max(0, k))) for k, v in diagonals.items() if v.any()}


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


def metric_gradient(grid: SectorGrid, u: np.ndarray, kind: str = "solution",
                    return_coordinates: bool = False):
    """Orthonormal-frame gradient components (u_r, u_theta/h) at cells.

    With `return_coordinates`, also the coordinate derivatives (d/ds, d/dtheta)
    they are formed from: (u_r, u_tan, u_s, u_theta).
    """
    us = _d_ds(grid, u, kind)
    ut = _d_dtheta(grid, u, kind)
    u_r = us / grid.R_centers[None, :]
    u_tan = (ut - _beta_centers(grid) * us) / grid.h_centers
    return (u_r, u_tan, us, ut) if return_coordinates else (u_r, u_tan)


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


_FLUX_TERMS: WeakKeyDictionary = WeakKeyDictionary()


def _flux_terms(grid: SectorGrid):
    """The operator div(a grad u) on one grid, as (inv_volume, volume, terms); built once per grid.

    A term (axis, w, radial, angular) is the flux w * face_avg(a) * (radial
    x angular) u through the faces of `axis`: the s-faces fi = 1..Nr, the last
    on Gamma_0, or the interior theta-faces; the vertex and the walls carry
    none.  A stencil {k: entries} gives row r (a face along `axis`, a cell
    along the other) entries[r] times cell r + k; a scalar serves every row.
    Per axis: the face difference and, at eps != 0, the cross derivative
    (`_half_difference`).  The spacings sit in w: a constant has zero flux.
    The fill and the probe find each stencil's runs (`_runs`).  The cell
    volumes V stay beside inv_volume: the separable part reads their ratio.
    """
    if grid in _FLUX_TERMS:
        return _FLUX_TERMS[grid]
    Nr, ds, dt = grid.Nr, grid.ds, grid.dtheta

    def geometry(s, R, Rp):  # metric data (G, h, beta) at faces of scaled radius s on rays of radius R, R'
        h = grid.cone.space_form.h(s * R)
        return h * R, h, s * Rp / R

    R = grid.R_centers[None, :]
    Gs, h_s, beta_s = geometry((np.arange(1, Nr + 1) * ds)[:, None], R, grid.Rp_centers[None, :])
    Gt, h_t, beta_t = geometry(grid.s_centers[:, None], grid.R_faces[None, 1:-1], grid.Rp_faces[None, 1:-1])

    def radial(inner, last):  # a diagonal on the s-faces; the last, Gamma_0, meets the mirror ghost -u[-1]
        return np.r_[np.full(Nr - 1, inner), last]

    terms = [(0, Gs * (1.0 / (R * R) + (beta_s / h_s) ** 2) * (dt / ds),
              {0: radial(-1.0, -2.0), 1: radial(1.0, 0.0)}, {0: 1.0}),
             (1, Gt * (1.0 / (h_t * h_t)) * (ds / dt), {0: 1.0}, {0: -1.0, 1: 1.0})]
    if grid.radius.epsilon != 0.0:
        w_st = Gs * (-beta_s / (h_s * h_s))
        w_st[-1] = 0.0  # u_theta vanishes along Gamma_0
        terms.insert(1, (0, w_st, {0: radial(0.5, 1.0), 1: radial(0.5, 0.0)},
                         _half_difference(grid.Nt, "mirror", "mirror")))
        terms.append((1, Gt * (-beta_t / (h_t * h_t)), _half_difference(Nr, "one-sided", "dirichlet"),
                      {0: 0.5, 1: 0.5}))
    # V and 1 / V in one block: as two arrays, the second one fragmented the
    # heap of a rigidity pass, whose 256^2 rungs then peaked 7 MB higher
    both = np.empty((2, Nr, grid.Nt))
    both[0] = cell_volumes(grid)
    np.divide(1.0, both[0], out=both[1])
    _FLUX_TERMS[grid] = both[1], both[0], terms
    return _FLUX_TERMS[grid]


def _runs(stencil: dict, rows: int, columns: int, shift: int = 0) -> list:
    """Each run of rows where a diagonal k of a stencil (`_flux_terms`) is nonzero and in the matrix.

    As (k + shift, the rows, the rows less shift, the entries), the entries of a constant run a scalar.
    """
    runs = []
    for k, entries in sorted(stencil.items()):
        lo, hi = max(0, -k), min(rows, columns - k)
        entries = np.full(rows, entries) if np.ndim(entries) == 0 else entries
        edges = (lo + np.flatnonzero(np.diff(np.r_[False, entries[lo:hi] != 0, False]))).tolist()
        for s, t in zip(edges[::2], edges[1::2]):
            v = entries[s:t]  # a constant run is a scalar: the same products, and no outer product
            runs.append((k + shift, slice(s, t), slice(s - shift, t - shift), v[0] if (v == v[0]).all() else v))
    return runs


def _apply_stencil(stencil: dict, x: np.ndarray, axis: int, rows: int) -> np.ndarray:
    """A stencil of `rows` rows (`_flux_terms`) along `axis` of x, each row summed as a sparse product sums it."""
    out = np.zeros(x.shape[:axis] + (rows,) + x.shape[axis + 1 :])
    along, x = np.moveaxis(out, axis, 0), np.moveaxis(x, axis, 0)  # views, in the arrays' own layout
    for k, run, _, entries in _runs(stencil, rows, len(x)):
        along[run] += (entries if np.ndim(entries) == 0 else entries[:, None]) * x[run.start + k : run.stop + k]
    return out


def _operator_matrix(grid: SectorGrid, N: int, K: int):
    """Return a -> A(a), the DIA matrix of div(a grad u) + N K u on the grid.

    A flux term (`_flux_terms`) enters a cell's row through its upper face
    (+1) and its lower face (-1).  Each pair of stencil diagonals, on the
    cells where both are nonzero (`_runs`), adds (inv_volume * +-1) *
    (w * face_avg(a)) * radial * angular to the row of its offset (p, q) in
    a fresh zeroed array of diagonals, at column i + p Nt + q for matrix row
    i as scipy's DIA format keeps it; N K goes on the centre.  The sums run
    in the order of the sparse product diag(inv_volume) [D_1 .. D_m] diag(c)
    [G_1; ..; G_m] (+ N K I), the last term first and the upper face first,
    so A(a) holds that product's entries bit for bit, with exact zeros where
    the product drops them.  Sorted as (p, q), with |q| <= 1 < Nt, the
    offsets ascend in column, the order of each row's columns, and a stored
    zero adds +-0 to a row's sum, so A @ x is the product's matrix-vector
    product bit for bit.  The separable part reads its bands off A
    (`_separable`).
    """
    inv_volume, _, terms = _flux_terms(grid)
    shape = (grid.Nr, grid.Nt)
    groups, signed = [], (inv_volume, -inv_volume)
    for b in reversed(range(len(terms))):
        axis, w, *stencils = terms[b]
        for e in (0, -1):  # the upper face, then the lower one
            # the faces that are a cell's face on this side, and those cells
            m = min(w.shape[axis], shape[axis] + e)
            faces, cells = [slice(None)] * 2, [slice(None)] * 2
            faces[axis], cells[axis] = slice(0, m), slice(-e, m - e)
            sides = [_runs(stencil, m, shape[d], e) if d == axis else _runs(stencil, shape[d], shape[d])
                     for d, stencil in enumerate(stencils)]
            events = [((p, q), (cell_r, cell_t), (sub_r, sub_t), (r[:, None] if np.ndim(r) else r) * t)
                      for p, sub_r, cell_r, r in sides[0] for q, sub_t, cell_t, t in sides[1]]
            groups.append((b, signed[-e][tuple(cells)], tuple(faces), events))

    n, shift = grid.n_cells, N * K
    offsets = sorted({o for *_, events in groups for o, *_ in events} | {(0, 0)})
    delta = np.array([p * grid.Nt + q for p, q in offsets])
    # the diagonals are rows of `width` in a flat array that starts `pad` early,
    # so that offset k's matrix rows i = 0..n-1 sit at pad + k width + d + i:
    # never before the start, and apart from every other offset's rows
    pad = -delta.min()
    width = n + delta.max() + pad
    starts = [(o, pad + k * width + d) for k, (o, d) in enumerate(zip(offsets, delta.tolist()))]

    def matrix(a: np.ndarray):
        # a on the faces: the mean of the two cells, and a[-1] on Gamma_0
        average = [np.concatenate([0.5 * a[:-1] + 0.5 * a[1:], a[-1:]]), 0.5 * a[:, :-1] + 0.5 * a[:, 1:]]
        c = [w * average[axis] for axis, w, *_ in terms]
        del average
        flat = np.zeros(pad + len(offsets) * width)
        sums = {o: flat[at : at + n].reshape(shape) for o, at in starts}
        for b, signed_inv, faces, events in groups:
            flux = signed_inv * c[b][faces]
            for o, cells, sub, entries in events:
                sums[o][cells] += flux[sub] * entries
        del c
        if shift:
            sums[0, 0] += shift
        return sp.dia_matrix((flat[pad:].reshape(len(offsets), width), delta), shape=(n, n))

    return matrix


def laplace_beltrami_probe(grid: SectorGrid, q: np.ndarray):
    """Discrete Laplace-Beltrami of an arbitrary cell field.

    The solver's operator at a = 1 (`_flux_terms`) as shifted sums (`_apply_stencil`),
    kept only on cells whose stencil reaches neither the Gamma_0 ghost nor
    the wall mirror (no boundary data is assumed for q).  Returns (values,
    valid) where valid marks the evaluated cells.
    """
    inv_volume, _, terms = _flux_terms(grid)
    flux = [0.0, 0.0]
    for axis, w, radial, angular in terms:
        x = _apply_stencil(radial, q, 0, w.shape[0])
        flux[axis] = flux[axis] + w * _apply_stencil(angular, x, 1, w.shape[1])
    div = np.diff(flux[0], axis=0, prepend=0.0) + np.diff(flux[1], axis=1, prepend=0.0, append=0.0)
    valid = np.zeros(q.shape, dtype=bool)
    valid[: grid.Nr - 1, 1 : grid.Nt - 1] = True
    return np.where(valid, inv_volume * div, np.nan), valid


def _factor(A):
    """SuperLU factor of A under a minimum-degree ordering of A^T + A, or None if singular.

    The finite-volume matrix is nearly symmetric in pattern, so the symmetric
    ordering fills in less than SuperLU's default COLAMD.  Column panels of
    width 1 factored these matrices 10-25% faster than SuperLU's default width
    on a 2-core x86 VM (64^2 to 256^2), with less workspace.  A factor
    serves the one solve it was built for and is dropped with it.  The CSC
    copy drops the exact zeros that A's diagonals store.
    """
    try:
        return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", panel_size=1)
    except RuntimeError as err:
        if "exactly singular" not in str(err):
            raise
        return None


@lru_cache(maxsize=None)
def _cosine_basis(Nt: int) -> np.ndarray:
    """The orthonormal DCT-II basis of Nt cells, column m cos(pi m (j + 1/2) / Nt) normalized.

    The eigenvectors of L_N, the Neumann second difference in theta; a dense
    basis, since scipy.fft costs more to import.
    """
    j = np.arange(Nt)
    basis = np.sqrt(2.0 / Nt) * np.cos(np.pi * np.outer(j + 0.5, j) / Nt)
    basis[:, 0] = np.sqrt(1.0 / Nt)
    basis.flags.writeable = False
    return basis


@dataclass(frozen=True)
class _Separable:
    """The fast Poisson solver of a separable part (`_separable`); solve(b) as on a SuperLU factor."""

    basis: np.ndarray  # `_cosine_basis(Nt)`
    ratio: np.ndarray  # the grid's volume ratio V / V[:, :1]
    factor: tuple  # LAPACK gttrf's (dl, d, du, du2, ipiv) of the modes' systems, mode by mode

    def solve(self, b: np.ndarray) -> np.ndarray:
        Nt = len(self.basis)
        y = (self.ratio * np.reshape(b, (-1, Nt))) @ self.basis
        y, _ = lapack.dgttrs(*self.factor, y.ravel(order="F")[:, None])  # mode after mode
        # back in (Nr, Nt) C order: a transposed view changes the product's bits on some sizes
        return (np.ascontiguousarray(y.reshape(Nt, -1).T) @ self.basis.T).ravel()


def _separable(grid: SectorGrid, A) -> _Separable | None:
    """The separable part S = T_s (x) I + diag(t) (x) L_N + diag(c) (x) I of A, as a `_Separable`.

    A is any scipy sparse matrix on the grid; its bands are read off the
    five diagonals of the 5-point stencil, A[(i, j), (i + p, j + q)], 0
    beyond the matrix.  The rows of A are divided by their cell volumes V,
    so each row is multiplied by the volume ratio V / V[:, :1] and averaged
    over theta relative to column 0: S approximates diag(V / V[:, :1]) A,
    and keeps its entries where that is exactly separable; the other
    diagonals are dropped.  solve(b) is S^-1 diag(V / V[:, :1]) b: it
    approximates A^-1 b, exactly so on an unperturbed sector, where the
    ratio is 1.  L_N, the Neumann second difference in theta, has the
    DCT-II cosines (`_cosine_basis`) as eigenvectors; in their basis S
    splits into Nt tridiagonal systems in s (Buzbee, Golub & Nielson 1970),
    factored together by LAPACK's gttrf as one block-diagonal system, mode
    after mode.  A non-finite band, or an exactly singular system (gttrf's
    info > 0; a sphere cap at resonance), gives None.
    """
    Nr, Nt, n = grid.Nr, grid.Nt, grid.n_cells
    _, V, _ = _flux_terms(grid)
    ratio = V / V[:, :1]

    def band(p, q):  # ratio times A[(i, j), (i + p, j + q)], as (Nr, Nt)
        k = p * Nt + q
        v, rows = np.zeros(n), slice(max(0, -k), n - max(0, k))
        np.multiply(ratio.ravel()[rows], A.diagonal(k), out=v[rows])
        return v.reshape(Nr, Nt)

    def mean(v):  # over theta, exact where v is the same in every column
        return v[:, 0] + (v - v[:, :1]).mean(axis=1)

    east = band(0, 1)
    lower, upper, t = mean(band(-1, 0)), mean(band(1, 0)), mean(east[:, :-1])
    centre = mean(band(0, 0) + east + band(0, -1))
    j = np.arange(Nt)
    diagonal = centre[:, None] - 4.0 * t[:, None] * np.sin(0.5 * np.pi * j / Nt) ** 2
    # the systems of successive modes do not couple: lower[0] and upper[-1] are 0
    dl, d, du = np.tile(lower, Nt)[1:], diagonal.ravel(order="F"), np.tile(upper, Nt)[:-1]
    if not all(np.isfinite(v).all() for v in (dl, d, du)):
        return None
    *factor, info = lapack.dgttrf(dl, d, du)
    if info != 0:
        return None
    return _Separable(_cosine_basis(Nt), ratio, tuple(factor))


def _gmres(A, M, r, rtol: float, reference: float | None = None):
    """One GMRES cycle on A dx = r, left-preconditioned by M (M.solve): (dx, whether it stopped early).

    At most GMRES_RESTART steps; it stops early once the 2-norm of the
    preconditioned residual is at most rtol times `reference` (by default
    ||M r||), or on a breakdown (an exact solution).  Each new direction is
    orthogonalized against the whole basis at once by two passes of
    classical Gram-Schmidt (matrix-vector products; one pass lost enough
    orthogonality to stall a 60-step cycle short of LINEAR_TOL), and the
    least-squares problem is kept triangular by Givens rotations (Saad &
    Schultz 1986).
    """
    v = M.solve(r)
    beta = float(np.linalg.norm(v))
    stop = rtol * (beta if reference is None else reference)
    V = np.empty((GMRES_RESTART + 1, v.size))  # the basis, one direction a row
    V[0] = v / beta
    R = np.zeros((GMRES_RESTART, GMRES_RESTART))  # the rotated Hessenberg matrix
    g = np.zeros(GMRES_RESTART + 1)  # the rotated right-hand side beta e_1
    g[0] = beta
    rotations = []
    for j in range(GMRES_RESTART):
        w = M.solve(A @ V[j])
        basis = V[: j + 1]
        before = np.linalg.norm(w)
        h = basis @ w
        w -= h @ basis
        again = basis @ w
        w -= again @ basis
        h = (h + again).tolist()
        after = float(np.linalg.norm(w))
        breakdown = after <= np.finfo(float).eps * before
        if not breakdown:
            V[j + 1] = w / after
        for k, (c, s) in enumerate(rotations):
            h[k], h[k + 1] = c * h[k] + s * h[k + 1], c * h[k + 1] - s * h[k]
        norm = math.hypot(h[j], after)
        c, s = (h[j] / norm, after / norm) if norm else (1.0, 0.0)
        rotations.append((c, s))
        h[j] = norm
        R[: j + 1, j] = h
        g[j], g[j + 1] = c * g[j], -s * g[j]
        if abs(g[j + 1]) <= stop or breakdown:
            break
    steps = j + 1
    while steps and R[steps - 1, steps - 1] == 0.0:  # a direction A maps into the basis adds nothing
        steps -= 1
    y = solve_triangular(R[:steps, :steps], g[:steps], check_finite=False)
    return y @ V[:steps], j + 1 < GMRES_RESTART


def _linear_solve(A, b, lu, tol: float, start=None):
    """Every linear solve: (x, res), x with a scaled residual res of at most tol, or None.

    tol is the caller's: the solve tolerance of a linear problem
    (`solve_linear_spaceform`), or a Picard step's own (`solve_Lf`).  lu
    is the preconditioner, a SuperLU factor of A
    (`_factor`) or A's separable part (`_separable`); None solves nothing.
    Its solution lu.solve(b) is kept if it meets tol, and rejected if it is
    not finite.  Otherwise one GMRES cycle (`_gmres`) preconditioned by lu
    refines `start` if given (a Picard step passes its iterate, which its
    solution nears as Picard converges), else lu.solve(b), and aims two
    orders below tol relative to ||lu.solve(b)||.  GMRES stops on the
    2-norm of the preconditioned residual, which bounds the componentwise
    scaled residual only loosely: the vertex rows are about (h dtheta)^-2
    larger than the Gamma_0 rows, so that norm bottoms out near 1e-9 and a
    cycle may stop on its own while the scaled residual still misses tol.
    Such a cycle is refined: at most REFINE_CYCLES more cycles solve
    A dx = b - A x (rtol 1e-3) with the same preconditioner.  A cycle that
    uses all its steps means the preconditioner is too far off, and ends
    the attempt.
    """
    x = None if lu is None else lu.solve(b)
    if x is None or not np.isfinite(x).all():
        return None
    res = _scaled_residual(A, x, b)
    if res <= tol:
        return x, res
    reference = float(np.linalg.norm(x))
    x = x if start is None else start
    dx, early = _gmres(A, lu, b - A @ x, 1e-2 * tol, reference)
    x, refined = x + dx, 0
    while not (res := _scaled_residual(A, x, b)) <= tol:  # a NaN is refined, or rejected
        if not early or refined == REFINE_CYCLES:
            return None
        dx, early = _gmres(A, lu, b - A @ x, 1e-3)
        x, refined = x + dx, refined + 1
    return x, res


def _scaled_residual(A, x, b) -> float:
    """Componentwise-relative residual max |Ax-b| / (|A||x| + |b|).

    Near the vertex the divided operator rows scale like 1/(h dtheta)^2, so a
    raw pointwise residual bottoms out around 1e-8 at 128^2 in double
    precision regardless of the solver; the scaled form measures what the
    linear algebra and the Picard lag actually control.
    """
    r = np.abs(A @ x - b)
    scale = abs(A) @ np.abs(x) + np.abs(b)
    return float(np.max(r / scale))


def solve_linear_spaceform(grid: SectorGrid, N: int = 2, tol: float = 1e-8):
    """Solve Delta u + N K u = -1 with u = 0 on Gamma_0, du/dnu = 0 on walls.

    K is the grid's space-form curvature.  Returns (u, report), u the
    (Nr, Nt) array of cell values with a scaled residual of at most tol.
    Failure to meet it (singular or indefinite operator, e.g. large
    spherical caps) is reported, not raised.

    The separable part of the matrix (`_separable`) solves it: exactly at
    eps = 0, where its residual is roundoff whatever tol, and as the
    preconditioner of GMRES at eps != 0 (6-18 steps at tol = 1e-8 on the
    benchmark's ladders, eps up to 0.24).  SuperLU factors it only when
    that misses tol.
    """
    A = _operator_matrix(grid, N, grid.cone.space_form.curvature)(np.ones((grid.Nr, grid.Nt)))
    b = -np.ones(grid.n_cells)
    solved = _linear_solve(A, b, _separable(grid, A), tol) or _linear_solve(A, b, _factor(A), tol)
    x, res = solved or (np.zeros(grid.n_cells), float("inf"))
    message = "" if solved else (f"linear solve produced non-finite values or missed {tol:.1e}"
                                 " (operator indefinite or singular)")
    report = SolveReport(iterations=1, final_residual=res, converged=not message, message=message)
    return x.reshape(grid.Nr, grid.Nt), report


def solve_Lf(grid: SectorGrid, profile: OperatorProfile, tol: float = 1e-8, start=None):
    """Solve L_f u = -1 on a sector grid: the lab's one solve entry.

    The Laplacian is linear on every space form: the result is
    `solve_linear_spaceform`'s, whose report has an empty epsilon_schedule.
    Any other profile is Euclidean-only (ValueError on a curved grid) and
    solved by Picard continuation.  Each iteration freezes the coefficient
    a(x) = f_eps'(|grad u|)/|grad u| of the current iterate u_k (continuous
    at critical points thanks to the epsilon regularization) and solves the
    linear anisotropic problem for x = A(a)^{-1} b.  Stages walk down the
    epsilon SCHEDULE with warm starts, each capped at MAX_ITERS steps.

    The first stage starts from the closed form of the unperturbed sector,
    u0 = N (g(R(theta)/N) - g(s R(theta)/N)) on the cell centers, each column
    at its own radius R(theta)/N capped at profile.slope_sup (g is finite
    there: g(1) = 1 for mean-curvature), which vanishes on Gamma_0.  A
    caller that holds a better start, an (Nr, Nt) field near the solution
    (a rigidity ladder's predictor from its converged neighbours,
    `rigidity.deviation_scan`), passes it as start: the solve then begins
    there and runs only the last SCHEDULE stage, since a converged
    neighbour already is the continuation the earlier stages provide.  Every
    stage mixes the damped Picard steps g_k = u_k + omega (x - u_k) by
    type-II Anderson acceleration (Walker & Ni 2011) over the last
    ANDERSON_WINDOW iterations: with f_k = x - u_k, u_{k+1} = g_k - dG gamma,
    where gamma minimizes ||f_k - dF gamma||_2 over the differences dF, dG of
    successive f and g, each kept as its step produces it.  omega is 0.5 for
    p > 3, whose undamped steps oscillate with period 2, else 1: f'(t)/t is
    nonincreasing for p <= 2 and mean-curvature, where Kacanov's method needs
    no damping on variational discretizations (Zeidler II/B, 1990); this one
    is not, and tools/envelope.py's sweep is the evidence.  A stall of the
    scaled residual halves omega once and clears the mixing history; a second
    ends the solve with converged=False.  Each iterate's speed |grad u| is
    computed once, for a stage's last check and the next stage's first fill.
    The fills of one solve share one operator (`_operator_matrix`), laid out once.

    No solution exists once |Omega|/|Gamma_0| reaches profile.slope_sup:
    the divergence theorem gives |Omega| = int_{Gamma_0} V.nu with
    |V| = f'(|grad u|) < slope_sup.  Such a sector returns converged=False
    after 0 iterations, its message naming the ratio.

    A step solves A(a) x = b only as accurately as its iterate needs: to a
    scaled residual of max(LINEAR_TOL, FORCING res), res the scaled
    residual of u itself (`_linear_solve`; an inexact Newton forcing term,
    Dembo, Eisenstat & Steihaug 1982), and keeps no state from one step to
    the next.  It solves by the separable part of A(a) (`_separable`),
    refined by GMRES from the iterate u; at eps = 0 that part is A(a) up to
    roundoff and meets LINEAR_TOL on its own.  Once it misses, the step and
    the rest of its stage solve by a SuperLU factor of A(a) (`_factor`),
    dropped when the step ends, and the next stage tries the separable part
    again: a miss wastes at most one GMRES cycle a stage.  A singular
    factor, or one whose solution still misses, ends the solve with
    converged=False, and so does a frozen coefficient that is not finite.
    Convergence is judged on A(a) u - b at the stage's tolerance, whatever
    the steps' accuracy.
    """
    if profile.is_laplacian:
        # a is identically 1: a single linear solve is exact, on every space form
        return solve_linear_spaceform(grid, 2, tol=tol)
    if grid.cone.space_form.curvature != 0:
        raise ValueError(f"profile {profile.name!r} is quasilinear and Euclidean-only; "
                         "space-form problems take the 'laplacian' profile")

    p = profile.degeneracy_exponent
    omega = 0.5 if (p is not None and p > 3.0) else 1.0

    N, K = 2, 0
    if start is None:
        # the unperturbed sector's closed form, each column at its own R(theta)/N, capped where g' blows up
        R = np.minimum(grid.R_centers / N, profile.slope_sup)[None, :]
        u = N * (profile.g(R) - profile.g(grid.s_centers[:, None] * R))
        stages = SCHEDULE
    else:
        u = start
        stages = SCHEDULE[-1:]

    matrix = _operator_matrix(grid, N, K)
    b = -np.ones(grid.n_cells)
    total_iters = 0

    def result(res, message=""):
        report = SolveReport(total_iters, res, list(stages), converged=not message, message=message)
        return u, report

    ratio = grid.area_over_gamma0
    if ratio >= profile.slope_sup:
        return result(float("inf"), f"no solution: |Omega|/|Gamma_0| = {ratio:.6g} reaches the "
                                    f"slope bound {profile.slope_sup:g} of {profile.name}")
    halved = False
    res = float("inf")
    speed = None  # |grad u| of the iterate u
    for stage, eps in enumerate(stages):
        reg = regularize(profile, eps)
        stage_tol = tol if stage == len(stages) - 1 else max(tol, 1e-2 * eps)
        best = float("inf")
        no_improvement = 0
        stage_done = False
        # Anderson history: the last residual f and damped step g, and the
        # last ANDERSON_WINDOW differences of successive ones
        last = None
        diff_f = deque(maxlen=ANDERSON_WINDOW)
        diff_g = deque(maxlen=ANDERSON_WINDOW)
        missed = False  # the separable part missed a step of this stage
        for _ in range(MAX_ITERS):
            if speed is None:  # once per iterate: a stage's last check and the next stage's first fill share it
                speed = np.hypot(*metric_gradient(grid, u, kind="solution"))
            with np.errstate(over="ignore"):  # an overflow is the non-finite coefficient reported below
                a = reg.coefficient(speed)
            if not np.all(np.isfinite(a)):
                return result(float("inf"), f"Picard coefficient not finite at epsilon={eps}")
            A = matrix(a)
            res = _scaled_residual(A, u.ravel(), b)
            if res <= stage_tol:
                stage_done = True
                break
            # stalls show up as period-2 oscillation for p > 3, or a plateau, not
            # blow-up: treat lack of progress as divergence and halve omega once
            no_improvement = 0 if res < 0.9 * best else no_improvement + 1
            best = min(best, res)
            if no_improvement >= 5:
                if not halved:
                    omega *= 0.5
                    halved = True
                    no_improvement = 0
                    last = None
                    diff_f.clear()
                    diff_g.clear()
                else:
                    return result(res, f"Picard stalled at epsilon={eps} (omega={omega})")
            total_iters += 1
            step_tol = max(LINEAR_TOL, FORCING * res)
            solved = None if missed else _linear_solve(A, b, _separable(grid, A), step_tol, u.ravel())
            if solved is None:
                missed = True
                solved = _linear_solve(A, b, _factor(A), step_tol)
            if solved is None:
                return result(float("inf"), f"linear stage solve failed at epsilon={eps}")
            x = solved[0].reshape(grid.Nr, grid.Nt)
            g = (1.0 - omega) * u + omega * x
            f = (x - u).ravel()
            if last is not None:
                diff_f.append(f - last[0])
                diff_g.append(g.ravel() - last[1])
            last = f, g.ravel()
            if diff_f:
                gamma = np.linalg.lstsq(np.array(diff_f).T, f, rcond=None)[0]
                g = g - (np.array(diff_g).T @ gamma).reshape(grid.Nr, grid.Nt)
            u, speed = g, None
        if not stage_done and stage == len(stages) - 1:
            return result(res, f"iteration cap {MAX_ITERS} hit at epsilon={eps}")
    return result(res)


# ---------------------------------------------------------------------------
# post-processing


def _face_slope(u0, u1, u2, h: float):
    """Outward slope at the face half a cell beyond the end cell u0.

    The one-sided second-order difference (2 u0 - 3 u1 + u2) / h of u0 and
    its inward neighbours u1, u2 on cells of width h, exact for quadratics;
    it reads no boundary value.
    """
    return (2.0 * u0 - 3.0 * u1 + u2) / h


def normal_derivative_gamma0(grid: SectorGrid, u: np.ndarray) -> np.ndarray:
    """One-sided second-order normal derivative on each Gamma_0 face.

    Differences the last three interior cells only (`_face_slope`): the
    half-cell Dirichlet imposition shifts the discrete field by a constant
    that pure interior differencing cancels.  The tangential derivative of u
    vanishes along the outer curve, which supplies the normal-frame factor.
    """
    sf = grid.cone.space_form
    us_boundary = _face_slope(u[-1], u[-2], u[-3], grid.ds)
    u_r = us_boundary / grid.R_centers
    hR = sf.h(grid.R_centers)
    return u_r * np.sqrt(hR**2 + grid.Rp_centers**2) / hR


def neumann_statistics(grid: SectorGrid, du_dnu: np.ndarray):
    """(mean, spread, max deviation) of the Neumann data -du/dnu over Gamma_0.

    du_dnu is u's `normal_derivative_gamma0`, one value per face.  The mean
    and the RMS spread about it are weighted by face length; the max
    deviation is the largest |-du/dnu - mean| over the faces.
    """
    dn = -du_dnu
    w = grid.gamma0_weights
    mean = float(np.sum(w * dn) / np.sum(w))
    spread = float(np.sqrt(np.sum(w * (dn - mean) ** 2) / np.sum(w)))
    return mean, spread, float(np.max(np.abs(dn - mean)))


def _cartesian_derivatives(grid: SectorGrid, q: np.ndarray, kind: str):
    """(d/dx, d/dy) of a cell field: the metric gradient rotated to Cartesian axes."""
    q_r, q_tan = metric_gradient(grid, q, kind)
    theta = grid.theta_centers[None, :]
    ct, st = np.cos(theta), np.sin(theta)
    return q_r * ct - q_tan * st, q_r * st + q_tan * ct


def mapped_gradient(grid: SectorGrid, u, profile: OperatorProfile):
    """(grad u, V, degenerate, |grad u|) with V = f'(|grad u|) grad u / |grad u|, Cartesian components last.

    Euclidean grids only.  grad u is cell-centered, each component stored
    contiguous: the array is a view of (2, Nr, Nt).  Degenerate cells, where
    |grad u| <= 1e-8 max |grad u| (every cell of a constant field), get V = 0.
    """
    if grid.cone.space_form.curvature != 0:
        raise ValueError("Cartesian gradient components require the Euclidean space form")
    grad = np.moveaxis(np.stack(_cartesian_derivatives(grid, u, "solution")), 0, -1)
    speed = np.hypot(grad[..., 0], grad[..., 1])
    degenerate = speed <= 1e-8 * float(speed.max())
    safe = np.where(degenerate, 1.0, speed)
    coef = np.where(degenerate, 0.0, profile.f_prime(safe) / safe)
    return grad, coef[..., None] * grad, degenerate, speed


def hessian_W_field(grid: SectorGrid, mapped) -> MatrixField:
    """W = Jacobian of the mapped gradient x -> f'(|grad u|) grad u / |grad u|.

    `mapped` is u's `mapped_gradient` on the (Euclidean) grid.  Degenerate
    cells are masked together with every cell whose difference stencil
    touches them; the masked count is reported, not hidden.  W.values is a
    view of (2, 2, Nr, Nt), so each entry W[..., i, j] is contiguous.
    """
    _, V, degenerate, _ = mapped
    W = np.empty((2, 2, grid.Nr, grid.Nt))
    W[0, 0], W[0, 1] = _cartesian_derivatives(grid, V[..., 0], "generic")
    W[1, 0], W[1, 1] = _cartesian_derivatives(grid, V[..., 1], "generic")
    # one-sided edge stencils reach two cells inward
    return MatrixField(np.moveaxis(W, (0, 1), (2, 3)), _dilate(degenerate, 2))


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
