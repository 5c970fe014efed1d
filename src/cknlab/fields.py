"""Radial grids, sampled fields, and the extremal bubble profiles.

All radial quadrature lives on a log-radius grid: panels of Gauss-
Legendre nodes in t = log r, with the Jacobian e^t folded into the
weights so that plain weighted sums approximate integrals in dr.
Angular quadrature uses Gauss-Jacobi nodes in cos(psi) with the
(n-2)-sphere measure folded in, so the angular weights alone sum to the
full sphere area.

One type, :class:`Field`, carries every sampled function: arrays shaped
(radial nodes, angular nodes) on the tensor grid.  A radial field is the
case with a single angular node whose weight is the whole sphere area
and whose angular derivative is absent, so radial integrals cost one
column.  Fields add, subtract and scale node for node; a one-node field
broadcasts against a multi-node one.  Weighted integrals go through
:meth:`Field.integrate` and gradient magnitudes through :meth:`Field.grad_sq`,
save the array kernels of the projection and of the dual-norm ascent.

Tensor-grid integrals run over row blocks: views on consecutive radial
rows holding about BLOCK_POINTS nodes, so no integrand is built on the
full grid.  Each block is one np.sum and the blocks add up with
math.fsum, so the summation order is fixed per row block.  A radial
field is a single block, summed by one np.sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import (
    BadGridSpec,
    GridMismatch,
    InvalidArgument,
    MissingGradient,
)
from .params import CknParams, _sphere_area

__all__ = [
    "RadialGrid",
    "Field",
    "Bubble",
    "make_radial_grid",
    "make_psi_grid",
    "sample_bubble",
    "bubble_evaluator",
    "bubble_second_derivative",
    "modulated_axisym",
    "gaussian_bump_profile",
]

PANEL_POINTS = 8
BLOCK_POINTS = 16384  # tensor-grid nodes per row block of an integral
DEFAULT_T_MIN = -30.0
DEFAULT_T_MAX = 30.0
DEFAULT_COUNT = 2048
DEFAULT_PSI_COUNT = 128

# Gauss-Legendre nodes and weights of one panel on [-1, 1]
_PANEL_X, _PANEL_W = np.polynomial.legendre.leggauss(PANEL_POINTS)


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Composite Gauss-Legendre grid in log radius.

    weights integrate against dr (Jacobian included); t_weights are the
    raw panel weights in t for integrands already written in log radius.
    """

    t_min: float
    t_max: float
    count: int
    nodes: np.ndarray      # radii, strictly increasing
    log_nodes: np.ndarray  # t = log r
    weights: np.ndarray    # quadrature for integral f(r) dr
    t_weights: np.ndarray  # quadrature for integral f(t) dt
    _powers: dict = field(default_factory=dict, init=False, repr=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def radial_weights(self, power: float) -> np.ndarray:
        """weights * nodes^power, kept per exponent.

        Every integral needs one, and a parameter tuple uses only a few
        exponents, so each is computed once per grid.
        """
        w = self._powers.get(power)
        if w is None:
            w = self._powers[power] = self.weights * self.nodes**power
        return w

    def memo(self, key, build) -> tuple:
        """build(), a tuple, once per key for the life of this grid.

        For arrays derived from the grid and a parameter tuple that many
        fields on it share: a stability scan's samples live on one grid.
        The arrays in the tuple, and in tuples it holds, are made
        read-only, since every caller holds the same ones.  A row block
        (rows) starts without them.
        """
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = build()
            for a in got:
                for b in a if isinstance(a, tuple) else (a,):
                    if isinstance(b, np.ndarray):
                        b.flags.writeable = False
        return got

    def meta(self) -> tuple:
        return (self.t_min, self.t_max, self.count)

    def rows(self, rows: slice) -> "RadialGrid":
        """The nodes in rows as a grid of their own, for a row block.

        It keeps the window and the radial weights cached so far, as
        views; with fewer nodes than its parent it never compares equal
        to the full grid.
        """
        nodes = self.nodes[rows]
        sub = RadialGrid(
            t_min=self.t_min,
            t_max=self.t_max,
            count=len(nodes),
            nodes=nodes,
            log_nodes=self.log_nodes[rows],
            weights=self.weights[rows],
            t_weights=self.t_weights[rows],
        )
        sub._powers.update((power, w[rows]) for power, w in self._powers.items())
        return sub

    def same_as(self, other: "RadialGrid") -> bool:
        return other is self or (
            self.meta() == other.meta()
            and np.array_equal(self.log_nodes, other.log_nodes)
        )


def make_radial_grid(
    t_min: float = DEFAULT_T_MIN,
    t_max: float = DEFAULT_T_MAX,
    count: int = DEFAULT_COUNT,
) -> RadialGrid:
    """Build the composite panel grid on [t_min, t_max].

    count rounds up to a whole number of PANEL_POINTS-node panels.

    Raises
    ------
    BadGridSpec
        Empty or inverted window, or fewer than 16 nodes.
    """
    if not (math.isfinite(t_min) and math.isfinite(t_max)) or t_min >= t_max:
        raise BadGridSpec(f"need t_min < t_max, got [{t_min}, {t_max}]")
    if count < 16:
        raise BadGridSpec(f"need at least 16 nodes, got {count}")
    npan = int(math.ceil(count / PANEL_POINTS))
    edges = np.linspace(t_min, t_max, npan + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    t = (mid[:, None] + half[:, None] * _PANEL_X[None, :]).ravel()
    wt = (half[:, None] * _PANEL_W[None, :]).ravel()
    r = np.exp(t)
    return RadialGrid(
        t_min=float(t_min),
        t_max=float(t_max),
        count=npan * PANEL_POINTS,
        nodes=r,
        log_nodes=t,
        weights=wt * r,
        t_weights=wt,
    )


def scaled_grid(grid: RadialGrid, factor: float) -> RadialGrid:
    """Grid with every log node multiplied by factor, node for node.

    Used by the radial stretch maps so mapped values can be reused
    without interpolation.  factor must be positive.
    """
    if factor <= 0:
        raise BadGridSpec(f"scale factor must be positive, got {factor}")
    t = grid.log_nodes * factor
    r = np.exp(t)
    return RadialGrid(
        t_min=grid.t_min * factor,
        t_max=grid.t_max * factor,
        count=grid.count,
        nodes=r,
        log_nodes=t,
        weights=grid.t_weights * factor * r,
        t_weights=grid.t_weights * factor,
    )


def _orthonormal_recurrence(x: np.ndarray, beta: np.ndarray) -> tuple:
    """(q_n, q_n', sum_(k<n) q_k^2) at x for the orthonormal polynomials
    beta[k] q_(k+1) = x q_k - beta[k-1] q_(k-1), q_0 = 1, n = len(beta)."""
    q_prev, q = np.zeros_like(x), np.ones_like(x)
    d_prev, d = np.zeros_like(x), np.zeros_like(x)
    total = np.zeros_like(x)
    for k in range(len(beta)):
        total += q * q
        lower = beta[k - 1] if k else 0.0
        q_prev, q = q, (x * q - lower * q_prev) / beta[k]
        d_prev, d = d, (q_prev + x * d - lower * d_prev) / beta[k]
    return q, d, total


@lru_cache(maxsize=32)
def _gauss_jacobi(count: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule for the weight (1 - x^2)^alpha on [-1, 1], nodes ascending.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi
    matrix, whose squared off-diagonal entries are the recurrence
    coefficients b_k = k (k + 2 alpha) / (4 (k + alpha)^2 - 1); b_1 is
    written 1 / (2 alpha + 3) because the general form is 0/0 at
    alpha = -1/2.  One Newton step on the three-term recurrence polishes
    the nodes.  The weights are the Christoffel numbers 1 / sum_(k<n) q_k^2
    at the polished nodes, symmetrised and scaled to the weight's total
    mass B(1/2, alpha + 1).  This is the sum that 1 / (q_(n-1) q_n')
    equals at exact roots; evaluated in floating point it is about 100
    times closer to the exact weights at 128 nodes.  The arrays are
    read-only: every caller shares them.
    """
    k = np.arange(2.0, count + 1.0)
    b = k * (k + 2.0 * alpha) / (4.0 * (k + alpha) ** 2 - 1.0)
    beta = np.sqrt(np.concatenate(([1.0 / (2.0 * alpha + 3.0)], b)))
    jacobi = np.diag(beta[:-1], 1)
    x = np.linalg.eigvalsh(jacobi + jacobi.T)
    q, d, _ = _orthonormal_recurrence(x, beta)
    x = x - q / d
    w = 1.0 / _orthonormal_recurrence(x, beta)[2]
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    mass = math.sqrt(math.pi) * math.gamma(alpha + 1.0) / math.gamma(alpha + 1.5)
    w *= mass / math.fsum(w)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def make_psi_grid(dim: int, count: int = DEFAULT_PSI_COUNT) -> tuple[np.ndarray, np.ndarray]:
    """Polar-angle nodes and weights on [0, pi] for dimension dim.

    Gauss-Jacobi in x = cos(psi) with exponent (dim-3)/2 on both ends;
    the (dim-2)-sphere area is folded in, so sum(weights) equals the
    full sphere area in R^dim.
    """
    if dim < 2:
        raise BadGridSpec(f"angular grid needs dim >= 2, got {dim}")
    if count < 4:
        raise BadGridSpec(f"angular grid needs at least 4 nodes, got {count}")
    alpha = (dim - 3) / 2.0
    x, w = _gauss_jacobi(count, alpha)
    psi = np.arccos(x[::-1])
    w = w[::-1].copy()
    return psi, w * _sphere_area(dim - 1)


def _or_zero(a):
    return 0.0 if a is None else a


def _check_density(density, u: "Field") -> None:
    shape = np.shape(density)
    if len(shape) != 2 or shape[0] != u.grid.count or shape[1] > len(u.psi_nodes):
        raise GridMismatch(f"density of shape {shape} on a field of shape {u.values.shape}")


@dataclass(frozen=True, eq=False)
class Field:
    """Field u(r, psi) in R^dim sampled on a tensor grid.

    values, grad_r and grad_psi are (radial count, angular count)
    arrays; grad_psi is the partial in psi, so the angular part of
    |grad u|^2 is grad_psi^2 / r^2.  grad_r None means the gradient is
    unknown; grad_psi None means the angular derivative vanishes, as it
    does for every radial field (one angular node carrying the full
    sphere area).

    u + v, u - v and s * u act node for node on values and gradients.
    Both operands must share the radial grid and dim; a one-node field
    broadcasts against a multi-node one, any other angular mismatch
    raises GridMismatch.  A missing gradient stays missing.
    """

    grid: RadialGrid
    dim: int
    psi_nodes: np.ndarray
    psi_weights: np.ndarray
    values: np.ndarray
    grad_r: Optional[np.ndarray] = None
    grad_psi: Optional[np.ndarray] = None

    # numpy scalars defer to __rmul__ instead of broadcasting over a Field
    __array_ufunc__ = None

    @classmethod
    def radial(
        cls,
        grid: RadialGrid,
        dim: int,
        values: np.ndarray,
        grad_r: Optional[np.ndarray] = None,
    ) -> "Field":
        """One-node field from radial samples (1-D arrays over the nodes)."""
        return cls(
            grid=grid,
            dim=dim,
            psi_nodes=np.array([0.5 * math.pi]),
            psi_weights=np.array([_sphere_area(dim)]),
            values=values[:, None],
            grad_r=None if grad_r is None else grad_r[:, None],
        )

    @property
    def is_radial(self) -> bool:
        return len(self.psi_nodes) == 1

    # -- quadrature ---------------------------------------------------------

    def measure(self, power: float) -> np.ndarray:
        """Node weights w_i omega_j r_i^power on the tensor grid."""
        return self.grid.radial_weights(power)[:, None] * self.psi_weights

    def _block_rows(self) -> int:
        """Radial rows per row block: the whole grid for a radial field."""
        cols = len(self.psi_nodes)
        return self.grid.count if cols == 1 else max(1, BLOCK_POINTS // cols)

    def row_blocks(self) -> list:
        """(rows, view) for consecutive blocks of about BLOCK_POINTS nodes.

        Each view is this field on the slice rows of whole radial rows,
        on the sub-grid RadialGrid.rows.  A radial field, or one with at
        most BLOCK_POINTS nodes, is its own only block.
        """
        step, count = self._block_rows(), self.grid.count
        if step >= count:
            return [(slice(None), self)]
        slices = [slice(start, start + step) for start in range(0, count, step)]
        return [(rows, self._rows(rows)) for rows in slices]

    def _rows(self, rows: slice) -> "Field":
        return Field(
            grid=self.grid.rows(rows),
            dim=self.dim,
            psi_nodes=self.psi_nodes,
            psi_weights=self.psi_weights,
            values=self.values[rows],
            grad_r=None if self.grad_r is None else self.grad_r[rows],
            grad_psi=None if self.grad_psi is None else self.grad_psi[rows],
        )

    def _block_integral(self, power: float, density) -> float:
        _check_density(density, self)
        return float(np.sum(self.measure(power) * density))

    def integrate(self, power: float, density) -> float:
        """sum_ij w_i omega_j r_i^power density_ij, in a fixed order per row block.

        density is a 2-D array with one row per radial node and one
        column or the field's angular columns, or a function from a row
        block (a Field) to such an array for that block; any other shape
        raises GridMismatch.  Each block is one np.sum and math.fsum adds
        the blocks, so a field of one block is a single np.sum, bit for bit.
        """
        self.grid.radial_weights(power)  # cached before the blocks slice it
        return math.fsum(
            blk._block_integral(power, density(blk) if callable(density) else density[rows])
            for rows, blk in self.row_blocks()
        )

    def grad_sq(self, k_factor: float = 1.0) -> np.ndarray:
        """|grad u|^2 with the angular part scaled by k_factor^2."""
        if self.grad_r is None:
            raise MissingGradient("field has no gradient data")
        sq = np.square(self.grad_r)
        if self.grad_psi is not None:
            # grad_r^2 + k^2 (grad_psi / r)^2 in place, with one temporary
            ang = np.divide(self.grad_psi, self.grid.nodes[:, None])
            np.square(ang, out=ang)
            if k_factor != 1.0:
                ang *= k_factor**2
            sq += ang
        return sq

    # -- linear arithmetic --------------------------------------------------

    def wider(self, other: "Field") -> "Field":
        """The operand whose angular grid a combination with other lives on.

        Raises GridMismatch unless both share the radial grid and dim,
        and their angular grids agree or one of them has a single node.
        """
        if not self.grid.same_as(other.grid):
            raise GridMismatch("fields live on different radial grids")
        if self.dim != other.dim:
            raise GridMismatch(f"field dims differ: {self.dim} vs {other.dim}")
        if other.is_radial:
            return self
        if self.is_radial:
            return other
        if not np.array_equal(self.psi_nodes, other.psi_nodes):
            raise GridMismatch("angular grids differ")
        return self

    def _combine(self, other: "Field", op) -> "Field":
        base = self.wider(other)
        grad_r = grad_psi = None
        if self.grad_r is not None and other.grad_r is not None:
            grad_r = op(self.grad_r, other.grad_r)
            if self.grad_psi is not None or other.grad_psi is not None:
                grad_psi = op(_or_zero(self.grad_psi), _or_zero(other.grad_psi))
        return Field(
            grid=base.grid,
            dim=base.dim,
            psi_nodes=base.psi_nodes,
            psi_weights=base.psi_weights,
            values=op(self.values, other.values),
            grad_r=grad_r,
            grad_psi=grad_psi,
        )

    def __add__(self, other: "Field") -> "Field":
        return self._combine(other, np.add)

    def __sub__(self, other: "Field") -> "Field":
        return self._combine(other, np.subtract)

    def __mul__(self, scale: float) -> "Field":
        s = float(scale)
        return Field(
            grid=self.grid,
            dim=self.dim,
            psi_nodes=self.psi_nodes,
            psi_weights=self.psi_weights,
            values=s * self.values,
            grad_r=None if self.grad_r is None else s * self.grad_r,
            grad_psi=None if self.grad_psi is None else s * self.grad_psi,
        )

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# bubbles


@dataclass(frozen=True)
class Bubble:
    """Point on the extremal manifold.

    amplitude multiplies the profile, scale is the dilation parameter
    lambda > 0 (the profile sees B = lambda^sigma).  Bubbles are centred:
    translation at a = b = 0 enters only as a degree-1 direction.
    """

    amplitude: float
    scale: float

    def __post_init__(self):
        if not self.scale > 0:
            raise InvalidArgument(f"bubble scale must be positive, got {self.scale}")


def bubble_evaluator(amplitude: float, b_coeff: float, sigma: float, m: float):
    """Closed-form (value, d/dr) evaluator for A (1 + B r^sigma)^-m."""

    def ev(r):
        r = np.asarray(r, dtype=float)
        base = 1.0 + b_coeff * r**sigma
        v = amplitude * base ** (-m)
        dv = amplitude * (-m) * base ** (-m - 1.0) * b_coeff * sigma * r ** (sigma - 1.0)
        return v, dv

    return ev


def bubble_second_derivative(amplitude: float, b_coeff: float, sigma: float, m: float):
    """Closed-form d2/dr2 evaluator for the same profile."""

    def ev2(r):
        r = np.asarray(r, dtype=float)
        base = 1.0 + b_coeff * r**sigma
        return (
            -amplitude
            * m
            * sigma
            * b_coeff
            * r ** (sigma - 2.0)
            * base ** (-m - 2.0)
            * ((sigma - 1.0) * base - (m + 1.0) * b_coeff * sigma * r**sigma)
        )

    return ev2


def sample_bubble(params: CknParams, bubble: Bubble, grid: RadialGrid) -> Field:
    """Sample an extremal profile (with analytic derivative) on a grid.

    The profile is amplitude * (1 + (scale * r)^sigma)^-m, a radial
    field in R^n; it broadcasts against any angular grid.
    """
    b_coeff = bubble.scale**params.sigma
    ev = bubble_evaluator(bubble.amplitude, b_coeff, params.sigma, params.bubble_m)
    v, dv = ev(grid.nodes)
    return Field.radial(grid, params.n, v, dv)


def gaussian_bump_profile(
    grid: RadialGrid, dim: int, center: float, width: float
) -> Field:
    """Unit-height Gaussian bump in log radius, a radial field in R^dim."""
    if width <= 0:
        raise BadGridSpec(f"bump width must be positive, got {width}")
    # Gaussian in log radius; smooth and rapidly vanishing at both ends
    t = grid.log_nodes
    v = np.exp(-((t - center) ** 2) / (2.0 * width**2))
    dv = v * (-(t - center) / width**2) / grid.nodes
    return Field.radial(grid, dim, v, dv)


# ---------------------------------------------------------------------------
# axisymmetric construction


def modulated_axisym(
    u: Field, psi_count: int = DEFAULT_PSI_COUNT, cos_coeff: float = 0.3
) -> Field:
    """Radial field times (1 + c cos psi): cheap nontrivial angular test field."""
    if u.grad_r is None:
        raise BadGridSpec("modulated field needs the radial derivative")
    psi, wpsi = make_psi_grid(u.dim, psi_count)
    ang = 1.0 + cos_coeff * np.cos(psi)
    return Field(
        grid=u.grid,
        dim=u.dim,
        psi_nodes=psi,
        psi_weights=wpsi,
        values=u.values * ang,
        grad_r=u.grad_r * ang,
        grad_psi=u.values * (-cos_coeff * np.sin(psi)),
    )
