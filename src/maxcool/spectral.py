"""Spectral solver for the isotropic characteristic profile.

The model is evolved in Fourier space, where the isotropic distribution is a
scalar radial profile phi(x) = fhat(|eta|) with the convention
fhat(eta) = integral exp(-i eta.v) f(v) dv. The gain operator collapses to a
1-D quadrature,

    (Q+ phi)(x) = (1/2) integral_{-1}^{1} phi(a-(s) x) phi(a+(s) x) ds,

with a-(s) = ((1+e)/4) sqrt(2(1-s)) and
a+(s) = sqrt(((3-e)/4)^2 + ((1+e)/4)^2 + s (3-e)(1+e)/8); both scales lie in
[0, 1], so the quadrature never queries beyond the grid. Its Gauss-Legendre
nodes are taken in u = sqrt((1-s)/2), in which a- = (1+e) u/2 is linear
(`gain_scales`, `QUAD_ORDER`). The unscaled frame
integrates d phi/dt = Q+ phi - phi with classical RK4; the rescaled frame
adds the drift generator E x d phi/dx by Strang splitting, the drift
half-steps applied as exact resampling phi(x) <- phi(x exp(E dt/2)).

Profiles live on a uniform radial grid. Every evaluation off it (gain
quadrature queries, drift resampling and `evaluate`) is quintic
Hermite interpolation with sixth-order 7-point slopes and fourth-order
5-point curvatures, by one operator, `_InterpPlan`. That evaluation is
linear in the profile and is two CSR products. The first, the stencil
matrix, maps the deviation phi - 1 to a node table of values, slopes and
curvatures (`_stencil_rows`). Its interior rows, three per node with the
even reflection at x = 0 in their column indices, are one read-only matrix
that every grid shares, built vectorised and regrown, at least doubling,
when a table needs more nodes (`_interior_csr`); the one-sided closure rows
of the last three nodes are a fixed matrix over the last five. The second,
the plan's gather matrix (six weights per query), maps the node table to the
queries; its rows are computed once per query. Gain and drift plans are
cached; `evaluate` builds an uncached one per call. The gain adds a third
CSR product, which sums each grid node's quadrature products in node order
(`_GainPlan`). All three products run scipy's compiled `csr_matvec`, the
kernel behind `csr_matrix @ x`, loaded from scipy.sparse's extension file
with the first plan or node table (`_csr_matvec`). scipy.sparse itself is never imported
(its import costs 0.1-0.2 s), and code that evaluates no profile (DSMC, the
kinematics Monte Carlo, the stamp) does not load the kernel either, and no
gain, drift or node table calls a BLAS routine. The table of phi = 1 is
exactly zero, so every query of phi = 1 is exactly 1, and the gain's
weights sum left to right to exactly 2 (`gain_scales`): the constant
profile phi = 1 is a fixed point of the gain and of the drift resample bit
for bit.

The node table is computed only up to the saturated tail: the trailing run
of nodes where phi - 1 == -1 in floating point and the slopes and curvatures
are exactly 0 (past x ~ 11 for a Gaussian tail on the (4096, 50) grid). A
query there evaluates to exactly +0, because the Hermite value weights
satisfy fl(fl(1 - W1) + W1) = 1 (checked for every query when its weights
are computed). So the drift, whose queries x_i exp(E dt/2) are sorted, and
`evaluate`, which masks its queries below the tail, gather only those and
write +0 for the rest. The gain plan holds its (s-node k, grid node i)
pairs sorted stably by the interval of their outer query max(a-, a+) x_i,
each pair's a- and a+ queries in adjacent rows, and an apply evaluates only
the pairs below the tail: a pair whose outer query lies there has product
+-0 whatever its finite inner value, and adds exactly +0 to its node's
sum. The drift, `evaluate` and the gain are bit for bit the full
evaluation, and a node whose pairs all lie past the tail gets the gain
exactly +0; see `_GainPlan`. The gain plan
computes the weights of its queries on demand, in pair order, only as far
as an apply has needed: at most once per query, and about a quarter of them
on the (4096, 50) grid for a Gaussian-tailed profile, and only the pages of
the filled rows are resident (`_on_demand`). A drift plan is filled
when built; `evaluate` fills a plan of its queries below the tail alone.

The stationary rescaled profile (`steady_profile`) is the root of the
stationary equation Q+ phi - phi + (E + mu) x phi' = 0 bordered by m2 = 3
as `moment` reads it (its 7-node fit), with the grid's dissipation defect
mu as the extra unknown, found by Newton's method with a Jacobian-free,
preconditioned GMRES solve per step. It starts from the Sonine
approximation of the root, a Gaussian times the polynomial in x^2 whose
Taylor series up to x^2K (K <= 4) is the closed-form stationary one
(`_steady_start`), and stops when the d2 size of the Newton update is below
the tolerance. It takes no time step, so its root does not depend on dt.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import logging
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .kinematics import _check_e, dissipation_rate, moment_rate

__all__ = [
    "QUAD_ORDER",
    "DT",
    "RadialGrid",
    "CharacteristicProfile",
    "SolverConfig",
    "EvolutionTrace",
    "gain_fourier",
    "gain_scales",
    "step",
    "evolve",
    "steady_profile",
    "steady_residual",
    "envelope_report",
    "d2_distance",
    "moment",
    "sobolev_norm",
    "sup_weighted",
    "gamma_constants",
    "evaluate",
    "save_profile",
]

logger = logging.getLogger(__name__)

# Gauss-Legendre order of the gain quadrature, whose nodes are taken in
# u = sqrt((1 - s)/2) (`gain_scales`). The strongly inelastic HCS carries a
# C x^(2 p*) term (Ernst & Brito 2002; Bobylev, Cercignani & Toscani 2003)
# and a- is proportional to sqrt(1 - s), so in s that term is an (1 - s)^p*
# endpoint singularity and a rule in s converges like q^-(2 p* + 2); in u it
# is u^(2 p* + 1), and the rule converges like q^-(4 p* + 4). Against 256
# nodes, one apply at 24 u-nodes reads <= 6.8e-15 on the (4096, 50)
# bimaxwellian for e in [0.1, 1], and 1.7e-13 and 1.8e-13 on the e = 0.2 and
# 0.3 steady profiles (`steady_profile` defaults) on (2048, 40), where 24
# s-nodes read 2.0e-12 and 6.1e-13. On the coarse (256, 20) grid every rule
# sits on the C^2 floor of the quintic interpolant: 1.8e-10 to 3.2e-10 at 24
# u-nodes and 4e-11 to 1.1e-10 at 32 s-nodes, against the 1.3e-9 to 1.7e-9
# by which that grid's gain of the bimaxwellian misses its exact value.
QUAD_ORDER = 24

# Time step of every spectral run (`step`, `evolve`). Its error is far below
# the moment extractor's 8e-5 bias and the steady tolerances (1e-7 and
# looser): against
# dt = 0.005, max |dphi| of the e = 0.95 rescaled run from the bimaxwellian
# to t = 20 is 6.3e-11 on the (256, 20) grid and 4.2e-12 on (1024, 30), and
# that of the unscaled e = 0.5 run from the Maxwellian to t = 10 is 2.4e-10
# on both.
DT = 0.05

DEFAULT_N = 4096
DEFAULT_XMAX = 50.0


class RadialGrid:
    """Uniform radial grid x_i = i * x_max/(n-1), i = 0..n-1, with n >= 256."""

    __slots__ = ("n", "x_max", "x", "dx")

    def __init__(self, n: int = DEFAULT_N, x_max: float = DEFAULT_XMAX) -> None:
        n = int(n)
        x_max = float(x_max)
        if n < 256:
            raise ValueError(f"grid needs at least 256 nodes, got {n}")
        if not (x_max > 0.0 and math.isfinite(x_max)):
            raise ValueError(f"x_max must be positive and finite, got {x_max}")
        self.n = n
        self.x_max = x_max
        self.x = np.linspace(0.0, x_max, n)
        self.dx = x_max / (n - 1)

    def matches(self, other: "RadialGrid") -> bool:
        return self.n == other.n and abs(self.x_max - other.x_max) <= 1e-12 * self.x_max

    def __repr__(self) -> str:
        return f"RadialGrid(n={self.n}, x_max={self.x_max})"


class CharacteristicProfile:
    """Radial characteristic profile phi on a grid at a given time.

    phi(0) = 1 (unit mass) and |phi| <= 1 + 1e-9 are enforced; values must be
    real and finite. `meta` holds the report of a steady solve (empty otherwise).
    """

    __slots__ = ("grid", "values", "time", "meta")

    def __init__(self, grid: RadialGrid, values, time: float = 0.0) -> None:
        vals = np.asarray(values, dtype=float)
        if vals.shape != (grid.n,):
            raise ValueError(f"values shape {vals.shape} does not match grid n={grid.n}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("profile values must be finite")
        if abs(vals[0] - 1.0) > 1e-9:
            raise ValueError(f"phi(0) must be 1, got {vals[0]!r}")
        peak = float(np.max(np.abs(vals)))
        if peak > 1.0 + 1e-9:
            raise ValueError(f"|phi| must not exceed 1 + 1e-9, got max {peak}")
        self.grid = grid
        self.values = vals
        self.time = float(time)
        self.meta = {}

    @classmethod
    def maxwellian(cls, grid: RadialGrid, theta: float = 1.0):
        if theta <= 0:
            raise ValueError("temperature must be positive")
        return cls(grid, np.exp(-0.5 * theta * grid.x ** 2))

    @classmethod
    def bimaxwellian(cls, grid: RadialGrid, p: float = 0.5, theta1: float = 0.6,
                     theta2: float = 1.4):
        if not (0.0 <= p <= 1.0) or theta1 <= 0 or theta2 <= 0:
            raise ValueError("mixture needs p in [0,1] and positive temperatures")
        x2 = grid.x ** 2
        return cls(grid, p * np.exp(-0.5 * theta1 * x2) + (1 - p) * np.exp(-0.5 * theta2 * x2))

    def copy(self) -> "CharacteristicProfile":
        return CharacteristicProfile(self.grid, self.values.copy(), self.time)

    def __repr__(self) -> str:
        return f"CharacteristicProfile(n={self.grid.n}, x_max={self.grid.x_max}, t={self.time})"


_FRAMES = ("unscaled-f", "rescaled-g")


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping configuration for the spectral solver.

    `dt` remains only for the benchmark's explicit steps and the CLI's
    `--dt`, and `quad_order` only for the benchmark's explicit orders; every
    other caller steps at the default `DT` and runs the gain at the default
    `QUAD_ORDER`. `gain_scales` rejects an order below it. `steady_profile`
    takes no time step and reads only `quad_order` and `frame`.
    """

    dt: float = DT
    t_max: float = 10.0
    quad_order: int = QUAD_ORDER
    frame: str = "rescaled-g"

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (self.t_max > 0 and math.isfinite(self.t_max)):
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        if self.frame not in _FRAMES:
            raise ValueError(f"frame must be one of {_FRAMES}, got {self.frame!r}")


@dataclass
class EvolutionTrace:
    """Time series of diagnostics recorded along an evolution."""

    times: np.ndarray
    diagnostics: dict[str, np.ndarray]
    final: CharacteristicProfile
    profiles: list[CharacteristicProfile] | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or (len(t) > 1 and np.any(np.diff(t) <= 0)):
            raise ValueError("trace times must be strictly increasing")
        self.times = t
        for k, v in self.diagnostics.items():
            a = np.asarray(v)
            if a.shape[0] != len(t):
                raise ValueError(f"diagnostic {k!r} length {a.shape[0]} != {len(t)} times")
            self.diagnostics[k] = a


# ---------------------------------------------------------------------------
# interpolation kernels

_PLAN_CHUNK = 8192

# the node-table column of each Hermite weight [1-H3, H3, H1, H4, H2, H5]
# of a query in interval i, less 3 i: node i holds (u_i, h d_i, h^2 c_i)
_COLUMNS = np.array([0, 3, 1, 4, 2, 5], dtype=np.int32)
_SATURATED = np.array([-1.0, 0.0, 0.0])  # the node row of u = -1

# The stencils of the node table. Node i has three rows: its value, its slope
# and its curvature, each a tuple of (node offset, integer weight) terms in
# the order they are summed. The slope sum is divided by a h and the
# curvature sum by (b h) h, for the node's divisors (a, b). Below n - 3 every
# node takes the sixth-order 7-point slope and the fourth-order 5-point
# curvature; an offset that reaches below x = 0 reflects there (column
# |i + offset|), the profile being even, and the slope at x = 0 is set to 0.
# The last three nodes take one-sided closures, but for the interior
# curvature at node n - 3.
_VALUE = ((0, 1.0),)
_CURVATURE = ((-2, -1.0), (-1, 16.0), (0, -30.0), (1, 16.0), (2, -1.0))
_INTERIOR = ((_VALUE, ((-3, -1.0), (-2, 9.0), (-1, -45.0), (1, 45.0), (2, -9.0), (3, 1.0)),
              _CURVATURE), (60.0, 12.0))
_CLOSURES = (  # nodes n - 3, n - 2 and n - 1
    ((_VALUE, ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0)), _CURVATURE), (12.0, 12.0)),
    ((_VALUE, ((1, 1.0), (-1, -1.0)), ((1, 1.0), (0, -2.0), (-1, 1.0))), (2.0, 1.0)),
    ((_VALUE, ((0, 3.0), (-1, -4.0), (-2, 1.0)), ((0, 2.0), (-1, -5.0), (-2, 4.0), (-3, -1.0))),
     (2.0, 1.0)),
)


def _stencil_csr(nodes: np.ndarray, rows: tuple) -> tuple:
    # (indptr, indices, data) of the CSR matrix that holds the `rows` of each
    # node in `nodes` in turn, the columns reflected at 0; read-only. Each
    # array is written in place: temporaries of the matrix's size would stay
    # resident as heap the matrix sits above
    offsets, weights = np.array([term for row in rows for term in row]).T
    ends = np.cumsum([len(row) for row in rows], dtype=np.int32)
    count, nnz = len(nodes), int(ends[-1])
    indptr = np.zeros(len(rows) * count + 1, dtype=np.int32)
    np.add.outer(nnz * np.arange(count, dtype=np.int32), ends,
                 out=indptr[1:].reshape(count, len(rows)))
    indices = np.empty((count, nnz), dtype=np.int32)
    np.add.outer(nodes, offsets.astype(np.int32), out=indices)
    np.abs(indices, out=indices)
    data = np.empty((count, nnz))
    data[...] = weights
    arrays = (indptr, indices.reshape(-1), data.reshape(-1))
    for a in arrays:
        a.flags.writeable = False
    return arrays


# the closure rows over the last five nodes, node n - 3 at column 2
_CLOSURE_CSR = _stencil_csr(np.array([2], dtype=np.int32), tuple(
    tuple((offset + k, w) for offset, w in row)
    for k, (rows, _) in enumerate(_CLOSURES) for row in rows))
_INTERIOR_CSR = _stencil_csr(np.arange(0, dtype=np.int32), _INTERIOR[0])


def _interior_csr(k: int) -> tuple:
    # the interior rows of at least the first k nodes: one matrix shared by
    # every grid, regrown to max(k, twice its nodes) when too short
    global _INTERIOR_CSR
    if len(_INTERIOR_CSR[0]) <= 3 * k:
        grown = max(k, 2 * (len(_INTERIOR_CSR[0]) // 3))
        _INTERIOR_CSR = _stencil_csr(np.arange(grown, dtype=np.int32), _INTERIOR[0])
    return _INTERIOR_CSR


def _stencil_rows(v: np.ndarray, h: float, m: int) -> np.ndarray:
    """(n, 3) array whose first m rows are [v_i, d_i, c_i], the rest zero.

    d and c are the slopes and curvatures of v by the stencils above: one
    CSR product (`_csr_matvec`) over the interior rows of the first
    min(m, n - 3) nodes, and one over the closure rows when m > n - 3. The
    kernel adds each row's terms to +0 in their listed order.
    """
    n = len(v)
    k = min(m, n - 3)
    X = np.zeros((n, 3))
    flat = X.reshape(-1)
    kernel = _csr_matvec()
    indptr, indices, data = _interior_csr(k)
    kernel(3 * k, n, indptr[:3 * k + 1], indices, data, v, flat[:3 * k])
    a, b = _INTERIOR[1]
    X[:k, 1] /= a * h
    X[:k, 2] /= b * h * h
    if m > k:
        indptr, indices, data = _CLOSURE_CSR
        kernel(3 * (m - k), 5, indptr[:3 * (m - k) + 1], indices, data, v[n - 5:],
               flat[3 * k:3 * m])
        divisors = [ab for _, ab in _CLOSURES[:m - k]]
        X[k:m, 1] /= [a * h for a, _ in divisors]
        X[k:m, 2] /= [b * h * h for _, b in divisors]
    X[0, 1] = 0.0
    return X


def _node_table(v: np.ndarray, h: float) -> tuple[np.ndarray, int]:
    """(X, J): the (n, 3) node table of the profile v and its tail start.

    With u = v - 1 and (d, c) the slopes and curvatures of u, row i of X is
    [u_i, h d_i, h^2 c_i]. J is the first interval of the trailing run of
    saturated intervals, those whose two nodes are both (-1, 0, 0); J = n - 1
    when the last interval is not saturated. With L the last node where
    u != -1, every node from L + 4 on is exactly (-1, 0, 0): the slope and
    curvature stencils reach 3 and 2 nodes, and their integer weights sum
    -1s to exactly +0, at the top-edge closures too. So only the rows up to
    L + 3 are computed (`_stencil_rows`); the closures enter only when
    L + 4 > n - 3. J follows from those rows.
    """
    n = len(v)
    u = v - 1.0
    live = np.flatnonzero(u != -1.0)
    L = int(live[-1]) if live.size else -1
    m = min(L + 4, n)
    X = _stencil_rows(u, h, m)
    X[:m, 1] *= h
    X[:m, 2] *= h * h
    X[m:, 0] = -1.0
    # the last unsaturated node is node L or one of the 3 after it
    off = np.flatnonzero((X[L + 1:m] != _SATURATED).ravel())
    K = L + 1 + int(off[-1]) // 3 if off.size else L
    return X, min(K + 1, n - 1)


_ROW_POINTER = np.zeros(1, dtype=np.int32)


def _row_pointer(m: int, reserve: int) -> np.ndarray:
    # the row pointer 6 r, r = 0..m, of a gather of m queries: a view of one
    # read-only array shared by every plan, regrown to `reserve` rows when
    # too short
    global _ROW_POINTER
    if len(_ROW_POINTER) <= m:
        _ROW_POINTER = np.arange(0, 6 * (max(m, reserve) + 1), 6, dtype=np.int32)
        _ROW_POINTER.flags.writeable = False
    return _ROW_POINTER[:m + 1]


_CSR_MATVEC = None  # scipy's compiled csr_matvec, loaded with the first plan


def _csr_matvec():
    """scipy's compiled `csr_matvec(M, N, indptr, indices, data, x, y)`, y += A x.

    Loaded once from the `_sparsetools` extension file in scipy's `sparse`
    directory, without importing scipy.sparse. The module is left under its
    own top-level name: registered as scipy.sparse._sparsetools, it would
    hide that attribute from a later `import scipy.sparse`. ImportError,
    naming the directory, when the file is missing.
    """
    global _CSR_MATVEC
    if _CSR_MATVEC is None:
        spec = importlib.util.find_spec("scipy")
        if spec is None:
            raise ImportError("scipy is required for interpolation plans")
        where = os.path.join(spec.submodule_search_locations[0], "sparse")
        paths = [os.path.join(where, "_sparsetools" + suffix)
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        path = next((p for p in paths if os.path.isfile(p)), None)
        if path is None:
            from importlib.metadata import version  # noqa: PLC0415  (17 ms, only here)

            raise ImportError(f"no _sparsetools extension in {where} (scipy {version('scipy')})")
        spec = importlib.util.spec_from_file_location("_sparsetools", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        _CSR_MATVEC = module.csr_matvec
    return _CSR_MATVEC


def _on_demand(shape: tuple, dtype=float) -> np.ndarray:
    """An unfilled array of `shape` whose pages become resident only as written.

    For arrays filled row by row as they are needed (`_InterpPlan.reserved`,
    `realspace`'s sine tables). np.empty advises transparent huge pages for
    arrays over 4 MB, so where the host's THP mode honours that advice
    (`madvise` or `always`) a first write makes a whole 2 MB page resident.
    This array is a private anonymous mapping of its own, advised against
    huge pages where the platform has that flag, so a write makes only its
    own base (4 kB) pages resident. The mapping is unmapped when the array
    is freed.
    """
    import mmap  # noqa: PLC0415  (only here: code that keeps no plan, DSMC say, never loads it)

    dtype = np.dtype(dtype)
    buf = mmap.mmap(-1, math.prod(shape) * dtype.itemsize, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=dtype).reshape(shape)


def _cells(p: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    # positions clamped to the last node, and the interval each lands in (the
    # last node in the last interval); p must be finite and nonnegative
    p = np.minimum(p, float(n - 1))
    return p, np.minimum(p.astype(np.int32), np.int32(n - 2))


def _hermite_weights(t: np.ndarray, W: np.ndarray) -> None:
    # quintic Hermite weights [1-H3, H3, H1, H4, H2, H5](t), one row of W per t
    t2 = t * t
    t3 = t2 * t
    t4 = t3 * t
    t5 = t4 * t
    W[:, 1] = 10.0 * t3 - 15.0 * t4 + 6.0 * t5         # value right, H3
    W[:, 0] = 1.0 - W[:, 1]                            # value left
    W[:, 2] = t - 6.0 * t3 + 8.0 * t4 - 3.0 * t5       # slope left
    W[:, 3] = -4.0 * t3 + 7.0 * t4 - 3.0 * t5          # slope right
    W[:, 4] = 0.5 * (t2 - 3.0 * t3 + 3.0 * t4 - t5)    # curvature left
    W[:, 5] = 0.5 * (t3 - 2.0 * t4 + t5)               # curvature right


class _InterpPlan:
    """Quintic Hermite evaluation at fixed query positions as a linear operator.

    Every off-grid evaluation of a profile runs through one. Positions are
    fractional grid indices, a * i for the queries a * x_i. They must be
    finite and nonnegative (ValueError otherwise): csr_matvec does not
    range-check column indices. Positions past n - 1 are clamped to the last
    node and counted in `clamped`.

    The evaluation is the product of two CSR matrices. The first is the
    stencil matrix, which maps a profile to its (n, 3) node table X
    (`_node_table`); its interior rows are shared by every plan and grid and
    grow with the largest table asked for, and the closure rows of the top
    edge are fixed (`_stencil_rows`). The second is the plan's gather matrix
    M over X flattened: query r in
    interval i holds the six Hermite weights [1-H3, H3, H1, H4, H2, H5](t_r)
    at the columns 3 i + (0, 3, 1, 4, 2, 5), that is at u_i, u_{i+1},
    h d_i, h d_{i+1}, h^2 c_i and h^2 c_{i+1}, so phi(queries) = 1 + M @ X. The
    table of the constant profile phi = 1 is exactly zero, so phi = 1 is
    reproduced bit for bit whatever the summation order. The plan's arrays
    `data` and `indices` take 72 bytes per query: six weights and six int32
    column indices. The row pointer is 6 r for every plan, one int32 array
    that all plans share (`_row_pointer`).

    The value weights W0 = fl(1 - W1) and W1 = H3(t) satisfy W0 + W1 == 1 in
    floating point, and `fill` raises ValueError for any query where they do
    not. So a query in a saturated interval, whose two nodes are (-1, 0, 0)
    (u = -1, the scaled slopes and curvatures 0), gets the dot product
    fl(-W0 - W1) = -1 and evaluates to exactly +0. `gather(m, X, out)` runs
    the gather matrix of the first m queries, views of the arrays, through
    scipy's compiled csr_matvec (`_csr_matvec`), the kernel and the operands
    of `csr_matrix @ x`, so the sums are those of scipy.sparse bit for bit.

    A plan built from its positions is filled at once, into np.empty
    arrays. A `reserved` plan (the gain's and `_PrefixPlan`'s) holds its
    arrays unfilled: `fill` appends the weights of the next queries. Its
    reserve comes from `_on_demand`, so only the pages of the filled rows
    are resident: 72 bytes per filled query, rounded up to whole 4 kB
    pages. np.empty would not do: numpy advises huge pages for arrays over
    4 MB, and where the host honours that advice each fill makes whole
    2 MB pages resident, megabytes of unfilled reserve for a (4096, 50) gain
    plan filled to a quarter, more or fewer with where its arrays fall
    among those pages.
    """

    __slots__ = ("shape", "n", "h", "data", "indices", "filled", "clamped")

    def __init__(self, positions: np.ndarray, n: int, h: float) -> None:
        p = np.asarray(positions, dtype=float)
        self._reserve(p.shape, n, h, np.empty)
        self.fill(p.ravel())

    @classmethod
    def reserved(cls, shape: tuple, n: int, h: float) -> "_InterpPlan":
        """A plan of `shape` queries with none filled yet."""
        plan = cls.__new__(cls)
        plan._reserve(shape, n, h, _on_demand)
        return plan

    def _reserve(self, shape: tuple, n: int, h: float, empty) -> None:
        _csr_matvec()  # a missing kernel fails here, before any plan is cached
        m = math.prod(shape)
        self.shape, self.n, self.h = shape, n, h
        self.data = empty((m, 6))
        self.indices = empty((m, 6), dtype=np.int32)
        self.filled = self.clamped = 0

    def fill(self, p: np.ndarray) -> None:
        """Fill the next len(p) queries at the flat positions p."""
        n, a0 = self.n, self.filled
        # filled in cache-sized chunks: temporaries the size of the plan would
        # each cost a page fault per page
        for a in range(a0, a0 + len(p), _PLAN_CHUNK):
            pc = p[a - a0:a - a0 + _PLAN_CHUNK]
            if not np.all((pc >= 0.0) & (pc < math.inf)):  # before the int32 cast
                raise ValueError("interpolation positions must be finite and nonnegative")
            self.clamped += int(np.count_nonzero(pc > (n - 1) + 1e-9))
            pc, ic = _cells(pc, n)
            np.add.outer(3 * ic, _COLUMNS, out=self.indices[a:a + len(pc)])
            Wc = self.data[a:a + len(pc)]
            _hermite_weights(pc - ic, Wc)
            if not np.all(Wc[:, 0] + Wc[:, 1] == 1.0):
                raise ValueError("Hermite value weights must sum to exactly 1")
        self.filled = a0 + len(p)

    def gather(self, m: int, X: np.ndarray, out: np.ndarray) -> None:
        """out = M @ X over the first m queries, for a flat node table X.

        `out` must be m contiguous float zeros: the kernel adds into it, and
        scipy.sparse starts from zeros too. The kernel checks no lengths, and
        writes a strided `out` to a copy it drops, so both are checked here.
        """
        if m > self.filled:
            raise ValueError(f"{m} queries asked of a plan with {self.filled} filled")
        if X.shape != (3 * self.n,) or out.shape != (m,) or not out.flags.c_contiguous:
            raise ValueError("gather needs a flat node table and m contiguous outputs")
        _CSR_MATVEC(m, 3 * self.n, _row_pointer(m, len(self.data)),
                    self.indices[:m].reshape(-1), self.data[:m].reshape(-1), X, out)

    def eval_sorted(self, v: np.ndarray) -> np.ndarray:
        """The profile v at every query of a filled plan sorted by position.

        Only the queries below the saturated tail are evaluated; every other
        one is exactly +0, as the full evaluation 1 + M @ X gives it.
        """
        X, J = _node_table(v, self.h)
        m = int(np.searchsorted(self.indices[:self.filled, 0], 3 * J))
        out = np.zeros(self.filled)
        self.gather(m, X.ravel(), out[:m])
        out[:m] += 1.0
        return out.reshape(self.shape)


class _PrefixPlan:
    """An `_InterpPlan` of fixed sorted positions, filled as far as its live prefix.

    `live_values(v)` takes the tail start J of `_node_table`, counts the
    positions whose interval lies below it (M, from the cells computed at
    construction), fills the plan with those of them not yet filled, and
    gathers them, as `eval_sorted` does. It returns the M values; every
    later position is exactly +0 and left out. So a plan fills each query
    at most once, and only as far as the widest prefix asked of it.
    """

    __slots__ = ("positions", "cells", "plan")

    def __init__(self, positions: np.ndarray, n: int, h: float) -> None:
        self.positions = positions
        self.cells = _cells(positions, n)[1]
        self.plan = _InterpPlan.reserved(positions.shape, n, h)

    def live_values(self, v: np.ndarray) -> np.ndarray:
        X, J = _node_table(v, self.plan.h)
        M = int(np.searchsorted(self.cells, J))
        plan = self.plan
        if plan.filled < M:
            plan.fill(self.positions[plan.filled:M])
        out = np.zeros(M)
        plan.gather(M, X.ravel(), out)
        out += 1.0
        return out


def gain_scales(e: float, quad_order: int = QUAD_ORDER):
    """Quadrature nodes s, weights w and the scale arrays (a-, a+).

    The rule is Gauss-Legendre in u = sqrt((1 - s)/2) on [0, 1]: s = 1 - 2u^2
    and ds = -4u du, so the weights are 2 w_GL u, which sum to 2, and
    a- = (1 + e) u/2 is linear in u (see `QUAD_ORDER` for why). Summed left
    to right in floating point the weights give exactly 2.0: at orders where
    the rounded 2 w_GL u do not (26, say), the last weight is replaced by 2
    minus the sum of the others, a change of a few ulp of 2. a+ is the
    same function of s as in the module docstring. Orders below
    `QUAD_ORDER` are rejected: they are not at round-off. Every gain path
    (`step`, `gain_fourier`, `steady_residual`) builds its plan here, and so
    does the start of every steady solve (`_stationary_taylor`).

    The rule's u, s and w depend on the order alone, so they are computed
    once per order and kept, read-only, while the order is among the last
    `_CACHE_CAP` built; an order is checked before it is looked up. The
    values are those of computing the rule afresh, bit for bit, and every
    call returns new arrays that the caller owns.
    """
    e = _check_e(e)
    if quad_order < QUAD_ORDER:
        raise ValueError(f"quad_order must be at least {QUAD_ORDER}, got {quad_order}")
    q = int(quad_order)
    u, s, w = _cached(_RULE_CACHE, (q,), lambda: _u_rule(q))
    a_minus = 0.5 * (1.0 + e) * u
    a_plus = np.sqrt(((3.0 - e) / 4.0) ** 2 + ((1.0 + e) / 4.0) ** 2
                     + s * (3.0 - e) * (1.0 + e) / 8.0)
    return s.copy(), w.copy(), a_minus, a_plus


def _u_rule(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # the nodes u and s and the weights w of `gain_scales` at order q, read-only
    t, w = leggauss(q)
    u = 0.5 * (t + 1.0)
    s = 1.0 - 2.0 * u * u
    w = 2.0 * w * u  # ds = -4u du, and the Gauss-Legendre weights on [0, 1] are w/2
    # the gain sums w left to right, so phi = 1 is its fixed point bit for bit
    # only if that sum is exactly 2 (it is at 24, 32, 48 and 64, not at 26);
    # elsewhere the last weight takes 2 - (sum of the others), exact by
    # Sterbenz since that sum lies in [1, 2]
    if np.cumsum(w)[-1] != 2.0:
        w[-1] = 2.0 - np.cumsum(w[:-1])[-1]
    for a in (u, s, w):
        a.flags.writeable = False  # shared by every later call at this order
    return u, s, w


def _sorted_pairs(a_minus: np.ndarray, a_plus: np.ndarray, n: int):
    # (order, below) of the pairs sorted by their outer interval; a function,
    # so that its temporaries are freed before the plan is filled
    # max(a- i, a+ i) = max(a-, a+) i: rounding is monotone
    outer = _cells(np.multiply.outer(np.maximum(a_minus, a_plus),
                                     np.arange(n, dtype=float)), n)[1].ravel()
    order = np.argsort(outer, kind="stable").astype(np.int32)
    below = np.concatenate(([0], np.cumsum(np.bincount(outer, minlength=n - 1))))
    return order, below


class _GainPlan:
    """The gain quadrature over the (node k, grid node i) pairs.

    Node k is the k-th node of `gain_scales`, with weight w_k and scales
    a-_k, a+_k; the plan reads nothing else of the rule.
    Pair (k, i) queries phi at a-_k x_i and a+_k x_i. The pairs are sorted
    stably by the interval of their outer query max(a-_k, a+_k) i, and pair p
    is the adjacent rows 2p (a-) and 2p + 1 (a+) of one reserved
    `_InterpPlan`; `order[p]` is its flat index k n + i, and `below[j]`
    counts the pairs whose outer query lies below interval j.

    `apply` evaluates only the pairs below the saturated tail, the trailing
    run of saturated intervals from J on (`_node_table`), and takes every
    other product as exactly +0. That is the product of the full evaluation
    up to its sign for a finite profile: a query in a saturated interval
    gets the dot product fl(-W0 - W1) = -1, since W0 = fl(1 - W1) and
    fl(fl(1 - W1) + W1) = 1 for W1 in [0, 1] (exact by Sterbenz for
    W1 >= 1/2, a half-ulp tie rounding to 1 below that; `_InterpPlan` checks
    it for every query), so the query evaluates to +0 and the pair's product
    is +-0 whatever its finite inner value. Without a tail (phi = 1, say)
    every pair is evaluated.

    The products go into a zeroed buffer in pair order, so from P = below[J]
    on it holds exactly +0. The gain at node i is then
    (1/2) sum_k w_k phi(a-_k x_i) phi(a+_k x_i), summed over k left to
    right by one CSR product (`_csr_matvec`) whose row i lists the pair
    positions of node i in node order (`index`), with the weights and the
    row pointer that every plan of a (q, n) shares (`_node_sums`). A dead
    pair adds a product of +-0 to a sum that starts at +0, so the sums are
    those of the full evaluation bit for bit, and no BLAS is called.
    `live[j]` is 1 + the largest grid node i of a pair whose outer query
    lies below interval j (0 if there is none); every node from live[J] on
    has only dead pairs, so its gain is +0 and the product runs over the
    first live[J] rows only, whose columns lie below reach[live[J] - 1]: the
    length of the buffer. The weights sum left to right to exactly 2
    (`gain_scales`), so phi = 1 is a fixed point bit for bit.

    The plan's rows are filled on demand, in pair order: an apply that needs
    the first P pairs fills the ones not yet filled, in whole `_PLAN_CHUNK`
    chunks of queries, so no row is computed twice and a plan never fills
    more than an eager build would. The plan holds 2 bytes per query for the
    int32 `order`, 2 more for the int32 `index` and 72 per filled query,
    beside the shared arrays; on the (4096, 50) grid an apply to a
    Gaussian-tailed profile fills about a quarter of them. Each apply gathers
    over views of the plan's arrays.
    """

    __slots__ = ("plan", "q", "a_minus", "a_plus", "order", "below", "live", "index",
                 "reach", "indptr", "weights")

    def __init__(self, grid: RadialGrid, e: float, quad_order: int) -> None:
        _, w, self.a_minus, self.a_plus = gain_scales(e, quad_order)
        self.order, self.below = _sorted_pairs(self.a_minus, self.a_plus, grid.n)
        # node i has a pair whose outer query lies below interval j when its
        # lowest outer query, at the smallest max(a-, a+), does; so the
        # nodes that have one are the first live[j]
        lowest = float(np.min(np.maximum(self.a_minus, self.a_plus)))
        ramp = np.arange(grid.n)
        self.live = np.searchsorted(_cells(lowest * ramp, grid.n)[1], ramp)
        self.plan = _InterpPlan.reserved((len(self.order), 2), grid.n, grid.dx)
        self.q = int(quad_order)
        self.indptr, self.weights = _node_sums(w, grid.n)
        # index[i q + k] is the position of pair (k, i): the inverse of
        # `order`, transposed from (k, i) to (i, k)
        position = np.empty(len(self.order), dtype=np.int32)
        position[self.order] = np.arange(len(self.order), dtype=np.int32)
        index = position.reshape(self.q, grid.n).T.copy()
        # the rows up to node i read the first reach[i] products
        self.reach = np.maximum.accumulate(index.max(axis=1)) + 1
        self.index = index.reshape(-1)

    def _fill(self, P: int) -> None:
        # fill whole chunks of pairs until the first P are filled
        plan = self.plan
        while plan.filled < 2 * P:
            a = plan.filled // 2
            k, i = np.divmod(self.order[a:a + _PLAN_CHUNK // 2], np.int32(plan.n))
            x = i.astype(float)
            positions = np.empty((len(k), 2))
            positions[:, 0] = self.a_minus[k] * x
            positions[:, 1] = self.a_plus[k] * x
            plan.fill(positions.ravel())

    def apply(self, v: np.ndarray) -> np.ndarray:
        n = self.plan.n
        X, J = _node_table(v, self.plan.h)
        P = int(self.below[J])
        self._fill(P)
        vals = np.zeros(2 * P)
        self.plan.gather(2 * P, X.ravel(), vals)
        vals += 1.0
        L = int(self.live[J])  # >= 1: node 0's pairs lie in interval 0 < J
        products = np.zeros(int(self.reach[L - 1]))  # >= P: a live pair's node lies below L
        np.multiply(vals[0::2], vals[1::2], out=products[:P])
        out = np.zeros(n)
        _CSR_MATVEC(L, len(products), self.indptr[:L + 1], self.index, self.weights,
                    products, out[:L])
        out[:L] *= 0.5
        out[0] = 1.0  # exact mass conservation at x = 0
        return out


def _node_sums(w: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    # (indptr, weights) of the gain's node sums on n nodes, row i holding the
    # q weights w in node order; read-only, one pair per (q, n)
    def build():
        q = len(w)
        indptr = np.arange(0, q * n + 1, q, dtype=np.int32)
        weights = np.tile(w, n)
        for a in (indptr, weights):
            a.flags.writeable = False
        return indptr, weights

    return _cached(_NODE_SUMS, (len(w), n), build)


_NODE_SUMS: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
_GAIN_CACHE: dict[tuple, _GainPlan] = {}
_DRIFT_CACHE: dict[tuple, _InterpPlan] = {}
_RULE_CACHE: dict[tuple, tuple[np.ndarray, ...]] = {}
_CACHE_CAP = 16


def _cached(cache: dict, key: tuple, build):
    # bounded FIFO: the oldest entry goes once _CACHE_CAP are held
    plan = cache.get(key)
    if plan is None:
        if len(cache) >= _CACHE_CAP:
            cache.pop(next(iter(cache)))
        plan = cache[key] = build()
    return plan


def _gain_plan(grid: RadialGrid, e: float, quad_order: int) -> _GainPlan:
    return _cached(_GAIN_CACHE, (grid.n, round(grid.x_max, 12), round(e, 15), quad_order),
                   lambda: _GainPlan(grid, e, quad_order))


def _drift_plan(grid: RadialGrid, shift: float) -> _InterpPlan:
    return _cached(_DRIFT_CACHE, (grid.n, round(grid.x_max, 12), round(shift, 18)),
                   lambda: _InterpPlan(math.exp(shift) * np.arange(grid.n, dtype=float),
                                       grid.n, grid.dx))


def gain_fourier(phi: CharacteristicProfile, e,
                 quad_order: int = QUAD_ORDER) -> CharacteristicProfile:
    """Apply the Fourier gain operator to a profile.

    phi == 1 is a fixed point for every e and every order, bit for bit: the
    interpolation operator acts on the deviation phi - 1, so it returns
    exactly 1 at every query and every product is exactly 1, and each node
    sums w_k times its products left to right, which gives exactly 2 for the
    weights of `gain_scales`, then halves. No BLAS routine enters, so the
    bits do not depend on the BLAS kernel or thread count. For e = 1 every
    Maxwellian is a fixed point since a-^2 + a+^2 = 1. Output mass is exact:
    (Q+ phi)(0) = 1.

    `quad_order` remains only for the benchmark's explicit calls.
    """
    e = _check_e(e)
    plan = _gain_plan(phi.grid, e, int(quad_order))
    return CharacteristicProfile(phi.grid, plan.apply(phi.values), phi.time)


def _drift_vals(v: np.ndarray, grid: RadialGrid, shift: float) -> np.ndarray:
    # exact rescaling phi(x) -> phi(x e^{shift}), at the sorted e^{shift} i
    out = _drift_plan(grid, shift).eval_sorted(v)
    out[0] = 1.0
    return out


def _rk4_vals(v: np.ndarray, dt: float, gain: _GainPlan) -> np.ndarray:
    def F(u):
        return gain.apply(u) - u

    k1 = F(v)
    k2 = F(v + 0.5 * dt * k1)
    k3 = F(v + 0.5 * dt * k2)
    k4 = F(v + dt * k3)
    return v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step(phi: CharacteristicProfile, e, config: SolverConfig) -> CharacteristicProfile:
    """Advance one time step in the configured frame.

    Unscaled frame: RK4 on dphi/dt = Q+ phi - phi (temperature decays at the
    exact rate 2E). Rescaled frame: Strang splitting drift(dt/2) - RK4(dt) -
    drift(dt/2), which holds the second moment fixed. If the step pushes
    |phi| above 1 + 1e-6, or to NaN, it is retried once as two half steps,
    then aborted with RuntimeError.
    A rescaled step so large that the drift's query positions
    x_i exp(E dt/2) / dx overflow raises ValueError before any plan is built.
    """
    e = _check_e(e)
    E = dissipation_rate(e)
    rescaled = config.frame == "rescaled-g"
    if rescaled and E * config.dt / 2.0 >= math.log(np.finfo(float).max / phi.grid.n):
        raise ValueError(f"dt={config.dt!r} is too large for the rescaled frame: the drift "
                         "dilation exp(E dt/2) overflows the query positions")
    gain = _gain_plan(phi.grid, e, config.quad_order)

    def advance(v, dt):
        if rescaled and E > 0.0:
            v = _drift_vals(v, phi.grid, E * dt / 2.0)
            v = _rk4_vals(v, dt, gain)
            v = _drift_vals(v, phi.grid, E * dt / 2.0)
        else:
            v = _rk4_vals(v, dt, gain)
        return v

    new = advance(phi.values, config.dt)
    if not float(np.max(np.abs(new))) <= 1.0 + 1e-6:  # a NaN profile fails too
        warnings.warn(f"profile bound violated at t={phi.time + config.dt:.4g}; "
                      "retrying with halved dt")
        new = advance(advance(phi.values, config.dt / 2.0), config.dt / 2.0)
        if not float(np.max(np.abs(new))) <= 1.0 + 1e-6:
            raise RuntimeError(
                f"profile bound still violated after dt halving at t={phi.time:.4g}; "
                "the step size is too large for this profile")
    return CharacteristicProfile(phi.grid, new, phi.time + config.dt)


_SOBOLEV_ORDERS = (0.5, 1.0, 2.0)
_SUP_DELTA = 0.5


def evolve(phi0: CharacteristicProfile, e, config: SolverConfig,
           diagnostics_schedule=None, reference: CharacteristicProfile | None = None,
           keep_profiles: bool = False) -> EvolutionTrace:
    """Evolve a profile to config.t_max, recording diagnostics on a schedule.

    The schedule lists absolute times (snapped to step boundaries); default is
    about 200 evenly spaced records. Standard diagnostics: temperature (m2/3),
    m2, m4, Sobolev seminorms hr_<r> for r in (0.5, 1, 2), weighted sup
    sup_0.5, and d2_ref against `reference` when given. Deterministic: no
    randomness anywhere.
    """
    e = _check_e(e)
    n_steps = int(round(config.t_max / config.dt))
    if abs(n_steps * config.dt - config.t_max) > 1e-9 * max(1.0, config.t_max):
        warnings.warn("t_max is not a multiple of dt; snapping to "
                      f"{n_steps} steps = {n_steps * config.dt:.6g}")
    if diagnostics_schedule is None:
        every = max(1, n_steps // 200)
        rec_steps = np.arange(0, n_steps + 1, every)
        if rec_steps[-1] != n_steps:
            rec_steps = np.append(rec_steps, n_steps)
    else:
        times = np.asarray(diagnostics_schedule, dtype=float)
        rec_steps = np.unique(np.clip(np.round(times / config.dt).astype(int), 0, n_steps))
    rec_set = set(int(k) for k in rec_steps)

    rows: list[dict] = []
    times: list[float] = []
    profiles: list[CharacteristicProfile] = []

    def record(p: CharacteristicProfile):
        row = {}
        m2 = moment(p, 2)
        row["m2"] = m2
        row["temperature"] = m2 / 3.0
        row["m4"] = moment(p, 4)
        for r in _SOBOLEV_ORDERS:
            row[f"hr_{r:g}"] = sobolev_norm(p, r)
        row[f"sup_{_SUP_DELTA:g}"] = sup_weighted(p, _SUP_DELTA)
        if reference is not None:
            row["d2_ref"] = d2_distance(p, reference, warn_temperature=False)
        rows.append(row)
        times.append(p.time)
        if keep_profiles:
            profiles.append(p.copy())

    phi = phi0
    if 0 in rec_set:
        record(phi)
    for k in range(1, n_steps + 1):
        phi = step(phi, e, config)
        if k in rec_set:
            record(phi)

    keys = rows[0].keys() if rows else []
    diags = {k: np.array([r[k] for r in rows]) for k in keys}
    return EvolutionTrace(np.array(times), diags, final=phi,
                          profiles=profiles if keep_profiles else None)


def steady_residual(phi: CharacteristicProfile, e, quad_order: int = QUAD_ORDER) -> float:
    """Sup-norm of (Q+ phi - phi + E x phi') over the grid."""
    e = _check_e(e)
    gain = _gain_plan(phi.grid, e, int(quad_order))
    E = dissipation_rate(e)
    d = _stencil_rows(phi.values, phi.grid.dx, phi.grid.n)[:, 1]
    R = gain.apply(phi.values) - phi.values + E * phi.grid.x * d
    return float(np.max(np.abs(R)))


def envelope_report(phi: CharacteristicProfile) -> dict:
    """Qualitative two-sided envelope check exp(-x^2) <= phi <= exp(-x)(1+x).

    Stated at unit temperature (m2 = 3). Reported, never asserted: the sharp
    normalization of the stationary envelope is not reproduced numerically.
    """
    x = phi.grid.x
    v = phi.values
    lower = np.exp(-x * x)
    upper = np.exp(-x) * (1.0 + x)
    return {
        "temperature": moment(phi, 2) / 3.0,
        "lower_ok_fraction": float(np.mean(v >= lower - 1e-12)),
        "upper_ok_fraction": float(np.mean(v <= upper + 1e-12)),
        "max_lower_violation": float(np.max(lower - v)),
        "max_upper_violation": float(np.max(v - upper)),
    }


_NEWTON_STEPS = 20     # Newton steps of a steady solve before it reports non-convergence
_GMRES_RESTART = 80    # Krylov vectors per cycle of the GMRES solve of a Newton step
_GMRES_BUDGET = 800    # GMRES iterations per Newton step
_FORCING = (1e-2, 1e-14)  # largest forcing term of a GMRES solve, and its round-off floor per |phi|


def _loss_drift_solve(r: np.ndarray, E: float) -> np.ndarray:
    # u - E x u' = r by implicit upwind differences, u_i - E i (u_{i+1} - u_i)
    # = r_i, swept inward from x_max: the inverse of the loss-and-drift part
    # of the rescaled generator. u_0 = r_0, and |u| <= max |r|. Past the
    # last nonzero r (a NaN counts as nonzero) every u is exactly +0, so the
    # sweep starts there.
    nonzero = np.flatnonzero(r)
    K = int(nonzero[-1]) + 1 if nonzero.size else 0
    c = E * np.arange(K, dtype=float)
    a = (c / (1.0 + c)).tolist()
    b = (r[:K] / (1.0 + c)).tolist()
    acc = 0.0
    for i in range(K - 1, -1, -1):
        acc = b[i] + a[i] * acc
        b[i] = acc
    u = np.zeros(len(r))
    u[:K] = b
    return u


_START_ORDER = 4       # highest Taylor order K of the start of a steady solve


def _stationary_taylor(e: float, order: int) -> list[float]:
    # c_0 .. c_order of the stationary profile phi* = sum_k c_k x^2k at m2 = 3,
    # so that m_2k* = (-1)^k (2k+1)! c_k: c_0 = 1, c_1 = -1/2 and the fixed
    # point of the moment hierarchy, c_k lambda(k) = sum_{i+j=k; i,j>=1}
    # c_i c_j I_ij with I_ij = (1/2) int a-^2i a+^2j ds (Ernst & Brito 2002;
    # Bobylev, Cercignani & Toscani 2003). I_ij is a polynomial integral of
    # degree 2k + 1 in u, which the gain's own rule sums exactly. c_k is
    # finite while lambda(k) > 0, that is for k below the tail exponent.
    _, w, a_minus, a_plus = gain_scales(e)
    c = [1.0, -0.5]
    for k in range(2, order + 1):
        gain = sum(c[i] * c[k - i] * 0.5 * float(w @ (a_minus ** (2 * i)
                                                       * a_plus ** (2 * (k - i))))
                   for i in range(1, k))
        c.append(gain / moment_rate(k, e))
    return c


def _steady_start(grid: RadialGrid, e: float) -> CharacteristicProfile | None:
    # phi0 = exp(-x^2/2) sum_{k<=K} b_k x^2k, whose Taylor series matches the
    # stationary c_0 .. c_K, so b_k = sum_{j<=k} c_j 2^(j-k)/(k-j)! (the
    # coefficients of exp(x^2/2) sum_j c_j x^2j). K is the largest order up
    # to `_START_ORDER` whose rates lambda(2..K) are positive and whose phi0
    # is a valid profile, |phi0| <= 1 on the grid. None when only K = 1, the
    # unit Maxwellian (b_1 = c_1 + 1/2 = 0), qualifies.
    top = 1
    while top < _START_ORDER and moment_rate(top + 1, e) > 0.0:
        top += 1
    c = _stationary_taylor(e, top)
    b = [sum(c[j] * 2.0 ** (j - k) / math.factorial(k - j) for j in range(k + 1))
         for k in range(top + 1)]
    x2 = grid.x ** 2
    gauss = np.exp(-0.5 * x2)
    for K in range(top, 1, -1):
        values = gauss * np.polynomial.polynomial.polyval(x2, b[:K + 1])
        if np.max(np.abs(values)) <= 1.0:
            return CharacteristicProfile(grid, values)
    return None


def _gmres(A, M, b: np.ndarray, target: float) -> tuple[np.ndarray, int]:
    # (M y, iterations) with |b - A M y| <= target: GMRES (Saad & Schultz
    # 1986) right-preconditioned by M, restarted every `_GMRES_RESTART` and
    # stopped after `_GMRES_BUDGET` iterations; Arnoldi by classical
    # Gram-Schmidt done twice, the least squares by Givens rotations
    m = _GMRES_RESTART
    y, r, its = np.zeros(len(b)), b, 0
    V, H = np.zeros((m + 1, len(b))), np.zeros((m + 1, m))
    while True:
        g = np.zeros(m + 1)
        g[0] = float(np.linalg.norm(r))
        if g[0] <= target or its == _GMRES_BUDGET:
            break
        V[0], H[:], rot, k = r / g[0], 0.0, [], 0
        while k < m and its < _GMRES_BUDGET and abs(g[k]) > target:
            w = A(M(V[k]))
            its += 1
            for _ in range(2):
                coef = V[:k + 1] @ w
                w -= coef @ V[:k + 1]
                H[:k + 1, k] += coef
            beta = float(np.linalg.norm(w))
            for i, (c, s) in enumerate(rot):
                H[i, k], H[i + 1, k] = c * H[i, k] + s * H[i + 1, k], c * H[i + 1, k] - s * H[i, k]
            nu = math.hypot(H[k, k], beta)
            c, s = H[k, k] / nu, beta / nu
            rot.append((c, s))
            H[k, k] = nu
            V[k + 1] = w / beta if beta > 0.0 else 0.0
            g[k + 1], g[k] = -s * g[k], c * g[k]
            k += 1
        for i in range(k - 1, -1, -1):  # back substitution; g[k] is the residual
            g[i] = (g[i] - H[i, i + 1:k] @ g[i + 1:k]) / H[i, i]
        y += g[:k] @ V[:k]
        if abs(g[k]) <= target:
            break
        r = b - A(M(y))
    return M(y), its


def steady_profile(e, config: SolverConfig | None = None, tol: float = 1e-7,
                   grid: RadialGrid | None = None) -> CharacteristicProfile:
    """Stationary rescaled profile at unit temperature, as a root.

    Newton's method (Knoll & Keyes 2004) solves for the node values phi and
    a rate mu in R = Q+ phi - phi + (E + mu) x phi' = 0, with the 7-point
    slope of `steady_residual`, bordered by m2 = 3 as `moment`'s 7-node fit
    reads it. On the grid the gain misses energy balance, so R = 0 at the
    exact E and m2 = 3 cannot both hold; mu is that dissipation defect
    (1.00e-8 to 1.13e-8 for e in [0.8, 1] on (1024, 30), 15.7 times less on
    (2048, 30); 2.1e-8 at e = 0.5 and -9.5e-8 at e = 0.2). It starts from
    `_steady_start`, or the unit Maxwellian where that gives None. Each step
    solves J d = -F by `_gmres`, right-preconditioned by
    -(1 - (E + mu) x d/dx)^-1 (`_loss_drift_solve`), to Eisenstat & Walker's
    (1996) second forcing term, at most `_FORCING[0]` and not below the
    residual's round-off. J_Q h is the one-sided difference
    (Q+(phi + t h) - Q+ phi)/t, t = 1.5e-8/max |h|, which reuses the step's
    Q+ phi; Q+ is quadratic, so its error t Q2(h, h) moves the path, not the
    root.

    The solve stops when the d2 size of the update is below tol and returns
    the updated profile: under quadratic convergence the last update bounds
    the error of the iterate before it. Not so for a first update from a
    start that errs along the near-dilations, where J is ill-conditioned: at
    e = 0.96 on (1024, 30) it reads 4.8e-8 while the start lies 1.09e-7 from
    the root, and the second update finds the rest. So a tol above the first
    update stops one step short, with a mu that has not converged: 0.70 tol
    (d2) from the root at tol 1e-7 and e = 0.95 there, and 1.6 tol at tol
    1e-8 and e = 0.99 on (2048, 40), the worst of six grids from (256, 15)
    to (4096, 50), e in [0.2, 1] and tol in [1e-10, 1e-6]. On the finest
    grids the root is set only to the residual's round-off (5e-14): roots
    from the two starts differ by up to 3e-9 in d2 and 2e-10 in mu there.

    After `_NEWTON_STEPS` steps without such an update it warns and sets
    meta["converged"] = False. The meta holds "converged", "last_update_d2",
    "mu", "newton_steps", "gmres_steps", "gain_applies" (the solve's;
    "fixed_point_residual", `steady_residual` at the exact E, costs one
    more), "history" (sup |R|, the update's d2 and the GMRES iterations of
    each step), the qualitative "envelope" report and "e". `config` is read
    only for `quad_order` and `frame`, which must be the rescaled one.
    """
    e = _check_e(e)
    grid = RadialGrid() if grid is None else grid
    config = SolverConfig() if config is None else config
    if config.frame != "rescaled-g":
        raise ValueError("steady_profile requires the rescaled frame")
    if not (tol > 0):
        raise ValueError("tol must be positive")

    gain = _gain_plan(grid, e, config.quad_order)
    E, x, dx, n = dissipation_rate(e), grid.x, grid.dx, grid.n
    keep = x >= 2.0 * dx           # the rows d2 reads
    v = (_steady_start(grid, e) or CharacteristicProfile.maxwellian(grid)).values
    mu, applies, gmres_steps, history = 0.0, 0, 0, []
    eta, norm, update, converged = _FORCING[0], None, math.inf, False

    def m2(h):
        return _even_fit(h, dx, 1, 2)[0]

    def drift(h):
        return x * _stencil_rows(h, dx, n)[:, 1]

    def jacobian(d):
        # J (h, dmu) with J_Q h one-sided: Q+ is quadratic, so the
        # difference misses J_Q h by t Q2(h, h)
        nonlocal applies
        h, peak = d[:-1], float(np.max(np.abs(d[:-1])))
        t = 1.5e-8 / peak if peak > 0.0 else 1.0
        applies += 1
        JQ = (gain.apply(v + t * h) - Qv) / t
        return np.append(JQ - h + (E + mu) * drift(h) + d[-1] * slope, m2(h))

    def precondition(r):
        return np.append(-_loss_drift_solve(r[:-1], E + mu), r[-1])

    for _ in range(_NEWTON_STEPS):
        Qv = gain.apply(v)
        applies += 1
        slope = drift(v)
        F = np.append(Qv - v + (E + mu) * slope, m2(v) - 3.0)
        last, norm = norm, float(np.linalg.norm(F))
        if last is not None:  # Eisenstat & Walker (1996), choice 2
            eta = min(_FORCING[0], 0.9 * (norm / last) ** 2)
        floor = _FORCING[1] * float(np.linalg.norm(v))
        d, its = _gmres(jacobian, precondition, -F, max(eta * norm, floor))
        gmres_steps += its
        v, mu = v + d[:-1], mu + float(d[-1])
        update = float(np.max(np.abs(d[:-1][keep]) / x[keep] ** 2))
        history.append({"residual": float(np.max(np.abs(F[:-1]))), "update_d2": update,
                        "gmres": its})
        if update < tol:
            converged = True
            break

    if not converged:
        warnings.warn(f"steady profile did not reach tol={tol:g}; last update "
                      f"d2={update:.3g} after {len(history)} Newton steps")
    phi = CharacteristicProfile(grid, v)
    phi.meta.update({
        "converged": converged,
        "last_update_d2": update,
        "mu": mu,
        "newton_steps": len(history),
        "gmres_steps": gmres_steps,
        "gain_applies": applies,
        "history": history,
        "fixed_point_residual": steady_residual(phi, e, config.quad_order),
        "envelope": envelope_report(phi),
        "e": e,
    })
    for k, h in enumerate(history):
        logger.info("steady e=%g Newton step %d: sup|R|=%.3g update d2=%.3g GMRES %d",
                    e, k + 1, h["residual"], h["update_d2"], h["gmres"])
    logger.info("steady profile e=%g: converged=%s last update d2=%.3g mu=%.4g "
                "residual=%.3g Newton steps=%d GMRES steps=%d gain applies=%d", e, converged,
                update, mu, phi.meta["fixed_point_residual"], len(history), gmres_steps, applies)
    return phi


# ---------------------------------------------------------------------------
# functionals on profiles

def d2_distance(phi1: CharacteristicProfile, phi2: CharacteristicProfile,
                warn_temperature: bool = True) -> float:
    """sup over x >= 2 dx of |phi1 - phi2| / x^2.

    Finite for any pair with equal mass; the metric contracts the flow when
    the first and second moments match. Temperatures differing by more than
    1e-4 relative trigger a warning (the x -> 0 limit is then half the
    temperature gap rather than 0).
    """
    if not phi1.grid.matches(phi2.grid):
        raise ValueError("profiles must share the same grid")
    if warn_temperature:
        t1, t2 = moment(phi1, 2) / 3.0, moment(phi2, 2) / 3.0
        if abs(t1 - t2) > 1e-4 * max(abs(t1), abs(t2), 1e-300):
            warnings.warn(f"temperature mismatch in d2: {t1:.6g} vs {t2:.6g}")
    x = phi1.grid.x
    mask = x >= 2.0 * phi1.grid.dx
    diff = np.abs(phi1.values[mask] - phi2.values[mask])
    return float(np.max(diff / x[mask] ** 2))


# Even-polynomial fit for the moment stencils: nodes k = 1..7 (scaled), basis
# 1, y^2, y^4, y^6 with y = k/7. The node x = 0 is deliberately excluded: the
# gain forces phi(0) = 1 exactly while neighbors share a smooth O(h^4)
# interpolation bias, and a fit through x = 0 would amplify that tiny cusp by
# 1/h^2. Constant offsets cancel exactly in the curvature coefficients.
_MOM_NODES = 7
_MOM_OFFSETS = np.arange(1, _MOM_NODES + 1)
_MOM_PINV = np.linalg.pinv(np.stack(
    [(_MOM_OFFSETS / _MOM_NODES) ** (2 * j) for j in range(4)], axis=1))
_MOM_PINV_ABS = np.abs(_MOM_PINV).sum(axis=1)  # the fit's roundoff gain per coefficient


# m2 = -6 phi''(0)/2 and m4 = 120 phi''''(0)/24, where phi''(0)/2 and
# phi''''(0)/24 are the fit coefficients of y^2 and y^4 over span^2, span^4
_MOM_FACTOR = {2: -6.0, 4: 120.0}


def _even_fit(vals: np.ndarray, h: float, spacing: int, order: int) -> tuple[float, float]:
    # returns (the moment of this order, roundoff scale of the fit)
    k = _MOM_OFFSETS * spacing
    span = k[-1] * h
    coef = _MOM_PINV @ vals[k]
    eps_amp = np.finfo(float).eps * float(np.max(np.abs(vals[k]))) * _MOM_PINV_ABS
    c, j = _MOM_FACTOR[order], order // 2
    return c * (coef[j] / span ** order), abs(c) * (eps_amp[j] / span ** order)


def moment(phi: CharacteristicProfile, order: int) -> float:
    """Velocity moment from derivatives of phi at 0: m2 = -3 phi''(0),
    m4 = 5 phi''''(0).

    Uses an even-polynomial fit through the 7 nearest off-center nodes; if
    the roundoff noise estimate exceeds 1% of the value the stencil is
    widened once with a warning.
    """
    if order not in (2, 4):
        raise ValueError("only moments of order 2 and 4 are provided")
    value, noise = _even_fit(phi.values, phi.grid.dx, 1, order)
    if not noise <= 0.01 * abs(value):  # a NaN estimate widens too
        warnings.warn(f"moment({order}) stencil widened: roundoff near value scale")
        value, _ = _even_fit(phi.values, phi.grid.dx, 2, order)
    return float(value)


def trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    """Composite trapezoid rule for samples y at nodes x (1-D)."""
    return float(np.sum(np.diff(x) * (y[1:] + y[:-1]) / 2.0))


def sobolev_norm(phi: CharacteristicProfile, r: float) -> float:
    """Homogeneous Sobolev seminorm (4 pi integral x^{2r+2} phi^2 dx)^{1/2}.

    Trapezoid on the profile grid; warns when the integrand has not decayed
    below 1e-8 of its peak at x_max (truncated tail).
    """
    if r < 0:
        raise ValueError("order r must be nonnegative")
    x = phi.grid.x
    g = 4.0 * math.pi * x ** (2.0 * r + 2.0) * phi.values ** 2
    peak = float(np.max(g))
    if peak > 0 and g[-1] > 1e-8 * peak:
        warnings.warn(f"sobolev_norm(r={r:g}): integrand tail {g[-1]:.2e} "
                      f"exceeds 1e-8 of peak; norm is truncated")
    return math.sqrt(trapezoid(g, x))


def sup_weighted(phi: CharacteristicProfile, delta: float) -> float:
    """max over the grid of x^delta |phi(x)|."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return float(np.max(phi.grid.x ** delta * np.abs(phi.values)))


def gamma_constants(alpha: float, e) -> tuple[float, float]:
    """Spectral-gap constants (A2, gamma) for moment alpha.

    A2 = lambda(1 + alpha/2, e), the relaxation rate of the moment of order
    2 + alpha (`kinematics.moment_rate`), and
    gamma = min( (2/(2+alpha)) A2, (3-e)(1+e)/8 ).
    """
    e = _check_e(e)
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    A2 = moment_rate(1.0 + alpha / 2.0, e)
    gamma = min((2.0 / (2.0 + alpha)) * A2, (3.0 - e) * (1.0 + e) / 8.0)
    return A2, gamma


def _evaluate(phi: CharacteristicProfile, x) -> tuple[np.ndarray, np.ndarray]:
    """(values, live): `evaluate` at the abscissae x, and the mask of those gathered.

    An abscissa is live when its clamped grid position lies in an interval
    below the tail start J of `_node_table`. Only the live ones go into the
    uncached `_InterpPlan`, so x need not be sorted; the others are exactly
    +0, as the full evaluation gives them. NaN is rejected here, since the
    mask keeps tail positions from the plan's own check.
    """
    grid = phi.grid
    xq = np.asarray(x, dtype=float)
    if np.isnan(xq).any():
        raise ValueError("interpolation positions must be finite and nonnegative")
    p = np.clip(xq, 0.0, grid.x_max) / grid.dx
    X, J = _node_table(phi.values, grid.dx)
    live = _cells(p, grid.n)[1] < J
    vals = np.zeros(np.count_nonzero(live))
    _InterpPlan(p[live], grid.n, grid.dx).gather(len(vals), X.ravel(), vals)
    out = np.zeros(xq.shape)
    out[live] = vals + 1.0
    return out, live


def evaluate(phi: CharacteristicProfile, x) -> np.ndarray:
    """Evaluate the profile at arbitrary abscissae, clamped to [0, x_max].

    The one uncached off-grid evaluation. It gathers only the abscissae
    below the saturated tail (`_evaluate`). NaN raises ValueError.
    """
    out = _evaluate(phi, np.atleast_1d(x))[0]
    return out if np.ndim(x) else float(out[0])


# ---------------------------------------------------------------------------
# CSV output

def save_profile(path, phi: CharacteristicProfile, e, frame: str) -> None:
    """Write (x, phi) rows under the `# maxcool-profile v1 ...` header."""
    if frame not in _FRAMES:
        raise ValueError(f"frame must be one of {_FRAMES}")
    e = _check_e(e)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# maxcool-profile v1 e={e:.17g} t={phi.time:.17g} frame={frame}\n")
        for xi, vi in zip(phi.grid.x, phi.values):
            fh.write(f"{xi:.17g},{vi:.17g}\n")

