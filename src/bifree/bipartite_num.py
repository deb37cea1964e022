"""Numerical conjugate variables and Fisher information for commuting pairs.

A commuting pair with a joint density f(x, y) on a rectangle has conjugate
variables given by a Hilbert-transform formula: the left one is

    xi_l(x, y) = h_X(x) + f_X(x) H_X(x, y) / f(x, y)   on {f != 0},

where h_X is the regularized Hilbert kernel applied to the marginal and
H_X(x, .) the same kernel applied to each horizontal slice of f; the right
field is symmetric.  Fisher information is the integral of
(xi_l^2 + xi_r^2) f over the grid.  The built-in reference family is the
two-variable semicircular density with covariance c on [-2, 2]^2.

Grids are finite and uniform (anything else raises ``BifreeInputError``), with
trapezoid weights; the kernel regularization defaults
to one grid spacing, with an optional two-point Richardson extrapolation in
the regularization parameter.  On a uniform axis the kernel matrix is
Toeplitz, so every kernel integral, marginal or slice, is a linear
convolution applied by FFT along the contiguous rows of an array, in
O(n^2 log n) for an n x n grid; no n x n kernel is formed.  The result agrees
with the dense kernel product to rounding (the tests hold it to 1e-12
relative).

Each block of rows is transformed and its field assembled while it is in
cache; an x-axis block, a strip of columns of f, is read from one
contiguous copy.  The blocks run on up to four threads, one per CPU the
process may use; the count is read from the CPU affinity at each call,
nothing sets it, and the results do not depend on it: the fields are the
same bits and ``fisher_numeric`` adds its per-block sums in block order.
``fisher_numeric`` forms no n x n field or mask.  Each thread writes the
weighted rows of its blocks into one pad per axis, made at its first block
and dropped with the call, whose columns past n stay zero, so the FFT reads
the circulant's length without a padded copy per block; the field quotient
is taken at every point of a block and the masked points are zeroed after.
The semicircular density is filled by row blocks on the same threads, and
the share of the support product that carries no density is counted per
row block; all of these are the same bits for any thread count.  A grid
file holds its values inline or in the CSV its JSON header names.
"""

from __future__ import annotations

import csv
import math
import os
import threading
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from ._io import BifreeInputError, integer, json_object, load_json, read_fields, write_files


class ZeroMassError(BifreeInputError):
    """The sampled density integrates to (numerically) zero."""


class NonProductSupportWarning(UserWarning):
    """The density support looks far from a product of intervals."""


def _trapezoid_weights(points: np.ndarray) -> np.ndarray:
    if points.size < 2:
        raise BifreeInputError("need two or more points per axis")
    h = float(points[1] - points[0])
    w = np.full(points.size, h)
    w[0] = w[-1] = 0.5 * h
    return w


@dataclass(frozen=True)
class GridSpec:
    """Uniform sampling rectangle; defaults cover [-2, 2]^2."""

    nx: int
    ny: int
    xmin: float = -2.0
    xmax: float = 2.0
    ymin: float = -2.0
    ymax: float = 2.0

    def __post_init__(self) -> None:
        if min(integer(self.nx, "grid field 'nx'"), integer(self.ny, "grid field 'ny'")) < 2:
            raise BifreeInputError(f"need two or more points per axis, got {self.nx} x {self.ny}")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """The x and y sample points; an axis too long to allocate is bad input."""
        try:
            return (np.linspace(self.xmin, self.xmax, self.nx),
                    np.linspace(self.ymin, self.ymax, self.ny))
        except (MemoryError, ValueError, IndexError):  # numpy's refusals; IndexError near 2**63
            raise BifreeInputError(f"a {self.nx} x {self.ny} grid does not fit in memory") from None


@dataclass(frozen=True)
class MarginalDensity:
    x: np.ndarray
    samples: np.ndarray
    weights: np.ndarray

    @property
    def mass(self) -> float:
        return float(self.weights @ self.samples)

    @property
    def spacing(self) -> float:
        return float(self.x[1] - self.x[0])


@dataclass(frozen=True)
class DensityGrid:
    """Sampled joint density, normalized to unit mass at construction.

    ``values[ix, iy]`` samples f at (x[ix], y[iy]); rows run over x.
    ``raw_mass`` records the quadrature mass before renormalization.
    """

    x: np.ndarray
    y: np.ndarray
    values: np.ndarray
    wx: np.ndarray
    wy: np.ndarray
    raw_mass: float

    @property
    def nx(self) -> int:
        return self.x.size

    @property
    def ny(self) -> int:
        return self.y.size

    def mass(self) -> float:
        return float(self.wx @ self.values @ self.wy)

    def moment(self, px: int, py: int) -> float:
        """Grid quadrature of x^px y^py against the density."""
        gx = self.wx * self.x ** px
        gy = self.wy * self.y ** py
        return float(gx @ self.values @ gy)


def _check_uniform(points: np.ndarray, name: str) -> None:
    """The trapezoid weights, the default eps and the kernel convolution all
    assume one spacing per axis."""
    steps = np.diff(points)
    if steps.size and not (steps.min() > 0 and steps.max() - steps.min() <= 1e-9 * steps.max()):
        raise BifreeInputError(f"the {name} axis must be strictly increasing and uniformly spaced")


def make_density_grid(x: np.ndarray, y: np.ndarray, values: np.ndarray) -> DensityGrid:
    """A checked, normalized grid from copies of the arrays; the caller's
    arrays are never written."""
    return _own_grid(np.array(x, dtype=float), np.array(y, dtype=float),
                     np.array(values, dtype=float))


def _own_grid(x: np.ndarray, y: np.ndarray, values: np.ndarray) -> DensityGrid:
    """``make_density_grid`` on float arrays the grid may keep: ``values``
    is clipped and scaled in place, and all three are made read-only."""
    if values.shape != (x.size, y.size):
        raise BifreeInputError(f"values must have shape (nx, ny) = {(x.size, y.size)}")
    if not (np.isfinite(x).all() and np.isfinite(y).all() and np.isfinite(values).all()):
        raise BifreeInputError("grid axes and density values must be finite")
    _check_uniform(x, "x")
    _check_uniform(y, "y")
    top = float(values.max(initial=0.0))
    if values.min(initial=0.0) < -1e-12 * max(top, 1.0):
        raise BifreeInputError("density values must be nonnegative")
    np.clip(values, 0.0, None, out=values)
    wx = _trapezoid_weights(x)
    wy = _trapezoid_weights(y)
    raw_mass = float(wx @ values @ wy)
    if raw_mass <= 0.0:
        raise ZeroMassError("density has zero mass on the grid")
    values /= raw_mass
    for arr in (x, y, values, wx, wy):
        arr.setflags(write=False)
    return DensityGrid(x, y, values, wx, wy, raw_mass)


def grid_from_spec(spec: GridSpec, fn) -> DensityGrid:
    x, y = spec.axes()
    values = fn(x[:, None], y[None, :])
    return make_density_grid(x, y, np.broadcast_to(values, (spec.nx, spec.ny)))


def semicircular_density(c: float, spec: GridSpec) -> DensityGrid:
    """The two-variable semicircular family with covariance c on [-2, 2]^2:

        (1-c^2)/(4 pi^2) * sqrt(4-x^2) sqrt(4-y^2)
            / ((1-c^2)^2 - c(1+c^2) xy + c^2 (x^2+y^2)).

    Filled a block of rows at a time, in the formula's own order of
    operations: the square roots, which factor, as an outer product, then
    the denominator and one divide, so no temporary is larger than a block.
    """
    if not -1.0 < c < 1.0:
        raise BifreeInputError("the covariance must satisfy |c| < 1")
    x, y = spec.axes()
    root_x = (1.0 - c * c) / (4.0 * math.pi ** 2) * np.sqrt(np.clip(4.0 - x * x, 0.0, None))
    root_y = np.sqrt(np.clip(4.0 - y * y, 0.0, None))
    y_squared = y * y
    values = np.empty((x.size, y.size))

    def fill(part: slice) -> None:
        xs = x[part, None]
        den = c * (1.0 + c * c) * xs * y
        np.subtract((1.0 - c * c) ** 2, den, out=den)
        squares = xs * xs + y_squared
        squares *= c * c
        den += squares
        block = values[part]
        np.multiply(root_x[part, None], root_y, out=block)
        block /= den

    _run_blocks(fill, _row_blocks(x.size))
    return _own_grid(x, y, values)


def semicircle_marginal(points: np.ndarray) -> np.ndarray:
    """Standard semicircle density sqrt(4-x^2)/(2 pi) sampled at ``points``."""
    return np.sqrt(np.clip(4.0 - points * points, 0.0, None)) / (2.0 * math.pi)


def marginals(g: DensityGrid) -> tuple[MarginalDensity, MarginalDensity]:
    """Quadrature-integrated marginals, each renormalized to unit mass."""
    fx = g.values @ g.wy
    fy = g.values.T @ g.wx
    mx = float(g.wx @ fx)
    my = float(g.wy @ fy)
    if mx <= 0 or my <= 0:
        raise ZeroMassError("marginal with zero mass")
    return (
        MarginalDensity(g.x, fx / mx, g.wx),
        MarginalDensity(g.y, fy / my, g.wy),
    )


#: Rows transformed per FFT block, so the padded spectra of a block stay small.
_FFT_ROWS = 32
#: Most threads one call spreads its row blocks over; each holds one block's
#: spectra at a time, so this also bounds the memory in flight.
_MAX_THREADS = 4


def _smooth_length(n: int) -> int:
    """The smallest integer >= n with no prime factor above 5, a fast FFT length."""
    best = 1 << max(n - 1, 0).bit_length()
    power5 = 1
    while power5 < best:
        odd = power5  # 3^b 5^a
        while odd < best:
            length = odd
            while length < n:
                length *= 2
            best = min(best, length)
            odd *= 3
        power5 *= 5
    return best


def _thread_count() -> int:
    """The CPUs this process may run on, at most ``_MAX_THREADS``."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_THREADS)


def _run_blocks(work: Callable, blocks: Sequence) -> list:
    """``[work(b) for b in blocks]``, spread over up to ``_thread_count()``
    threads, the caller's own among them.

    Thread t takes blocks t, t + threads, ..., so which thread runs a block
    never changes what the block computes.  numpy's FFT and elementwise
    loops release the interpreter lock, so the threads run in parallel.
    Every thread is joined before this returns; the first exception raised
    in any of them stops the rest at their next block and is raised here.
    """
    threads = min(_thread_count(), len(blocks))
    if threads <= 1:
        return [work(b) for b in blocks]
    results: list = [None] * len(blocks)
    errors: list[BaseException] = []

    def deal(first: int) -> None:
        try:
            for i in range(first, len(blocks), threads):
                if errors:
                    return
                results[i] = work(blocks[i])
        except BaseException as exc:  # raised again in the calling thread
            errors.append(exc)

    helpers: list[threading.Thread] = []
    try:
        for t in range(1, threads):
            helpers.append(threading.Thread(target=deal, args=(t,)))
            helpers[-1].start()
        deal(0)
    finally:
        for helper in helpers:
            if helper.ident is not None:  # a thread that failed to start cannot be joined
                helper.join()
    if errors:
        raise errors[0]
    return results


def _row_blocks(rows: int) -> list[slice]:
    return [slice(start, start + _FFT_ROWS) for start in range(0, rows, _FFT_ROWS)]


@dataclass(frozen=True)
class _AxisKernel:
    """The kernel of one uniform axis, k(d) = d/(d^2 + eps^2), or 2 k at
    eps/2 minus k at eps under ``richardson``.  Its first column
    k(points - points[0]), odd in the offset, fills a circulant of the
    smallest 5-smooth length >= 2n - 1, whose spectrum ``rows`` applies to a
    block of rows by ``rfft`` of a zero-tailed pad."""

    weights: np.ndarray
    size: int
    spectrum: np.ndarray

    @classmethod
    def build(cls, points: np.ndarray, weights: np.ndarray, eps: float,
              richardson: bool, name: str) -> "_AxisKernel":
        _check_uniform(points, name)
        if not (math.isfinite(eps) and eps > 0):
            raise BifreeInputError(f"eps must be finite and positive, got {eps}")
        n = points.size
        d = points - points[0]
        profile = d / (d * d + eps * eps)
        if richardson:
            profile = 2.0 * d / (d * d + 0.25 * eps * eps) - profile
        size = _smooth_length(2 * n - 1)
        circulant = np.zeros(size)
        circulant[:n] = profile
        circulant[size - n + 1:] = -profile[:0:-1]
        return cls(weights, size, np.fft.rfft(circulant))

    def rows(self, values: np.ndarray, pad: np.ndarray) -> np.ndarray:
        """``out[r, i] = sum_j k(points[i] - points[j]) weights[j] values[r, j]``
        for a block of rows (a 2-D view of any strides).

        ``values * weights`` is written into the first n columns of the
        block's rows of ``pad``, at least as many rows of ``size`` columns
        whose tail is zero and stays so; a pad can serve block after block,
        and the result is a fresh array."""
        n = self.weights.size
        pad = pad[:values.shape[0]]
        np.multiply(values, self.weights, out=pad[:, :n])
        block = np.fft.rfft(pad)
        block *= self.spectrum
        return np.fft.irfft(block, self.size)[:, :n]


def hilbert_pv(density: MarginalDensity, eps: float | None = None) -> np.ndarray:
    """Regularized Hilbert kernel integral at every sample point:
    g(x) = ∫ (x-s)/((x-s)^2 + eps^2) f(s) ds.

    Converges to pi times the Hilbert transform as eps and the grid spacing
    go to zero together; eps of about one grid spacing balances the kernel
    bias against discretization oscillation.  The points must be uniformly
    spaced (``BifreeInputError`` otherwise).
    """
    eps = density.spacing if eps is None else eps
    kernel = _AxisKernel.build(density.x, density.weights, eps, False, "x")
    return kernel.rows(density.samples[None, :], np.zeros((1, kernel.size)))[0]


#: Density below this fraction of its maximum is masked: the fields are zero there.
MASK_THRESHOLD = 1e-10
#: Share of the product of the marginal supports that may carry no density
#: before ``NonProductSupportWarning`` is raised.
PRODUCT_WARN_FRACTION = 0.05


@dataclass(frozen=True)
class FieldConfig:
    """Controls for the conjugate-field computation."""

    eps: float | None = None  # default: one grid spacing per axis
    richardson: bool = False


@dataclass(frozen=True)
class ConjugateField:
    xi_left: np.ndarray
    xi_right: np.ndarray
    mask: np.ndarray  # True where f is below threshold; fields are zero there
    eps_x: float
    eps_y: float


@dataclass(frozen=True)
class _FieldAxis:
    """One axis of the field formula.  ``values`` holds the slices of f
    along the axis as rows (f itself for y, its transpose for x); ``f`` and
    ``h`` are the axis's marginal and the marginal's kernel transform.
    ``pads`` gives each thread that runs blocks of this axis its own
    kernel pad, made at its first block; the axis, and with it every pad,
    lives for one call."""

    kernel: _AxisKernel
    values: np.ndarray
    f: np.ndarray
    h: np.ndarray
    threshold: float
    pads: threading.local = field(default_factory=threading.local, compare=False, repr=False)

    def xi(self, part: slice) -> tuple[np.ndarray, np.ndarray]:
        """A block of rows of ``values`` as one contiguous copy (on the x axis,
        a strip of columns of f transposed), and the field on it:
        h + f * (kernel of the slice) / values, zero where the density is
        below ``threshold``."""
        values = self.values[part]
        if not values.flags.c_contiguous:
            # copied in the order it is stored, then transposed while in cache
            values = np.ascontiguousarray(values.copy(order="K"))
        pad = getattr(self.pads, "pad", None)
        if pad is None:
            pad = self.pads.pad = np.zeros((_FFT_ROWS, self.kernel.size))
        xi = self.kernel.rows(values, pad)
        xi *= self.f
        low = values < self.threshold
        # divided everywhere, masked points included, and zeroed after
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            xi /= values
        xi += self.h
        np.copyto(xi, 0.0, where=low)
        return values, xi


def _product_gap_fraction(
    values: np.ndarray, threshold: float, fx: np.ndarray, fy: np.ndarray,
    mask: np.ndarray | None = None,
) -> float:
    """Share of the grid that is masked (``values`` below ``threshold``) but
    inside the product of the marginal supports, counted a block of rows at
    a time over the masked points only.  Writes the mask into ``mask`` when
    one is given."""
    # fx.max() * fy.max() is the largest product fx[i] * fy[j], bit for bit
    cutoff = MASK_THRESHOLD * float(fx.max() * fy.max())

    def count(part: slice) -> int:
        low = np.less(values[part], threshold, out=None if mask is None else mask[part])
        i, j = np.divmod(np.flatnonzero(low), low.shape[1])  # np.nonzero is slower on 2-D
        return int(np.count_nonzero(fx[part][i] * fy[j] > cutoff))

    return sum(_run_blocks(count, _row_blocks(values.shape[0]))) / values.size


def _field_axes(
    g: DensityGrid, cfg: FieldConfig | None, mask: np.ndarray | None = None
) -> tuple[tuple[_FieldAxis, _FieldAxis], float, float]:
    """The (x, y) field axes and the kernel widths; fills ``mask`` when one
    is given, and warns when the support is far from a product of the
    marginal supports."""
    cfg = cfg or FieldConfig()
    eps_x = cfg.eps if cfg.eps is not None else float(g.x[1] - g.x[0])
    eps_y = cfg.eps if cfg.eps is not None else float(g.y[1] - g.y[0])
    marg_x, marg_y = marginals(g)
    fx, fy = marg_x.samples, marg_y.samples
    threshold = MASK_THRESHOLD * float(g.values.max())
    axes = []
    for values, points, weights, eps, f, name in (
        (g.values.T, g.x, g.wx, eps_x, fx, "x"),
        (g.values, g.y, g.wy, eps_y, fy, "y"),
    ):
        kernel = _AxisKernel.build(points, weights, eps, cfg.richardson, name)
        h = kernel.rows(f[None, :], np.zeros((1, kernel.size)))[0]
        axes.append(_FieldAxis(kernel, values, f, h, threshold))

    gap_fraction = _product_gap_fraction(g.values, threshold, fx, fy, mask)
    if gap_fraction > PRODUCT_WARN_FRACTION:
        warnings.warn(
            f"{100 * gap_fraction:.1f}% of the product of the marginal supports "
            "carries no density; the conjugate-variable formula assumes a "
            "product support",
            NonProductSupportWarning,
            stacklevel=3,
        )
    return (axes[0], axes[1]), eps_x, eps_y


def _axis_blocks(axes: tuple[_FieldAxis, ...]) -> list[tuple[int, slice]]:
    """Every (axis index, row block) of the fields."""
    return [(k, part) for k, axis in enumerate(axes) for part in _row_blocks(axis.values.shape[0])]


def conjugate_field(g: DensityGrid, cfg: FieldConfig | None = None) -> ConjugateField:
    """Both conjugate fields on the grid (zero on the masked low-density set).

    Warns when the support is far from a product of the marginal supports:
    the formula assumes a product support, and densities violating that are
    outside its hypotheses.
    """
    mask = np.empty((g.nx, g.ny), dtype=bool)
    axes, eps_x, eps_y = _field_axes(g, cfg, mask)
    xi_left = np.empty((g.nx, g.ny))
    xi_right = np.empty((g.nx, g.ny))
    dest = (xi_left.T, xi_right)  # x-axis rows are columns of the left field

    def write(block: tuple[int, slice]) -> None:
        k, part = block
        dest[k][part] = axes[k].xi(part)[1]

    _run_blocks(write, _axis_blocks(axes))
    return ConjugateField(xi_left, xi_right, mask, eps_x, eps_y)


def fisher_numeric(g: DensityGrid, cfg: FieldConfig | None = None) -> float:
    """Grid quadrature of (xi_l^2 + xi_r^2) f: the Fisher information of the pair.

    Summed block by block, in block order, without forming either field or
    the mask.
    """
    axes, _, _ = _field_axes(g, cfg)
    across = (g.wy, g.wx)  # weights across the rows of each axis

    def quadrature(block: tuple[int, slice]) -> float:
        k, part = block
        axis = axes[k]
        values, integrand = axis.xi(part)
        integrand *= integrand
        integrand *= values
        return float(across[k][part] @ (integrand @ axis.kernel.weights))

    return sum(_run_blocks(quadrature, _axis_blocks(axes)))


def free_fisher_marginal(density: MarginalDensity, eps: float | None = None) -> float:
    """One-variable Fisher information from a marginal: ∫ (2 h)^2 f."""
    h = hilbert_pv(density, eps)
    return float(density.weights @ ((2.0 * h) ** 2 * density.samples))


def field_l2_error(
    g: DensityGrid, field: np.ndarray, target: np.ndarray
) -> float:
    """Relative L2(f) distance between a computed field and a target grid."""
    diff = (field - target) ** 2 * g.values
    ref = target ** 2 * g.values
    num = float(g.wx @ diff @ g.wy)
    den = float(g.wx @ ref @ g.wy)
    return math.sqrt(num / den) if den > 0 else math.sqrt(num)


# -- grid I/O --------------------------------------------------------------------


def axes_to_json_dict(g: DensityGrid) -> dict:
    """The grid's rectangle and sample counts, as the JSON forms carry them."""
    return {"xmin": float(g.x[0]), "xmax": float(g.x[-1]),
            "ymin": float(g.y[0]), "ymax": float(g.y[-1]), "nx": g.nx, "ny": g.ny}


def density_to_json_dict(g: DensityGrid) -> dict:
    return {**axes_to_json_dict(g), "values": g.values.tolist()}


_AXES = {"xmin": float, "xmax": float, "ymin": float, "ymax": float, "nx": None, "ny": None}


def density_from_json_dict(data: dict) -> DensityGrid:
    fields = read_fields(data, "density", {**_AXES, "values": partial(np.asarray, dtype=float)})
    values = fields.pop("values")
    return make_density_grid(*GridSpec(**fields).axes(), values)


def save_density(g: DensityGrid, path: str, overwrite: bool = True) -> None:
    """Write the JSON form, the text ``json.dumps`` makes of
    ``density_to_json_dict(g)``, a row at a time; without ``overwrite`` an
    existing file is refused at the open (``_io.write_files``)."""
    rows = (row.tolist() for row in g.values)
    write_files({path: json_object({**axes_to_json_dict(g), "values": rows})}, overwrite)


def save_density_csv(g: DensityGrid, header_path: str, overwrite: bool = True) -> None:
    """Two-file form: a JSON header naming its CSV of values, ``X.csv`` for
    a header ``X.json`` (else the header's name + ``.csv``), one row per x
    sample, written a row at a time.  Without ``overwrite`` an existing file
    of either name is refused at the open, and neither file is left written
    (``_io.write_files``)."""
    csv_path = (header_path[:-5] if header_path.endswith(".json") else header_path) + ".csv"
    header = {**axes_to_json_dict(g), "values_csv": os.path.basename(csv_path)}
    # the rows csv.writer would write: reprs need no quoting, and \r\n ends each
    values = (",".join(map(repr, row.tolist())) + "\r\n" for row in g.values)
    write_files({header_path: json_object(header), csv_path: values}, overwrite)


def load_density(path: str) -> DensityGrid:
    """Read a grid file: JSON with its ``values`` inline, or a header whose
    ``values_csv`` names the CSV of values beside it, read a row at a time
    into one (nx, ny) array sized from the header.  Both keys, a
    ``values_csv`` with a directory part, rows off the header's shape or a
    value ``float`` cannot read raise ``BifreeInputError`` naming ``path``."""
    return load_json(path, partial(_density_from_file, os.path.dirname(path)))


def _density_from_file(folder: str, data) -> DensityGrid:
    if not isinstance(data, dict) or "values_csv" not in data:
        return density_from_json_dict(data)
    if "values" in data:
        raise BifreeInputError("density JSON has both 'values' and 'values_csv'")
    name = data["values_csv"]
    if not isinstance(name, str) or not name or os.path.dirname(name):
        raise BifreeInputError(
            f"density JSON field 'values_csv' must be a bare file name, got {name!r}")
    spec = GridSpec(**read_fields(data, "density", _AXES))
    csv_path = os.path.join(folder, name)
    nx, ny = spec.nx, spec.ny
    try:
        values = np.empty((nx, ny))
    except (MemoryError, ValueError):  # numpy's "array is too big"
        raise BifreeInputError(f"the header's {nx} x {ny} grid does not fit in memory") from None
    count = 0
    # an undecodable byte reads as U+FFFD, which float() refuses on its row
    with open(csv_path, encoding="utf-8", errors="replace", newline="") as handle:
        rows = csv.reader(handle)
        try:
            for count, row in enumerate(rows, 1):
                if count > nx or len(row) != ny:
                    raise BifreeInputError(f"{csv_path}: row {count} does not fit the header's "
                                           f"nx x ny = {nx} x {ny} grid")
                try:
                    values[count - 1] = [float(v) for v in row]
                except ValueError as exc:
                    raise BifreeInputError(f"{csv_path}: row {count}: {exc}") from None
        except csv.Error as exc:  # a field past csv.field_size_limit, say
            raise BifreeInputError(f"{csv_path}: row {rows.line_num}: {exc}") from None
    if count != nx:
        raise BifreeInputError(f"{csv_path}: {count} rows, the header has nx = {nx}")
    return _own_grid(*spec.axes(), values)
