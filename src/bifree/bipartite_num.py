"""Numerical conjugate variables and Fisher information for commuting pairs.

A commuting pair with a joint density f(x, y) on a rectangle has conjugate
variables given by a Hilbert-transform formula: the left one is

    xi_l(x, y) = h_X(x) + f_X(x) H_X(x, y) / f(x, y)   on {f != 0},

where h_X is the regularized Hilbert kernel applied to the marginal and
H_X(x, .) the same kernel applied to each horizontal slice of f; the right
field is symmetric.  Fisher information is the integral of
(xi_l^2 + xi_r^2) f over the grid.  The built-in reference family is the
two-variable semicircular density with covariance c on [-2, 2]^2.

Grids are finite and uniform (anything else raises ``ValueError``), with
trapezoid weights; the kernel regularization defaults
to one grid spacing, with an optional two-point Richardson extrapolation in
the regularization parameter.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from dataclasses import dataclass
from functools import partial
import numpy as np

from ._io import load_json, read_fields, to_json, write_files


class ZeroMassError(ValueError):
    """The sampled density integrates to (numerically) zero."""


class NonProductSupportWarning(UserWarning):
    """The density support looks far from a product of intervals."""


def _trapezoid_weights(points: np.ndarray) -> np.ndarray:
    if points.size < 2:
        raise ValueError("need at least two sample points per axis")
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


def make_density_grid(x: np.ndarray, y: np.ndarray, values: np.ndarray) -> DensityGrid:
    x = np.array(x, dtype=float)
    y = np.array(y, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.shape != (x.size, y.size):
        raise ValueError(f"values must have shape (nx, ny) = {(x.size, y.size)}")
    if not (np.isfinite(x).all() and np.isfinite(y).all() and np.isfinite(values).all()):
        raise ValueError("grid axes and density values must be finite")
    for name, axis in (("x", x), ("y", y)):
        # the trapezoid weights and the default eps assume one spacing per axis
        steps = np.diff(axis)
        if steps.size and (steps.min() <= 0 or steps.max() - steps.min() > 1e-9 * steps.max()):
            raise ValueError(f"the {name} axis must be strictly increasing and uniformly spaced")
    top = float(values.max(initial=0.0))
    if values.min(initial=0.0) < -1e-12 * max(top, 1.0):
        raise ValueError("density values must be nonnegative")
    values = np.clip(values, 0.0, None)
    wx = _trapezoid_weights(x)
    wy = _trapezoid_weights(y)
    raw_mass = float(wx @ values @ wy)
    if raw_mass <= 0.0:
        raise ZeroMassError("density has zero mass on the grid")
    values = values / raw_mass
    for arr in (x, y, values, wx, wy):
        arr.setflags(write=False)
    return DensityGrid(x, y, values, wx, wy, raw_mass)


def grid_from_spec(spec: GridSpec, fn) -> DensityGrid:
    x = np.linspace(spec.xmin, spec.xmax, spec.nx)
    y = np.linspace(spec.ymin, spec.ymax, spec.ny)
    values = fn(x[:, None], y[None, :])
    return make_density_grid(x, y, np.broadcast_to(values, (spec.nx, spec.ny)).copy())


def semicircular_density(c: float, spec: GridSpec) -> DensityGrid:
    """The two-variable semicircular family with covariance c on [-2, 2]^2:

        (1-c^2)/(4 pi^2) * sqrt(4-x^2) sqrt(4-y^2)
            / ((1-c^2)^2 - c(1+c^2) xy + c^2 (x^2+y^2)).
    """
    if not -1.0 < c < 1.0:
        raise ValueError("the covariance must satisfy |c| < 1")

    def fn(x, y):
        num = (1.0 - c * c) / (4.0 * math.pi ** 2) * np.sqrt(
            np.clip(4.0 - x * x, 0.0, None)
        ) * np.sqrt(np.clip(4.0 - y * y, 0.0, None))
        den = (1.0 - c * c) ** 2 - c * (1.0 + c * c) * x * y + c * c * (x * x + y * y)
        return num / den

    return grid_from_spec(spec, fn)


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


def _kernel_matrix(points: np.ndarray, eps: float) -> np.ndarray:
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    diff = points[:, None] - points[None, :]
    return diff / (diff * diff + eps * eps)


def hilbert_samples(
    points: np.ndarray, samples: np.ndarray, weights: np.ndarray, eps: float
) -> np.ndarray:
    """Regularized Hilbert kernel integral at every sample point:
    g(x) = ∫ (x-s)/((x-s)^2 + eps^2) f(s) ds.

    Converges to pi times the Hilbert transform as eps and the grid spacing
    go to zero together; eps of about one grid spacing balances the kernel
    bias against discretization oscillation.
    """
    return _kernel_matrix(points, eps) @ (samples * weights)


def hilbert_pv(density: MarginalDensity, eps: float | None = None) -> np.ndarray:
    eps = density.spacing if eps is None else eps
    return hilbert_samples(density.x, density.samples, density.weights, eps)


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


def _field_components(
    g: DensityGrid, fx: np.ndarray, fy: np.ndarray, eps_x: float, eps_y: float
):
    kx = _kernel_matrix(g.x, eps_x)
    ky = _kernel_matrix(g.y, eps_y)
    hx = kx @ (fx * g.wx)
    hy = ky @ (fy * g.wy)
    gx = kx @ (g.values * g.wx[:, None])          # slice transform in x, per y
    gy = (g.values * g.wy[None, :]) @ ky.T        # slice transform in y, per x
    return hx, hy, gx, gy


def conjugate_field(g: DensityGrid, cfg: FieldConfig | None = None) -> ConjugateField:
    """Both conjugate fields on the grid (zero on the masked low-density set).

    Warns when the support is far from a product of the marginal supports:
    the formula assumes a product support, and densities violating that are
    outside its hypotheses.
    """
    cfg = cfg or FieldConfig()
    hx_spacing = float(g.x[1] - g.x[0])
    hy_spacing = float(g.y[1] - g.y[0])
    eps_x = cfg.eps if cfg.eps is not None else hx_spacing
    eps_y = cfg.eps if cfg.eps is not None else hy_spacing

    marg_x, marg_y = marginals(g)
    fx, fy = marg_x.samples, marg_y.samples

    hx, hy, gx, gy = _field_components(g, fx, fy, eps_x, eps_y)
    if cfg.richardson:
        hx2, hy2, gx2, gy2 = _field_components(g, fx, fy, 0.5 * eps_x, 0.5 * eps_y)
        hx, hy = 2.0 * hx2 - hx, 2.0 * hy2 - hy
        gx, gy = 2.0 * gx2 - gx, 2.0 * gy2 - gy

    top = float(g.values.max())
    mask = g.values < MASK_THRESHOLD * top

    product_proxy = fx[:, None] * fy[None, :]
    inside_product = product_proxy > MASK_THRESHOLD * float(product_proxy.max())
    gap_fraction = float(np.mean(mask & inside_product))
    if gap_fraction > PRODUCT_WARN_FRACTION:
        warnings.warn(
            f"{100 * gap_fraction:.1f}% of the product of the marginal supports "
            "carries no density; the conjugate-variable formula assumes a "
            "product support",
            NonProductSupportWarning,
            stacklevel=2,
        )

    safe = np.where(mask, 1.0, g.values)
    xi_left = hx[:, None] + fx[:, None] * gx / safe
    xi_right = hy[None, :] + fy[None, :] * gy / safe
    xi_left = np.where(mask, 0.0, xi_left)
    xi_right = np.where(mask, 0.0, xi_right)
    return ConjugateField(xi_left, xi_right, mask, eps_x, eps_y)


def fisher_numeric(g: DensityGrid, cfg: FieldConfig | None = None) -> float:
    """Grid quadrature of (xi_l^2 + xi_r^2) f: the Fisher information of the pair."""
    fld = conjugate_field(g, cfg)
    integrand = (fld.xi_left ** 2 + fld.xi_right ** 2) * g.values
    return float(g.wx @ integrand @ g.wy)


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


_AXES = {"xmin": float, "xmax": float, "ymin": float, "ymax": float, "nx": int, "ny": int}


def density_from_json_dict(data: dict) -> DensityGrid:
    fields = read_fields(data, "density", {**_AXES, "values": partial(np.asarray, dtype=float)})
    x = np.linspace(fields["xmin"], fields["xmax"], fields["nx"])
    y = np.linspace(fields["ymin"], fields["ymax"], fields["ny"])
    return make_density_grid(x, y, fields["values"])


def save_density(g: DensityGrid, path: str, overwrite: bool = True) -> None:
    """Write the JSON form; without ``overwrite`` an existing file is refused
    at the open (``_io.write_files``)."""
    write_files({path: to_json(density_to_json_dict(g))}, overwrite)


def load_density(path: str) -> DensityGrid:
    return density_from_json_dict(load_json(path))


def save_density_csv(
    g: DensityGrid, header_path: str, csv_path: str, overwrite: bool = True
) -> None:
    """Two-file form: a JSON header plus CSV values, one row per x sample.
    Without ``overwrite`` an existing file of either name is refused at the
    open, and neither file is left written (``_io.write_files``)."""
    header = {**axes_to_json_dict(g), "values_csv": os.path.basename(csv_path)}
    # the rows csv.writer would write: reprs need no quoting, and \r\n ends each
    values = "".join(",".join(map(repr, row)) + "\r\n" for row in g.values.tolist())
    write_files({header_path: to_json(header), csv_path: values}, overwrite)


def load_density_csv(header_path: str, csv_path: str) -> DensityGrid:
    header = read_fields(load_json(header_path), "density", _AXES)
    with open(csv_path, encoding="utf-8", newline="") as handle:
        rows = [[float(v) for v in row] for row in csv.reader(handle)]
    return density_from_json_dict({**header, "values": rows})
