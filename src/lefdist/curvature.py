"""Intrinsic Gauss curvature and the degree-two Gauss-Bonnet check.

A :class:`MetricGrid` samples the first fundamental form (E, F, G) of a
closed leaf on a rectangular grid: doubly periodic for torus topology, or a
surface of revolution sampled at cell centers in the profile direction (the
poles themselves are excluded; the area weight vanishes towards them).

Curvature is computed from E, F, G alone via the Brioschi formula with
second-order finite differences: periodic central stencils, one-sided at the
profile ends of a revolution grid.  Integrating K over the surface and
dividing by 2 pi reproduces the Euler characteristic, which is the
coefficient of the identity atom of the Lefschetz distribution.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import PreconditionError
from .linalg import expect, read_int, to_float

__all__ = [
    "MAX_GRID_NODES",
    "MetricGrid",
    "gaussian_curvature",
    "integrate_curvature",
    "const_curvature_chi",
    "flat_torus_grid",
    "sphere_grid",
    "random_torus_metric",
]

TOPOLOGIES = ("torus", "revolution")

# Nodes of a generated (builtin) grid.  Peak RSS grows by about 200 bytes, some 25 float
# arrays, per node from --grid 256 to 512 (numpy 2.4), so the cap keeps a run near 240 MB.
MAX_GRID_NODES = 1024 * 1024


@dataclass(frozen=True)
class MetricGrid:
    """Sampled first fundamental form on a closed 2D grid."""

    nu: int
    nv: int
    du: float
    dv: float
    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    topology: str

    def __post_init__(self):
        if self.topology not in TOPOLOGIES:
            raise PreconditionError(
                f"topology must be one of {TOPOLOGIES} (closed surfaces only), got {self.topology!r}"
            )
        if not (0 < self.du < math.inf and 0 < self.dv < math.inf):
            raise PreconditionError("grid spacings must be positive and finite")
        for name in ("E", "F", "G"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (self.nu, self.nv):
                raise PreconditionError(f"{name} must have shape (nu, nv) = {(self.nu, self.nv)}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite at every node")
            object.__setattr__(self, name, arr)
        if not np.all(self.E > 0) or not np.all(self.E * self.G - self.F**2 > 0):
            raise PreconditionError(
                "first fundamental form must be positive definite at every node"
            )

    @property
    def area_element(self) -> np.ndarray:
        return np.sqrt(self.E * self.G - self.F**2)

    # -- serialization ------------------------------------------------------
    def to_json_obj(self) -> dict:
        return {
            "nu": self.nu,
            "nv": self.nv,
            "du": self.du,
            "dv": self.dv,
            "topology": self.topology,
            "E": self.E.tolist(),
            "F": self.F.tolist(),
            "G": self.G.tolist(),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "MetricGrid":
        return cls(
            read_int(obj["nu"], "'nu'"),
            read_int(obj["nv"], "'nv'"),
            to_float(obj["du"], "'du'"),
            to_float(obj["dv"], "'dv'"),
            *(_node_array(obj[name], f"'{name}'") for name in ("E", "F", "G")),
            expect(obj["topology"], str, "'topology'"),
        )

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("nu,nv,du,dv,topology\n")
        out.write(f"{self.nu},{self.nv},{self.du!r},{self.dv!r},{self.topology}\n")
        out.write("i,j,E,F,G\n")
        for i in range(self.nu):
            for j in range(self.nv):
                out.write(
                    f"{i},{j},{float(self.E[i, j])!r},{float(self.F[i, j])!r},{float(self.G[i, j])!r}\n"
                )
        return out.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "MetricGrid":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        rows = [ln.split(",") for ln in lines if ln[0].isdigit() or ln[0] == "-"]
        if not rows:
            raise ValueError("CSV contains no data rows")
        if set(map(len, rows)) != {5}:
            bad = next(row for row in rows if len(row) != 5)
            raise ValueError(f"CSV row {','.join(bad)!r:.40} must have five fields: nu,nv,du,dv,topology or i,j,E,F,G")
        nu_s, nv_s, du_s, dv_s, topology = rows[0]
        nu, nv = read_int(nu_s, "CSV 'nu'"), read_int(nv_s, "CSV 'nv'")
        du, dv = to_float(du_s, "CSV 'du'"), to_float(dv_s, "CSV 'dv'")
        if len(rows) - 1 != nu * nv:
            raise ValueError(f"CSV has {len(rows) - 1} node rows, not nu*nv = {nu * nv}: rows missing or extra")
        e, f, g = (np.empty((nu, nv)) for _ in "EFG")
        seen = np.zeros((nu, nv), dtype=bool)
        for i_s, j_s, ev, fv, gv in rows[1:]:
            i, j = read_int(i_s, "CSV node 'i'"), read_int(j_s, "CSV node 'j'")
            if not (0 <= i < nu and 0 <= j < nv) or seen[i, j]:
                raise ValueError(f"CSV node ({i},{j}) is outside {nu}x{nv} or repeated")
            try:
                e[i, j], f[i, j], g[i, j] = float(ev), float(fv), float(gv)
            except ValueError:
                name, cell = next((n, c) for n, c in zip("EFG", (ev, fv, gv)) if not _is_float(c))
                raise ValueError(f"CSV node ({i},{j}) '{name}' must be a plain decimal, got {cell!r:.40}") from None
            seen[i, j] = True
        return cls(nu, nv, du, dv, e, f, g, topology)


def _is_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _node_array(value, what: str) -> np.ndarray:
    """Equal-length rows of numbers: JSON ints and floats in bulk, other nodes like ``du`` through ``to_float``."""
    rows = expect(value, list, what, each=list)
    if len(set(map(len, rows))) > 1:
        raise ValueError(f"{what} rows must all have the same length")
    if set(map(type, chain.from_iterable(rows))) <= {float, int}:
        try:
            return np.array(rows, dtype=float)
        except OverflowError:  # an int past the float range: the route below names it
            pass
    return np.array([[to_float(x, f"{what} node") for x in row] for row in rows], dtype=float)


def require_resolution(nu: int, nv: int) -> None:
    if nu < 8 or nv < 8:
        raise PreconditionError("grid must satisfy nu, nv >= 8 for meaningful second differences")


def _d_periodic(f: np.ndarray, h: float, axis: int) -> np.ndarray:
    return (np.roll(f, -1, axis) - np.roll(f, 1, axis)) / (2 * h)


def _dd_periodic(f: np.ndarray, h: float, axis: int) -> np.ndarray:
    return (np.roll(f, -1, axis) + np.roll(f, 1, axis) - 2 * f) / (h * h)


def _d_u(f: np.ndarray, h: float, periodic: bool) -> np.ndarray:
    out = _d_periodic(f, h, 0)
    if not periodic:
        out[0] = (-3 * f[0] + 4 * f[1] - f[2]) / (2 * h)
        out[-1] = (3 * f[-1] - 4 * f[-2] + f[-3]) / (2 * h)
    return out


def _dd_u(f: np.ndarray, h: float, periodic: bool) -> np.ndarray:
    out = _dd_periodic(f, h, 0)
    if not periodic:
        out[0] = (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / (h * h)
        out[-1] = (2 * f[-1] - 5 * f[-2] + 4 * f[-3] - f[-4]) / (h * h)
    return out


def gaussian_curvature(m: MetricGrid) -> np.ndarray:
    """Per-node Gauss curvature from the Brioschi formula.

    Purely intrinsic: only E, F, G and their finite-difference derivatives
    enter.  Second-order accurate everywhere, including the one-sided rows of
    a revolution grid.
    """
    require_resolution(m.nu, m.nv)
    periodic_u = m.topology == "torus"
    E, F, G = m.E, m.F, m.G
    Eu = _d_u(E, m.du, periodic_u)
    Ev = _d_periodic(E, m.dv, 1)
    Evv = _dd_periodic(E, m.dv, 1)
    Gu = _d_u(G, m.du, periodic_u)
    Gv = _d_periodic(G, m.dv, 1)
    Guu = _dd_u(G, m.du, periodic_u)
    Fu = _d_u(F, m.du, periodic_u)
    Fv = _d_periodic(F, m.dv, 1)
    Fuv = _d_periodic(Fu, m.dv, 1)

    # Brioschi determinants, rows [a11, a12, a13; a21, E, F; a31, F, G] and
    # [0, b12, b13; b12, E, F; b13, F, G], expanded along the first row
    a11 = -0.5 * Evv + Fuv - 0.5 * Guu
    a12 = 0.5 * Eu
    a13 = Fu - 0.5 * Ev
    a21 = Fv - 0.5 * Gu
    a31 = 0.5 * Gv
    b12 = 0.5 * Ev
    b13 = 0.5 * Gu

    w = E * G - F * F
    det1 = a11 * w - a12 * (a21 * G - F * a31) + a13 * (a21 * F - E * a31)
    det2 = -b12 * (b12 * G - F * b13) + b13 * (b12 * F - E * b13)
    return (det1 - det2) / (w * w)


def integrate_curvature(m: MetricGrid) -> float:
    """(1 / 2 pi) * integral of K over the surface; approximates chi.

    Torus grids use the trapezoid rule (spectrally matched to periodicity);
    revolution grids use the midpoint rule in the profile direction, whose
    cell-centered samples exclude the poles while covering their area.
    """
    return _integrate(m, gaussian_curvature(m))


def _integrate(m: MetricGrid, k: np.ndarray) -> float:
    """(1 / 2 pi) * integral of the per-node curvature ``k`` of ``m``."""
    total = float(np.sum(k * m.area_element)) * m.du * m.dv
    return total / (2 * math.pi)


def const_curvature_chi(curvature: float, area: float) -> float:
    """Euler characteristic of a constant-curvature closed leaf: K area / 2 pi."""
    if area <= 0:
        raise PreconditionError("area must be positive")
    return curvature * area / (2 * math.pi)


# -- canonical grids ---------------------------------------------------------


def flat_torus_grid(n: int = 64) -> MetricGrid:
    du = 2 * math.pi / n
    one = np.ones((n, n))
    return MetricGrid(n, n, du, du, one, np.zeros((n, n)), one.copy(), "torus")


def sphere_grid(n: int = 256) -> MetricGrid:
    """Unit round sphere as a surface of revolution, cell-centered in u."""
    du = math.pi / n
    dv = 2 * math.pi / n
    u = (np.arange(n) + 0.5) * du
    g = np.tile(np.sin(u) ** 2, (n, 1)).T
    return MetricGrid(n, n, du, dv, np.ones((n, n)), np.zeros((n, n)), g, "revolution")


def random_torus_metric(rng, n: int = 256, conformal: bool = False) -> MetricGrid:
    """Smooth doubly periodic metric with randomized low-order harmonics of amplitude 0.25.

    Conformal metrics are e^(2 phi) (du^2 + dv^2); otherwise E and G get
    independent conformal factors and F a bounded smooth shear, keeping the
    form positive definite everywhere.
    """
    du = 2 * math.pi / n
    u = np.arange(n) * du

    def trig_poly():
        out = np.zeros((n, n))
        for mm in range(3):
            for nn in range(3):
                if mm == nn == 0:
                    continue
                amp = 0.25 * rng.uniform(0.2, 1.0) / (mm + nn)
                phase = rng.uniform(0, 2 * math.pi)
                # a harmonic in one coordinate is one cosine of n values, broadcast
                if mm == 0:
                    out += amp * np.cos(nn * u + phase)
                elif nn == 0:
                    out += (amp * np.cos(mm * u + phase))[:, None]
                else:
                    out += amp * np.cos((mm * u)[:, None] + (nn * u)[None, :] + phase)
        return out

    e = np.exp(2 * trig_poly())
    if conformal:
        return MetricGrid(n, n, du, du, e, np.zeros((n, n)), e.copy(), "torus")
    g = np.exp(2 * trig_poly())
    shear = 0.3 * np.sin(u[:, None] + u[None, :] + rng.uniform(0, 2 * math.pi))
    f = shear * np.sqrt(e * g)
    return MetricGrid(n, n, du, du, e, f, g, "torus")
