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

The kernel works in place.  Each derivative is one new array filled from
slices, and the Brioschi determinants are accumulated with ``out=`` and
in-place operators into arrays already consumed.  A fresh array per NumPy
operation would cost more in page faults than in arithmetic: freed memory
goes back to the system between calls and is faulted in again.  The order
of the floating-point operations is fixed: each in-place step is an
operation of the formula, in its grouping, so K is bit for bit what the
formula gives when evaluated term by term.  The random metrics and the
area element are built the same way.
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
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            if arr.shape != (self.nu, self.nv):
                raise PreconditionError(f"{name} must have shape (nu, nv) = {(self.nu, self.nv)}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite at every node")
            object.__setattr__(self, name, arr)
        if not np.all(self.E > 0) or not np.all(self._form_det() > 0):
            raise PreconditionError(
                "first fundamental form must be positive definite at every node"
            )

    def _form_det(self) -> np.ndarray:
        """E G - F^2 at every node, in a new array."""
        out = np.multiply(self.E, self.G)
        out -= np.multiply(self.F, self.F)
        return out

    @property
    def area_element(self) -> np.ndarray:
        det = self._form_det()
        return np.sqrt(det, out=det)

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
        for (i, j), (_, _, ev, fv, gv) in zip(_node_indices(rows[1:], nu, nv), rows[1:]):
            try:
                e[i, j], f[i, j], g[i, j] = float(ev), float(fv), float(gv)
            except ValueError:
                name, cell = next((n, c) for n, c in zip("EFG", (ev, fv, gv)) if not _is_float(c))
                raise ValueError(f"CSV node ({i},{j}) '{name}' must be a plain decimal, got {cell!r:.40}") from None
        return cls(nu, nv, du, dv, e, f, g, topology)


def _node_indices(rows, nu: int, nv: int) -> list[tuple[int, int]]:
    """The (i, j) of every CSV node row, each inside the nu x nv grid and none repeated.

    Columns of plain unsigned decimals become one int64 array each; any other
    cell sends both columns through ``read_int`` row by row.  The range and
    repeat check is one vectorised pass either way, and a failure names the
    first offending row.  Every index is checked before any E, F or G value
    is read.
    """
    i_col, j_col = [r[0] for r in rows], [r[1] for r in rows]
    # ASCII digits only, fewer than 10 of them: each cell is an int64 as it stands
    if all(all(map(str.isdecimal, col)) and "".join(col).isascii() and max(map(len, col), default=0) < 10
           for col in (i_col, j_col)):
        i, j = np.array(i_col, dtype=np.int64), np.array(j_col, dtype=np.int64)
        i_col, j_col = i.tolist(), j.tolist()
    else:
        pairs = [(read_int(a, "CSV node 'i'"), read_int(b, "CSV node 'j'")) for a, b in zip(i_col, j_col)]
        i_col, j_col = [a for a, _ in pairs], [b for _, b in pairs]
        # clipped to -1..nu and -1..nv: an index past int64 stays outside the grid
        i = np.array([min(max(x, -1), nu) for x in i_col], dtype=np.int64)
        j = np.array([min(max(x, -1), nv) for x in j_col], dtype=np.int64)
    inside = (i >= 0) & (i < nu) & (j >= 0) & (j < nv)
    flat = np.where(inside, i * nv + j, -1)
    if not inside.all() or np.bincount(flat, minlength=nu * nv).max(initial=0) > 1:
        first = np.zeros(len(rows), dtype=bool)
        first[np.unique(flat, return_index=True)[1]] = True  # the first row to hold each node
        r = int(np.argmax(~inside | ~first))
        raise ValueError(f"CSV node ({i_col[r]},{j_col[r]}) is outside {nu}x{nv} or repeated")
    return list(zip(i_col, j_col))


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


def _d(f: np.ndarray, h: float, axis: int, periodic: bool = True) -> np.ndarray:
    """(f[i+1] - f[i-1]) / 2h along ``axis``: cyclic, or one-sided at both ends when not ``periodic``."""
    f = f.T if axis else f
    out = np.empty_like(f)
    np.subtract(f[2:], f[:-2], out=out[1:-1])
    if periodic:
        np.subtract(f[1], f[-1], out=out[0])
        np.subtract(f[0], f[-2], out=out[-1])
    else:
        out[0] = -3 * f[0] + 4 * f[1] - f[2]
        out[-1] = 3 * f[-1] - 4 * f[-2] + f[-3]
    out /= 2 * h
    return out.T if axis else out


def _dd(f: np.ndarray, h: float, axis: int, periodic: bool = True) -> np.ndarray:
    """(f[i+1] + f[i-1] - 2 f[i]) / h^2 along ``axis``: cyclic, or one-sided at both ends when not ``periodic``."""
    f = f.T if axis else f
    out = np.empty_like(f)
    np.add(f[2:], f[:-2], out=out[1:-1])
    np.add(f[1], f[-1], out=out[0])
    np.add(f[0], f[-2], out=out[-1])
    out -= 2 * f
    if not periodic:
        out[0] = 2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]
        out[-1] = 2 * f[-1] - 5 * f[-2] + 4 * f[-3] - f[-4]
    out /= h * h
    return out.T if axis else out


def gaussian_curvature(m: MetricGrid) -> np.ndarray:
    """Per-node Gauss curvature from the Brioschi formula.

    Purely intrinsic: only E, F, G and their finite-difference derivatives
    enter.  Second-order accurate everywhere, including the one-sided rows of
    a revolution grid.
    """
    require_resolution(m.nu, m.nv)
    periodic_u = m.topology == "torus"
    E, F, G, du, dv = m.E, m.F, m.G, m.du, m.dv

    # Brioschi determinants, rows [a11, a12, a13; a21, E, F; a31, F, G] and
    # [0, b12, b13; b12, E, F; b13, F, G], expanded along the first row:
    #   a11 = -0.5 Evv + Fuv - 0.5 Guu, a12 = 0.5 Eu, a13 = Fu - 0.5 Ev, a21 = Fv - 0.5 Gu,
    #   a31 = 0.5 Gv, b12 = 0.5 Ev, b13 = 0.5 Gu, w = E G - F F,
    #   det1 = a11 w - a12 (a21 G - F a31) + a13 (a21 F - E a31),
    #   det2 = -b12 (b12 G - F b13) + b13 (b12 F - E b13), K = (det1 - det2) / w^2.
    # Each derivative is taken where it is first needed, and each array is overwritten
    # once it is consumed (see the module docstring); the comments give the new values.
    Fu = _d(F, du, 0, periodic_u)
    det1 = _dd(E, dv, 1)
    det1 *= -0.5
    det1 += _d(Fu, dv, 1)
    w = _dd(G, du, 0, periodic_u)
    det1 -= np.multiply(w, 0.5, out=w)  # a11
    np.multiply(E, G, out=w)
    w -= np.multiply(F, F)
    det1 *= w  # a11 w
    b12 = _d(E, dv, 1)
    b12 *= 0.5
    a13 = np.subtract(Fu, b12, out=Fu)
    b13 = _d(G, du, 0, periodic_u)
    b13 *= 0.5
    a21 = _d(F, dv, 1)
    a21 -= b13
    a31 = _d(G, dv, 1)
    a31 *= 0.5
    t = np.multiply(a21, G)
    t -= np.multiply(F, a31)
    a12 = _d(E, du, 0, periodic_u)
    a12 *= 0.5
    a12 *= t  # a12 (a21 G - F a31)
    det1 -= a12
    a21 *= F
    a21 -= np.multiply(E, a31, out=a31)
    a13 *= a21  # a13 (a21 F - E a31)
    det1 += a13
    # det2 as b13 (b12 F - E b13) - b12 (b12 G - F b13), since -b12 X = -(b12 X) exactly
    s = np.multiply(b12, G, out=t)
    s -= np.multiply(F, b13, out=a12)
    s *= b12
    det2 = np.multiply(b12, F, out=a13)
    det2 -= np.multiply(E, b13, out=a21)
    det2 *= b13
    det2 -= s
    det1 -= det2
    w *= w
    det1 /= w
    return det1


def integrate_curvature(m: MetricGrid) -> float:
    """(1 / 2 pi) * integral of K over the surface; approximates chi.

    Torus grids use the trapezoid rule (spectrally matched to periodicity);
    revolution grids use the midpoint rule in the profile direction, whose
    cell-centered samples exclude the poles while covering their area.
    """
    return _integrate(m, gaussian_curvature(m))


def _integrate(m: MetricGrid, k: np.ndarray) -> float:
    """(1 / 2 pi) * integral of the per-node curvature ``k`` of ``m``."""
    weighted = m.area_element
    weighted *= k
    total = float(np.sum(weighted)) * m.du * m.dv
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
    g = np.repeat((np.sin(u) ** 2)[:, None], n, axis=1)
    return MetricGrid(n, n, du, dv, np.ones((n, n)), np.zeros((n, n)), g, "revolution")


def random_torus_metric(rng, n: int = 256, conformal: bool = False) -> MetricGrid:
    """Smooth doubly periodic metric with randomized low-order harmonics of amplitude 0.25.

    Conformal metrics are e^(2 phi) (du^2 + dv^2); otherwise E and G get
    independent conformal factors and F a bounded smooth shear, keeping the
    form positive definite everywhere.
    """
    du = 2 * math.pi / n
    u = np.arange(n) * du

    def conformal_factor():
        """exp(2 sum amp cos(mm u + nn v + phase)) on the grid."""
        out, wave = np.zeros((n, n)), np.empty((n, n))
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
                    np.add.outer(mm * u, nn * u, out=wave)
                    wave += phase
                    np.cos(wave, out=wave)
                    wave *= amp
                    out += wave
        out *= 2
        return np.exp(out, out=out)

    e = conformal_factor()
    if conformal:
        return MetricGrid(n, n, du, du, e, np.zeros((n, n)), e.copy(), "torus")
    g = conformal_factor()
    f = np.add.outer(u, u)
    f += rng.uniform(0, 2 * math.pi)
    np.sin(f, out=f)
    f *= 0.3  # a shear of amplitude 0.3, times sqrt(E G)
    root = np.multiply(e, g)
    f *= np.sqrt(root, out=root)
    return MetricGrid(n, n, du, du, e, f, g, "torus")
