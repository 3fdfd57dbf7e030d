import math
import random

import numpy as np
import pytest

from lefdist.curvature import (
    MetricGrid,
    const_curvature_chi,
    flat_torus_grid,
    gaussian_curvature,
    integrate_curvature,
    random_torus_metric,
    sphere_grid,
)
from lefdist.errors import PreconditionError

SEED = 424242


class TestValidation:
    def test_unknown_topology(self):
        one = np.ones((8, 8))
        with pytest.raises(PreconditionError, match="topology"):
            MetricGrid(8, 8, 0.1, 0.1, one, 0 * one, one, "open")

    def test_positive_definite_enforced(self):
        one = np.ones((8, 8))
        bad_f = np.ones((8, 8))  # EG - F^2 = 0
        with pytest.raises(PreconditionError, match="positive definite"):
            MetricGrid(8, 8, 0.1, 0.1, one, bad_f, one, "torus")
        with pytest.raises(PreconditionError, match="positive definite"):
            MetricGrid(8, 8, 0.1, 0.1, -one, 0 * one, one, "torus")

    def test_minimum_grid_size(self):
        one = np.ones((4, 4))
        m = MetricGrid(4, 4, 0.1, 0.1, one, 0 * one, one, "torus")
        with pytest.raises(PreconditionError, match=">= 8"):
            gaussian_curvature(m)

    def test_shape_mismatch(self):
        with pytest.raises(PreconditionError, match="shape"):
            MetricGrid(8, 8, 0.1, 0.1, np.ones((8, 7)), np.zeros((8, 8)), np.ones((8, 8)), "torus")

    @pytest.mark.parametrize(
        "make",
        [
            flat_torus_grid,
            sphere_grid,
            lambda n: random_torus_metric(random.Random(1), n),
            lambda n: random_torus_metric(random.Random(1), n, conformal=True),
            # transposed input: the grid stores a C-ordered copy of equal values
            lambda n: MetricGrid(n, n, 0.1, 0.1, np.ones((n, n)).T, np.zeros((n, n)).T, np.eye(n).T + 1, "torus"),
        ],
        ids=["flat", "sphere", "random", "conformal", "fortran input"],
    )
    def test_every_grid_is_c_contiguous(self, make):
        # a kernel pass that mixes C- and Fortran-ordered arrays takes strided passes
        m = make(24)
        assert all(getattr(m, name).flags.c_contiguous for name in "EFG")


class TestGaussianCurvature:
    def test_flat_is_exactly_zero(self):
        k = gaussian_curvature(flat_torus_grid(32))
        assert np.all(k == 0.0)

    def test_sheared_flat_is_zero(self):
        # constant E, F, G in sheared coordinates: all derivatives vanish
        du, shape = 2 * math.pi / 32, (32, 32)
        m = MetricGrid(32, 32, du, du, np.full(shape, 2.0), np.full(shape, 0.5), np.full(shape, 1.0), "torus")
        assert np.abs(gaussian_curvature(m)).max() == 0.0

    def test_sphere_patch(self):
        # E = 1, F = 0, G = sin^2 u over u in [1/2, pi - 1/2], away from the poles; stored as a
        # torus, so only the rows away from the u seam are meaningful
        n = 256
        du = (math.pi - 1) / n
        g = np.tile(np.sin(0.5 + np.arange(n) * du) ** 2, (n, 1)).T
        m = MetricGrid(n, n, du, 2 * math.pi / n, np.ones((n, n)), np.zeros((n, n)), g, "torus")
        assert np.abs(gaussian_curvature(m)[2:-2] - 1).max() <= 1e-3

    def test_hyperbolic_band(self):
        # E = G = 1/v^2 over v in [1, 2): curvature -1; the seam rows in v wrap incorrectly
        # by construction, the interior is clean
        v = 1.0 + np.arange(256) / 256
        e = np.tile(1.0 / v**2, (16, 1))
        m = MetricGrid(16, 256, 1.0 / 16, 1.0 / 256, e, np.zeros((16, 256)), e.copy(), "torus")
        assert np.abs(gaussian_curvature(m)[:, 2:-3] + 1).max() <= 1e-3


class TestIntegrateCurvature:
    def test_flat_torus_exact_zero(self):
        assert integrate_curvature(flat_torus_grid(64)) == 0.0

    def test_sphere_of_revolution(self):
        assert abs(integrate_curvature(sphere_grid(256)) - 2.0) <= 1e-3

    def test_random_doubly_periodic(self):
        rng = random.Random(SEED)
        for i in range(3):
            m = random_torus_metric(rng, 256, conformal=(i % 2 == 0))
            assert abs(integrate_curvature(m)) <= 1e-3

    def test_conformal_perturbation_invariance(self):
        rng = random.Random(SEED + 1)
        for _ in range(3):
            m = random_torus_metric(rng, 128, conformal=True)
            assert abs(integrate_curvature(m)) <= 2e-3

    def test_refinement_convergence(self):
        rng = random.Random(7)
        coarse = random_torus_metric(rng, 64)
        rng = random.Random(7)
        fine = random_torus_metric(rng, 128)
        e_coarse = abs(integrate_curvature(coarse))
        e_fine = abs(integrate_curvature(fine))
        assert e_coarse >= 3 * e_fine


def meshgrid_torus_metric(rng, n, conformal):
    """The reference random metric: every harmonic evaluated on the full meshgrid."""
    du = 2 * math.pi / n
    u = np.arange(n) * du
    uu, vv = np.meshgrid(u, u, indexing="ij")

    def trig_poly():
        out = np.zeros((n, n))
        for mm in range(3):
            for nn in range(3):
                if mm == nn == 0:
                    continue
                amp = 0.25 * rng.uniform(0.2, 1.0) / (mm + nn)
                out += amp * np.cos(mm * uu + nn * vv + rng.uniform(0, 2 * math.pi))
        return out

    e = np.exp(2 * trig_poly())
    if conformal:
        return e, np.zeros((n, n)), e.copy()
    g = np.exp(2 * trig_poly())
    shear = 0.3 * np.sin(uu + vv + rng.uniform(0, 2 * math.pi))
    return e, shear * np.sqrt(e * g), g


@pytest.mark.parametrize("conformal", [True, False])
@pytest.mark.parametrize("n", [8, 48, 256])
@pytest.mark.parametrize("seed", range(5))
def test_random_metric_is_bit_identical_to_the_meshgrid_reference(seed, n, conformal):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    m = random_torus_metric(rng, n, conformal=conformal)
    e, f, g = meshgrid_torus_metric(ref_rng, n, conformal)
    assert np.array_equal(m.E, e) and np.array_equal(m.F, f) and np.array_equal(m.G, g)
    assert rng.random() == ref_rng.random()  # the same draws, in the same order


class TestConstCurvature:
    def test_hyperbolic_genus_values(self):
        for g in range(2, 6):
            area = 4 * math.pi * (g - 1)
            assert const_curvature_chi(-1.0, area) == float(2 - 2 * g)

    def test_flat(self):
        assert const_curvature_chi(0.0, 10.0) == 0.0

    def test_round_sphere(self):
        assert const_curvature_chi(1.0, 4 * math.pi) == 2.0

    def test_area_positive(self):
        with pytest.raises(PreconditionError):
            const_curvature_chi(1.0, 0.0)


class TestSerialization:
    def test_json_roundtrip(self):
        m = sphere_grid(8)
        back = MetricGrid.from_json_obj(m.to_json_obj())
        assert back.topology == m.topology
        assert np.array_equal(back.G, m.G)
        assert back.du == m.du

    def test_csv_roundtrip(self):
        rng = random.Random(SEED + 2)
        m = random_torus_metric(rng, 8)
        back = MetricGrid.from_csv(m.to_csv())
        assert np.array_equal(back.E, m.E)
        assert np.array_equal(back.F, m.F)
        assert np.array_equal(back.G, m.G)
        assert (back.nu, back.nv, back.du, back.dv) == (m.nu, m.nv, m.du, m.dv)

    @pytest.mark.parametrize("field, value", [("nu", None), ("nv", 2.5), ("du", math.inf),
                                              ("dv", "~nan"), ("E", 5), ("F", [[{}]]), ("topology", 1)])
    def test_json_malformed_names_the_field(self, field, value):
        obj = flat_torus_grid(8).to_json_obj()
        obj[field] = value
        with pytest.raises(ValueError, match=f"'{field}'") as exc:
            MetricGrid.from_json_obj(obj)
        assert not isinstance(exc.value, PreconditionError)

    def test_json_nodes_read_like_the_spacings(self):
        # JSON ints and number strings read as floats; only ints and floats take numpy's bulk route
        obj = flat_torus_grid(8).to_json_obj()
        obj["E"][3][4], obj["G"][0][0], obj["G"][1][1] = "~2.5", "3/2", 2
        grid = MetricGrid.from_json_obj(obj)
        assert (grid.E[3, 4], grid.G[0, 0], grid.G[1, 1]) == (2.5, 1.5, 2.0)
        assert grid.E.dtype == grid.G.dtype == np.float64

    @pytest.mark.parametrize("value", [math.nan, math.inf, None])
    def test_json_non_finite_node_rejected(self, value):
        obj = flat_torus_grid(8).to_json_obj()
        obj["G"][3][4] = value
        # a null is not a number, so the reader refuses it before the finiteness check
        message = "'G' node must be a finite number" if value is None else "G must be finite"
        with pytest.raises(ValueError, match=message):
            MetricGrid.from_json_obj(obj)

    def test_non_finite_spacing_rejected(self):
        m = flat_torus_grid(8)
        with pytest.raises(ValueError, match="finite"):
            MetricGrid(8, 8, math.nan, m.dv, m.E, m.F, m.G, "torus")

    @pytest.mark.parametrize("old, new", [("7,7,", "8,7,"), ("7,7,", "-1,7,"), ("7,7,", "7,6,")])
    def test_csv_node_outside_grid_or_repeated(self, old, new):
        lines = flat_torus_grid(8).to_csv().splitlines()
        lines[-1] = lines[-1].replace(old, new, 1)
        with pytest.raises(ValueError, match="outside 8x8 or repeated"):
            MetricGrid.from_csv("\n".join(lines))

    @pytest.mark.parametrize("space", ["", " "])
    def test_csv_names_the_first_bad_node_on_either_parse(self, space):
        # a spaced index leaves the bulk int64 parse for read_int; the check and its message are the same
        lines = flat_torus_grid(8).to_csv().splitlines()
        lines[3] = lines[3].replace("0,0,", f"0,{space}0,", 1)
        lines[4] = lines[4].replace("0,1,", "9,1,", 1)
        lines[5] = lines[5].replace("0,2,", "0,0,", 1)
        with pytest.raises(ValueError, match=r"CSV node \(9,1\) is outside 8x8 or repeated"):
            MetricGrid.from_csv("\n".join(lines))
        lines[4] = lines[4].replace("9,1,", "0,1,", 1)
        with pytest.raises(ValueError, match=r"CSV node \(0,0\) is outside 8x8 or repeated"):
            MetricGrid.from_csv("\n".join(lines))
        lines[5] = lines[5].replace("0,0,", f"0,{10**30},", 1)
        with pytest.raises(ValueError, match=rf"CSV node \(0,{10**30}\) is outside"):
            MetricGrid.from_csv("\n".join(lines))
        lines[4] = lines[4].replace("0,1,", "0,x,", 1)
        with pytest.raises(ValueError, match="CSV node 'j' must be an integer, got 'x'"):
            MetricGrid.from_csv("\n".join(lines))

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0,0,1.0,0.0,1.0,1.0", "or i,j,E,F,G"),
            ("0,0,1.0,~0.0,1.0", "CSV node \\(0,0\\) 'F' must be a plain decimal"),
        ],
    )
    def test_csv_malformed_node_row(self, row, message):
        lines = flat_torus_grid(8).to_csv().splitlines()
        lines[3] = row
        with pytest.raises(ValueError, match=message):
            MetricGrid.from_csv("\n".join(lines))

    def test_csv_malformed_header_row(self):
        lines = flat_torus_grid(8).to_csv().splitlines()
        lines[1] += ",extra"
        with pytest.raises(ValueError, match="five fields: nu,nv,du,dv,topology"):
            MetricGrid.from_csv("\n".join(lines))

    def test_csv_extra_row(self):
        text = flat_torus_grid(8).to_csv()
        with pytest.raises(ValueError, match="rows missing or extra"):
            MetricGrid.from_csv(text + text.splitlines()[-1])

    def test_csv_missing_rows(self):
        m = flat_torus_grid(8)
        text = "\n".join(m.to_csv().splitlines()[:-2])
        with pytest.raises(ValueError, match="missing"):
            MetricGrid.from_csv(text)
