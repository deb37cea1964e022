import json
import math
import os
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bifree.bipartite_num as bp
from bifree.bipartite_num import (
    FieldConfig,
    _AxisKernel,
    _smooth_length,
    GridSpec,
    MarginalDensity,
    NonProductSupportWarning,
    ZeroMassError,
    conjugate_field,
    density_from_json_dict,
    density_to_json_dict,
    field_l2_error,
    fisher_numeric,
    free_fisher_marginal,
    grid_from_spec,
    hilbert_pv,
    load_density,
    make_density_grid,
    marginals,
    save_density,
    save_density_csv,
    semicircle_marginal,
    semicircular_density,
)
from helpers import (
    conjugate_field_by_matrix,
    fields_by_allocating_blocks,
    hilbert_rows_by_matrix,
    marchenko_pastur,
    product_gap_fraction_by_outer,
    semicircular_density_by_broadcast,
)


def assert_rel_close(got, want, rtol=1e-12):
    """Max-norm agreement relative to the largest entry of ``want``."""
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


def same_bits(a, b):
    """Equal bit patterns (arrays or floats), so that -0.0 and 0.0 differ."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and np.array_equal(a.view(f"u{a.itemsize}"), b.view(f"u{b.itemsize}"))


def uniform_grid(n=64):
    x = np.linspace(-1.0, 1.0, n)
    return make_density_grid(x, x, np.ones((n, n)))


def product_gaussianish(n=256):
    spec = GridSpec(n, n, -1.0, 1.0, -1.0, 1.0)
    return grid_from_spec(
        spec, lambda x, y: (1 - x * x) ** 2 * (1 - y * y) ** 2
    )


class TestDensityGrid:
    def test_unit_mass_after_construction(self):
        g = semicircular_density(0.3, GridSpec(128, 128))
        assert g.mass() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("nx, ny", [(-3, 8), (8, 0), (1, 8)])
    def test_grid_spec_needs_two_points_per_axis(self, nx, ny):
        with pytest.raises(bp.BifreeInputError, match=f"got {nx} x {ny}"):
            GridSpec(nx, ny)

    def test_grid_spec_axes_too_long_to_hold_are_bad_input(self):
        # numpy refuses each size before allocating: about 2**63 points with an
        # IndexError from linspace, the others with a ValueError
        for size in (2 ** 63 - 1, 2 ** 63, 2 ** 64, 10 ** 30):
            for nx, ny in ((size, 8), (8, size)):
                with pytest.raises(bp.BifreeInputError, match=f"a {nx} x {ny} grid does not fit in memory"):
                    GridSpec(nx, ny).axes()

    def test_rejects_negative(self):
        x = np.linspace(0, 1, 8)
        with pytest.raises(ValueError):
            make_density_grid(x, x, -np.ones((8, 8)))

    def test_rejects_zero_mass(self):
        x = np.linspace(0, 1, 8)
        with pytest.raises(ZeroMassError):
            make_density_grid(x, x, np.zeros((8, 8)))

    @given(
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.sampled_from(["x", "y", "values"]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_rejects_non_finite(self, bad, where, seed):
        rng = np.random.default_rng(seed)
        arrays = {"x": np.linspace(-2, 2, 9), "y": np.linspace(-2, 2, 7),
                  "values": rng.random((9, 7))}
        target = arrays[where].reshape(-1)
        target[rng.integers(target.size)] = bad
        with pytest.raises(ValueError, match="finite"):
            make_density_grid(arrays["x"], arrays["y"], arrays["values"])

    @given(
        st.integers(3, 2048),
        st.floats(-10, 10),
        st.floats(0.1, 10),
        st.integers(0, 2**32 - 1),
        st.floats(1e-6, 0.9),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_rejects_non_uniform_axes(self, n, lo, width, seed, shift, reverse):
        x = np.linspace(lo, lo + width, n)
        make_density_grid(x, x[:3], np.ones((n, 3)))  # linspace spacing is accepted
        bent = x.copy()
        i = int(np.random.default_rng(seed).integers(1, n - 1))
        bent[i] += shift * (x[1] - x[0])
        for axis in (bent, x[::-1]) if reverse else (bent,):
            with pytest.raises(ValueError, match="uniformly spaced"):
                make_density_grid(axis, x[:3], np.ones((n, 3)))
            with pytest.raises(ValueError, match="uniformly spaced"):
                make_density_grid(x[:3], axis, np.ones((3, n)))

    def test_json_round_trip(self, tmp_path):
        g = semicircular_density(0.5, GridSpec(32, 32))
        path = tmp_path / "grid.json"
        save_density(g, str(path))
        again = load_density(str(path))
        # loading renormalizes, so allow a one-ulp mass drift
        assert np.allclose(again.values, g.values, rtol=1e-14, atol=0)
        assert np.array_equal(again.x, g.x)

    def test_csv_round_trip(self, tmp_path):
        g = semicircular_density(0.2, GridSpec(24, 24))
        header = tmp_path / "grid.json"
        save_density_csv(g, str(header))
        assert json.loads(header.read_text())["values_csv"] == "grid.csv"
        again = load_density(str(header))
        assert np.allclose(again.values, g.values, rtol=1e-14, atol=0)

    def test_csv_load_is_the_json_load_of_the_same_rows(self, tmp_path):
        g = semicircular_density(-0.4, GridSpec(21, 13))
        save_density_csv(g, str(tmp_path / "grid.json"))
        save_density(g, str(tmp_path / "inline.json"))
        from_csv = load_density(str(tmp_path / "grid.json"))
        from_json = load_density(str(tmp_path / "inline.json"))
        for name in ("x", "y", "values", "wx", "wy"):
            assert np.array_equal(getattr(from_csv, name), getattr(from_json, name))
        assert from_csv.raw_mass == from_json.raw_mass

    @pytest.mark.parametrize("header, values", [
        ("grid.json", "grid.csv"), ("grid", "grid.csv"), ("grid.txt", "grid.txt.csv"),
        ("grid.JSON", "grid.JSON.csv"), (".json", ".csv"),
    ])
    def test_csv_name_follows_the_header_name(self, tmp_path, header, values):
        g = semicircular_density(0.1, GridSpec(5, 4))
        save_density_csv(g, str(tmp_path / header))
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([header, values])
        assert json.loads((tmp_path / header).read_text())["values_csv"] == values

    def test_csv_is_read_beside_the_header_from_any_directory(self, tmp_path, monkeypatch):
        g = semicircular_density(0.3, GridSpec(9, 7))
        (tmp_path / "data").mkdir()
        save_density_csv(g, str(tmp_path / "data" / "g.json"))
        (tmp_path / "g.csv").write_text("not, the, grid\n")  # a decoy in the working directory
        monkeypatch.chdir(tmp_path)
        again = load_density(os.path.join("data", "g.json"))
        assert np.array_equal(again.values, load_density(str(tmp_path / "data" / "g.json")).values)
        assert np.allclose(again.values, g.values, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("extra, match", [
        ({"values": [[1, 1], [1, 1]]}, "both 'values' and 'values_csv'"),
        ({"values_csv": "../grid.csv"}, "field 'values_csv' must be a bare file name"),
        ({"values_csv": "sub/grid.csv"}, "field 'values_csv' must be a bare file name"),
        ({"values_csv": ""}, "field 'values_csv' must be a bare file name"),
        ({"values_csv": 5}, "field 'values_csv' must be a bare file name"),
    ])
    def test_header_must_name_one_csv_beside_it(self, tmp_path, extra, match):
        (tmp_path / "grid.csv").write_text("1,1\n1,1\n")
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "grid.csv").write_text("1,1\n1,1\n")
        header = tmp_path / "sub" / "grid.json"
        header.write_text(json.dumps({"xmin": -1, "xmax": 1, "ymin": -1, "ymax": 1, "nx": 2, "ny": 2,
                                      "values_csv": "grid.csv", **extra}))
        with pytest.raises(ValueError, match=match):
            load_density(str(header))

    def test_missing_csv_raises_file_not_found(self, tmp_path):
        header = tmp_path / "grid.json"
        header.write_text(json.dumps({"xmin": -1, "xmax": 1, "ymin": -1, "ymax": 1, "nx": 2, "ny": 2,
                                      "values_csv": "absent.csv"}))
        with pytest.raises(FileNotFoundError) as info:
            load_density(str(header))
        assert info.value.filename == str(tmp_path / "absent.csv")

    @pytest.mark.parametrize("text, match", [
        ("1,2,3\n4,5\n6,7,8\n", "row 2 does not fit"),  # ragged
        ("1,2\n3,4\n5,6\n", "row 1 does not fit"),  # every row short
        ("1,2,3,4\n5,6,7,8\n9,1,2,3\n", "row 1 does not fit"),  # every row long
        ("1,2,3\n4,5,6\n", "2 rows, the header has nx = 3"),  # too few rows
        ("1,2,3\n4,5,6\n7,8,9\n1,2,3\n", "row 4 does not fit"),  # too many rows
        ("1,2,3\n4,x,6\n7,8,9\n", "row 2: could not convert"),  # not a number
        ("1,2,3\n\n4,5,6\n7,8,9\n", "row 2 does not fit"),  # a blank line
        ("", "0 rows, the header has nx = 3"),
    ])
    def test_csv_load_rejects_rows_off_the_header(self, tmp_path, text, match):
        header, values = tmp_path / "grid.json", tmp_path / "grid.csv"
        header.write_text(json.dumps({"xmin": -1, "xmax": 1, "ymin": -1, "ymax": 1,
                                      "nx": 3, "ny": 3, "values_csv": "grid.csv"}))
        values.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(values)) + ": " + match):
            load_density(str(header))

    @pytest.mark.parametrize("n", [2 ** 20, 2 ** 40])  # 8 TB: no memory; 2^83 bytes: no array
    def test_csv_load_rejects_a_header_grid_too_large_to_hold(self, tmp_path, n):
        header, values = tmp_path / "grid.json", tmp_path / "grid.csv"
        header.write_text(json.dumps({"xmin": -1, "xmax": 1, "ymin": -1, "ymax": 1, "nx": n, "ny": n,
                                      "values_csv": "grid.csv"}))
        values.write_text("1,1\n")
        with pytest.raises(ValueError):  # never touched: row 1 is short if the array is made
            load_density(str(header))

    def test_dict_round_trip(self):
        g = semicircular_density(0.0, GridSpec(16, 16))
        again = density_from_json_dict(density_to_json_dict(g))
        assert np.allclose(again.values, g.values, rtol=1e-14, atol=0)

    def test_values_are_the_formula_clipped_and_scaled(self):
        spec = GridSpec(40, 33, -2.5, 2.0, -1.0, 3.0)
        # positive in two quadrants, rounding-size negatives elsewhere
        fn = lambda x, y: np.where(x * y > 0, x * y, -1e-14 * (1.0 + x * x))  # noqa: E731
        g = grid_from_spec(spec, fn)
        given = fn(g.x[:, None], g.y[None, :])
        assert given.min() < 0
        raw = np.clip(given, 0.0, None)
        assert g.raw_mass == float(g.wx @ raw @ g.wy)
        assert np.array_equal(g.values, raw / g.raw_mass)
        kept = given.copy()
        again = make_density_grid(g.x, g.y, given)
        assert np.array_equal(given, kept)  # the caller's array is not written
        assert np.array_equal(again.values, g.values)

    def test_json_text_built_by_rows(self, tmp_path):
        g = semicircular_density(0.3, GridSpec(33, 20))
        path = tmp_path / "grid.json"
        save_density(g, str(path))
        assert path.read_text() == json.dumps(density_to_json_dict(g)) + "\n"


class TestSemicircularDensity:
    def test_origin_value(self):
        g = semicircular_density(0.0, GridSpec(129, 129))
        assert g.values[64, 64] * g.raw_mass == pytest.approx(1 / math.pi**2, abs=1e-12)

    def test_factorizes_at_zero_covariance(self):
        g = semicircular_density(0.0, GridSpec(65, 65))
        sampled = g.values * g.raw_mass
        product = semicircle_marginal(g.x)[:, None] * semicircle_marginal(g.y)[None, :]
        assert np.abs(sampled - product).max() < 1e-12

    def test_mass_close_to_one(self):
        g = semicircular_density(0.5, GridSpec(512, 512))
        assert abs(g.raw_mass - 1.0) < 5e-4

    def test_rejects_degenerate_covariance(self):
        with pytest.raises(ValueError):
            semicircular_density(1.0, GridSpec(16, 16))

    def test_grid_covariance_matches_parameter(self):
        g = semicircular_density(0.5, GridSpec(512, 512))
        assert g.moment(1, 1) == pytest.approx(0.5, abs=2e-3)
        assert g.moment(2, 0) == pytest.approx(1.0, abs=2e-3)

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("spec", [
        GridSpec(20, 13),  # fewer rows than one block
        GridSpec(150, 97),
        GridSpec(257, 257),
        GridSpec(40, 33, -2.5, 2.0, -1.0, 3.0),  # 4 - x^2 clipped; 0/0 past the square at c = -0.5
    ], ids=["20x13", "150x97", "257x257", "rectangle"])
    @pytest.mark.parametrize("c", [-0.9, -0.5, 0.0, 0.3, 0.99])
    def test_row_blocks_match_broadcast(self, monkeypatch, c, spec, threads):
        monkeypatch.setattr(bp, "_thread_count", lambda: threads)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the 0/0, on both sides
            try:
                want = semicircular_density_by_broadcast(c, spec)
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    semicircular_density(c, spec)
                return
            got = semicircular_density(c, spec)
        assert np.array_equal(got.values, want.values)
        assert got.raw_mass == want.raw_mass
        assert np.array_equal(got.x, want.x) and np.array_equal(got.y, want.y)
        assert not got.values.flags.writeable

    def test_builds_no_full_grid_temporary(self, monkeypatch):
        monkeypatch.setattr(bp, "_thread_count", lambda: 1)
        tracemalloc.start()
        try:
            g = semicircular_density(0.5, GridSpec(1024, 1024))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * g.values.nbytes


class TestMarginals:
    def test_product_density_recovers_factors(self):
        g = product_gaussianish()
        mx, my = marginals(g)
        fx = (1 - g.x**2) ** 2
        fx = fx / float(g.wx @ fx)
        assert np.abs(mx.samples - fx).max() < 1e-8

    def test_semicircular_marginals(self):
        g = semicircular_density(0.0, GridSpec(512, 512))
        mx, my = marginals(g)
        sc = semicircle_marginal(mx.x)
        assert np.abs(mx.samples - sc).max() < 2e-3
        assert np.abs(my.samples - sc).max() < 2e-3

    def test_uniform(self):
        g = uniform_grid()
        mx, my = marginals(g)
        assert np.allclose(mx.samples, 0.5, atol=1e-12)
        assert np.allclose(my.samples, 0.5, atol=1e-12)

    def test_unit_mass(self):
        g = semicircular_density(0.4, GridSpec(128, 128))
        mx, my = marginals(g)
        assert mx.mass == pytest.approx(1.0, abs=1e-12)
        assert my.mass == pytest.approx(1.0, abs=1e-12)


class TestHilbert:
    def semicircle(self, n=1024):
        x = np.linspace(-2.0, 2.0, n)
        f = semicircle_marginal(x)
        w = np.full(n, x[1] - x[0])
        w[0] = w[-1] = 0.5 * (x[1] - x[0])
        return MarginalDensity(x, f / float(w @ f), w)

    def test_semicircle_transform_is_half_x(self):
        marg = self.semicircle()
        h = hilbert_pv(marg, eps=2 * marg.spacing)
        err = math.sqrt(float(marg.weights @ ((h - marg.x / 2) ** 2 * marg.samples)))
        assert err < 5e-3

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_eps(self, eps):
        with pytest.raises(ValueError, match="eps must be finite and positive"):
            hilbert_pv(self.semicircle(64), eps=eps)

    @pytest.mark.parametrize("spacing", ["bent", "decreasing"])
    def test_rejects_non_uniform_marginal(self, spacing):
        marg = self.semicircle(64)
        x = marg.x.copy()
        if spacing == "bent":
            x[20] += 0.3 * marg.spacing
        else:
            x = x[::-1].copy()
        bad = MarginalDensity(x, marg.samples, marg.weights)
        with pytest.raises(ValueError, match="the x axis must be strictly increasing and uniformly spaced"):
            hilbert_pv(bad, eps=marg.spacing)
        with pytest.raises(ValueError, match="the x axis must be strictly increasing and uniformly spaced"):
            free_fisher_marginal(bad)

    def test_odd_kernel_even_density(self):
        marg = self.semicircle(1025)
        h = hilbert_pv(marg)
        assert abs(h[512]) < 1e-12  # midpoint is x = 0

    def test_integrates_to_zero_against_density(self):
        marg = self.semicircle()
        h = hilbert_pv(marg)
        assert abs(float(marg.weights @ (h * marg.samples))) < 1e-12

    def test_convergence_in_grid(self):
        errs = []
        for n in (256, 512, 1024):
            marg = self.semicircle(n)
            h = hilbert_pv(marg)
            errs.append(
                math.sqrt(float(marg.weights @ ((h - marg.x / 2) ** 2 * marg.samples)))
            )
        assert errs[0] > errs[1] > errs[2]


class TestConjugateField:
    def test_independent_pair_field_is_free_conjugate(self):
        g = semicircular_density(0.0, GridSpec(512, 512))
        fld = conjugate_field(g)
        target = np.where(fld.mask, 0.0, np.broadcast_to(g.x[:, None], fld.xi_left.shape))
        assert field_l2_error(g, fld.xi_left, target) < 0.02
        # constant across y on the interior
        shielded = np.where(~fld.mask, fld.xi_left, np.nan)[128:384]
        spread = float(np.nanmax(np.nanstd(shielded, axis=1)))
        assert spread < 0.05

    def test_semicircular_field_linear(self):
        c = 0.5
        g = semicircular_density(c, GridSpec(512, 512))
        fld = conjugate_field(g)
        target = (g.x[:, None] - c * g.y[None, :]) / (1 - c * c)
        assert field_l2_error(g, fld.xi_left, np.where(fld.mask, 0.0, target)) < 0.02
        target_r = (g.y[None, :] - c * g.x[:, None]) / (1 - c * c)
        assert field_l2_error(g, fld.xi_right, np.where(fld.mask, 0.0, target_r)) < 0.02

    def test_field_centred(self):
        g = semicircular_density(0.5, GridSpec(256, 256))
        fld = conjugate_field(g)
        mean = float(g.wx @ (fld.xi_left * g.values) @ g.wy)
        assert abs(mean) < 1e-8

    def test_non_product_support_warns(self):
        n = 96
        x = np.linspace(-1, 1, n)
        values = np.where(
            np.abs(x[:, None] - x[None, :]) < 0.3, 1.0, 0.0
        )  # diagonal band
        g = make_density_grid(x, x, values)
        gap = product_gap_fraction_by_outer(g)
        for fn in (conjugate_field, fisher_numeric):
            with pytest.warns(NonProductSupportWarning, match=f"{100 * gap:.1f}% of the product"):
                fn(g)

    @pytest.mark.parametrize("case", ["band", "disc", "semicircular", "sparse", "corner"])
    def test_gap_fraction_matches_outer_product(self, monkeypatch, case):
        if case == "semicircular":
            g = semicircular_density(0.5, GridSpec(130, 77))
        elif case == "sparse":
            rng = np.random.default_rng(7)
            g = make_density_grid(np.linspace(0, 1, 61), np.linspace(0, 2, 45),
                                  rng.random((61, 45)) * (rng.random((61, 45)) < 0.3))
        else:
            x = np.linspace(-1, 1, 90)
            y = np.linspace(-1, 1, 71)
            band = np.abs(x[:, None] - y[None, :]) < 0.3
            disc = x[:, None] ** 2 + y[None, :] ** 2 < 0.8
            corner = (x[:, None] > 0) | (y[None, :] > 0)
            g = make_density_grid(x, y, {"band": band, "disc": disc, "corner": corner}[case] * 1.0)
        mx, my = marginals(g)
        threshold = bp.MASK_THRESHOLD * float(g.values.max())
        want = product_gap_fraction_by_outer(g)
        messages = []
        for threads in (1, 3):
            monkeypatch.setattr(bp, "_thread_count", lambda: threads)
            mask = np.ones(g.values.shape, dtype=bool)
            assert bp._product_gap_fraction(g.values, threshold, mx.samples, my.samples) == want
            assert bp._product_gap_fraction(g.values, threshold, mx.samples, my.samples, mask) == want
            assert np.array_equal(mask, g.values < threshold)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                conjugate_field(g)
            messages.append([str(w.message) for w in caught])
        assert messages[0] == messages[1]
        assert bool(messages[0]) == (want > bp.PRODUCT_WARN_FRACTION)


class TestFisherNumeric:
    def test_semicircular_values(self):
        for c in (0.0, 0.5):
            g = semicircular_density(c, GridSpec(512, 512))
            target = 2 / (1 - c * c)
            assert abs(fisher_numeric(g) - target) / target < 0.02

    def test_refinement_monotone(self):
        c = 0.5
        target = 2 / (1 - c * c)
        errs = [
            abs(fisher_numeric(semicircular_density(c, GridSpec(n, n))) - target)
            for n in (128, 256, 512)
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_product_density_splits_into_marginal_fishers(self):
        g = product_gaussianish()
        mx, my = marginals(g)
        joint = fisher_numeric(g)
        split = free_fisher_marginal(mx) + free_fisher_marginal(my)
        assert abs(joint - split) / joint < 0.02

    # A product of Marchenko-Pastur marginals: ({X}, {}) and ({}, {Y}) are
    # bi-free, so Phi* adds to 1/(lam1 - 1) + 1/(lam2 - 1).  The grid value
    # falls short at first order in the spacing, by 1.4e-2, 2.2e-2 and
    # 4.7e-2 at 1025 x 1025 and 2.3e-2 at 1025 x 769; each bound is about
    # 1.3 times that, and (4, 1.5) is steep at its lower edge a = 0.05.
    @pytest.mark.parametrize("lam1, lam2, nx, ny, rtol", [
        (3.0, 3.0, 1025, 1025, 2e-2),
        (2.0, 5.0, 1025, 1025, 3e-2),
        (4.0, 1.5, 1025, 1025, 6e-2),
        (2.0, 5.0, 1025, 769, 3e-2),
    ])
    def test_marchenko_pastur_products(self, lam1, lam2, nx, ny, rtol):
        (x, px), (y, py) = marchenko_pastur(lam1, nx), marchenko_pastur(lam2, ny)
        g = make_density_grid(x, y, np.outer(px, py))
        target = 1 / (lam1 - 1) + 1 / (lam2 - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rel = (fisher_numeric(g) - target) / target
        assert -rtol < rel < 0

    @pytest.mark.parametrize("lam", [1.5, 2.0, 3.0, 4.0, 5.0])
    def test_marchenko_pastur_marginal(self, lam):
        # relative error -1.4e-2 at lam = 1.5 down to -2.6e-3 at lam = 5
        x, p = marchenko_pastur(lam, 4097)
        w = np.full(x.size, x[1] - x[0])
        w[0] = w[-1] = 0.5 * (x[1] - x[0])
        rel = (free_fisher_marginal(MarginalDensity(x, p / float(w @ p), w)) * (lam - 1)) - 1
        assert -2e-2 < rel < 0

    def test_cramer_rao(self):
        # equality holds at c = 0, so allow the quadrature bias there
        for c, slack in ((0.0, 0.08), (0.5, 0.0)):
            g = semicircular_density(c, GridSpec(512, 512))
            second = g.moment(2, 0) + g.moment(0, 2)
            assert fisher_numeric(g) * second >= 4.0 - slack

    def test_richardson_sharpens(self):
        c = 0.5
        g = semicircular_density(c, GridSpec(256, 256))
        target = 2 / (1 - c * c)
        plain = abs(fisher_numeric(g) - target)
        improved = abs(fisher_numeric(g, FieldConfig(richardson=True)) - target)
        assert improved < plain


class TestKernelConvolution:
    """The FFT convolution against the dense kernel product."""

    def test_smooth_length_is_smallest_5_smooth(self):
        def smooth(k):
            for p in (2, 3, 5):
                while k % p == 0:
                    k //= p
            return k == 1

        want = 1
        for n in range(1, 3001):
            while not smooth(want) or want < n:
                want += 1
            assert _smooth_length(n) == want

    @pytest.mark.parametrize("n", [2, 3, 64, 255, 257, 1025, 1531])
    @pytest.mark.parametrize("eps_per_h", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("shape", ["1-D", "2-D"])
    def test_matches_dense_product(self, n, eps_per_h, shape):
        rng = np.random.default_rng(n)
        x = np.linspace(-1.5, 2.5, n)
        h = x[1] - x[0]
        w = np.full(n, h)
        w[0] = w[-1] = 0.5 * h
        values = rng.random(n if shape == "1-D" else (7, n))
        eps = eps_per_h * h
        pad = np.zeros((8, _smooth_length(2 * n - 1)))  # more rows than a block, used twice
        for richardson in (False, True):
            want = hilbert_rows_by_matrix(values, x, w, eps, richardson)
            kernel = _AxisKernel.build(x, w, eps, richardson, "x")
            got = kernel.rows(np.atleast_2d(values), pad).reshape(values.shape)
            assert_rel_close(got, want)

    @pytest.mark.parametrize("n", [2, 3, 64, 255, 257, 1025, 1531])
    @pytest.mark.parametrize("eps_per_h", [0.5, 1.0, 3.0])
    def test_conjugate_field_matches_dense(self, n, eps_per_h):
        spec = GridSpec(n, n, -1.0, 1.0, -1.0, 1.0)
        g = grid_from_spec(spec, lambda x, y: np.exp(-(x * x + y * y - x * y)))
        eps = eps_per_h * (g.x[1] - g.x[0])
        fld = conjugate_field(g, FieldConfig(eps=eps))
        xi_left, xi_right, mask = conjugate_field_by_matrix(g, eps, eps)
        assert np.array_equal(fld.mask, mask)
        assert_rel_close(fld.xi_left, xi_left)
        assert_rel_close(fld.xi_right, xi_right)

    @pytest.mark.parametrize("richardson", [False, True])
    @pytest.mark.parametrize("case", ["non-square", "tailed-gaussian", "semicircular"])
    def test_conjugate_field_matches_dense_on_grids(self, case, richardson):
        if case == "non-square":
            spec = GridSpec(150, 97, -3.0, 1.0, -0.5, 4.5)
            g = grid_from_spec(spec, lambda x, y: np.exp(-((x + 1) ** 2) - (y - 2) ** 2 + 0.4 * (x + 1) * (y - 2)))
        elif case == "tailed-gaussian":
            g = grid_from_spec(GridSpec(257, 257, -6.0, 6.0, -6.0, 6.0),
                               lambda x, y: np.exp(-0.5 * (x * x + y * y)))
        else:
            g = semicircular_density(0.5, GridSpec(200, 200))
        fld = conjugate_field(g, FieldConfig(richardson=richardson))
        xi_left, xi_right, mask = conjugate_field_by_matrix(
            g, g.x[1] - g.x[0], g.y[1] - g.y[0], richardson)
        assert np.array_equal(fld.mask, mask)
        assert_rel_close(fld.xi_left, xi_left)
        assert_rel_close(fld.xi_right, xi_right)
        want = float(g.wx @ ((xi_left ** 2 + xi_right ** 2) * g.values) @ g.wy)
        assert fisher_numeric(g, FieldConfig(richardson=richardson)) == pytest.approx(want, rel=1e-12, abs=0)


class TestBlockThreads:
    """Row blocks spread over threads: same results for every thread count."""

    GRIDS = {
        # row counts 150 and 97: neither a multiple of the block size
        "non-square": lambda: grid_from_spec(
            GridSpec(150, 97, -3.0, 1.0, -0.5, 4.5),
            lambda x, y: np.exp(-((x + 1) ** 2) - (y - 2) ** 2 + 0.4 * (x + 1) * (y - 2))),
        # fewer rows than one block on each axis
        "one-block": lambda: semicircular_density(0.3, GridSpec(20, 13)),
        "semicircular": lambda: semicircular_density(0.5, GridSpec(257, 257)),
    }

    def run(self, monkeypatch, threads, g, richardson):
        monkeypatch.setattr(bp, "_thread_count", lambda: threads)
        cfg = FieldConfig(richardson=richardson)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so a lost block write would show
        try:
            return conjugate_field(g, cfg), fisher_numeric(g, cfg)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("richardson", [False, True])
    @pytest.mark.parametrize("case", sorted(GRIDS))
    def test_thread_count_does_not_change_results(self, monkeypatch, case, richardson):
        g = self.GRIDS[case]()
        one_field, one_fisher = self.run(monkeypatch, 1, g, richardson)
        three_field, three_fisher = self.run(monkeypatch, 3, g, richardson)
        for name in ("xi_left", "xi_right", "mask"):
            assert same_bits(getattr(one_field, name), getattr(three_field, name))
        assert same_bits(one_fisher, three_fisher)
        # the blocks of the one field are the fields' rows: same quadrature up to rounding
        want = float(g.wx @ ((one_field.xi_left ** 2 + one_field.xi_right ** 2) * g.values) @ g.wy)
        assert one_fisher == pytest.approx(want, rel=1e-13, abs=0)

    @pytest.mark.parametrize("richardson", [False, True])
    @pytest.mark.parametrize("case", sorted(GRIDS) + ["1024x1000"])
    def test_same_bits_as_allocating_blocks(self, monkeypatch, case, richardson):
        if case == "1024x1000":
            g = semicircular_density(0.5, GridSpec(1024, 1000))
        else:
            g = self.GRIDS[case]()
        *want, want_fisher = fields_by_allocating_blocks(g, FieldConfig(richardson=richardson))
        for threads in (1, 3):
            field, fisher = self.run(monkeypatch, threads, g, richardson)
            for got, expected in zip((field.xi_left, field.xi_right, field.mask), want):
                assert same_bits(got, expected)
            assert same_bits(fisher, want_fisher)

    def test_fft_inputs_are_zero_tailed_pads(self, monkeypatch):
        """Every kernel row reaches rfft as a row of ``size`` columns, zero
        past the axis's n, with no ``n=``; one thread runs two grids in turn,
        and each result equals a fresh call's."""
        grids = [self.GRIDS["non-square"](), self.GRIDS["semicircular"]()]
        lengths = {}  # kernel size -> axis length; the sizes here differ
        for g in grids:
            for n in (g.nx, g.ny):
                lengths[_smooth_length(2 * n - 1)] = n
        calls = []
        rfft = np.fft.rfft

        def spy(a, *args, **kwargs):
            if np.ndim(a) == 2:  # rows of a block or of a marginal; the circulant is 1-D
                assert not args and not kwargs
                assert a.shape[1] in lengths
                assert not a[:, lengths[a.shape[1]]:].any()
                calls.append(a.shape)
            return rfft(a, *args, **kwargs)

        monkeypatch.setattr(bp, "_thread_count", lambda: 1)
        monkeypatch.setattr(np.fft, "rfft", spy)
        got = [(conjugate_field(g), fisher_numeric(g)) for g in grids]
        monkeypatch.setattr(np.fft, "rfft", rfft)
        # the marginal's row and every block, on each axis, in each of the two calls
        assert len(calls) == sum(
            2 * (2 + len(bp._row_blocks(g.nx)) + len(bp._row_blocks(g.ny))) for g in grids)
        fresh = [(conjugate_field(g), fisher_numeric(g)) for g in reversed(grids)][::-1]
        for (field, fisher), (want_field, want_fisher) in zip(got, fresh):
            for name in ("xi_left", "xi_right", "mask"):
                assert same_bits(getattr(field, name), getattr(want_field, name))
            assert same_bits(fisher, want_fisher)

    def test_blocks_run_on_several_threads(self, monkeypatch):
        seen = set()
        irfft = np.fft.irfft

        def spy(*args, **kwargs):
            seen.add(threading.current_thread())  # an ident can be reused once a thread ends
            return irfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", spy)
        monkeypatch.setattr(bp, "_thread_count", lambda: 3)
        fisher_numeric(self.GRIDS["semicircular"]())
        assert len(seen) == 3

    @pytest.mark.parametrize("fn", [conjugate_field, fisher_numeric])
    @pytest.mark.parametrize("where", ["third call", "helper thread"])
    def test_worker_exception_reaches_caller(self, monkeypatch, fn, where):
        class Boom(RuntimeError):
            pass

        calls = []
        lock = threading.Lock()
        caller = threading.get_ident()
        irfft = np.fft.irfft

        def failing(*args, **kwargs):
            with lock:
                calls.append(threading.get_ident())
                fail = len(calls) == 3 if where == "third call" else calls[-1] != caller
            if fail:
                raise Boom("irfft failed")
            return irfft(*args, **kwargs)

        g = self.GRIDS["semicircular"]()
        before = set(threading.enumerate())
        monkeypatch.setattr(np.fft, "irfft", failing)
        monkeypatch.setattr(bp, "_thread_count", lambda: 3)
        with pytest.raises(Boom, match="irfft failed"):
            fn(g)
        assert set(threading.enumerate()) == before
        # the failing thread runs none of its later blocks
        assert len(calls) < 2 + len(bp._row_blocks(g.nx)) + len(bp._row_blocks(g.ny))

    def test_thread_count_follows_affinity(self, monkeypatch):
        monkeypatch.setattr(bp.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert bp._thread_count() == 1
        monkeypatch.setattr(bp.os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        assert bp._thread_count() == bp._MAX_THREADS
