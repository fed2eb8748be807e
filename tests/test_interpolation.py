import math
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_acceptance import in_order_sum

from pnormdist import interpolation, profiles
from pnormdist.errors import CertificationError, SingularSystemError
from pnormdist.geometry import BLOCK_BYTES, PointSet, build_distance_matrix, pow_abs
from pnormdist.interpolation import evaluate_interpolant, fit
from pnormdist.profiles import (
    DISTANCE,
    POSITIVE_DEFINITE,
    PTH_POWER_DISTANCE,
    SQUARED_DISTANCE,
    compose,
    exponential,
    identity,
    multiquadric,
    power,
)
from pnormdist.singular import cube_config, find_pn, reduced_system

UNIT_SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]

LEAVES = [
    make(convention)
    for make in (identity, multiquadric, exponential, *(partial(power, tau) for tau in (0.5, 1, 2)))
    for convention in (DISTANCE, SQUARED_DISTANCE, PTH_POWER_DISTANCE)
]
# an outer profile keeps the distance convention, since it consumes inner's values
OUTER_LEAVES = [leaf for leaf in LEAVES if leaf.input_convention == DISTANCE]
# every catalog leaf and every depth-1 composition of two leaves
CATALOG = LEAVES + [compose(outer, inner) for outer in OUTER_LEAVES for inner in LEAVES]


class TestFit:
    def test_single_point_zero_profile_rejects_nonzero_data(self):
        with pytest.raises(SingularSystemError):
            fit([[0.0, 0.0]], [1.0], 1.5, identity())

    def test_single_point_zero_data_fits_trivially(self):
        s = fit([[0.0, 0.0]], [0.0], 1.5, identity())
        assert s.coefficients[0] == 0.0
        assert s(np.array([3.0, 4.0])) == 0.0

    def test_single_point_multiquadric(self):
        s = fit([[1.0]], [5.0], 2.0, multiquadric())
        assert s.coefficients[0] == pytest.approx(5.0)  # profile(0) = 1
        assert s(np.array([1.0])) == pytest.approx(5.0)

    def test_rejects_malformed_data(self):
        with pytest.raises(ValueError, match=re.escape("data must have shape (4,), got (3,)")):
            fit(UNIT_SQUARE, [1.0, 2.0, 3.0], 1.5)
        with pytest.raises(ValueError, match="^data values must be finite$"):
            fit(UNIT_SQUARE, [1.0, 2.0, float("nan"), 4.0], 1.5)

    def test_guaranteed_regime_random_points(self):
        rng = np.random.default_rng(31)
        x = rng.random((20, 3))
        f = rng.standard_normal(20)
        s = fit(x, f, 1.5)
        assert s.guaranteed
        A_residual = max(abs(s(xi) - fi) for xi, fi in zip(x, f))
        assert A_residual < 1e-8
        assert np.isfinite(s.condition_estimate)

    def test_more_than_500_centres(self):
        rng = np.random.default_rng(37)
        x = rng.random((501, 3))
        f = rng.standard_normal(501)
        s = fit(x, f, 1.5)
        assert s.guaranteed
        assert np.isfinite(s.condition_estimate)
        assert np.abs(s.evaluate_many(x) - f).max() < 1e-8

    def test_unit_square_1norm_is_singular(self):
        with pytest.raises(SingularSystemError) as exc_info:
            fit(UNIT_SQUARE, [1.0, 0.0, 0.0, 0.0], 1.0)
        report = exc_info.value.record
        assert report is not None
        assert report.det_sign == 0
        assert report.verdict == "AND"

    def test_failures_name_the_prediction_source(self, monkeypatch):
        source = "(catalog prediction AND: 1-norm distance matrix (sum of coordinate distance matrices))"
        with pytest.raises(SingularSystemError, match=re.escape(source)) as exc_info:
            fit(UNIT_SQUARE, [1.0, 0.0, 0.0, 0.0], 1.0)
        assert "(residual inf, condition estimate inf, verdict AND" in str(exc_info.value)
        # a residual bound below rounding turns a guaranteed fit into a breakdown
        rng = np.random.default_rng(40)
        monkeypatch.setattr(interpolation, "FIT_TOL", 1e-300)
        with pytest.raises(CertificationError) as exc_info:
            fit(rng.random((8, 2)), rng.standard_normal(8), 2.0)
        assert type(exc_info.value) is CertificationError
        assert "(catalog prediction strictly-AND: Euclidean distance matrix)" in str(exc_info.value)
        assert re.search(r"yet the solve residual is \S+ at condition estimate \S+$", str(exc_info.value))

    def test_fit_succeeds_and_det_sign_alternates_across_regime(self):
        # 200 randomized instances over p in (1, 2]: the solve always
        # succeeds and the determinant sign is (-1)^(n-1)
        rng = np.random.default_rng(32)
        ps = [1.1, 1.3, 1.5, 1.7, 2.0]
        for k in range(200):
            n = int(rng.integers(2, 13))
            d = int(rng.integers(1, 5))
            p = ps[k % len(ps)]
            x = rng.random((n, d))
            f = rng.standard_normal(n)
            s = fit(x, f, p)
            assert s.guaranteed
            from pnormdist.andmatrix import check_and
            from pnormdist.geometry import build_distance_matrix

            rep = check_and(build_distance_matrix(x, p).entries)
            assert rep.det_sign == (-1) ** (n - 1)

    @pytest.mark.parametrize(
        "rows, pair",
        [
            ([[0.0, 1.0], [0.0, 1.0], [2.0, 0.0]], (1, 2)),
            ([[0.0, 0.0], [1.0, 0.0], [2.0, 2.0], [1.0, 0.0], [0.0, 0.0]], (2, 4)),
            ([[0.0, 0.0], [1.0, -0.0], [1.0, 0.0]], (2, 3)),
        ],
    )
    def test_coincident_centres_named(self, rows, pair):
        # equal centres make two equal rows of A, so no profile and no p can fit
        data = np.arange(len(rows), dtype=float)
        for p, profile in ((1.5, identity()), (1.0, multiquadric()), (3.0, identity())):
            with pytest.raises(ValueError, match=r"^centres in rows %d and %d coincide" % pair):
                fit(rows, data, p, profile)

    def test_data_beyond_the_range_of_a_squared_norm_fits(self):
        # sum f_i^2 overflows a double here; max |f_i| does not
        f = [1e200, -1e200, 1e200]
        s = fit([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], f, 1.5)
        assert s.guaranteed
        assert math.isfinite(s.residual)
        assert s.residual <= interpolation.FIT_TOL * 1e200

    def test_zero_data_fits_with_zero_coefficients(self):
        # the bound FIT_TOL max|f| is 0 here, and the solve meets it exactly
        s = fit(UNIT_SQUARE, np.zeros(4), 1.5)
        assert s.residual == 0.0
        assert not s.coefficients.any()

    @settings(max_examples=150, deadline=None)
    @given(
        profile=st.sampled_from(CATALOG),
        p=st.sampled_from([0.5, 1.0, 1.25, 1.5, 2.0, 3.0]),
        cells=st.integers(1, 4).flatmap(
            lambda d: st.lists(
                st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=12, unique=True
            )
        ),
        on_grid=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(
        profile=identity(), p=1.5, cells=[(0, 0), (1, 0), (0, 1), (2, 2)], on_grid=True, seed=0
    )
    @example(profile=multiquadric(), p=1.5, cells=[(0,)], on_grid=False, seed=0)
    def test_residual_is_the_largest_error_at_the_centres(self, profile, p, cells, on_grid, seed):
        # integer-grid centres give exact-zero coordinate differences; the
        # matrix's upper blocks and the queries' blocks agree bit for bit on them
        rng = np.random.default_rng(seed)
        x = np.array(cells, dtype=float) if on_grid else rng.random((len(cells), len(cells[0])))
        f = rng.standard_normal(len(x))
        try:
            s = fit(x, f, p, profile)
        except CertificationError:  # SingularSystemError is one
            return
        assert s.residual == np.abs(s.evaluate_many(x) - f).max()
        assert s.residual <= interpolation.FIT_TOL * np.abs(f).max()

    def test_no_guarantee_flag_outside_regime(self):
        rng = np.random.default_rng(33)
        x = rng.random((6, 2))
        f = rng.standard_normal(6)
        s = fit(x, f, 3.0)
        assert not s.guaranteed


class TestGuarantee:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize(
        "profile",
        [multiquadric(), power(0.5), exponential(), compose(exponential(), power(0.5))],
        ids=lambda profile: profile.describe(),
    )
    def test_catalog_guarantee_beyond_identity(self, profile, p):
        rng = np.random.default_rng(38)
        assert fit(rng.random((12, 3)), rng.standard_normal(12), p, profile).guaranteed

    @settings(max_examples=300, deadline=None)
    @given(
        profile=st.sampled_from(CATALOG),
        p=st.sampled_from([0.5, 1.0, 1.25, 1.5, 2.0, 3.0]),
        cells=st.integers(1, 4).flatmap(
            lambda d: st.lists(
                st.tuples(*[st.integers(0, 20)] * d), min_size=2, max_size=10, unique=True
            )
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    # squared distances of 4 collinear points: AND, yet of rank 3
    @example(profile=identity(PTH_POWER_DISTANCE), p=2.0, cells=[(0,), (1,), (2,), (3,)], seed=0)
    def test_guarantee_shows_predicted_inertia(self, profile, p, cells, seed):
        # distinct points of the 0.05 lattice in the unit cube are at least
        # 0.05 apart in every p-norm
        x = 0.05 * np.array(cells, dtype=float)
        n = x.shape[0]
        f = np.random.default_rng(seed).standard_normal(n)
        try:
            guaranteed = fit(x, f, p, profile).guaranteed
        except SingularSystemError:
            return  # raised only where no guarantee holds
        except CertificationError:
            guaranteed = True  # a numerical breakdown of a system proven nonsingular
        if not guaranteed:
            return
        eigs = np.linalg.eigvalsh(build_distance_matrix(x, p, profile).entries)
        inertia = (int((eigs > 0).sum()), int((eigs < 0).sum()))
        if profile.family == POSITIVE_DEFINITE:
            assert inertia == (n, 0)
        else:
            assert inertia == (1, n - 1)


    def test_every_profile_maps_non_negative_arguments_to_non_negative_values(self):
        # so profile(0) >= 0 and a strictly AND matrix has a non-negative trace,
        # which `fit` relies on unchecked; a leaf kind added to the catalog
        # must be added to LEAVES, where it is checked too
        assert {leaf.kind for leaf in LEAVES} == set(profiles._PARAMETERS) - {"composition"}
        nested = [
            expr
            for a in OUTER_LEAVES
            for b in OUTER_LEAVES
            for c in LEAVES
            for expr in (compose(a, compose(b, c)), compose(compose(a, b), c))
        ]
        t = np.array([0.0, 5e-324, 1e-8, 0.5, 1.0, 2.0, 10.0, 1e3])
        for profile in CATALOG + nested:
            assert (profile(t) >= 0.0).all(), profile.describe()


class TestEvaluate:
    def test_reproduces_data_at_centers(self):
        rng = np.random.default_rng(34)
        x = rng.random((12, 2))
        f = rng.standard_normal(12)
        s = fit(x, f, 1.7)
        for xi, fi in zip(x, f):
            assert evaluate_interpolant(s, xi) == pytest.approx(fi, abs=1e-8)

    def test_zero_coefficients_evaluate_to_zero(self):
        pts = PointSet(np.array(UNIT_SQUARE))
        s = interpolation.Interpolant(
            centers=pts,
            coefficients=np.zeros(4),
            p=1.5,
            profile=identity(),
            residual=0.0,
            condition_estimate=1.0,
            guaranteed=False,
        )
        for q in ([0.3, 0.4], [2.0, -1.0]):
            assert s(np.array(q)) == 0.0

    def test_null_vector_coefficients_vanish_at_centers(self):
        # the kernel of the reduced system, spread block-constant over the
        # cube pair at its critical exponent, interpolates zero everywhere
        # on the configuration: the singular matrix statement rendered
        # through the interpolant
        root = find_pn(2)
        cfg = cube_config(2, 2, 1.0, root.value)
        (a, b), _ = reduced_system(2, 2, 1.0, root.value)
        lam, mu = np.array([b, -a]) / np.linalg.norm([b, -a])
        coeffs = np.array([lam] * 4 + [mu] * 4)
        s = interpolation.Interpolant(
            centers=cfg.points,
            coefficients=coeffs,
            p=cfg.p,
            profile=identity(),
            residual=0.0,
            condition_estimate=float("inf"),
            guaranteed=False,
        )
        for center in cfg.points.points:
            assert abs(s(center)) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 200),
        k=st.integers(0, 700),
        d=st.integers(1, 20),
        p=st.floats(0.5, 4.0, exclude_min=True),
        profile=st.sampled_from([identity(), multiquadric()]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=200, k=700, d=3, p=1.5, profile=identity(), seed=0)  # 7 query blocks
    def test_blocks_match_per_query_dot(self, n, k, d, p, profile, seed):
        rng = np.random.default_rng(seed)
        centers = rng.standard_normal((n, d))
        at_centers = min(n, k // 2)  # queries on a centre give zero differences
        queries = np.vstack([centers[:at_centers], rng.standard_normal((k - at_centers, d))])
        coeffs = rng.standard_normal(n)
        s = interpolation.Interpolant(
            centers=PointSet(centers),
            coefficients=coeffs,
            p=p,
            profile=profile,
            residual=0.0,
            condition_estimate=1.0,
            guaranteed=False,
        )
        expected = [
            np.dot(coeffs, profile.apply_to_power_sums(in_order_sum(pow_abs(centers - q, p)), p))
            for q in queries
        ]
        assert np.array_equal(s.evaluate_many(queries), np.array(expected))

    def test_dimension_mismatch_rejected(self):
        s = fit([[0.0], [1.0]], [0.0, 1.0], 1.5)
        with pytest.raises(ValueError, match="shape"):
            s(np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match=re.escape("queries must have shape (k, 1), got (3, 2)")):
            s.evaluate_many(np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_queries_rejected(self, bad):
        s = fit([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [0.0, 1.0], 1.5)
        with pytest.raises(ValueError, match="^queries must have finite coordinates$"):
            s.evaluate_many([[bad, 0.0, 0.0]])
        with pytest.raises(ValueError, match="^queries must have finite coordinates$"):
            s.evaluate_many([[0.5, 0.5, 0.5], [0.0, 0.0, bad]])
        with pytest.raises(ValueError, match="^queries must have finite coordinates$"):
            s([bad, 0.0, 0.0])

    def test_peak_memory_is_output_plus_blocks(self):
        rng = np.random.default_rng(37)
        s = interpolation.Interpolant(
            centers=PointSet(rng.random((400, 3))),
            coefficients=rng.standard_normal(400),
            p=1.5,
            profile=multiquadric(),
            residual=0.0,
            condition_estimate=1.0,
            guaranteed=False,
        )
        queries = rng.random((40_000, 3))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = s.evaluate_many(queries)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the full 40 000 x 400 sums matrix would be 122 MiB
        assert peak < out.nbytes + 4 * BLOCK_BYTES

    @pytest.mark.parametrize(
        "profile",
        [identity(), multiquadric(), exponential(), power(0.5), compose(exponential(), multiquadric())],
        ids=["identity", "multiquadric", "exponential", "power-half", "exp-o-multiquadric"],
    )
    def test_peak_memory_is_output_plus_two_blocks(self, profile):
        # one workspace of differences, the block's sums and their roots, which
        # every profile maps in place, and the previous block's arrays freed
        # before the next block is formed
        rng = np.random.default_rng(38)
        s = interpolation.Interpolant(
            centers=PointSet(rng.random((300, 3))),
            coefficients=rng.standard_normal(300),
            p=1.5,
            profile=profile,
            residual=0.0,
            condition_estimate=1.0,
            guaranteed=False,
        )
        queries = rng.random((20_000, 3))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = s.evaluate_many(queries)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 2 * BLOCK_BYTES

    def test_translation_equivariance(self):
        rng = np.random.default_rng(35)
        x = rng.random((10, 3))
        f = rng.standard_normal(10)
        shift = np.array([5.0, -2.0, 0.5])
        s = fit(x, f, 1.5)
        s_shifted = fit(x + shift, f, 1.5)
        for _ in range(5):
            q = rng.random(3)
            assert s(q) == pytest.approx(s_shifted(q + shift), abs=1e-10)
