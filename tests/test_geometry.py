import math
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_acceptance import in_order_sum, pth_power_matrix
from test_cli import assert_input_error

from pnormdist import geometry
from pnormdist.errors import InputError
from pnormdist.geometry import (
    BLOCK_BYTES,
    PointSet,
    build_distance_matrix,
    pow_abs,
    power_sum_blocks,
    read_matrix_csv,
    read_points_csv,
    write_matrix_csv,
    write_points_csv,
)
from pnormdist.interpolation import fit
from pnormdist.profiles import (
    _roots,
    compose,
    exponential,
    identity,
    matrix_from_profile,
    multiquadric,
    power,
)
from pnormdist.serialize import write_csv
from pnormdist.singular import (
    bernstein_half,
    cube_config,
    find_theta,
    phi,
    psi,
    psi_limit,
    reduced_system,
)

UNIT_SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
UNIT_SQUARE_1NORM = np.array(
    [[0.0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]
)


def gathered_distance_matrix(x, p, profile):
    """Reference assembly: all unordered pairs gathered at once, mapped, mirrored."""
    n = x.shape[0]
    iu, ju = np.triu_indices(n, 1)
    sums = pth_power_matrix(x, p)[iu, ju]
    vals = np.power(sums, 1.0 / p) if profile is None else profile.apply_to_power_sums(sums, p)
    A = np.zeros((n, n))
    A[iu, ju] = vals
    A[ju, iu] = vals
    np.fill_diagonal(A, 0.0 if profile is None else profile(0.0))
    return A


# the blocks write the diagonal: every catalog leaf, and compositions whose
# value at 0 is not exact (e^-1 for exp o multiquadric)
DIAGONAL_PROFILES = [
    None,
    identity(),
    power(0.5),
    multiquadric(),
    exponential(),
    compose(exponential(), multiquadric()),
    compose(power(0.7), multiquadric()),
    compose(exponential(), compose(multiquadric(), multiquadric())),
]


class TestPExponent:
    def test_classification_flags(self):
        # quasi-norm below 1 (the triangle inequality fails), Euclidean at 2;
        # the path 0 -> e1 -> e1 + e2 against its chord
        path = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]
        A = build_distance_matrix(path, 0.5).entries
        assert A[0, 2] > A[0, 1] + A[1, 2]
        A = build_distance_matrix(path, 1.0).entries
        assert A[0, 2] == A[0, 1] + A[1, 2]
        assert build_distance_matrix([[0.0, 0.0], [3.0, 4.0]], 2.0).entries[0, 1] == 5.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_nonpositive(self, bad, tmp_path, capsys):
        # every public function that takes p, and every CLI command that passes --p on
        square, values = np.array(UNIT_SQUARE), [1.0, 2.0, 3.0, 4.0]
        calls = {
            "build_distance_matrix": lambda: build_distance_matrix(square, bad),
            "bernstein_half": lambda: bernstein_half(3, bad),
            "psi": lambda: psi(3, bad),
            "psi_limit": lambda: psi_limit(bad),
            "phi": lambda: phi(2, 2, bad),
            "cube_config": lambda: cube_config(2, 2, 1.0, bad),
            "reduced_system": lambda: reduced_system(2, 2, 1.0, bad),
            "find_theta": lambda: find_theta(2, bad),
            "fit": lambda: fit(square, values, bad),
            "matrix_from_profile": lambda: matrix_from_profile(square, bad, multiquadric()),
        }

        def rejects(call):
            try:
                call()
            except ValueError as exc:
                return "p must be a finite positive real" in str(exc)
            return False

        assert [name for name, call in calls.items() if not rejects(call)] == []

        points, data = tmp_path / "square.csv", tmp_path / "data.csv"
        points.write_text("".join(f"{x},{y}\n" for x, y in UNIT_SQUARE))
        data.write_text("".join(f"{x},{y},{v}\n" for (x, y), v in zip(UNIT_SQUARE, values)))
        out = str(tmp_path / "out")
        for argv in (
            ["distmat", str(points), "--out", out],
            ["interp", str(data), "--query-file", str(points), "--out", out],
            ["singular-config", "--n", "3", "--out-points", out, "--out-cert", out],
        ):
            err = assert_input_error(capsys, argv + ["--p", str(bad)])
            assert "p must be a finite positive real" in err


class TestPointSet:
    def test_shape_and_distinct(self):
        pts = PointSet(np.array(UNIT_SQUARE))
        assert pts.n == 4 and pts.d == 2
        assert pts.first_coincident_pair() is None
        assert PointSet(np.array([[1.0, 2.0], [1.0, 2.0]])).first_coincident_pair() == (0, 1)

    def test_first_coincident_pair(self):
        # rows compare as floats, so a signed zero repeats an unsigned one
        assert PointSet(np.array([[0.0], [1.0], [-0.0]])).first_coincident_pair() == (0, 2)
        assert PointSet(np.array(UNIT_SQUARE)).first_coincident_pair() is None

    def test_rejects_dimension_mismatch_and_nonfinite(self):
        with pytest.raises(ValueError):
            PointSet(np.array([1.0, 2.0]))  # not 2-d
        with pytest.raises(ValueError):
            PointSet(np.array([[1.0], [float("nan")]]))
        empty = "need n >= 1 points of dimension d >= 1, got shape (0, 2)"
        with pytest.raises(ValueError, match=re.escape(empty)):
            PointSet(np.zeros((0, 2)))

    def test_immutable(self):
        pts = PointSet(np.array(UNIT_SQUARE))
        with pytest.raises(ValueError):
            pts.points[0, 0] = 5.0


# 0 or at least 1e-3 in magnitude, so that no power sum of two distinct
# points falls below the double range, which build_distance_matrix rejects
COORDINATE = st.floats(-100, 100).filter(lambda x: x == 0 or abs(x) > 1e-3)


class TestPnorm:
    """The norm properties of the p-norm distances that `build_distance_matrix` computes."""

    def test_zero_vector_is_zero(self):
        for p in (0.5, 1.0, 1.5, 2.0, 7.0):
            A = build_distance_matrix([[1.0, -2.0, 3.0], [1.0, -2.0, 3.0]], p).entries
            assert np.array_equal(A, np.zeros((2, 2)))

    def test_cross_cube_difference_vector(self):
        # difference of a unit-sphere cube vertex pair across orthogonal
        # blocks: (a, a, -b, -b, -b) with a = 2^(-1/p), b = 3^(-1/p) has
        # p-norm exactly 2^(1/p) for every p
        for p in (0.7, 1.0, 1.5, 2.0, 3.0, 7.5):
            a, b = 2.0 ** (-1.0 / p), 3.0 ** (-1.0 / p)
            pair = [[a, a, 0.0, 0.0, 0.0], [0.0, 0.0, b, b, b]]
            dist = build_distance_matrix(pair, p).entries[0, 1]
            assert dist == pytest.approx(2.0 ** (1.0 / p), rel=1e-14)

    def test_direct_evaluation(self):
        # (2 * 1^1.5)^(1/1.5) = 2^(2/3)
        dist = build_distance_matrix([[0.0, 0.0], [1.0, 1.0]], 1.5).entries[0, 1]
        assert dist == pytest.approx(2.0 ** (1.0 / 1.5), rel=1e-15)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            build_distance_matrix([[0.0, 0.0], [1.0, float("inf")]], 2.0)

    def test_full_double_range(self):
        # a power sum inside the double range gives its distance, up to the
        # rounding of exp(p ln|v|); one beyond it is rejected, not returned as inf or 0
        dist = build_distance_matrix([[-1e300], [1e300]], 1.0).entries[0, 1]
        assert dist == pytest.approx(2e300, rel=1e-12)
        for pair in ([[1e300, 0.0], [0.0, 0.0]], [[1e308, 1e308], [0.0, 0.0]]):
            with pytest.raises(ValueError, match="overflow"):
                build_distance_matrix(pair, 1.5)
        with pytest.raises(ValueError, match="below the normal double range"):
            build_distance_matrix([[1e-250, 0.0], [0.0, 0.0]], 1.5)

    @settings(max_examples=100, deadline=None)
    @given(
        v=st.lists(
            st.floats(min_value=-1e3, max_value=1e3).filter(lambda x: x == 0 or abs(x) > 1e-3),
            min_size=1,
            max_size=6,
        ),
        c=st.floats(min_value=1e-3, max_value=1e3),
        p=st.floats(min_value=1.0, max_value=4.0),
    )
    def test_absolute_homogeneity(self, v, c, p):
        pair = np.array([v, np.zeros(len(v))])
        dist = build_distance_matrix(pair, p).entries[0, 1]
        scaled = build_distance_matrix(c * pair, p).entries[0, 1]
        assert scaled == pytest.approx(c * dist, rel=1e-12, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        coords=st.lists(
            st.tuples(COORDINATE, COORDINATE, COORDINATE),
            min_size=2,
            max_size=5,
        ),
        p=st.floats(min_value=1.0, max_value=5.0),
    )
    def test_triangle_inequality_for_norms(self, coords, p):
        # three points, one coordinate per tuple: A_ik <= A_ij + A_jk for all i, j, k
        A = build_distance_matrix(np.array(coords).T, p).entries
        through = (A[:, :, None] + A[None, :, :]).min(axis=1)
        assert np.all(A <= through + 1e-9)

    def test_triangle_inequality_fails_for_quasi_norm(self):
        # ||e1 + e2||_0.5 = (1+1)^2 = 4 > 2 = ||e1|| + ||e2||
        A = build_distance_matrix([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]], 0.5).entries
        assert A[0, 2] > A[0, 1] + A[1, 2]


class TestBuildDistanceMatrix:
    def test_unit_square_1norm_exact(self):
        dm = build_distance_matrix(UNIT_SQUARE, 1.0)
        assert np.array_equal(dm.entries, UNIT_SQUARE_1NORM)

    def test_single_point(self):
        dm = build_distance_matrix([[3.0, 4.0]], 1.7)
        assert np.array_equal(dm.entries, np.zeros((1, 1)))

    def test_two_points_unit_separation(self):
        dm = build_distance_matrix([[0.0], [1.0]], 1.5)
        assert np.array_equal(dm.entries, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_bitwise_symmetry(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((17, 4))
        for p in (0.6, 1.3, 2.0, 3.5):
            A = build_distance_matrix(x, p).entries
            assert np.array_equal(A, A.T)
            assert np.all(np.diag(A) == 0.0)

    def test_permutation_permutes_rows_and_columns(self):
        rng = np.random.default_rng(4)
        x = PointSet(rng.standard_normal((9, 3)))
        perm = rng.permutation(9)
        A = build_distance_matrix(x, 1.5).entries
        B = build_distance_matrix(PointSet(x.points[perm]), 1.5).entries
        assert np.array_equal(B, A[np.ix_(perm, perm)])

    def test_translation_leaves_matrix_unchanged(self):
        rng = np.random.default_rng(5)
        x = PointSet(rng.standard_normal((8, 3)))
        shifted = PointSet(x.points + np.array([10.0, -3.0, 0.25]))
        A = build_distance_matrix(x, 1.4).entries
        B = build_distance_matrix(shifted, 1.4).entries
        assert np.allclose(A, B, rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 300),
        d=st.integers(1, 20),
        p=st.floats(0.5, 4.0, exclude_min=True),
        profile=st.sampled_from(DIAGONAL_PROFILES),
        grid=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=300, d=6, p=1.5, profile=None, grid=False, seed=0)  # 9 blocks, last partial
    @example(n=257, d=5, p=3.0, profile=multiquadric(), grid=True, seed=1)
    @example(n=1, d=3, p=1.5, profile=compose(exponential(), multiquadric()), grid=False, seed=2)
    def test_blocks_match_gathered_assembly(self, n, d, p, profile, grid, seed):
        # integer grids make coincident points and zero coordinate differences
        rng = np.random.default_rng(seed)
        x = rng.integers(-2, 3, (n, d)).astype(float) if grid else rng.standard_normal((n, d))
        A = build_distance_matrix(x, p, profile).entries
        assert np.array_equal(A, gathered_distance_matrix(x, p, profile))

    @pytest.mark.parametrize("far", [1e300, 1e-250])
    def test_distances_out_of_double_range_raise(self, far):
        with pytest.raises(ValueError, match="rescale the points"):
            build_distance_matrix([[0.0, 0.0], [far, 0.0]], 1.5)

    def test_subnormal_power_sums_raise(self):
        # squared differences near 1e-320 are subnormal and keep too few bits,
        # on 5 random points and on 200 grid points, which also coincide
        rng = np.random.default_rng(5)
        for x in (rng.random((5, 2)), rng.integers(0, 3, (200, 2)).astype(float)):
            with pytest.raises(ValueError, match="below the normal double range"):
                build_distance_matrix(x * 1e-160, 2)

    def test_peak_memory_is_output_plus_a_block(self):
        n = 3000
        x = np.random.default_rng(6).standard_normal((n, 3))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            dm = build_distance_matrix(x, 1.5)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < dm.entries.nbytes + 16 * 2**20

    def test_small_build_allocates_a_small_workspace(self):
        # the workspace is sized to the largest block used, not to BLOCK_BYTES
        x = np.random.default_rng(7).standard_normal((20, 3))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            build_distance_matrix(x, 1.5)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


def exp_log_pow_abs(v, p):
    """|v|^p by the exp/log formula with no special case for zero, and v * v at p = 2."""
    with np.errstate(divide="ignore", over="ignore"):
        if p == 2.0:
            return v * v
        return np.exp(p * np.log(np.abs(v)))


def correctly_rounded_square(v):
    """The double nearest v^2, subnormals and inf included, rounded from mpmath's exact square."""
    with mpmath.workprec(120):  # 106 bits hold the square of a double exactly
        x = mpmath.mpf(v) ** 2
        if x < mpmath.mpf(2) ** -1022:  # a multiple of the smallest subnormal, 2^-1074
            return float(mpmath.nint(x * mpmath.mpf(2) ** 1074)) * 2.0**-1074
        with mpmath.workprec(53):
            x = +x  # rounded to nearest at 53 bits
        return float(x) if x < mpmath.mpf(2) ** 1024 else math.inf


# exact zeros of either sign, subnormals, magnitudes near the double-range
# edge and ordinary ones, of either sign
POW_ABS_ENTRY = st.builds(
    lambda magnitude, negative: -magnitude if negative else magnitude,
    st.one_of(
        st.just(0.0),
        st.floats(5e-324, 2.2250738585072014e-308),
        st.floats(1e300, 1.7976931348623157e308),
        st.floats(1e-300, 1e300),
    ),
    st.booleans(),
)


class TestPowAbs:
    @settings(max_examples=200, deadline=None)
    @given(
        v=arrays(
            np.float64,
            st.one_of(
                st.just((0,)),
                st.tuples(st.integers(1, 40)),
                st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 6)),
            ),
            elements=POW_ABS_ENTRY,
        ),
        p=st.floats(0.0, 1100.0, exclude_min=True),
    )
    @example(v=np.array([0.5, -3.0, 5e-324, -1e308]), p=2.5)  # no zero
    @example(v=np.array([0.0, -0.0, 0.0]), p=1.5)  # only zeros
    @example(v=np.array([[[0.0, -2.0, 1e-310], [-0.0, 7.0, 0.0]]]), p=17.5)
    def test_bitwise_equal_to_exp_log(self, v, p):
        # a zero of either sign gives +0.0, the exp(-inf) of the formula
        got = pow_abs(v, p)
        assert got.shape == v.shape
        assert np.array_equal(got.view(np.uint64), exp_log_pow_abs(v, p).view(np.uint64))

    @settings(max_examples=200, deadline=None)
    @given(
        v=arrays(
            np.float64,
            st.integers(1, 20),
            # beside POW_ABS_ENTRY, magnitudes whose squares are subnormal
            elements=st.one_of(POW_ABS_ENTRY, st.floats(-1.5e-154, 1.5e-154)),
        )
    )
    # subnormal squares, 0 from a subnormal, the largest finite square (2^512 less an ulp)
    @example(v=np.array([0.0, -0.0, 5e-324, -1.5e-160, 1e-155, 1.3407807929942596e154]))
    @example(v=np.array([-1.3407807929942597e154, 1e200, -1.7976931348623157e308]))  # inf
    def test_square_at_p_2_is_correctly_rounded(self, v):
        # a zero of either sign gives +0.0, and a square beyond the double
        # range gives inf with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pow_abs(v, 2.0)
        expected = [correctly_rounded_square(float(x)) for x in v]
        assert np.array_equal(got.view(np.uint64), np.array(expected).view(np.uint64))


class TestRoots:
    EDGES = [0.0, 5e-324, 2.2250738585072014e-308, 1.0, 2.0, 1.7976931348623157e308, np.inf]

    @pytest.mark.parametrize("p, squared", [(2.0, False), (4.0, True)])
    def test_square_root_is_bitwise_power_one_half(self, p, squared):
        # the exponent 1/2 takes np.sqrt, which must give power's bits
        rng = np.random.default_rng(8)
        bits = rng.integers(0, np.float64(np.inf).view(np.int64), 200_000)
        s = np.concatenate([self.EDGES, bits.view(np.float64), rng.random(1000) * 1e3])
        got = _roots(s, p, squared)
        assert np.array_equal(got.view(np.uint64), np.power(s, 0.5).view(np.uint64))
        assert np.array_equal(got.view(np.uint64), np.sqrt(s).view(np.uint64))


def assert_upper_blocks_fill(x, p):
    """The upper blocks of x cover its rows in order, each block's differences
    fit BLOCK_BYTES unless it is one row, and all but the last fill more than
    half of it; returns the block count."""
    n, d = x.shape
    blocks = [(start, stop) for start, stop, _ in power_sum_blocks(x, None, p)]
    assert [start for start, _ in blocks] == [0] + [stop for _, stop in blocks[:-1]]
    assert blocks[-1][1] == n
    for k, (start, stop) in enumerate(blocks):
        nbytes = (stop - start) * (n - start) * d * 8
        assert nbytes <= BLOCK_BYTES or stop - start == 1
        if k < len(blocks) - 1:
            assert nbytes > BLOCK_BYTES // 2
    return len(blocks)


class TestPowerSumBlocks:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 300), d=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
    @example(n=300, d=300, seed=0)  # the first 82 rows take one block each
    def test_upper_blocks_sized_to_remaining_columns(self, n, d, seed):
        assert_upper_blocks_fill(np.random.default_rng(seed).standard_normal((n, d)), 1.5)

    def test_theta_cube_pair_blocks(self):
        # 1024 points in R^18; blocks sized to all n columns made 342
        p = 3.0
        x = cube_config(9, 9, theta=find_theta(9, p).value, p=p).points.points
        assert assert_upper_blocks_fill(x, p) <= 170

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 60),
        m=st.integers(1, 60),
        d=st.integers(1, 300),
        p=st.floats(0.5, 4.0, exclude_min=True),
        grid=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # numpy's own sum over coordinates is sequential below d = 8, runs on
    # eight accumulators up to d = 128 and splits in two beyond; the kernel's
    # stays in index order on either side of each threshold
    @example(n=5, m=4, d=7, p=1.5, grid=False, seed=0)
    @example(n=5, m=4, d=8, p=1.5, grid=False, seed=0)
    @example(n=5, m=4, d=9, p=0.7, grid=True, seed=1)
    @example(n=6, m=7, d=16, p=3.0, grid=False, seed=2)
    @example(n=9, m=9, d=18, p=2.25, grid=True, seed=3)
    @example(n=4, m=3, d=128, p=1.25, grid=False, seed=4)
    @example(n=25, m=50, d=129, p=1.75, grid=False, seed=5)  # 3 blocks, last partial
    @example(n=23, m=60, d=200, p=1.5, grid=False, seed=6)  # 5 blocks, last partial
    @example(n=1, m=1, d=37, p=1.5, grid=False, seed=7)  # numpy's axis-0 sum is pairwise here
    @example(n=8, m=9, d=3, p=2.0, grid=True, seed=8)  # squares, zero differences among them
    @example(n=300, m=300, d=1, p=1.5, grid=False, seed=9)  # 2 blocks kept, one plane each
    def test_bitwise_equal_to_in_order_sum(self, n, m, d, p, grid, seed):
        rng = np.random.default_rng(seed)

        def draw(k):
            if grid:  # coincident coordinates give zero differences
                return rng.integers(-2, 3, (k, d)).astype(float)
            return rng.standard_normal((k, d))

        a, b = draw(n), draw(m)
        expected = in_order_sum(pow_abs(a[:, None, :] - b[None, :, :], p))
        blocks = list(power_sum_blocks(a, b, p))
        assert [start for start, _, _ in blocks] == [0] + [stop for _, stop, _ in blocks[:-1]]
        assert blocks[-1][1] == n
        assert np.array_equal(np.vstack([sums for _, _, sums in blocks]), expected)

        expected = in_order_sum(pow_abs(a[:, None, :] - a[None, :, :], p))
        iu, ju = np.triu_indices(n)
        upper = np.zeros((n, n))
        for start, stop, sums in power_sum_blocks(a, None, p):
            assert sums.shape == (stop - start, n - start)
            upper[start:stop, start:] = sums
        assert np.array_equal(upper[iu, ju], expected[iu, ju])

    # zeros, subnormals, the least normal, and magnitudes whose powers leave
    # the double range at some p
    EDGES = [0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1.0, 1e154, 1e300]

    @pytest.mark.parametrize("upper", [True, False], ids=["upper", "query"])
    @pytest.mark.parametrize("p", [0.5, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("edges", [EDGES, EDGES[:5]], ids=["all-edges", "no-large"])
    def test_edge_differences_keep_the_subtraction_bits(self, upper, p, edges):
        # every coordinate difference is formed as [a, 1] . [1, -b]; its bits
        # must be those of a - b, and the sums those of the in-order reference,
        # or both must be rejected with the same error
        values = np.array([sign * e for e in edges for sign in (1.0, -1.0)])
        compared = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)

            def draw(k):  # one block: each row is a few edges and normal values
                x = rng.choice(values, (k, 3))
                return np.where(rng.random((k, 3)) < 0.5, x, rng.standard_normal((k, 3)))

            a = draw(7)
            b = None if upper else draw(5)
            expected, error = reference_power_sums(a, b, p)
            if error:
                with pytest.raises(ValueError, match=error):
                    list(power_sum_blocks(a, b, p))
                continue
            ((start, stop, sums),) = power_sum_blocks(a, b, p)
            assert (start, stop) == (0, 7)
            assert np.array_equal(sums.view(np.uint64), expected.view(np.uint64))
            compared += 1
        assert compared > 0 or edges is self.EDGES and p > 0.5

    @pytest.mark.parametrize("upper", [True, False], ids=["upper", "query"])
    def test_subnormal_difference_beside_zero_differences(self, upper):
        # (5e-324)^0.5 is about 2.2e-162, a normal sum; a product form whose
        # BLAS flushed the subnormal to zero would make these distinct rows
        # coincide and the kernel reject them
        a = np.array([[5e-324, 1.0, -2.0], [0.0, 1.0, -2.0]])
        b = None if upper else a[::-1].copy()
        expected, error = reference_power_sums(a, b, 0.5)
        assert error is None
        ((_, _, sums),) = power_sum_blocks(a, b, 0.5)
        assert np.array_equal(sums.view(np.uint64), expected.view(np.uint64))
        assert sums.max() == pytest.approx(2.2227587494850775e-162, rel=1e-15)

    @pytest.mark.parametrize("upper", [True, False], ids=["upper", "query"])
    def test_overflowing_differences_raise_without_a_warning(self, upper):
        # 1e308 - (-1e308) overflows; the sums check rejects it, and forming
        # the difference must not warn first (a traceback under -W error)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"overflow a double at p = 1\.5; rescale"):
                if upper:
                    build_distance_matrix([[1e308, 0.0], [-1e308, 0.0], [0.0, 1.0]], 1.5)
                else:
                    fit([[-1e308]], [5.0], 1.5, multiquadric()).evaluate_many([[1e308]])


def reference_power_sums(a, b, p):
    """The in-order sums of pow_abs(a_i - b_j) with b=None meaning a, and the
    error fragment `power_sum_blocks` raises for them in one block, or None."""
    b = a if b is None else b
    with np.errstate(over="ignore"):
        sums = in_order_sum(pow_abs(a[:, None] - b[None], p))
    if not sums.max() < np.inf:
        return sums, f"overflow a double at p = {p:g}"
    distinct = (a[:, None] != b[None]).any(axis=2)
    if (distinct & (sums < np.finfo(float).tiny)).any():
        return sums, "below the normal double range"
    return sums, None


class TestCsv:
    def test_points_round_trip(self, tmp_path):
        path = tmp_path / "pts.csv"
        rng = np.random.default_rng(6)
        pts = PointSet(rng.standard_normal((5, 3)))
        write_points_csv(path, pts)
        back = read_points_csv(path)
        assert np.array_equal(back.points, pts.points)

    def test_matrix_round_trip(self, tmp_path):
        path = tmp_path / "mat.csv"
        A = build_distance_matrix(UNIT_SQUARE, 1.0).entries
        write_matrix_csv(path, A)
        assert np.array_equal(read_matrix_csv(path), A)

    def test_write_peak_is_bounded(self, tmp_path):
        # 200 000 x 3 points are 14 MB of text; the writer holds the points'
        # copy (4.8 MB) and one block of formatted rows, never the whole text
        x = np.random.default_rng(7).standard_normal((200_000, 3))
        path = tmp_path / "pts.csv"
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write_points_csv(path, x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert np.array_equal(read_points_csv(path).points, x)

    def test_header_over_rows_and_over_no_rows(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(path, [[2, 0.1, -np.inf]], ["n", "x", "y"])
        assert path.read_bytes() == b"n,x,y\n2,0.10000000000000001,-inf\n"
        write_csv(path, [], ["p", "psi_2"])
        assert path.read_bytes() == b"p,psi_2\n"

    def test_malformed_cell_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n1.0,oops\n")
        with pytest.raises(InputError, match=r"bad\.csv:2"):
            read_points_csv(path)

    # loadtxt parses each of these to inf or nan; only the finiteness check
    # sends them on to the reader that names the line and column
    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "Infinity", "1e309"])
    def test_non_finite_cell_reports_line(self, tmp_path, cell):
        path = tmp_path / "mat.csv"
        path.write_text(f"0,1\n1,{cell}\n")
        with pytest.raises(InputError) as info:
            read_matrix_csv(path)
        assert str(info.value) == f"{path}:2: column 2: not a finite number: {cell!r}"

    @pytest.mark.parametrize("read", [read_points_csv, read_matrix_csv])
    @pytest.mark.parametrize(
        "data, byte, offset",
        [(b"\xff\xfe1,2\n", 0xFF, 0), (b"1,2\n" * 3000 + b"3,\xe94\n", 0xE9, 12002)],
        ids=["first-byte", "past-8-kib"],
    )
    def test_non_utf8_file_reports_path_and_offset(self, tmp_path, read, data, byte, offset):
        # the second bad byte lies past the first 8 KiB a text-mode read decodes at once
        path = tmp_path / "latin1.csv"
        path.write_bytes(data)
        with pytest.raises(InputError) as info:
            read(path)
        assert str(info.value) == f"{path}: not UTF-8 text: byte 0x{byte:02x} at offset {offset}"

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n1.0\n")
        with pytest.raises(InputError, match=r"ragged\.csv:2"):
            read_points_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        # loadtxt returns shape (0, 1) for the first two, with a UserWarning
        # that must not escape: under -W error it would replace the InputError
        path = tmp_path / "empty.csv"
        for text in ["", "\n\n", "  \n\t\n", ",\n , \n"]:
            path.write_text(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InputError) as info:
                    read_points_csv(path)
            assert str(info.value) == f"{path}: no data rows"

    def test_nonsquare_matrix_rejected(self, tmp_path):
        path = tmp_path / "rect.csv"
        path.write_text("1.0,2.0\n")
        with pytest.raises(InputError, match="square"):
            read_matrix_csv(path)

    def test_comment_line_is_a_malformed_row(self, tmp_path):
        # comments=None: loadtxt would otherwise skip the '#' line silently
        path = tmp_path / "hash.csv"
        path.write_text("0,1\n# 1,0\n1,0\n")
        with pytest.raises(InputError) as info:
            read_matrix_csv(path)
        assert str(info.value) == f"{path}:2: column 1: not a number: '# 1'"

    @pytest.mark.parametrize(
        "text, rows",
        [
            ("1,2\n   \n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),  # whitespace-only line
            ("1,2\n,\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),  # a row of empty cells
            ('"1",2\n3," 4 "\n', [[1.0, 2.0], [3.0, 4.0]]),  # quoted cells
            ("1_0,2\n", [[10.0, 2.0]]),  # float() takes underscores between digits
            ("\u0661,\uff12\n", [[1.0, 2.0]]),  # Arabic-Indic and fullwidth digits
        ],
    )
    def test_inputs_only_the_row_reader_accepts(self, tmp_path, text, rows):
        path = tmp_path / "pts.csv"
        path.write_text(text, encoding="utf-8")
        assert np.array_equal(read_points_csv(path).points, rows)

    def test_well_formed_file_is_read_in_one_parse(self, tmp_path, monkeypatch):
        path = tmp_path / "pts.csv"
        rng = np.random.default_rng(15)
        pts = rng.standard_normal((50, 3)) * np.logspace(-300, 300, 50)[:, None]
        write_points_csv(path, pts)

        def refuse(path):
            raise AssertionError("a well-formed file reached the row reader")

        monkeypatch.setattr(geometry, "_read_rows", refuse)
        assert read_points_csv(path).points.tobytes() == pts.tobytes()


# cells for the agreement property: numbers as the writers and people write
# them, and every form on which np.loadtxt and float() disagree or that the
# row reader rejects
CSV_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(width=64).map(lambda v: format(v, ".17g")),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(
        ["", " ", "nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1e309", "-1e309",
         "5e-324", "4.9e-324", "2.2250738585072014e-308", "1e-400", "-0", "+.5", "5.",
         "1_0", "1__0", "_1", '"1"', '"2.5"', '"1', "'1'", " 3 ", "\t4", "#1", "0x10",
         "1d5", "1e", "1j", "\u0661", "\uff12", "\u00a01", "True"]
    ),
)


@st.composite
def csv_texts(draw):
    """Rows of cells, mostly of one width, joined by one line ending."""
    width = draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.one_of(
                st.lists(CSV_CELLS, min_size=width, max_size=width),
                st.lists(CSV_CELLS, max_size=5),
            ),
            max_size=6,
        )
    )
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(",".join(row) for row in rows)
    return text + newline if draw(st.booleans()) else text


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


def read_outcome(read, path):
    """The array `read` returns, or the type and text of what it raises."""
    try:
        return read(path)
    except Exception as exc:
        return type(exc), str(exc)


class TestCsvReadersAgree:
    @settings(max_examples=400, deadline=None)
    @given(text=csv_texts())
    @example(text="1,2\n3,4\n")
    @example(text="1,nan\n")
    @example(text="1e309\n")
    @example(text="\n\n")
    @example(text="1,2\n   \n")
    @example(text="1_0\n")
    @example(text="1,2\n3\n")
    # cells longer than csv's default field size limit (131072 characters):
    # a quoted cell sends the file to the row reader, where 200 000 digits
    # overflow, and a finite one that np.loadtxt parses
    @example(text='"1",' + "1" * 200_000 + "\n2,3\n")
    @example(text="0." + "1" * 200_000 + ",1\n2,3\n")
    def test_one_parse_returns_what_the_row_reader_returns(self, csv_dir, text):
        path = csv_dir / "cells.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        fast = read_outcome(geometry._read_array, path)
        rows = read_outcome(lambda path: np.array(geometry._read_rows(path)), path)
        if isinstance(rows, tuple):
            assert fast == rows
        else:
            assert isinstance(fast, np.ndarray)
            assert (fast.dtype, fast.shape) == (rows.dtype, rows.shape)
            assert fast.tobytes() == rows.tobytes()
