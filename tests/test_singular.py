import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from pnormdist import singular
from pnormdist.errors import CertificationError
from pnormdist.geometry import PointSet, build_distance_matrix
from pnormdist.singular import (
    bernstein_half,
    certify_singular,
    cube_config,
    find_pmn,
    find_pn,
    find_theta,
    phi,
    psi,
    psi_limit,
    rate_table,
    reduced_system,
)

# roots computed independently with 40-digit arithmetic (mpmath findroot on
# the same closed-form functions); p2 also has the closed form
# ln 2 / ln((1 + sqrt 17)/4) from the quadratic x^2 - x/2 - 1 = 0 in x = 2^(1/p)
P2_CLOSED = math.log(2.0) / math.log((1.0 + math.sqrt(17.0)) / 4.0)
P2_HIPREC = 2.80097422586519505348609248428
P3_HIPREC = 2.32432743302411988968739582373
P23_HIPREC = 2.52535900523540198232086065491
THETA_2_AT_3 = 0.764030898757770947510858566773


def svd_ratio(cfg):
    """sigma_min / sigma_max of the config's full distance matrix: the reference."""
    svals = np.linalg.svd(build_distance_matrix(cfg.points, cfg.p).entries, compute_uv=False)
    return svals[-1] / svals[0]


def brute_vertex_psum(k, p):
    """Enumerate all 2^k vertices of [0,1]^k and sum their p-norms."""
    total = 0.0
    for v in itertools.product((0.0, 1.0), repeat=k):
        s = sum(c**p for c in v)
        if s > 0:
            total += s ** (1.0 / p)
    return total


class TestBernsteinHalf:
    def test_degree_one_is_half(self):
        for p in (0.5, 1.0, 2.0, 4.0):
            assert bernstein_half(1, p) == 0.5

    def test_degree_two_euclidean(self):
        assert bernstein_half(2, 2.0) == pytest.approx((1.0 + math.sqrt(2.0)) / 4.0, rel=1e-15)

    @pytest.mark.parametrize("i,p", [(10, 2.0), (7, 1.3), (12, 3.0)])
    def test_matches_brute_force_vertex_sums(self, i, p):
        # scaling: sum over [0,1]^i vertices of ||x||_p equals
        # 2^i * i^(1/p) * B_i(t -> t^(1/p), 1/2)
        brute = brute_vertex_psum(i, p)
        assert bernstein_half(i, p) == pytest.approx(
            brute * i ** (-1.0 / p) / 2.0**i, rel=1e-13
        )

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            bernstein_half(0, 2.0)

    def test_rejects_degree_beyond_cap(self):
        with pytest.raises(ValueError):
            bernstein_half(51, 2.0)


def outcome(call):
    """call()'s value as an array, or the type and text of what it raised."""
    try:
        return np.asarray(call())
    except (ArithmeticError, ValueError) as exc:
        return (type(exc), str(exc))


def same_outcome(a, b):
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    return a.shape == b.shape and bool(np.all(a == b))  # bit for bit: no nan is reached


# p near 2, in (0, 1) down to subnormals, and up to 1e4; 1/p = 2, 1 and 0.5
# are the exponents np.power special-cases
P_VALUES = st.one_of(
    st.sampled_from([0.5, 1.0, 2.0]),
    st.floats(2.0 - 1e-6, 2.0 + 1e-6),
    st.floats(0.0, 1.0, exclude_min=True),
    st.floats(1.0, 1e4),
)


class TestGridEvaluation:
    """An array of p gives exactly the float calls, one per element."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 50), ps=st.lists(P_VALUES, min_size=1, max_size=40))
    def test_array_equals_scalar_calls_bitwise(self, n, ps):
        grid = np.array(ps)
        for f in (psi, bernstein_half):
            assert same_outcome(outcome(lambda: f(n, grid)), outcome(lambda: [f(n, p) for p in ps]))

    @pytest.mark.parametrize("n", range(1, 51))
    def test_special_cased_exponents_match_scalar_calls(self, n):
        # np.power broadcast over 3 or more rows skips the shortcut, and is then an ulp
        # off at degrees 3, 5, 6, 27, 43 and 50
        ps = [2.0, 1.0, 0.5, 3.0] * 3
        for f in (psi, bernstein_half):
            assert np.array_equal(f(n, np.array(ps)), [f(n, p) for p in ps])

    def test_array_result_type_and_shape(self):
        assert isinstance(psi(3, 2.5), float)
        values = psi(3, np.array([2.5, 3.0]))
        assert isinstance(values, np.ndarray) and values.shape == (2,)
        assert psi(3, np.array([])).shape == (0,)

    def test_chunks_match_a_single_chunk(self, monkeypatch):
        grid = 2.0 + 0.001 * np.arange(4001)
        whole = {n: (psi(n, grid), bernstein_half(n, grid)) for n in (2, 7, 50)}
        monkeypatch.setattr(singular, "BLOCK_BYTES", 8 * 50 * 7)  # 7 rows at degree 50
        for n, (psi_whole, b_whole) in whole.items():
            assert len(grid) > singular.BLOCK_BYTES // (8 * n)  # several chunks
            assert np.array_equal(psi(n, grid), psi_whole)
            assert np.array_equal(bernstein_half(n, grid), b_whole)

    def test_p_checked_before_degree_in_psi(self):
        with pytest.raises(ValueError, match=r"^p must be a finite positive real, got -1.0$"):
            psi(51, np.array([-1.0, 2.0]))
        with pytest.raises(ValueError, match=r"^degree must be in \[1, 50\], got 51$"):
            psi(51, np.array([2.0, 3.0]))

    def test_first_bad_p_named(self):
        with pytest.raises(ValueError, match=r"got nan$"):
            psi(2, np.array([2.0, math.nan, -1.0]))

    def test_two_dimensional_p_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            psi(2, np.ones((2, 2)))


def vertex_psum(k, p):
    """Sum of ||x||_p over the 2^k vertices of [0,1]^k, through bernstein_half.

    Grouping the vertices by their number l of unit coordinates gives
    sum_l C(k,l) l^(1/p) = 2^k * k^(1/p) * B_k(t -> t^(1/p), 1/2).
    """
    return 2.0**k * k ** (1.0 / p) * bernstein_half(k, p)


class TestVertexPsum:
    """Closed-form vertex p-norm sums, checked through bernstein_half."""

    def test_square_1norm(self):
        # vertices of [0,1]^2 have 1-norms {0, 1, 1, 2}
        assert vertex_psum(2, 1.0) == pytest.approx(4.0, rel=1e-15)
        assert brute_vertex_psum(2, 1.0) == pytest.approx(4.0)

    def test_interval(self):
        for p in (0.5, 1.0, 3.0):
            assert vertex_psum(1, p) == 1.0

    def test_cube_euclidean(self):
        expected = 3.0 + 3.0 * math.sqrt(2.0) + math.sqrt(3.0)
        assert vertex_psum(3, 2.0) == pytest.approx(expected, rel=1e-15)
        assert brute_vertex_psum(3, 2.0) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_bridge_identity(self, k):
        # enumerated vertex sums times k^(-1/p) = 2^k * B_k(t -> t^(1/p), 1/2)
        for p in (0.7, 1.5, 2.0, 3.1):
            assert brute_vertex_psum(k, p) * k ** (-1.0 / p) == pytest.approx(
                2.0**k * bernstein_half(k, p), rel=1e-13
            )


class TestPsiPhi:
    def test_limit_function_vanishes_at_two(self):
        assert psi_limit(2.0) == 0.0
        assert psi_limit(3.0) > 0.0 > psi_limit(1.5)

    def test_psi2_at_two(self):
        assert psi(2, 2.0) == pytest.approx((1.0 - math.sqrt(2.0)) / 2.0, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_large_p_limit(self, n):
        assert psi(n, 1e6) == pytest.approx(1.0 - 2.0 ** (1 - n), abs=1e-5)

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_factorization(self, n):
        for p in (1.3, 2.0, 2.7, 5.0):
            lhs = phi(n, n, p)
            rhs = (2.0 * bernstein_half(n, p) + 2.0 ** (1.0 / p)) * psi(n, p)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)

    def test_psi_increasing_in_n(self):
        for p in (2.1, 2.5, 3.0, 6.0):
            vals = [psi(n, p) for n in range(1, 9)]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_psi_increasing_in_p(self):
        grid = np.linspace(1.1, 10.0, 40)
        for n in (1, 2, 5, 10):
            vals = [psi(n, q) for q in grid]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_pointwise_convergence_to_limit(self):
        for p in (2.1, 2.5, 3.0):
            assert abs(psi(40, p) - psi_limit(p)) < abs(psi(10, p) - psi_limit(p))

    @pytest.mark.parametrize("p", [9.7e-4, 1e-300, 5e-324])
    def test_powers_beyond_double_range_raise_naming_p(self, p):
        # 2^(1/p) and (1 + theta^p)^(k/p) overflow once 1/p >= 1024, and 1/p is
        # inf for subnormal p
        for call in (
            lambda: psi(2, p),
            lambda: psi(2, np.array([2.0, p, 3.0])),
            lambda: psi_limit(p),
            lambda: phi(2, 2, p),
            lambda: reduced_system(2, 2, 1.0, p),
        ):
            with pytest.raises(ValueError, match=re.escape(f"overflows a double at p = {p!r}")):
                call()

    def test_theta_power_beyond_double_range_names_theta(self):
        for call in (lambda: phi(2, 2, 400.0, 10.0), lambda: reduced_system(2, 2, 10.0, 400.0)):
            with pytest.raises(ValueError, match=r"at p = 400.0, theta = 10.0$"):
                call()

    def test_finite_powers_keep_their_bits(self):
        p = 2e-3  # 2^500 and (1 + theta^p)^1000 <= 2^1000 are still doubles
        assert psi(2, p) == 2.0 * bernstein_half(2, p) - 2.0 ** (1.0 / p)
        assert psi_limit(p) == 2.0 ** (1.0 - 1.0 / p) - 2.0 ** (1.0 / p)
        assert phi(2, 3, p, 0.5) == 4.0 * 0.5 * bernstein_half(2, p) * bernstein_half(3, p) - (
            1.0 + 0.5**p
        ) ** (2.0 / p)


class TestCubeConfig:
    def test_two_three_example(self):
        p = 2.6
        cfg = cube_config(2, 3, 1.0, p)
        a, b = 2.0 ** (-1.0 / p), 3.0 ** (-1.0 / p)
        first = cfg.points.points[: 2**cfg.m]
        second = cfg.points.points[2**cfg.m :]
        assert first.shape == (4, 5) and second.shape == (8, 5)
        assert np.all(np.abs(np.abs(first[:, :2]) - a) < 1e-15)
        assert np.all(first[:, 2:] == 0.0)
        assert np.all(second[:, :2] == 0.0)
        assert np.all(np.abs(np.abs(second[:, 2:]) - b) < 1e-15)
        assert {tuple(np.sign(r[:2])) for r in first} == set(
            itertools.product((-1.0, 1.0), repeat=2)
        )

    def test_minimal_cross_distances(self):
        cfg = cube_config(1, 1, 1.0, 3.0)
        pts = cfg.points.points
        assert pts.shape == (4, 2)
        cross = cdist(pts[:2], pts[2:], "minkowski", p=3.0)
        assert cross == pytest.approx(np.full((2, 2), 2.0 ** (1.0 / 3.0)), rel=1e-14)

    def test_within_cube_sums_match_closed_form(self):
        p, m = 2.4, 3
        cfg = cube_config(m, 2, 1.0, p)
        first = cfg.points.points[: 2**cfg.m]
        expected = 2.0 * sum(
            math.comb(m, k) * (k / m) ** (1.0 / p) for k in range(m + 1)
        )
        totals = cdist(first, first, "minkowski", p=p).sum(axis=1)
        assert totals == pytest.approx(np.full(len(first), expected), rel=1e-12)

    def test_scaled_cube_distinct_and_sized(self):
        cfg = cube_config(2, 2, 0.5, 4.0)
        assert cfg.points.first_coincident_pair() is None
        assert cfg.points.n == 8

    def test_side_cap(self):
        with pytest.raises(ValueError, match=r"\[1, 12\]"):
            cube_config(13, 2, 1.0, 3.0)

    def test_underflowing_half_width_raises_value_error(self):
        # 12^(-1/0.001) = 12^-1000 underflows to 0, so the first cube collapses
        with pytest.raises(ValueError, match="coincident"):
            cube_config(12, 2, 1.0, 0.001)


def scaled_det(m, n, theta, p):
    """det(reduced_system(m, n, theta, p)) / 2^(m+n), from the 2x2 cofactors."""
    (a, b), (c, d) = reduced_system(m, n, theta, p)
    return (a * d - b * c) * 2.0 ** (-(m + n))


class TestReducedSystem:
    def test_symmetric_when_equal_sides(self):
        rs = reduced_system(3, 3, 1.0, 2.5)
        assert rs.shape == (2, 2)
        assert rs[0, 1] == rs[1, 0]

    def test_hand_values_m2_n2_p2(self):
        rs = reduced_system(2, 2, 1.0, 2.0)
        diag = 2.0 * (1.0 + math.sqrt(2.0))
        off = 4.0 * math.sqrt(2.0)
        assert np.allclose(rs, [[diag, off], [off, diag]], rtol=1e-15)
        assert np.linalg.det(rs) == pytest.approx(8.0 * math.sqrt(2.0) - 20.0, rel=1e-14)
        assert scaled_det(2, 2, 1.0, 2.0) == pytest.approx(phi(2, 2, 2.0), rel=1e-12)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (4, 2), (5, 5)])
    def test_scaled_det_equals_phi(self, m, n):
        for p in (2.2, 2.8, 3.5):
            assert scaled_det(m, n, 1.0, p) == pytest.approx(phi(m, n, p), rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_scaled_det_equals_phi_scaled(self, n):
        for theta in (0.3, 0.75, 1.0):
            for p in (2.3, 3.0):
                assert scaled_det(n, n, theta, p) == pytest.approx(
                    phi(n, n, p, theta), rel=1e-12, abs=1e-13
                )

    def test_general_theta_reduction_faithfulness(self):
        # m != n with theta != 1: scaled determinant matches the analytic form
        for m, n, theta, p in [(2, 3, 0.6, 2.7), (3, 4, 0.9, 3.2)]:
            expected = 4.0 * theta * bernstein_half(m, p) * bernstein_half(n, p) - (
                1.0 + theta**p
            ) ** (2.0 / p)
            assert scaled_det(m, n, theta, p) == pytest.approx(expected, rel=1e-12)

    def test_theta_to_zero_limit_is_negative(self):
        # scaled determinant tends to -(1+0)^(2/p) = -1
        for n in (2, 4):
            assert scaled_det(n, n, 1e-9, 3.0) == pytest.approx(-1.0, abs=1e-6)

    def test_kernel_solves_system(self):
        # the null vector certify_singular spreads over the cubes: (b, -a) / ||(b, -a)||
        rs = reduced_system(2, 2, 1.0, find_pn(2).value)
        (a, b), _ = rs
        assert np.abs(rs @ (np.array([b, -a]) / np.linalg.norm([b, -a]))).max() < 1e-12


@pytest.mark.parametrize("theta", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda t: phi(2, 2, 3.0, t),
        lambda t: reduced_system(2, 2, t, 3.0),
        lambda t: cube_config(2, 2, t, 3.0),
    ],
    ids=["phi", "reduced_system", "cube_config"],
)
def test_theta_must_be_finite_and_positive(call, theta):
    # nan and inf get past a `theta <= 0` test, into nan/inf results or an
    # error about an underflowing half-width
    with pytest.raises(ValueError, match="theta must be a finite positive real"):
        call(theta)


class TestFindPn:
    def test_p2_closed_form(self):
        root = find_pn(2)
        assert root.value == pytest.approx(P2_CLOSED, abs=1e-10)
        assert root.value == pytest.approx(P2_HIPREC, abs=1e-13)
        assert root.residual < 1e-13
        assert root.bracket[0] < root.value < root.bracket[1]

    def test_p3_high_precision(self):
        root = find_pn(3)
        assert root.value == pytest.approx(P3_HIPREC, abs=1e-12)
        assert 2.0 < root.value < P2_HIPREC
        assert root.residual < 1e-13

    def test_sequence_strictly_decreasing_toward_two(self):
        values = [find_pn(n).value for n in range(2, 21)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > 2.0 for v in values)
        assert values[-1] < 2.05

    def test_rejects_n1_with_limit_message(self):
        with pytest.raises(ValueError, match=r"1 - 2\^\(1-n\) = 0"):
            find_pn(1)

    def test_fixed_bracket_changes_sign_for_every_degree(self):
        for n in range(2, singular.MAX_BERNSTEIN_DEGREE + 1):
            assert psi(n, 2.0 + 1e-9) < 0.0 < psi(n, 4.0), n


class TestFindPmn:
    def test_equal_sides_delegates(self):
        assert find_pmn(3, 3).value == find_pn(3).value

    def test_p23_bracketed_and_precise(self):
        root = find_pmn(2, 3)
        assert root.value == pytest.approx(P23_HIPREC, abs=1e-12)
        assert root.residual < 1e-13
        assert find_pn(3).value < root.value < find_pn(2).value

    def test_symmetry_in_arguments(self):
        assert find_pmn(2, 4).value == pytest.approx(find_pmn(4, 2).value, abs=1e-14)

    def test_ordering_chain(self):
        p2, p23, p3 = find_pn(2).value, find_pmn(2, 3).value, find_pn(3).value
        assert p2 > p23 > p3

    def test_rejects_small_sides(self):
        with pytest.raises(ValueError):
            find_pmn(1, 3)

    @settings(max_examples=60, deadline=None)
    @given(
        sides=st.lists(st.integers(2, 12), min_size=2, max_size=2, unique=True).map(sorted),
        frac=st.floats(0.01, 0.99),
    )
    def test_phi_interleaves_between_the_roots(self, sides, frac):
        # B_i of the concave t^(1/p) increases with i, so phi_{a,b} lies between
        # phi_{a,a} and phi_{b,b}; this is what brackets p_{a,b} by (p_b, p_a)
        a, b = sides
        lo, hi = find_pn(b).value, find_pn(a).value
        q = lo + frac * (hi - lo)
        assert phi(a, a, q) < phi(a, b, q) < phi(b, b, q)


class TestFindTheta:
    def test_theta_at_p3_high_precision(self):
        root = find_theta(2, 3.0)
        assert 0.0 < root.value < 1.0
        assert root.value == pytest.approx(THETA_2_AT_3, abs=1e-12)
        assert root.residual < 1e-12

    def test_phi_positive_above_pn(self):
        pn = find_pn(2).value
        assert phi(2, 2, pn + 0.1, 1.0) > 0.0
        assert phi(2, 2, pn + 0.1) == pytest.approx(phi(2, 2, pn + 0.1, 1.0), rel=1e-12)

    def test_theta_approaches_one_near_pn(self):
        pn = find_pn(2).value
        root = find_theta(2, pn + 1e-4)
        assert 0.99 < root.value < 1.0

    def test_rejects_p_below_pn(self):
        with pytest.raises(ValueError, match="p ≤ p_n"):
            find_theta(2, 2.5)

    def test_p_above_pn_needs_no_pn_bisection(self, monkeypatch):
        expected = find_theta(3, 3.0)

        def no_find_pn(*args, **kwargs):
            raise AssertionError("find_theta ran find_pn for p > p_n")

        monkeypatch.setattr(singular, "find_pn", no_find_pn)
        assert find_theta(3, 3.0) == expected


class TestCertification:
    def test_equal_pair_at_root(self):
        root = find_pn(2)
        cfg = cube_config(2, 2, 1.0, root.value)
        rec = certify_singular(cfg)
        assert rec.passed
        assert svd_ratio(cfg) < 1e-8
        assert rec.residual < 1e-8
        # null vector is block-constant: (lam, lam, lam, lam, mu, mu, mu, mu)
        A = build_distance_matrix(cfg.points, cfg.p).entries
        v = np.array([rec.lam] * 4 + [rec.mu] * 4)
        assert np.linalg.norm(A @ v) < 1e-8 * np.linalg.norm(A) * np.linalg.norm(v)

    def test_mixed_pair_at_root(self):
        cfg = cube_config(2, 3, 1.0, find_pmn(2, 3).value)
        rec = certify_singular(cfg)
        assert rec.passed and svd_ratio(cfg) < 1e-8

    def test_theta_scaled_pair(self):
        root = find_theta(2, 3.0)
        rec = certify_singular(cube_config(2, 2, root.value, 3.0))
        assert rec.passed

    def test_external_unit_square(self):
        # the alternating vector is an exact null vector of the circulant
        # 1-norm matrix of the unit square
        A = build_distance_matrix([[0, 0], [1, 0], [1, 1], [0, 1]], 1.0).entries
        v = np.array([1.0, -1, 1, -1])
        svals = np.linalg.svd(A, compute_uv=False)
        assert svals[-1] < 1e-12
        assert np.linalg.norm(A @ v) / (svals[0] * np.linalg.norm(v)) < 1e-14

    def test_far_from_root_fails(self):
        cfg = cube_config(2, 2, 1.0, 3.5)
        with pytest.raises(CertificationError):
            certify_singular(cfg)

    def test_peak_memory_is_the_matrix_plus_2_mib(self):
        # side 9: A holds 1024 x 1024 doubles, 8 MiB; the checks beside it hold vectors
        cfg = cube_config(9, 9, find_theta(9, 3.0).value, 3.0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert certify_singular(cfg).passed
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= (8 + 2) * 2**20

    def test_nudged_vertex_fails_the_reduction_check(self):
        cfg = cube_config(2, 2, 1.0, find_pn(2).value)
        pts = cfg.points.points.copy()
        pts[0, 0] += 1e-6
        nudged = dataclasses.replace(cfg, points=PointSet(pts))
        with pytest.raises(CertificationError, match="block sums"):
            certify_singular(nudged)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 6), u=st.floats(1e-12, 1.0))
    def test_theta_pair_certifies_above_pn(self, n, u):
        # p ranges over (p_n, 12]; the floor on u keeps p - p_n far above an ulp of p_n
        pn = find_pn(n).value
        p = pn + u * (12.0 - pn)
        cfg = cube_config(n, n, find_theta(n, p).value, p)
        assert certify_singular(cfg).passed

    @settings(max_examples=20, deadline=None)
    @given(m=st.integers(2, 6), n=st.integers(2, 6), u=st.none() | st.floats(1e-12, 1.0))
    def test_sigma_max_is_the_svd_largest_singular_value(self, m, n, u):
        # u = None: the (m, n) pair at its root; else theta* for (n, n) at p in (p_n, 12]
        if u is None:
            cfg = cube_config(m, n, 1.0, find_pmn(m, n).value)
        else:
            pn = find_pn(n).value
            p = pn + u * (12.0 - pn)
            cfg = cube_config(n, n, find_theta(n, p).value, p)
        rec = certify_singular(cfg)
        svals = np.linalg.svd(build_distance_matrix(cfg.points, cfg.p).entries, compute_uv=False)
        assert rec.sigma_max == pytest.approx(svals[0], rel=1e-12)
        assert svals[-1] / svals[0] <= singular.CERT_TOL

    def test_takes_no_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("certify_singular called numpy.linalg.svd")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        assert certify_singular(cube_config(5, 5, 1.0, find_pn(5).value)).passed

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 5),
        n=st.integers(1, 5),
        theta=st.floats(1e-2, 1e2),
        p=st.floats(0.5, 12.0),
    )
    def test_full_matrix_reduces_to_the_2x2_system(self, m, n, theta, p):
        # the identities behind reduced_system, on every entry and row of A
        cfg = cube_config(m, n, theta, p)
        A = build_distance_matrix(cfg.points, p).entries
        rs = reduced_system(m, n, theta, p)
        f = 2**cfg.m
        cross = (1.0 + theta**p) ** (1.0 / p)
        assert np.abs(A[:f, f:] - cross).max() <= 1e-12 * cross
        for rows, expected in ((slice(None, f), rs[0]), (slice(f, None), rs[1])):
            sums = np.stack([A[rows, :f].sum(axis=1), A[rows, f:].sum(axis=1)], axis=1)
            assert np.all(np.abs(sums - expected) <= 1e-12 * expected)

    def test_all_small_roots_certify(self):
        for m, n in [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (2, 5), (5, 5)]:
            root = find_pmn(m, n)
            rec = certify_singular(cube_config(m, n, 1.0, root.value))
            assert rec.passed, (m, n)


class TestRateTable:
    def test_n2_row(self):
        rows = rate_table([2])
        n, pn, rate = rows[0]
        assert n == 2
        assert pn == pytest.approx(P2_CLOSED, abs=1e-10)
        assert rate == pytest.approx(2 * (P2_CLOSED - 2.0), abs=1e-9)

    def test_monotone_subsequence(self):
        rows = {n: pn for n, pn, _ in rate_table([10, 20, 40])}
        assert rows[10] > rows[20] > rows[40]

    def test_rates_bounded_and_peak_at_small_n(self):
        rows = rate_table(range(2, 41))
        rates = [r for _, _, r in rows]
        assert max(rates) == rates[0]
        assert max(rates) < 4.0
