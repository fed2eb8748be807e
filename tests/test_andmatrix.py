import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pnormdist import andmatrix
from pnormdist.andmatrix import (
    check_and,
    det_sign_logmag,
    restrict_to_zero_sum,
    schoenberg_embed,
)
from pnormdist.errors import EmbeddingError, NotAndError
from pnormdist.geometry import build_distance_matrix, pow_abs

UNIT_SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
UNIT_SQUARE_1NORM = np.array([[0.0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])
TWO_POINT = np.array([[0.0, 1.0], [1.0, 0.0]])

# hand application of the entry formula B'_ij = A_i4 + A_4j - A_ij - A_44
# to the unit-square 1-norm matrix; eigenvalues {0, 2, 6} from the cubic
# (2-x) * x * (x-6) = 0
UNIT_SQUARE_RESTRICTED = np.array([[2.0, 2, 0], [2, 4, 2], [0, 2, 2]])
UNIT_SQUARE_RESTRICTED_EIGS = np.array([0.0, 2.0, 6.0])

# eigenvalues of the circulant matrix with first row (0, 1, 2, 1):
# lambda_k = w^k + 2 w^2k + w^3k over the 4th roots of unity
UNIT_SQUARE_EIGS = np.array([-2.0, -2.0, 0.0, 4.0])

# the upper triangle of a symmetric matrix with an eigenvalue of about +1e-16
# beside four of order 1
TINY_EIGENVALUE = np.array(
    [[0, 0, 1, 0, 1e-8], [0, 0, 0, 1, 0], [0, 0, 1, 0, 0], [0.0] * 5, [0.0] * 5]
)


def lemma_basis(n: int) -> np.ndarray:
    """Columns f^i = e^n - e^i (i < n), f^n = e^n."""
    F = -np.eye(n)
    F[-1, :] = 1.0
    F[-1, -1] = 1.0
    return F


class TestRestrictToZeroSum:
    def test_two_point(self):
        assert np.array_equal(restrict_to_zero_sum(TWO_POINT), np.array([[2.0]]))

    def test_unit_square_hand_values(self):
        B = restrict_to_zero_sum(UNIT_SQUARE_1NORM)
        assert np.array_equal(B, UNIT_SQUARE_RESTRICTED)
        assert np.allclose(np.linalg.eigvalsh(B), UNIT_SQUARE_RESTRICTED_EIGS, atol=1e-12)

    def test_zero_matrix(self):
        assert np.array_equal(restrict_to_zero_sum(np.zeros((5, 5))), np.zeros((4, 4)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            restrict_to_zero_sum(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_rejects_overflow(self):
        with pytest.raises(ValueError, match="overflows"):
            restrict_to_zero_sum(np.array([[0.0, 1e308], [1e308, 0.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("func", [check_and, restrict_to_zero_sum, schoenberg_embed])
    def test_rejects_non_finite_entries(self, func, bad):
        # nan != nan once read as "not symmetric", and inf as an overflow
        A = UNIT_SQUARE_1NORM.copy()
        A[0, 1] = A[1, 0] = bad
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            func(A)

    @settings(max_examples=60, deadline=None)
    @given(
        a=arrays(
            np.float64,
            st.integers(2, 7).map(lambda n: (n, n)),
            elements=st.floats(-10, 10),
        )
    )
    def test_matches_explicit_basis_product(self, a):
        # independent path: form -F^T A F explicitly and take its leading block
        A = (a + a.T) / 2.0
        n = A.shape[0]
        F = lemma_basis(n)
        full = -F.T @ A @ F
        assert np.allclose(restrict_to_zero_sum(A), full[: n - 1, : n - 1], atol=1e-10)


class TestCheckAnd:
    def test_two_point_strictly_and(self):
        rep = check_and(TWO_POINT)
        assert rep.verdict == "strictly-AND"
        assert rep.det_sign == -1  # (-1)^(2-1)
        assert rep.det_log_magnitude == pytest.approx(0.0, abs=1e-14)

    def test_unit_square_and_but_singular(self):
        rep = check_and(UNIT_SQUARE_1NORM)
        assert rep.verdict == "AND"
        assert rep.det_sign == 0
        assert rep.det_log_magnitude is None
        # restricted spectrum is the negatives of {0, 2, 6}
        assert np.allclose(
            rep.restricted_eigenvalues, -UNIT_SQUARE_RESTRICTED_EIGS[::-1], atol=1e-12
        )
        assert np.allclose(np.linalg.eigvalsh(UNIT_SQUARE_1NORM), UNIT_SQUARE_EIGS, atol=1e-12)

    def test_singular_restriction_of_a_nonsingular_matrix(self):
        # at p = 0.5 the triangle (0,0), (1,0), (0,1): B' has eigenvalues {0, 10},
        # so the verdict is AND, yet det A = 8, so det A is no multiple of det(-B').
        # The form degenerates on the zero-sum hyperplane itself, so no choice of
        # anchor row avoids the zero.
        A = build_distance_matrix([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], 0.5).entries
        assert np.array_equal(A, [[0.0, 1, 1], [1, 0, 4], [1, 4, 0]])
        rep = check_and(A)
        assert rep.verdict == "AND"
        assert np.allclose(rep.restricted_eigenvalues, [-10.0, 0.0], atol=1e-12)
        assert rep.det_sign == 1
        assert rep.det_log_magnitude == pytest.approx(math.log(8.0), rel=1e-15)

    def test_euclidean_random_points_strictly_and(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((5, 3))
        rep = check_and(build_distance_matrix(x, 2.0).entries)
        assert rep.verdict == "strictly-AND"
        assert rep.det_sign == 1  # (-1)^4

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_determinant_follows_extreme_scale(self, scale):
        # det(sA) = s^n det A, so the log-magnitude shifts by n ln s exactly
        x = np.random.default_rng(17).standard_normal((60, 3))
        ref = check_and(build_distance_matrix(x, 1.5).entries)
        rep = check_and(build_distance_matrix(x * scale, 1.5).entries)
        assert rep.det_sign == ref.det_sign
        expected = ref.det_log_magnitude + 60 * math.log(scale)
        assert rep.det_log_magnitude == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_verdict_independent_of_scale(self, scale):
        # every cut-off is EIG_TOL * |A|_max, so tiny and huge units read alike
        x = np.random.default_rng(13).standard_normal((6, 3)) * scale
        rep = check_and(build_distance_matrix(x, 1.5).entries)
        assert rep.verdict == "strictly-AND"
        assert rep.det_sign == -1  # (-1)^(6-1)

    def test_not_and(self):
        rep = check_and(np.eye(3))
        assert rep.verdict == "not-AND"

    def test_rejects_1x1(self):
        with pytest.raises(ValueError, match="n >= 2"):
            check_and(np.array([[0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match=re.escape("matrix must be square, got shape (2, 3)")):
            check_and(np.zeros((2, 3)))

    def test_permutation_invariance(self):
        # the raw restricted eigenvalues depend on the (index-pinned) test
        # basis, but the verdict, inertia, trace and determinant do not
        rng = np.random.default_rng(12)
        x = rng.standard_normal((7, 2))
        A = build_distance_matrix(x, 1.5).entries
        perm = rng.permutation(7)
        rep = check_and(A)
        rep_p = check_and(A[np.ix_(perm, perm)])
        assert rep.verdict == rep_p.verdict
        assert rep.det_sign == rep_p.det_sign
        assert rep.trace == rep_p.trace
        assert rep.det_log_magnitude == pytest.approx(rep_p.det_log_magnitude, rel=1e-10)
        assert np.array_equal(
            np.sign(rep.restricted_eigenvalues), np.sign(rep_p.restricted_eigenvalues)
        )

    def test_p_next_to_one_reads_and(self):
        # the unit square's 1-norm matrix is singular; one ulp above p = 1 its
        # smallest restricted eigenvalue is 3e-16, under the cut-off
        rep = check_and(build_distance_matrix(UNIT_SQUARE, np.nextafter(1.0, 2.0)).entries)
        assert (rep.verdict, rep.det_sign) == ("AND", 0)

    @settings(max_examples=100, deadline=None)
    @given(
        x=st.integers(1, 4).flatmap(
            lambda d: st.lists(
                st.tuples(*[st.integers(-4, 4)] * d),
                min_size=2,
                max_size=min(12, 9**d),  # the grid has 9 points at d = 1
                unique=True,
            )
        ),
        p=st.floats(1.0 + 1e-6, 2.0),
        data=st.data(),
    )
    def test_verdict_and_sign_survive_isometries_and_similarities(self, x, p, data):
        # the paper's claim for p in (1, 2], on distinct integer-grid points,
        # under the maps that scale every distance alike: point and coordinate
        # permutations, sign flips, translations and positive scalings. The
        # smallest restricted eigenvalue shrinks like (p - 1) |A|_max (at least
        # 0.099 (p - 1) |A|_max in 3000 random cases); from p = 1 + 1e-6 it
        # clears the EIG_TOL cut-off a thousandfold, and next to p = 1 it falls
        # under it (test_p_next_to_one_reads_and)
        x = np.array(x, dtype=float)
        n, d = x.shape
        signs = st.lists(st.sampled_from([-1.0, 1.0]), min_size=d, max_size=d)
        shift = st.lists(st.floats(-100, 100), min_size=d, max_size=d)
        maps = {
            "identity": x,
            "point permutation": x[data.draw(st.permutations(range(n)))],
            "coordinate permutation": x[:, data.draw(st.permutations(range(d)))],
            "sign flips": x * data.draw(signs),
            "translation": x + data.draw(shift),
            "scaling": x * 10.0 ** data.draw(st.floats(-6, 6)),
        }
        for name, y in maps.items():
            rep = check_and(build_distance_matrix(y, p).entries)
            assert (rep.verdict, rep.det_sign) == ("strictly-AND", (-1) ** (n - 1)), name

    @settings(max_examples=60, deadline=None)
    @given(
        y=arrays(
            np.float64,
            st.tuples(st.integers(2, 7), st.integers(1, 4)),
            elements=st.floats(-5, 5),
        )
    )
    def test_squared_euclidean_matrices_are_and(self, y):
        # forward direction: |y_i - y_j|^2 always induces a non-positive
        # form on the zero-sum hyperplane
        G = y @ y.T
        sq = np.diag(G)[:, None] + np.diag(G)[None, :] - 2 * G
        sq = (sq + sq.T) / 2.0
        rep = check_and(sq)
        assert rep.verdict in ("AND", "strictly-AND")


class TestPsdFactor:
    """The factor P^T P = B' that schoenberg_embed takes of the zero-sum restriction B'.

    Its vectors are the columns of P / sqrt(2), so 2 Y Y^T = B' for the first
    n-1 embedding vectors Y.
    """

    def test_identity(self):
        # the standard basis of R^4 and the origin: B' = 2 I
        A = np.full((5, 5), 2.0)
        A[-1, :] = A[:, -1] = 1.0
        np.fill_diagonal(A, 0.0)
        assert np.array_equal(restrict_to_zero_sum(A), 2.0 * np.eye(4))
        Y = schoenberg_embed(A).vectors[:4]
        assert np.allclose(Y @ Y.T, np.eye(4), atol=1e-14)

    def test_scalar(self):
        # two points at squared distance 2: B' = [[4]], P = [[2]]
        emb = schoenberg_embed(np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert abs(emb.vectors[0, 0]) == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_rank_deficient_restriction(self):
        # B' has eigenvalues {0, 2, 6}: the zero is clamped, not rejected
        Y = schoenberg_embed(UNIT_SQUARE_1NORM).vectors[:3]
        assert np.abs(2.0 * Y @ Y.T - UNIT_SQUARE_RESTRICTED).max() < 1e-12

    def test_rejects_indefinite(self):
        # B' = diag(1, -1), so A is not AND
        A = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, -0.5], [0.5, -0.5, 0.0]])
        assert np.array_equal(restrict_to_zero_sum(A), np.diag([1.0, -1.0]))
        with pytest.raises(NotAndError) as info:
            schoenberg_embed(A)
        assert info.value.record.verdict == "not-AND"


class TestSchoenbergEmbed:
    def test_two_point(self):
        emb = schoenberg_embed(TWO_POINT)
        assert emb.vectors.shape == (2, 1)
        assert np.all(emb.vectors[-1] == 0.0)
        assert emb.squared_distances()[0, 1] == pytest.approx(1.0, abs=1e-14)

    def test_unit_square_reproduces_1norm_distances(self):
        emb = schoenberg_embed(UNIT_SQUARE_1NORM)
        assert emb.residual < 1e-12
        sq = emb.squared_distances()
        assert np.abs(sq - UNIT_SQUARE_1NORM).max() < 1e-12
        # distinct points give distinct embedded vectors
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.allclose(emb.vectors[i], emb.vectors[j])

    def test_pth_power_matrix_round_trip(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((6, 3))
        p = 1.5
        A = np.zeros((6, 6))
        for i in range(6):
            for j in range(6):
                A[i, j] = pow_abs(x[i] - x[j], p).sum()
        A = (A + A.T) / 2.0
        emb = schoenberg_embed(A)
        assert emb.residual < 1e-9

    def test_rejects_not_and(self):
        A = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(NotAndError) as info:
            schoenberg_embed(A)
        assert info.value.record.verdict == "not-AND"

    def test_not_and_record_is_the_spectrum_it_decided_from(self):
        # eigvalsh and eigh can put the smallest eigenvalue of B' an ulp or so
        # apart, on opposite sides of -cut; A(s) = A0 - s (yy^T off the
        # diagonal) is walked to the last s that check_and calls AND and ±40
        # ulps around it. Where the two spectra straddle the cut-off (s =
        # 0.019784254295109646 with numpy 2.4.6's OpenBLAS), the error used to
        # carry check_and's "AND" record; it must carry what it decided from
        rng = np.random.default_rng(1)
        A0 = build_distance_matrix(rng.random((12, 2)), 1.5).entries
        y = rng.standard_normal(12)
        y -= y.mean()
        E = -np.outer(y, y)
        np.fill_diagonal(E, 0.0)
        lo, hi = 0.0, 1.0
        assert check_and(A0 + lo * E).verdict != "not-AND" == check_and(A0 + hi * E).verdict
        while np.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if check_and(A0 + mid * E).verdict == "not-AND" else (mid, hi)
        for s in lo + np.arange(-40, 41) * np.spacing(lo):
            A = A0 + s * E
            w = np.linalg.eigh(restrict_to_zero_sum(A))[0]
            try:
                schoenberg_embed(A)
            except NotAndError as exc:
                assert exc.record.verdict == "not-AND"
                assert np.array_equal(exc.record.restricted_eigenvalues, np.sort(-w))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            schoenberg_embed(np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_residual_beyond_its_bound_raises(self, monkeypatch):
        # B' is positive definite, so the cut-off is reached only by the residual
        rng = np.random.default_rng(15)
        y = rng.standard_normal((5, 4))
        A = ((y[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
        assert schoenberg_embed(A).residual > 0.0
        monkeypatch.setattr(andmatrix, "EIG_TOL", 1e-300)
        with pytest.raises(EmbeddingError, match="^embedding residual .* exceeds tolerance"):
            schoenberg_embed(A)

    def test_round_trip_random_euclidean(self):
        rng = np.random.default_rng(14)
        for n in (3, 5, 9):
            y = rng.standard_normal((n, 4))
            G = y @ y.T
            A = np.diag(G)[:, None] + np.diag(G)[None, :] - 2 * G
            A = (A + A.T) / 2.0
            np.fill_diagonal(A, 0.0)
            emb = schoenberg_embed(A)
            assert np.abs(emb.squared_distances() - A).max() < 1e-9


class TestDetSignLogmag:
    """The determinant from the restricted spectrum, against slogdet and eigvalsh."""

    @staticmethod
    def det(A, cut):
        B = restrict_to_zero_sum(A)
        return det_sign_logmag(A, B, np.linalg.eigvalsh(B), cut)

    @settings(max_examples=200, deadline=None)
    @given(
        m=arrays(
            np.float64,
            st.integers(2, 8).map(lambda n: (n, n)),
            elements=st.floats(-10, 10, allow_subnormal=False),
        ),
        zero_diagonal=st.booleans(),
    )
    # det A = -x^2 underflows to a subnormal
    @example(m=np.array([[0.0, 4.48586106e-159], [4.48586106e-159, 0.0]]), zero_diagonal=True)
    # an eigenvalue of about +1e-16 that eigvalsh reports as -1e-16
    @example(m=TINY_EIGENVALUE, zero_diagonal=False)
    def test_matches_slogdet_and_eigvalsh(self, m, zero_diagonal):
        # a zero diagonal is the distance-matrix case
        A = np.triu(m) + np.triu(m, 1).T
        if zero_diagonal:
            np.fill_diagonal(A, 0.0)
        sign, logmag = self.det(A, 1e-10 * np.abs(A).max())
        if sign == 0:
            return
        ref_sign, ref_logmag = np.linalg.slogdet(A)
        assert sign == ref_sign
        # log|det| is perturbed by about cond(A) * eps in either computation
        assert logmag == pytest.approx(ref_logmag, abs=1e-10 * max(1.0, np.linalg.cond(A)))
        # eigvalsh fixes the sign of an eigenvalue only when it is farther from
        # zero than its backward error, a small multiple of eps * |A|max
        eigs = np.linalg.eigvalsh(A)
        if np.abs(eigs).min() > 1e-8 * np.abs(A).max():
            assert sign == (-1) ** np.count_nonzero(eigs < 0)

    def test_inertia_beside_a_tiny_eigenvalue(self):
        # A's eigenvalues are -1, 1, (1 - sqrt 5)/2, (1 + sqrt 5)/2 and one of
        # about +1e-16, since det A = +1e-16 (a 50-digit mpmath determinant):
        # exactly two are negative. eigvalsh resolves the four of order 1 and
        # reports the tiny one as -1e-16; the restricted spectrum and s, with no
        # cut-off, still give the sign and magnitude
        A = np.triu(TINY_EIGENVALUE) + np.triu(TINY_EIGENVALUE, 1).T
        eigs = np.linalg.eigvalsh(A)
        clear = eigs[np.abs(eigs) > 1e-8]
        assert len(clear) == 4 and np.count_nonzero(clear < 0) == 2
        sign, logmag = self.det(A, 0.0)
        assert sign == (-1) ** 2
        assert logmag == pytest.approx(math.log(1e-16), rel=1e-12)


class TestDetAgainstMpmath:
    """det_sign against a 50-digit determinant on integer grids, for p on both
    sides of 1 and of 2, with distances and squared distances."""

    @settings(max_examples=150, deadline=None)
    @given(
        cells=st.integers(1, 3).flatmap(
            lambda d: st.lists(
                st.tuples(*[st.integers(-3, 3)] * d), min_size=2, max_size=8, unique=True
            )
        ),
        p=st.one_of(st.sampled_from([1.0, 2.0]), st.floats(0.3, 4.0)),
        squared=st.booleans(),
    )
    # z = 0: a strictly AND matrix
    @example(cells=[(0, 0), (1, 0), (0, 1), (2, 3)], p=1.5, squared=False)
    # z = 1 with det A = 8: B' has eigenvalues {0, 10}
    @example(cells=[(0, 0), (1, 0), (0, 1)], p=0.5, squared=False)
    # z = 1 with det A = 0: the unit square in the 1-norm
    @example(cells=[(0, 0), (1, 0), (1, 1), (0, 1)], p=1.0, squared=False)
    # z = 2: squared distances of 4 collinear points, B' of rank 1
    @example(cells=[(0,), (1,), (2,), (3,)], p=2.0, squared=True)
    def test_det_sign_matches_mpmath(self, cells, p, squared):
        A = build_distance_matrix(np.array(cells, dtype=float), p).entries
        if squared:
            A = A * A
        rep = check_and(A)
        with mpmath.workdps(50):
            det = mpmath.det(mpmath.matrix(A.tolist()))
        if rep.det_sign != 0:
            assert rep.det_sign == mpmath.sign(det)
            expected = float(mpmath.log(abs(det)))
            assert rep.det_log_magnitude == pytest.approx(expected, rel=1e-8, abs=1e-8)
        # a determinant read as zero belongs to an eigenvalue near the cut-off
        if np.abs(np.linalg.eigvalsh(A)).min() > 1e-6 * np.abs(A).max():
            assert rep.det_sign != 0

    @staticmethod
    def from_restriction(B, c, a):
        # the A with restrict_to_zero_sum(A) = B, A_nn - A_in = c_i and A_nn = a
        n = len(c) + 1
        A = np.full((n, n), float(a))
        A[:-1, -1] = A[-1, :-1] = a - c
        A[:-1, :-1] = a - (c[:, None] + c[None, :]) - B
        return A

    @staticmethod
    def mp_det(A):
        with mpmath.workdps(50):
            return mpmath.det(mpmath.matrix(A.tolist()))

    @pytest.mark.parametrize(
        "mu, c, expected_sign",
        [
            # det A = -mu - c^2 = 5e-11 - 4e-20 > 0, with mu inside the cut-off
            # 1e-10: the -mu a term outweighs b^2, and the smaller eigenvalue of
            # the block [[-mu, c], [c, 1]], about 5e-11, makes det A zero
            (-5e-11, 2e-10, 0),
            (-5e-11, 1e-3, -1),
            (5e-11, 1e-3, -1),
            (0.0, 1e-3, -1),
            (0.0, 0.0, 0),
        ],
    )
    def test_two_point_with_a_small_restricted_eigenvalue(self, mu, c, expected_sign):
        A = self.from_restriction(np.array([[mu]]), np.array([c]), 1.0)
        rep = check_and(A)
        det = self.mp_det(A)
        assert rep.det_sign == expected_sign
        if expected_sign != 0:
            assert expected_sign == mpmath.sign(det)
            assert rep.det_log_magnitude == pytest.approx(float(mpmath.log(abs(det))), rel=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 7),
        seed=st.integers(0, 2**32 - 1),
        mu_k=st.sampled_from([0.0, 1e-13, -1e-13, 5e-11, -5e-11, 1e-10, -1e-10]),
        c_scale=st.sampled_from([1e-12, 1e-10, 1e-8, 1e-5, 1.0]),
    )
    def test_one_small_restricted_eigenvalue_matches_mpmath(self, n, seed, mu_k, c_scale):
        # B' = Q diag(mu) Q^T with one mu_k at or inside the cut-off, so the
        # z = 1 path runs with a small but possibly nonzero mu_k
        rng = np.random.default_rng(seed)
        Q = np.linalg.qr(rng.standard_normal((n - 1, n - 1)))[0]
        mu = rng.uniform(0.5, 2.0, n - 1) * rng.choice([-1.0, 1.0], n - 1)
        mu[0] = mu_k
        B = (Q * mu) @ Q.T
        A = self.from_restriction((B + B.T) / 2.0, c_scale * rng.standard_normal(n - 1), 1.0)
        rep = check_and(A)
        det = self.mp_det(A)
        if rep.det_sign != 0:
            assert rep.det_sign == mpmath.sign(det)
            expected = float(mpmath.log(abs(det)))
            assert rep.det_log_magnitude == pytest.approx(expected, rel=1e-6, abs=1e-6)
        # a determinant read as zero belongs to an eigenvalue of A near the cut-off
        if np.abs(np.linalg.eigvalsh(A)).min() > 1e-6 * np.abs(A).max():
            assert rep.det_sign != 0

    def test_failed_solve_reads_as_zero(self, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        rep = check_and(TWO_POINT)
        assert rep.verdict == "strictly-AND"
        assert rep.det_sign == 0 and rep.det_log_magnitude is None


class TestDetSignCertificate:
    """(-1)^(n-1) det A > 0 for strictly AND matrices with trace >= 0, read from check_and."""

    def test_two_point(self):
        rep = check_and(TWO_POINT)
        assert rep.verdict == "strictly-AND" and rep.det_sign == -1
        assert rep.det_log_magnitude == pytest.approx(0.0, abs=1e-14)

    def test_equilateral_triple(self):
        # det [[0,1,1],[1,0,1],[1,1,0]] = 2 by cofactor expansion
        A = np.ones((3, 3)) - np.eye(3)
        rep = check_and(A)
        assert rep.verdict == "strictly-AND" and rep.det_sign == 1
        assert np.exp(rep.det_log_magnitude) == pytest.approx(2.0, rel=1e-12)

    def test_multiquadric_matrix(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((6, 2))
        r = build_distance_matrix(x, 1.0).entries
        A = np.sqrt(1.0 + r)
        rep = check_and(A)
        assert rep.verdict == "strictly-AND" and rep.det_sign == (-1) ** 5
        assert rep.trace == pytest.approx(6.0)
        assert rep.det_log_magnitude == pytest.approx(np.linalg.slogdet(A)[1], rel=1e-12)

    def test_rejects_non_strict(self):
        # AND but not strictly: the sign pattern is not guaranteed, and here det A = 0
        rep = check_and(UNIT_SQUARE_1NORM)
        assert rep.verdict == "AND"
        assert rep.det_sign == 0 and rep.det_log_magnitude is None


class TestValidateOnce:
    def test_check_and_validates_once(self, monkeypatch):
        calls = []
        original = andmatrix._require_symmetric

        def counting(A):
            calls.append(1)
            return original(A)

        monkeypatch.setattr(andmatrix, "_require_symmetric", counting)
        check_and(UNIT_SQUARE_1NORM)
        assert len(calls) == 1

    def test_embed_needs_no_verdict_or_factorization(self, monkeypatch):
        # one eigendecomposition of B' gates and factors; check_and and its
        # determinant run only to explain a not-AND matrix
        def fail(*args, **kwargs):
            raise AssertionError("called on the success path")

        monkeypatch.setattr(andmatrix, "check_and", fail)
        monkeypatch.setattr(andmatrix, "det_sign_logmag", fail)
        emb = schoenberg_embed(UNIT_SQUARE_1NORM)
        assert np.abs(emb.squared_distances() - UNIT_SQUARE_1NORM).max() < 1e-12
