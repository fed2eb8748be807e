import dataclasses
import re
import warnings

import numpy as np
import pytest

from pnormdist import profiles
from pnormdist.errors import VerdictMismatchError
from pnormdist.geometry import build_distance_matrix, pow_abs
from pnormdist.profiles import (
    CND1,
    DISTANCE,
    POSITIVE_DEFINITE,
    PTH_POWER_DISTANCE,
    SQUARED_DISTANCE,
    STRICTLY_CND1,
    compose,
    exponential,
    from_json_dict,
    identity,
    matrix_from_profile,
    multiquadric,
    power,
    predict,
)

UNIT_SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]


class TestEvaluate:
    def test_power_half_at_four(self):
        assert power(0.5)(4.0) == 2.0
        # a 0-d power sum, whose root numpy returns as a scalar, gives a float too
        assert power(0.5).apply_to_power_sums(16.0, 2.0) == 2.0

    def test_multiquadric_at_zero(self):
        assert multiquadric()(0.0) == 1.0

    def test_exponent_cancellation_recovers_identity_on_squares(self):
        # power(1/p) o power(p/2) applied to s^2 gives s back
        for p in (0.8, 1.5, 3.0):
            comp = compose(power(1.0 / p), power(p / 2.0))
            for s in (0.0, 0.3, 1.0, 7.5):
                assert comp(s * s) == pytest.approx(s, rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0])
    def test_rejects_negative_argument(self, p):
        with pytest.raises(ValueError):
            identity()(-0.1)
        # the sums are checked before any root, which would warn on them
        sums = np.array([[0.0, -0.1], [-0.1, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for convention in (DISTANCE, SQUARED_DISTANCE, PTH_POWER_DISTANCE):
                for prof in (identity(convention), power(0.5, convention)):
                    with pytest.raises(ValueError, match="^profile argument must be non-negative$"):
                        prof.apply_to_power_sums(sums, p)

    @pytest.mark.parametrize("t", [float("nan"), np.array([np.nan, 1.0])], ids=["scalar", "array"])
    def test_rejects_nan_argument(self, t):
        # nan < 0 is False, so a check for negatives alone let nan through
        for prof in (identity(), power(0.5), compose(multiquadric(), power(0.5))):
            with pytest.raises(ValueError, match="^profile argument must be non-negative$"):
                prof(t)

    def test_overflowing_values_name_the_profile_and_p(self):
        # 2^500 is a double, its cube is not
        with pytest.raises(ValueError, match=r"power\(3\) overflows a double at p = 0\.002"):
            power(3.0).apply_to_power_sums(np.array([[1.0, 2.0]]), 0.002)
        # exp(-inf) = 0 is the value of e^(-t^3) there: only the final values count
        vals = compose(exponential(), power(3.0)).apply_to_power_sums(np.array([[2.0]]), 0.002)
        assert np.array_equal(vals, [[0.0]])

    def test_calling_an_overflowing_profile_names_it(self):
        # the call used to print a RuntimeWarning and return inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (1e200, np.array([1.0, 1e200])):
                with pytest.raises(ValueError, match=r"^profile power\(3\) overflows a double$"):
                    power(3.0)(t)
            assert compose(exponential(), power(3.0))(1e200) == 0.0
            assert power(3.0)(2.0) == 8.0

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
    def test_power_sums_are_not_overwritten(self, p):
        # a profile maps in place only an array it made itself, never a caller's
        s = np.random.default_rng(9).random((4, 5)) * 10.0
        s[0, 0] = 0.0
        before = s.copy()
        for squared in (False, True):
            profiles._roots(s, p, squared)
            assert np.array_equal(s.view(np.uint64), before.view(np.uint64))
        leaves = (identity, multiquadric, exponential, lambda c: power(0.5, c))
        for make in (*leaves, lambda c: compose(exponential(), multiquadric(c))):
            for convention in (DISTANCE, SQUARED_DISTANCE, PTH_POWER_DISTANCE):
                prof = make(convention)
                vals = prof.apply_to_power_sums(s, p)
                assert not np.shares_memory(vals, s)
                assert np.array_equal(s.view(np.uint64), before.view(np.uint64))
                vals = prof(s)
                assert not np.shares_memory(vals, s)
                assert np.array_equal(s.view(np.uint64), before.view(np.uint64))
        # profile=None is identity(): the same bits at every exponent
        x = np.random.default_rng(10).standard_normal((6, 3))
        raw = build_distance_matrix(x, p).entries.view(np.uint64)
        assert np.array_equal(raw, build_distance_matrix(x, p, identity()).entries.view(np.uint64))

    def test_associativity_of_composition_evaluation(self):
        h, g, f = power(0.3), multiquadric(), power(0.7)
        left = compose(h, compose(g, f))
        right = compose(compose(h, g), f)
        for t in np.linspace(0.0, 5.0, 13):
            assert left(t) == pytest.approx(right(t), rel=1e-15)


# (profile, family): each row one catalog fact of the completely-monotonic-
# derivative criterion or the composition rule
CATALOG = [
    pytest.param(identity(), CND1, id="identity"),
    pytest.param(power(0.5), STRICTLY_CND1, id="power-half"),
    pytest.param(power(1.0), CND1, id="power-one"),
    # f(t) = t^2 has a non-decreasing derivative, so it is not CND1
    pytest.param(power(2.0), None, id="power-two"),
    pytest.param(multiquadric(), STRICTLY_CND1, id="multiquadric"),
    # e^-t is positive definite, outside the CND1 class the criterion decides
    pytest.param(exponential(), POSITIVE_DEFINITE, id="exponential"),
    pytest.param(compose(power(0.6), power(0.7)), STRICTLY_CND1, id="power-o-power"),
    pytest.param(compose(exponential(), identity()), POSITIVE_DEFINITE, id="exp-o-identity"),
    pytest.param(compose(multiquadric(), identity()), STRICTLY_CND1, id="multiquadric-o-identity"),
    # multiquadric(0) = 1 != 0, so composing over it grants nothing
    pytest.param(compose(power(0.5), multiquadric()), None, id="power-o-multiquadric"),
]


class TestFamily:
    @pytest.mark.parametrize("profile, family", CATALOG)
    def test_catalog_family(self, profile, family):
        assert profile.family == family

    def test_family_is_derived_not_stored(self):
        # the class follows from the expression, so no caller can set one
        fields = [field.name for field in dataclasses.fields(profiles.RadialProfile)]
        assert fields == ["kind", "tau", "outer", "inner", "input_convention"]

    @pytest.mark.parametrize(
        "fields, message",
        [
            # tau = 0 and tau = -1 were taken as strictly CND1, so an all-ones matrix
            # was predicted strictly AND
            ({"kind": "power", "tau": 0.0}, "power exponent must be positive, got 0.0"),
            ({"kind": "power", "tau": -1.0}, "power exponent must be positive, got -1.0"),
            ({"kind": "power", "tau": float("nan")}, "power exponent must be positive, got nan"),
            ({"kind": "power", "tau": float("inf")}, "power exponent must be positive, got inf"),
            ({"kind": "bogus"}, "unknown profile kind 'bogus' (kinds: identity, multiquadric, "
                                "exponential, power, composition)"),
            ({"kind": "power"}, "power profile takes tau: missing 'tau'"),
            ({"kind": "identity", "tau": 2.0}, "identity profile takes no parameter: unexpected 'tau'"),
            ({"kind": "exponential", "inner": identity()},
             "exponential profile takes no parameter: unexpected 'inner'"),
            ({"kind": "composition"},
             "composition profile takes outer and inner: missing 'outer', missing 'inner'"),
            ({"kind": "composition", "outer": identity()},
             "composition profile takes outer and inner: missing 'inner'"),
            # parameters of the wrong type; the JSON form rejects them before this check
            ({"kind": "composition", "outer": 3, "inner": identity()},
             "composition outer must be a RadialProfile, got 3"),
            ({"kind": "composition", "outer": identity(), "inner": "x"},
             "composition inner must be a RadialProfile, got 'x'"),
            ({"kind": "power", "tau": "0.5"}, "power profile tau must be a real number, got '0.5'"),
            ({"kind": "power", "tau": [1]}, "power profile tau must be a real number, got [1]"),
            ({"kind": "power", "tau": True}, "power profile tau must be a real number, got True"),
        ],
    )
    def test_a_profile_built_directly_has_the_form_of_its_kind(self, fields, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            profiles.RadialProfile(**fields)


# (profile, p, n, distinct, class) rows beyond the single cases below
PREDICTIONS = [
    *(
        pytest.param(compose(exponential(), identity()), p, 5, distinct, cls,
                     id=f"exp-o-identity-p{p:g}-{'distinct' if distinct else 'coincident'}")
        for p in (1.0, 1.5, 2.0)
        for distinct, cls in ((True, POSITIVE_DEFINITE), (False, None))
    ),
    # no base guarantee for the p-norm distance matrix above p = 2
    pytest.param(compose(exponential(), identity()), 3.0, 5, True, None, id="exp-o-identity-p3"),
    # a 1 x 1 matrix has no off-diagonal argument, so strictness is not claimed
    pytest.param(identity(), 1.5, 1, True, "AND", id="identity-n1"),
    pytest.param(multiquadric(), 1.5, 1, True, "AND", id="multiquadric-n1"),
]


class TestPrediction:
    @pytest.mark.parametrize("profile, p, n, distinct, cls", PREDICTIONS)
    def test_predict_table(self, profile, p, n, distinct, cls):
        assert predict(profile, p, n, distinct)[0] == cls

    def test_pnorm_between_one_and_two(self):
        verdict, _ = predict(identity(), 1.5, 5, True)
        assert verdict == "strictly-AND"

    def test_one_norm_is_and_only(self):
        verdict, _ = predict(identity(), 1.0, 4, True)
        assert verdict == "AND"

    def test_pth_power_convention(self):
        verdict, _ = predict(identity(PTH_POWER_DISTANCE), 0.8, 5, True)
        assert verdict == "AND"

    def test_above_two_no_guarantee(self):
        verdict, _ = predict(identity(), 3.0, 5, True)
        assert verdict is None

    def test_quasi_norm_distance_no_guarantee(self):
        verdict, _ = predict(identity(), 0.8, 5, True)
        assert verdict is None

    def test_strict_profile_over_and_base(self):
        verdict, _ = predict(multiquadric(), 1.0, 4, True)
        assert verdict == "strictly-AND"

    def test_coincident_points_downgrade_strictness(self):
        verdict, _ = predict(identity(), 1.5, 5, False)
        assert verdict == "AND"


class TestMatrixFromProfile:
    def test_pnorm_strictly_and_with_positive_sign(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((5, 3))
        res = matrix_from_profile(x, 1.5, identity())
        assert res.predicted == "strictly-AND"
        assert res.report.verdict == "strictly-AND"
        assert res.report.det_sign == 1

    def test_unit_square_predicted_and_observed_singular(self):
        res = matrix_from_profile(UNIT_SQUARE, 1.0, identity())
        assert res.predicted == "AND"
        assert res.report.verdict == "AND"
        assert res.report.det_sign == 0

    def test_pth_power_quasi_norm(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((6, 2))
        res = matrix_from_profile(x, 0.8, identity(PTH_POWER_DISTANCE))
        assert res.predicted == "AND"
        assert res.report.verdict in ("AND", "strictly-AND")

    def test_decomposition_identity(self):
        # the p-norm matrix equals power(1/p) applied to the p-th-power
        # matrix: construction through either route agrees entrywise
        rng = np.random.default_rng(23)
        x = rng.standard_normal((7, 3))
        for p in (1.2, 1.5, 1.9):
            direct = build_distance_matrix(x, p, identity()).entries
            routed = build_distance_matrix(x, p, power(1.0 / p, PTH_POWER_DISTANCE)).entries
            assert np.abs(direct - routed).max() < 1e-12

    def test_pth_power_matrix_is_coordinate_sum(self):
        rng = np.random.default_rng(24)
        x = rng.standard_normal((6, 4))
        p = 1.3
        built = build_distance_matrix(x, p, identity(PTH_POWER_DISTANCE)).entries
        total = np.zeros((6, 6))
        for k in range(4):
            total += pow_abs(x[:, k][:, None] - x[:, k][None, :], p)
        assert np.abs(built - total).max() < 1e-12

    def test_multiquadric_diagonal_is_profile_at_zero(self):
        rng = np.random.default_rng(27)
        x = rng.standard_normal((5, 2))
        A = build_distance_matrix(x, 1.0, multiquadric()).entries
        assert np.all(np.diag(A) == 1.0)
        r = build_distance_matrix(x, 1.0).entries
        assert np.allclose(A, np.sqrt(1.0 + r), rtol=1e-15)

    def test_strictly_positive_definite_profiles(self):
        rng = np.random.default_rng(25)
        x = rng.standard_normal((8, 2))
        res = matrix_from_profile(x, 1.0, compose(exponential(), identity()))
        assert res.predicted == POSITIVE_DEFINITE
        assert res.min_eigenvalue > 0.0
        # squared-Euclidean route: exp(-|x-y|^(2 tau))
        res2 = matrix_from_profile(
            x, 2.0, compose(exponential(), power(0.75, SQUARED_DISTANCE))
        )
        assert res2.predicted == POSITIVE_DEFINITE
        assert res2.min_eigenvalue > 0.0

    def test_mismatch_raises(self, monkeypatch):
        # a doctored prediction of a class the profile does not have: the
        # exponential matrix is positive definite, hence not AND, so the
        # observed verdict contradicts the (false) prediction
        rng = np.random.default_rng(26)
        x = rng.standard_normal((4, 2))
        monkeypatch.setattr(profiles, "predict", lambda *args: ("strictly-AND", "a doctored fact"))
        with pytest.raises(VerdictMismatchError, match=r"^predicted strictly-AND \(a doctored fact\)"):
            matrix_from_profile(x, 1.5, exponential())

    def test_positive_definite_mismatch_raises(self, monkeypatch):
        # a doctored prediction of positive definiteness: |s - t|^3 is not of
        # negative type, so e^-(|s-t|^3) on 0, 1/2, 1 has the zero-sum
        # direction (1, -2, 1) with a negative form and a negative eigenvalue
        monkeypatch.setattr(profiles, "predict", lambda *args: (POSITIVE_DEFINITE, "a doctored fact"))
        named = r"^predicted positive definite \(a doctored fact\) but min eigenvalue is -"
        with pytest.raises(VerdictMismatchError, match=named) as info:
            matrix_from_profile([[0.0], [0.5], [1.0]], 3.0, exponential(PTH_POWER_DISTANCE))
        assert info.value.record.min_eigenvalue < 0.0

    def test_positive_definite_claim_for_any_family_is_checked(self, monkeypatch):
        # the eigenvalue is read for the predicted class, not for the profile's
        # family: a doctored positive-definite claim for the identity profile,
        # whose distance matrix has n - 1 negative eigenvalues, is a mismatch
        monkeypatch.setattr(profiles, "predict", lambda *args: (POSITIVE_DEFINITE, "a doctored fact"))
        named = r"^predicted positive definite \(a doctored fact\) but min eigenvalue is -"
        with pytest.raises(VerdictMismatchError, match=named) as info:
            matrix_from_profile([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], 1.5, identity())
        assert info.value.record.min_eigenvalue < 0.0

    def test_rejects_one_point(self):
        with pytest.raises(ValueError, match=r"^need n >= 2 points for a meaningful verdict$"):
            matrix_from_profile([[0.0, 1.0]], 1.5, identity())


class TestJson:
    def test_leaf_expressions(self):
        # tau as a number or as the decimal string of the CLI shorthand
        assert from_json_dict({"kind": "identity"}) == identity()
        assert from_json_dict({"kind": "power", "tau": 0.5}) == power(0.5)
        assert from_json_dict({"kind": "power", "tau": "0.5"}) == power(0.5)
        assert from_json_dict({"kind": "multiquadric"}) == multiquadric()
        assert from_json_dict({"kind": "exponential"}) == exponential()

    def test_composition_and_convention_expressions(self):
        d = {
            "kind": "composition",
            "outer": {"kind": "power", "tau": 0.5},
            "inner": {"kind": "power", "tau": 0.75, "input_convention": PTH_POWER_DISTANCE},
        }
        made = from_json_dict(d)
        assert made == compose(power(0.5), power(0.75, PTH_POWER_DISTANCE))
        # a composition consumes what its inner profile consumes
        assert made.input_convention == PTH_POWER_DISTANCE

    def test_an_outer_convention_is_an_error(self):
        # outer consumes inner's values, so a convention there could only be ignored
        message = (
            "outer profile identity has input convention 'squared-distance'; "
            "put the convention on the inner profile"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            compose(identity(SQUARED_DISTANCE), identity())
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            profiles.RadialProfile("composition", outer=identity(SQUARED_DISTANCE), inner=identity())
        for convention in (SQUARED_DISTANCE, PTH_POWER_DISTANCE):
            outer = {"kind": "exponential", "input_convention": convention}
            with pytest.raises(ValueError, match="^outer profile exponential has input convention"):
                from_json_dict({"kind": "composition", "outer": outer, "inner": {"kind": "identity"}})
        # the default, written out, is no conflict
        outer = {"kind": "exponential", "input_convention": DISTANCE}
        made = from_json_dict({"kind": "composition", "outer": outer, "inner": {"kind": "identity"}})
        assert made == compose(exponential(), identity())

    def test_a_hand_built_composition_takes_its_inner_convention(self):
        # built without compose, the composition's own convention defaulted to
        # distance and the inner one was dead: [4.0] at p = 2 mapped to [2.0]
        message = (
            "composition input convention 'distance' differs from 'squared-distance' of "
            "inner profile identity; a composition consumes what its inner profile consumes"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            profiles.RadialProfile("composition", outer=identity(), inner=identity(SQUARED_DISTANCE))
        made = profiles.RadialProfile(
            "composition", outer=identity(), inner=identity(SQUARED_DISTANCE),
            input_convention=SQUARED_DISTANCE,
        )
        assert made == compose(identity(), identity(SQUARED_DISTANCE))
        assert np.array_equal(made.apply_to_power_sums([4.0], 2.0), [4.0])

    def test_convention_defaults_to_distance(self):
        assert from_json_dict({"kind": "power", "tau": 0.5}).input_convention == DISTANCE
        expr = {"kind": "power", "tau": 0.5, "input_convention": SQUARED_DISTANCE}
        assert from_json_dict(expr) == power(0.5, SQUARED_DISTANCE)

    @pytest.mark.parametrize(
        "expr",
        [
            None,
            [1],
            {},
            {"kind": [1]},
            {"kind": "spline"},
            {"kind": "power"},
            {"kind": "power", "tau": None},
            {"kind": "power", "tau": [1]},
            {"kind": "power", "tau": "banana"},
            {"kind": "power", "tau": True},
            {"kind": "power", "tau": False},
            {"kind": "power", "tau": 0.5, "outer": {"kind": "identity"}},
            {"kind": "identity", "tau": 3},
            {"kind": "multiquadric", "tau": "banana"},
            {"kind": "exponential", "tau": 1.0},
            {"kind": "identity", "input_convention": ""},
            {"kind": "identity", "input_convention": "bogus"},
            {"kind": "identity", "input_convention": None},
            {"kind": "composition", "outer": {"kind": "identity"}, "inner": {"kind": "identity"},
             "input_convention": DISTANCE},
            {"kind": "composition"},
            {"kind": "composition", "outer": {"kind": "identity"}},
            {"kind": "composition", "outer": {"kind": "identity"}, "inner": 3},
        ],
        ids=repr,
    )
    def test_malformed_expression_raises_value_error(self, expr):
        with pytest.raises(ValueError):
            from_json_dict(expr)

    def test_nesting_is_bounded(self):
        def nested(levels):
            expr = {"kind": "power", "tau": 0.5}
            for _ in range(levels - 1):
                outer = {"kind": "power", "tau": 0.9}
                expr = {"kind": "composition", "outer": outer, "inner": expr}
            return expr

        deepest = from_json_dict(nested(profiles.MAX_PROFILE_DEPTH))
        assert deepest.family == STRICTLY_CND1
        assert deepest(1.0) == 1.0
        build_distance_matrix(UNIT_SQUARE, 1.5, deepest)  # evaluated with room to spare
        with pytest.raises(ValueError, match="nested deeper than 100 levels"):
            from_json_dict(nested(profiles.MAX_PROFILE_DEPTH + 1))
