"""Radial profiles: the scalar maps applied to pairwise distances.

A profile f is CND1 (conditionally negative definite of order 1) when
f(|x^i - x^j|^2) is always an AND matrix, and strictly CND1 when that matrix
is strictly AND for distinct points. The shipped catalog and its class flags
are established facts (Micchelli's completely-monotonic-derivative criterion
and Schoenberg's theory), stored rather than re-proved at runtime:

    identity        t          CND1 (not strictly; f' is constant)
    power(tau)      t^tau      strictly CND1 for tau in (0, 1)
    multiquadric    (1+t)^1/2  strictly CND1
    exponential     e^-t       strictly positive definite (not CND1)

Compositions inherit flags by the composition rule: g o f is CND1 when g and
f are CND1 and f(0) = 0, strictly CND1 when additionally g is strictly CND1
and f vanishes only at 0. A positive definite g composed over a CND1 f with
f(0) = 0 stays positive definite (strictly, for f vanishing only at 0),
because f's matrix embeds as squared Euclidean distances.

Three input conventions are in play and silent mismatch is the main hazard,
so each profile records explicitly whether it consumes the distance r, the
squared distance r^2, or the p-th power r^p.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import geometry
from .andmatrix import DEFAULT_EIG_TOL, AndReport, check_and, verdict_rank
from .errors import VerdictMismatchError
from .geometry import DistanceMatrix, PointsLike

DISTANCE = "distance"
SQUARED_DISTANCE = "squared-distance"
PTH_POWER_DISTANCE = "p-th-power-distance"

_CONVENTIONS = (DISTANCE, SQUARED_DISTANCE, PTH_POWER_DISTANCE)


@dataclass(frozen=True)
class ClassFlags:
    cnd1: bool = False
    strictly_cnd1: bool = False
    positive_definite: bool = False
    strictly_positive_definite: bool = False
    vanishes_only_at_zero: bool = False


@dataclass(frozen=True)
class RadialProfile:
    """Immutable descriptor of a scalar radial map plus its class flags."""

    kind: str
    tau: Optional[float] = None
    outer: Optional["RadialProfile"] = None
    inner: Optional["RadialProfile"] = None
    input_convention: str = DISTANCE
    flags: ClassFlags = ClassFlags()

    def __post_init__(self):
        if self.input_convention not in _CONVENTIONS:
            raise ValueError(f"unknown input convention: {self.input_convention!r}")

    def __call__(self, t):
        return evaluate(self, t)

    def apply_to_power_sums(self, sums, p: float) -> np.ndarray:
        """Map pairwise p-th-power sums s = ||x_i - x_j||_p^p to profile values."""
        sums = np.asarray(sums, dtype=float)
        if self.input_convention == DISTANCE:
            t = np.power(sums, 1.0 / p)
        elif self.input_convention == SQUARED_DISTANCE:
            t = np.power(sums, 2.0 / p)
        else:
            t = sums
        return evaluate(self, t)

    def describe(self) -> str:
        if self.kind == "power":
            return f"power({self.tau:g})"
        if self.kind == "composition":
            return f"({self.outer.describe()} o {self.inner.describe()})"
        return self.kind


def identity(convention: str = DISTANCE) -> RadialProfile:
    return RadialProfile(
        kind="identity",
        input_convention=convention,
        flags=ClassFlags(cnd1=True, vanishes_only_at_zero=True),
    )


def power(tau: float, convention: str = DISTANCE) -> RadialProfile:
    """t -> t^tau. Carries the CND1 flags only for tau in (0, 1).

    tau >= 1 is accepted but earns no flags beyond tau = 1, which is the
    identity in disguise.
    """
    tau = float(tau)
    if not np.isfinite(tau) or tau <= 0.0:
        raise ValueError(f"power exponent must be positive, got {tau!r}")
    if tau < 1.0:
        flags = ClassFlags(cnd1=True, strictly_cnd1=True, vanishes_only_at_zero=True)
    elif tau == 1.0:
        flags = ClassFlags(cnd1=True, vanishes_only_at_zero=True)
    else:
        flags = ClassFlags(vanishes_only_at_zero=True)
    return RadialProfile(kind="power", tau=tau, input_convention=convention, flags=flags)


def multiquadric(convention: str = DISTANCE) -> RadialProfile:
    return RadialProfile(
        kind="multiquadric",
        input_convention=convention,
        flags=ClassFlags(cnd1=True, strictly_cnd1=True, vanishes_only_at_zero=True),
    )


def exponential(convention: str = DISTANCE) -> RadialProfile:
    return RadialProfile(
        kind="exponential",
        input_convention=convention,
        flags=ClassFlags(
            positive_definite=True,
            strictly_positive_definite=True,
            vanishes_only_at_zero=True,
        ),
    )


def compose(
    outer: RadialProfile, inner: RadialProfile, convention: Optional[str] = None
) -> RadialProfile:
    """outer o inner, with class flags derived from the composition rule.

    Flags are never upgraded beyond what the rule grants; unprovable flags
    are simply False.
    """
    inner_at_zero = evaluate(inner, 0.0)
    cnd1 = outer.flags.cnd1 and inner.flags.cnd1 and inner_at_zero == 0.0
    strictly_cnd1 = cnd1 and outer.flags.strictly_cnd1 and inner.flags.vanishes_only_at_zero
    pd = outer.flags.positive_definite and inner.flags.cnd1 and inner_at_zero == 0.0
    strictly_pd = (
        pd and outer.flags.strictly_positive_definite and inner.flags.vanishes_only_at_zero
    )
    flags = ClassFlags(
        cnd1=cnd1,
        strictly_cnd1=strictly_cnd1,
        positive_definite=pd,
        strictly_positive_definite=strictly_pd,
        vanishes_only_at_zero=(
            outer.flags.vanishes_only_at_zero and inner.flags.vanishes_only_at_zero
        ),
    )
    return RadialProfile(
        kind="composition",
        outer=outer,
        inner=inner,
        input_convention=inner.input_convention if convention is None else convention,
        flags=flags,
    )


def evaluate(profile: RadialProfile, t):
    """Evaluate the scalar map at t >= 0 (scalar or array)."""
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("profile argument must be non-negative")
    if profile.kind == "identity":
        out = arr
    elif profile.kind == "power":
        out = np.power(arr, profile.tau)
    elif profile.kind == "multiquadric":
        out = np.sqrt(1.0 + arr)
    elif profile.kind == "exponential":
        out = np.exp(-arr)
    elif profile.kind == "composition":
        out = evaluate(profile.outer, evaluate(profile.inner, arr))
    else:
        raise ValueError(f"unknown profile kind: {profile.kind!r}")
    if np.isscalar(t) or arr.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Theory-predicted verdicts


def _base_matrix_class(convention: str, p: float):
    """What is known about the raw convention matrix itself.

    Returns (class, source) where class is "strict" (strictly AND given
    distinct points), "and" (AND, strictness not guaranteed), or None
    (no guarantee). All three convention matrices have zero diagonal.
    """
    if convention == DISTANCE:
        if 1.0 < p < 2.0:
            return "strict", f"p-norm distance matrix, p={p} in (1,2)"
        if p == 2.0:
            return "strict", "Euclidean distance matrix"
        if p == 1.0:
            return "and", "1-norm distance matrix (sum of coordinate distance matrices)"
        return None, f"p-norm distance matrix with p={p}: no guarantee"
    if convention == PTH_POWER_DISTANCE:
        if 0.0 < p < 2.0:
            return "and", f"p-th power distance matrix, p={p} in (0,2)"
        if p == 2.0:
            return "and", "squared Euclidean distance matrix"
        return None, f"p-th power distance matrix with p={p}: no guarantee"
    if convention == SQUARED_DISTANCE:
        if p == 2.0:
            return "and", "squared Euclidean distance matrix"
        return None, f"squared p-norm distance matrix with p={p}: no guarantee"
    raise ValueError(f"unknown input convention: {convention!r}")


def predict_verdict(profile: RadialProfile, p: float, n: int, distinct: bool):
    """Strongest AND verdict the catalog guarantees, or None if no guarantee.

    Returns (verdict, source). The identity profile passes the base matrix
    straight through; a CND1 profile over any guaranteed-AND base matrix
    gives at least AND, strictly when the profile is strictly CND1 and the
    points are distinct (nonzero off-diagonal arguments).
    """
    base, source = _base_matrix_class(profile.input_convention, geometry.finite_positive(p))
    if base is None:
        return None, source
    if profile.kind == "identity":
        if base == "strict" and distinct and n >= 2:
            return "strictly-AND", source
        return "AND", source
    if profile.flags.cnd1:
        if profile.flags.strictly_cnd1 and distinct and n >= 2:
            return "strictly-AND", f"strictly CND1 profile over {source}"
        return "AND", f"CND1 profile over {source}"
    return None, f"profile carries no CND1 flag over {source}"


def predict_positive_definite(profile: RadialProfile, p: float, n: int, distinct: bool):
    """True when the matrix is guaranteed positive definite, else None."""
    base, source = _base_matrix_class(profile.input_convention, geometry.finite_positive(p))
    if base is None or not profile.flags.strictly_positive_definite:
        return None, source
    if distinct and n >= 1:
        return True, f"strictly positive definite profile over {source}"
    return None, source


@dataclass(frozen=True)
class ProfileMatrixResult:
    matrix: DistanceMatrix
    report: AndReport
    predicted_verdict: Optional[str]
    prediction_source: str
    predicted_positive_definite: Optional[bool] = None
    min_eigenvalue: Optional[float] = None


def matrix_from_profile(
    x: PointsLike, p: float, profile: RadialProfile, tol: float = DEFAULT_EIG_TOL
) -> ProfileMatrixResult:
    """Build the profile matrix and cross-check the observed verdict.

    The numerical verdict from check_and must be at least as strong as the
    theory-predicted verdict for (profile, p, distinctness); a weaker
    observation raises VerdictMismatchError. Matrices predicted strictly
    positive definite must additionally have min eigenvalue > 0.
    """
    pts = geometry.as_point_set(x)
    p = geometry.finite_positive(p)
    if pts.n < 2:
        raise ValueError("need n >= 2 points for a meaningful verdict")
    distinct = pts.is_distinct()
    dm = geometry.build_distance_matrix(pts, p, profile)
    report = check_and(dm.entries, tol)
    predicted, source = predict_verdict(profile, p, pts.n, distinct)
    predicted_pd, pd_source = predict_positive_definite(profile, p, pts.n, distinct)
    min_eig = None
    if profile.flags.positive_definite:
        min_eig = float(np.linalg.eigvalsh(dm.entries).min())
    result = ProfileMatrixResult(
        matrix=dm,
        report=report,
        predicted_verdict=predicted,
        prediction_source=source,
        predicted_positive_definite=predicted_pd,
        min_eigenvalue=min_eig,
    )
    if predicted is not None and verdict_rank(report.verdict) < verdict_rank(predicted):
        raise VerdictMismatchError(
            f"predicted {predicted} ({source}) but observed {report.verdict}",
            record=result,
        )
    if predicted_pd and min_eig is not None and min_eig <= 0.0:
        raise VerdictMismatchError(
            f"predicted positive definite ({pd_source}) but min eigenvalue is {min_eig:.3e}",
            record=result,
        )
    return result


# ---------------------------------------------------------------------------
# JSON expression form


def to_json_dict(profile: RadialProfile) -> dict:
    out: dict = {"kind": profile.kind}
    if profile.kind == "power":
        out["tau"] = float(profile.tau)
    if profile.kind == "composition":
        out["outer"] = to_json_dict(profile.outer)
        out["inner"] = to_json_dict(profile.inner)
        default = profile.inner.input_convention
    else:
        default = DISTANCE
    if profile.input_convention != default:
        out["input_convention"] = profile.input_convention
    return out


_LEAVES = {"identity": identity, "multiquadric": multiquadric, "exponential": exponential}
_PARAMETERS = {**dict.fromkeys(_LEAVES, ()), "power": ("tau",), "composition": ("outer", "inner")}


def from_json_dict(obj) -> RadialProfile:
    """The profile of a JSON expression; a malformed expression raises ValueError.

    An expression holds "kind", an optional "input_convention" and exactly
    the parameters of its kind: "tau" for power (a number, or the decimal
    string the CLI shorthand NAME[:PARAM][@CONVENTION] passes), "outer" and
    "inner" for composition.
    """
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if not isinstance(kind, str) or kind not in _PARAMETERS:
        raise ValueError(f"not a profile expression: {obj!r} (kinds: {', '.join(_PARAMETERS)})")
    params = _PARAMETERS[kind]
    if set(obj) - {"kind", "input_convention"} != set(params):
        raise ValueError(f"{kind} profile takes {' and '.join(params) or 'no parameter'}: {obj!r}")
    convention = obj.get("input_convention")
    if kind == "composition":
        return compose(from_json_dict(obj["outer"]), from_json_dict(obj["inner"]), convention)
    convention = DISTANCE if convention is None else convention
    if kind != "power":
        return _LEAVES[kind](convention)
    try:
        tau = float(obj["tau"])
    except (TypeError, ValueError):
        raise ValueError(f"power profile needs a numeric tau, got {obj['tau']!r}") from None
    return power(tau, convention)
