"""Radial profiles: the scalar maps applied to pairwise distances.

A profile f is CND1 (conditionally negative definite of order 1) when
f(|x^i - x^j|^2) is always an AND matrix, and strictly CND1 when that matrix
is strictly AND for distinct points. A profile's class, its `family`, is
read from its expression: STRICTLY_CND1, CND1, POSITIVE_DEFINITE (strictly,
for distinct points) or None. The catalog's classes are established facts
(Micchelli's completely-monotonic-derivative criterion and Schoenberg's
theory), tabulated rather than re-proved at runtime:

    identity        t          CND1 (not strictly; f' is constant)
    power(tau)      t^tau      strictly CND1 for tau in (0, 1)
    multiquadric    (1+t)^1/2  strictly CND1
    exponential     e^-t       positive definite (not CND1)

Compositions follow one rule: g o f takes g's family when f is CND1 and
f(0) = 0, and has no family otherwise. Every catalog profile vanishes only
at 0, so f's matrix embeds as squared Euclidean distances between distinct
points, and g keeps its class (and its strictness) over them.

`predict` reads the family and the convention matrix at p and returns the
one class the catalog guarantees for the profile matrix (strictly AND, AND,
positive definite, or none) with the fact it rests on.

Three input conventions are in play and silent mismatch is the main hazard,
so each leaf records whether it consumes the distance r, the squared
distance r^2, or the p-th power r^p. The convention sits on the inner leaf:
a composition consumes what inner does, and outer consumes inner's values,
so an outer convention other than `distance` is an error, never ignored.

This module alone turns `geometry`'s power sums into values. A call checks
its argument non-negative once, before `_roots` takes any root, then maps an
array of its own in place and checks the values for overflow; a caller's
array is not written.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import geometry
from .andmatrix import VERDICT_AND, VERDICT_STRICTLY_AND, AndReport, check_and, verdict_rank
from .errors import VerdictMismatchError, quote
from .geometry import DistanceMatrix, PointsLike

DISTANCE = "distance"
SQUARED_DISTANCE = "squared-distance"
PTH_POWER_DISTANCE = "p-th-power-distance"

_CONVENTIONS = (DISTANCE, SQUARED_DISTANCE, PTH_POWER_DISTANCE)

STRICTLY_CND1 = "strictly-cnd1"
CND1 = "cnd1"
POSITIVE_DEFINITE = "positive-definite"

_LEAVES = {"identity": CND1, "multiquadric": STRICTLY_CND1, "exponential": POSITIVE_DEFINITE}
_PARAMETERS = {**dict.fromkeys(_LEAVES, ()), "power": ("tau",), "composition": ("outer", "inner")}
_KINDS = ", ".join(_PARAMETERS)


def _check_form(kind, given, allowed=()) -> None:
    """ValueError unless `kind` is known and `given` holds its parameters, beside `allowed`."""
    if not isinstance(kind, str) or kind not in _PARAMETERS:
        raise ValueError(f"unknown profile kind {quote(kind)} (kinds: {_KINDS})")
    params = _PARAMETERS[kind]
    faults = [f"unexpected {quote(key)}" for key in given if key not in (*allowed, *params)]
    faults += [f"missing {quote(key)}" for key in params if key not in given]
    if faults:
        takes = " and ".join(params) or "no parameter"
        raise ValueError(f"{kind} profile takes {takes}: {', '.join(faults)}")


@dataclass(frozen=True)
class RadialProfile:
    """A scalar radial map, checked on construction; its class (`family`) follows from it."""

    kind: str
    tau: Optional[float] = None
    outer: Optional["RadialProfile"] = None
    inner: Optional["RadialProfile"] = None
    input_convention: str = DISTANCE

    def __post_init__(self):
        given = [key for key in ("tau", "outer", "inner") if getattr(self, key) is not None]
        _check_form(self.kind, given)
        if self.kind == "power":
            if isinstance(self.tau, bool) or not isinstance(self.tau, numbers.Real):
                raise ValueError(f"power profile tau must be a real number, got {quote(self.tau)}")
            if not 0.0 < self.tau < np.inf:  # nan fails too
                raise ValueError(f"power exponent must be positive, got {self.tau!r}")
        for key in ("outer", "inner"):
            value = getattr(self, key)
            if self.kind == "composition" and not isinstance(value, RadialProfile):
                raise ValueError(f"composition {key} must be a RadialProfile, got {quote(value)}")
        if self.input_convention not in _CONVENTIONS:
            raise ValueError(f"unknown input convention: {quote(self.input_convention)}")
        if self.kind == "composition" and self.outer.input_convention != DISTANCE:
            raise ValueError(
                f"outer profile {self.outer.describe()} has input convention "
                f"{quote(self.outer.input_convention)}; put the convention on the inner profile"
            )
        if self.kind == "composition" and self.input_convention != self.inner.input_convention:
            raise ValueError(
                f"composition input convention {quote(self.input_convention)} differs from "
                f"{quote(self.inner.input_convention)} of inner profile {self.inner.describe()}; "
                "a composition consumes what its inner profile consumes"
            )

    @cached_property
    def family(self) -> Optional[str]:
        """The class from the module's catalog table, power's tau rule and the composition rule."""
        if self.kind == "power":
            return STRICTLY_CND1 if self.tau < 1.0 else CND1 if self.tau == 1.0 else None
        if self.kind == "composition":
            keeps = self.inner.family in (CND1, STRICTLY_CND1) and self.inner(0.0) == 0.0
            return self.outer.family if keeps else None
        return _LEAVES.get(self.kind)

    def __call__(self, t):
        """The profile at t >= 0 (scalar or array).

        Raises ValueError naming the profile when a value overflows a double.
        Only the final value is checked, so an inner value that overflows to
        inf may still map to a finite one (exp o power(3) gives 0 there).
        """
        return self._values(t, None)

    def apply_to_power_sums(self, sums, p: float) -> np.ndarray:
        """Map pairwise p-th-power sums s = ||x_i - x_j||_p^p to profile values; raises
        ValueError naming the profile and p when a value overflows a double."""
        return self._values(sums, p)

    def _values(self, t, p: Optional[float]):
        """The profile at t, or at the power sums t taken at p; `t` is not written."""
        t = np.asarray(t, dtype=float)
        if not np.all(t >= 0.0):  # nan fails too
            raise ValueError("profile argument must be non-negative")
        if p is None or self.input_convention == PTH_POWER_DISTANCE:
            t = t.copy()
        else:  # np.asarray: a 0-d array's root is a numpy scalar, which cannot be mapped in place
            t = np.asarray(_roots(t, p, self.input_convention == SQUARED_DISTANCE))
        with np.errstate(over="ignore"):
            _map(self, t)
        if np.isinf(t).any():
            where = "" if p is None else f" at p = {p:g}; rescale the points"
            raise ValueError(f"profile {self.describe()} overflows a double{where}")
        return float(t) if t.ndim == 0 else t

    def describe(self) -> str:
        if self.kind == "power":
            return f"power({self.tau:g})"
        if self.kind == "composition":
            return f"({self.outer.describe()} o {self.inner.describe()})"
        return self.kind


def identity(convention: str = DISTANCE) -> RadialProfile:
    return RadialProfile(kind="identity", input_convention=convention)


def power(tau: float, convention: str = DISTANCE) -> RadialProfile:
    """t -> t^tau. tau > 1 is accepted but has no family."""
    return RadialProfile(kind="power", tau=float(tau), input_convention=convention)


def multiquadric(convention: str = DISTANCE) -> RadialProfile:
    return RadialProfile(kind="multiquadric", input_convention=convention)


def exponential(convention: str = DISTANCE) -> RadialProfile:
    return RadialProfile(kind="exponential", input_convention=convention)


def compose(outer: RadialProfile, inner: RadialProfile) -> RadialProfile:
    """outer o inner, which consumes what inner consumes: the convention sits on
    the inner leaf. outer consumes inner's values, not a distance, so an outer
    convention other than DISTANCE raises ValueError."""
    return RadialProfile(
        kind="composition", outer=outer, inner=inner, input_convention=inner.input_convention
    )


def _roots(sums: np.ndarray, p: float, squared: bool) -> np.ndarray:
    """s^(1/p), the p-norm distances of power sums s >= 0, or s^(2/p) with squared=True.

    The result is a new array. Exponent 1/2 takes `np.sqrt`, the bits of
    `np.power(s, 0.5)` in half the time for any s but -0.0, which no power sum
    is. Raises ValueError naming p beyond the double range, which only an
    exponent e > 1 can reach: s^e <= max(s, 1) for e <= 1.
    """
    exponent = (2.0 if squared else 1.0) / p
    if exponent == 0.5:
        return np.sqrt(sums)
    with np.errstate(over="ignore"):
        roots = np.power(sums, exponent)
    if exponent > 1.0 and np.isinf(roots).any():
        raise ValueError(f"p-norm distances overflow a double at p = {p:g}; rescale the points")
    return roots


def _map(profile: RadialProfile, t: np.ndarray) -> None:
    """Write the scalar map over `t` in place, unchecked: each leaf maps [0, inf] into itself."""
    if profile.kind == "power":
        np.power(t, profile.tau, out=t)
    elif profile.kind == "multiquadric":
        t += 1.0
        np.sqrt(t, out=t)
    elif profile.kind == "exponential":
        np.negative(t, out=t)
        np.exp(t, out=t)
    elif profile.kind == "composition":
        _map(profile.inner, t)
        _map(profile.outer, t)


# ---------------------------------------------------------------------------
# The class the catalog guarantees


def _base_matrix_class(convention: str, p: float):
    """What is known about the raw convention matrix itself.

    Returns (class, source) where class is VERDICT_STRICTLY_AND (given
    distinct points), VERDICT_AND (strictness not guaranteed), or None (no
    guarantee). All three convention matrices have zero diagonal.
    """
    if convention == DISTANCE:
        if 1.0 < p < 2.0:
            return VERDICT_STRICTLY_AND, f"p-norm distance matrix, p={p} in (1,2)"
        if p == 2.0:
            return VERDICT_STRICTLY_AND, "Euclidean distance matrix"
        if p == 1.0:
            return VERDICT_AND, "1-norm distance matrix (sum of coordinate distance matrices)"
        return None, f"p-norm distance matrix with p={p}: no guarantee"
    if convention == PTH_POWER_DISTANCE:
        if 0.0 < p < 2.0:
            return VERDICT_AND, f"p-th power distance matrix, p={p} in (0,2)"
        if p == 2.0:
            return VERDICT_AND, "squared Euclidean distance matrix"
        return None, f"p-th power distance matrix with p={p}: no guarantee"
    # SQUARED_DISTANCE, the one convention left: RadialProfile admits no other
    if p == 2.0:
        return VERDICT_AND, "squared Euclidean distance matrix"
    return None, f"squared p-norm distance matrix with p={p}: no guarantee"


def predict(profile: RadialProfile, p: float, n: int, distinct: bool):
    """(class, source): the strongest class the catalog guarantees, and the fact it rests on.

    The class is VERDICT_STRICTLY_AND, VERDICT_AND, POSITIVE_DEFINITE or None.
    The identity profile passes the base matrix straight through. A CND1
    profile over an AND base matrix gives AND, strictly AND when it is
    strictly CND1 on n >= 2 distinct points; a positive definite profile
    over it gives a positive definite matrix on distinct points.
    """
    base, source = _base_matrix_class(profile.input_convention, geometry.finite_positive(p))
    if base is None:
        return None, source
    strict = distinct and n >= 2  # every off-diagonal argument is nonzero
    if profile.kind == "identity":
        return (base if strict else VERDICT_AND), source
    if profile.family == STRICTLY_CND1 and strict:
        return VERDICT_STRICTLY_AND, f"strictly CND1 profile over {source}"
    if profile.family in (CND1, STRICTLY_CND1):
        return VERDICT_AND, f"CND1 profile over {source}"
    if profile.family == POSITIVE_DEFINITE and distinct:
        return POSITIVE_DEFINITE, f"strictly positive definite profile over {source}"
    return None, f"profile carries no CND1 flag over {source}"


@dataclass(frozen=True)
class ProfileMatrixResult:
    matrix: DistanceMatrix
    report: AndReport
    predicted: Optional[str]
    prediction_source: str
    min_eigenvalue: Optional[float] = None


def matrix_from_profile(x: PointsLike, p: float, profile: RadialProfile) -> ProfileMatrixResult:
    """Build the profile matrix and cross-check it against `predict`.

    A predicted AND class needs an observed check_and verdict at least as
    strong; a predicted positive definite matrix needs min eigenvalue > 0,
    and only then is `min_eigenvalue` read. Either contradiction raises
    VerdictMismatchError.
    """
    pts = geometry.as_point_set(x)
    p = geometry.finite_positive(p)
    if pts.n < 2:
        raise ValueError("need n >= 2 points for a meaningful verdict")
    dm = geometry.build_distance_matrix(pts, p, profile)
    report = check_and(dm.entries)
    predicted, source = predict(profile, p, pts.n, pts.first_coincident_pair() is None)
    min_eig = None
    if predicted == POSITIVE_DEFINITE:
        min_eig = float(np.linalg.eigvalsh(dm.entries).min())
    result = ProfileMatrixResult(dm, report, predicted, source, min_eig)
    if predicted == POSITIVE_DEFINITE:
        if min_eig <= 0.0:
            raise VerdictMismatchError(
                f"predicted positive definite ({source}) but min eigenvalue is {min_eig:.3e}",
                record=result,
            )
    elif predicted is not None and verdict_rank(report.verdict) < verdict_rank(predicted):
        raise VerdictMismatchError(
            f"predicted {predicted} ({source}) but observed {report.verdict}",
            record=result,
        )
    return result


# ---------------------------------------------------------------------------
# JSON expression form


MAX_PROFILE_DEPTH = 100  # expression levels; evaluation recurses far below Python's limit


def from_json_dict(obj) -> RadialProfile:
    """The profile of a JSON expression; a malformed expression raises ValueError.

    An expression holds "kind" and exactly the parameters of its kind: "tau"
    for power (a number, or the decimal string the CLI shorthand
    NAME[:PARAM][@CONVENTION] passes), "outer" and "inner" for composition.
    A leaf may also hold "input_convention"; a composition takes inner's.
    It nests at most MAX_PROFILE_DEPTH levels deep.
    """
    return _from_expression(obj, MAX_PROFILE_DEPTH)


def _from_expression(obj, levels: int) -> RadialProfile:
    """`from_json_dict` for an expression that may nest `levels` levels deep."""
    if levels == 0:
        raise ValueError(f"profile expression nested deeper than {MAX_PROFILE_DEPTH} levels")
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"not a profile expression: {quote(obj)} (kinds: {_KINDS})")
    kind = obj["kind"]
    _check_form(kind, obj, ("kind",) if kind == "composition" else ("kind", "input_convention"))
    if kind == "composition":
        return compose(*(_from_expression(obj[key], levels - 1) for key in ("outer", "inner")))
    convention = obj.get("input_convention", DISTANCE)
    if kind != "power":
        return RadialProfile(kind=kind, input_convention=convention)
    try:
        if isinstance(obj["tau"], bool):  # float() reads a JSON true as 1.0
            raise TypeError
        tau = float(obj["tau"])
    except (TypeError, ValueError):
        raise ValueError(f"power profile needs a numeric tau, got {quote(obj['tau'])}") from None
    return power(tau, convention)
