"""Points, p-norm distances, and distance-matrix assembly.

The p-norm ||v||_p = (sum |v_k|^p)^(1/p) is a norm for p >= 1 and a
quasi-norm (triangle inequality fails) for 0 < p < 1; both ranges are
supported.

`power_sum_blocks` is the one place that forms the pairwise p-th-power sums
sum_k |a_ik - b_jk|^p. It works through the rows of `a` in blocks of about
BLOCK_BYTES of coordinate differences, each formed and raised to the p-th
power in place in one workspace that every block of a call reuses, so a
caller holds its output plus one block. A block is laid out
coordinate-major, (d, rows, m), so every ufunc runs over contiguous rows of
length m rather than of length d, and the coordinate planes are added in
index order, k = 0, 1, ..., d-1. A block's differences are one stacked
matmul, a_ik - b_jk = [a_ik, 1] . [1, -b_jk]. A subtraction that broadcasts
one operand along rows of length m was three times slower on the interp
blocks (740 blocks of 3 x 54 x 400 differences on a 2-core AVX-512 Xeon:
60 ms against 19 ms, at one OpenBLAS thread and at two). Both products are
exact (a factor is 1), so each entry is one rounded sum, the bits of
a_ik - b_jk with or without FMA and at any BLAS thread count; only
the sign of an exact zero may differ, and |v|^p erases it. A difference
beyond the double range is inf, formed without a warning, and the overflow
check on the sums rejects it. Distance matrices are assembled from its
upper blocks and mirrored, so they are bitwise symmetric by construction.
An upper block pairs its rows with the columns that remain, m = n - start,
and takes as many rows as fit BLOCK_BYTES at that width, so the blocks grow
taller down the matrix and memory is still the output plus one block.

File formats read by this module (`serialize.write_csv` writes them): points
are CSV with one point per row and d float columns (no header); matrices are
CSV with n rows of n floats. A cell is anything Python's float() reads,
underscores between digits included, and may be quoted; blank lines,
whitespace-only lines and rows of empty cells are skipped; a non-finite cell
is rejected with its line and column; a file that is not UTF-8 is rejected
with the offset of its first bad byte. A well-formed file (ASCII decimal
cells, finite, the same count on every line) is parsed in one vectorised
`np.loadtxt` call; any other file is read row by row, which gives the same
values and words every error.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import InputError, quote
from .serialize import write_csv

if TYPE_CHECKING:
    from .profiles import RadialProfile

BLOCK_BYTES = 512 * 1024  # coordinate differences held per block


def finite_positive(value, name: str = "p") -> float:
    """`value` as a float; raises ValueError, naming `name`, unless 0 < value < inf.

    Every public function that takes the exponent p validates it here once.
    """
    x = float(value)
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be a finite positive real, got {x!r}")
    return x


@dataclass(frozen=True, eq=False)
class PointSet:
    """An ordered set of n points in R^d, stored as an (n, d) array."""

    points: np.ndarray

    def __post_init__(self):
        arr = np.array(self.points, dtype=float, copy=True)
        if arr.ndim != 2:
            raise ValueError(f"points must be a 2-d array, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"need n >= 1 points of dimension d >= 1, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("points must have finite coordinates")
        arr.setflags(write=False)
        object.__setattr__(self, "points", arr)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def first_coincident_pair(self) -> Optional[tuple[int, int]]:
        """0-based rows (i, j) of the first point j equal to an earlier point i, or None.

        Rows compare as tuples of floats, so -0.0 equals 0.0.
        """
        seen: dict = {}
        for j, row in enumerate(map(tuple, self.points.tolist())):
            i = seen.setdefault(row, j)
            if i != j:
                return i, j
        return None


PointsLike = Union[PointSet, np.ndarray, Sequence[Sequence[float]]]


def as_point_set(x: PointsLike) -> PointSet:
    return x if isinstance(x, PointSet) else PointSet(np.asarray(x, dtype=float))


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric n x n matrix of profile values of pairwise p-norm distances.

    `build_distance_matrix` makes it, from a read-only array it does not copy.
    """

    entries: np.ndarray

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def pow_abs(values, p: float) -> np.ndarray:
    """|values|^p elementwise, in a new array; `values` is not changed.

    At p = 2 it is v * v, the correctly rounded square. Every other p takes
    exp(p*ln|v|), which is faster at block size than numpy's array `power`:
    on the interp kernel (40 000 x 400 x 3 differences, a 2-core AVX-512
    Xeon, numpy 2.4) it took 16-22% less time at p = 1.25, 1.5 and 1.75.
    ln 0 = -inf, so a zero of either sign comes out +0.0 on both paths, and a
    result beyond the double range comes out inf without a warning
    (`power_sum_blocks` rejects it).
    """
    a = np.asarray(values, dtype=float)
    return _pow_abs(a, p, np.empty_like(a))


def _pow_abs(values: np.ndarray, p: float, out: np.ndarray) -> np.ndarray:
    """`pow_abs` written into `out`, which may be `values` itself."""
    with np.errstate(divide="ignore", over="ignore"):
        if p == 2.0:
            return np.multiply(values, values, out=out)
        np.abs(values, out=out)
        np.log(out, out=out)
        out *= p
        return np.exp(out, out=out)


def power_sum_blocks(
    a: np.ndarray, b: Optional[np.ndarray], p: float
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (start, stop, sums) with sums[i, j] = sum_k |a[start+i, k] - b[j, k]|^p.

    `a` and `b` are float arrays of shape (n, d) and (m, d); the row blocks
    of `a` cover it in order, each with at most BLOCK_BYTES of differences
    unless it is one row. With b=None the blocks are the upper ones,
    a[start:stop] against a[start:], sized to those n - start columns, so
    sums[i, j] pairs rows start+i and start+j of `a`. Each block's terms are
    laid out coordinate-major, (d, rows, m), formed as the matmul of
    [a.T, 1] (d, rows, 2) with [1; -b.T] (d, 2, m), which gives the bits of
    the subtraction up to the sign of a zero, powered in place and summed
    over k in index order; the terms are >= 0, so each sum's relative error
    is at most about (d-1) * 2^-53. The two factors add 2 * d * (rows + m)
    doubles to the block. Raises ValueError when a sum overflows a double
    (an inf difference included), or falls below the normal double range
    for two rows that differ: the first turns a distance into inf, the
    second into 0 or a subnormal with too few significant bits, and the
    verdicts built on either into nonsense.
    """
    upper = b is None
    if upper:
        b = a
    d = b.shape[1]
    bounds = []
    stop = 0
    while stop < a.shape[0]:
        start = stop
        width = b.shape[0] - start if upper else b.shape[0]
        stop = min(start + max(1, BLOCK_BYTES // (8 * width * d)), a.shape[0])
        bounds.append((start, stop, width))
    # a_ik - b_jk = [a_ik, 1] . [1, -b_jk]: two exact products, one rounded sum
    right = np.empty((d, 2, b.shape[0]))
    right[:, 0] = 1.0
    np.negative(b.T, out=right[:, 1])
    left = np.ones((d, max((stop - start for start, stop, _ in bounds), default=0), 2))
    # one workspace for every block's terms, as large as the largest block
    work = np.empty(max(((stop - start) * width for start, stop, width in bounds), default=0) * d)
    for start, stop, width in bounds:
        rows = stop - start
        terms = work[: rows * width * d].reshape(d, rows, width)
        left[:, :rows, 0] = a[start:stop].T
        with np.errstate(over="ignore"):  # an inf difference fails the overflow check below
            np.matmul(left[:, :rows], right[:, :, start:] if upper else right, out=terms)
        _pow_abs(terms, p, terms)
        with np.errstate(over="ignore"):
            # a new array for every block: the next block overwrites the workspace
            sums = np.add(terms[0], terms[1]) if d > 1 else terms[0].copy()
            for term in terms[2:]:
                sums += term
        if not sums.max() < np.inf:
            raise ValueError(f"p-norm distances overflow a double at p = {p:g}; rescale the points")
        tiny = np.finfo(float).tiny
        if sums.min() < tiny:
            # a - b is 0 exactly when a == b, gradual underflow included
            i, j = np.divmod(np.flatnonzero(sums < tiny), sums.shape[1])
            if (a[start + i] != b[start + j if upper else j]).any():
                raise ValueError(
                    f"p-norm power sums of distinct points fall below the normal double "
                    f"range at p = {p:g}; rescale the points"
                )
        yield start, stop, sums


def build_distance_matrix(
    x: PointsLike, p: float, profile: "Optional[RadialProfile]" = None
) -> DistanceMatrix:
    """Assemble A_ij = profile(||x_i - x_j||_p) from mirrored upper blocks.

    `profile=None` is `identity()`, the raw p-norm distance. A profile's
    `input_convention` decides whether it consumes the distance r, the
    squared distance r^2, or the p-th power r^p. The blocks compute the
    diagonal, the profile's value at 0 (exactly 0 for the raw distance),
    from its power sums of exactly 0. Memory is the n x n result plus one block.
    """
    from .profiles import identity  # profiles imports this module

    pts = as_point_set(x)
    p = finite_positive(p)
    profile = identity() if profile is None else profile
    entries = np.empty((pts.n, pts.n))  # the blocks write every entry
    for start, stop, sums in power_sum_blocks(pts.points, None, p):
        vals = profile.apply_to_power_sums(sums, p)
        entries[start:stop, start:] = vals
        entries[start:, start:stop] = vals.T
    entries.setflags(write=False)
    return DistanceMatrix(entries)


# ---------------------------------------------------------------------------
# CSV formats


def _read_rows(path) -> list[list[float]]:
    rows = []
    width = None
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        bad = f"byte 0x{data[exc.start]:02x} at offset {exc.start}"
        raise InputError(f"{path}: not UTF-8 text: {bad}") from None
    # csv rejects a cell longer than its field size limit (131072 characters by
    # default) and np.loadtxt does not; no cell is longer than the text, so the
    # limit is raised to its length while it is read and both take the same cells
    limit = csv.field_size_limit()
    csv.field_size_limit(max(limit, len(text)))
    try:
        for lineno, row in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
            if not row or all(cell.strip() == "" for cell in row):
                continue  # tolerate blank lines
            vals = []
            for col, cell in enumerate(row, start=1):
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise InputError(
                        f"{path}:{lineno}: column {col}: not a number: {quote(cell.strip())}"
                    ) from None
                if not math.isfinite(vals[-1]):
                    raise InputError(
                        f"{path}:{lineno}: column {col}: not a finite number: {quote(cell.strip())}"
                    )
            if width is None:
                width = len(vals)
            elif len(vals) != width:
                raise InputError(f"{path}:{lineno}: expected {width} columns, got {len(vals)}")
            rows.append(vals)
    finally:
        csv.field_size_limit(limit)
    if not rows:
        raise InputError(f"{path}: no data rows")
    return rows


def _read_array(path) -> np.ndarray:
    """The cells of a CSV file as a 2-d float array, equal bit for bit to
    `np.array(_read_rows(path))`, or the error `_read_rows` raises.

    A missing file raises `open`'s OSError, as in `_read_rows`. `np.loadtxt`
    reads with comments=None, so a '#' line is not skipped. A file it
    rejects (one that is not UTF-8 included), one with no data rows and one
    with a non-finite cell are read again by `_read_rows`.
    """
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on a file with no data
            arr = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
    except ValueError:
        pass
    else:
        if arr.size and np.isfinite(arr).all():
            return arr
    return np.array(_read_rows(path))


def read_points_csv(path) -> PointSet:
    """Read points from CSV (one point per row, d float columns, no header)."""
    return PointSet(_read_array(path))  # a 2-d, non-empty, finite array; its errors name the file


def write_points_csv(path, points: PointsLike) -> None:
    write_csv(path, as_point_set(points).points)


def read_matrix_csv(path) -> np.ndarray:
    """Read an n x n float matrix from CSV (no header)."""
    arr = _read_array(path)
    if arr.shape[0] != arr.shape[1]:
        raise InputError(f"{path}: expected a square matrix, got shape {arr.shape}")
    return arr


def write_matrix_csv(path, matrix) -> None:
    write_csv(path, np.atleast_2d(matrix))
