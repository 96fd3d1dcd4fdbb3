"""Instances, routes, metric validation, and instance generators.

An instance is a set of pickup points plus dropoff point(s) with a pairwise
distance table, an operator rate (price per unit distance), and per-rider
detour sensitivities. Rider indices follow boarding order: whoever boards
j-th is rider j and carries the j-th sensitivity. A route fixes which pickup
point is visited at each position.

Distances are stored as an explicit table; Euclidean input is a convenience
constructor. Non-metric tables are first class (``metric_flag=False``):
some generators intentionally produce them, and consumers that require a
metric must check the flag.

Table invariant: every :class:`DistanceTable` holds a square, finite,
read-only float array whose largest magnitude times m**2 (m points) is
finite. The check runs when the table is built, whoever builds it
(``from_matrix``, ``from_euclidean`` or a generator), and raises
:class:`MalformedInputError` for ragged, non-numeric, non-square,
non-finite or overflowing input, so no consumer checks the entries again.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
import operator
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConstructionError, MalformedInputError, UnsupportedModeError
from .numeric import DEFAULT_REL_TOL, check_tolerance, comparison_tolerances

SINGLE = "single"
MULTI = "multi"
REGIME_FINITE = "finite"
REGIME_ZERO = "zero"
REGIME_INFINITE = "infinite"
REGIMES = (REGIME_FINITE, REGIME_ZERO, REGIME_INFINITE)

PICKUP = "P"
DROPOFF = "D"

# Sums held at once by the triangle check (float64 elements per row block).
_TRIANGLE_BLOCK = 2 ** 16


# ---------------------------------------------------------------------------
# Metric validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricViolation:
    kind: str  # "negative" | "diagonal" | "asymmetric" | "triangle"
    indices: tuple[int, ...]
    excess: float


@dataclass(frozen=True)
class MetricReport:
    ok: bool
    violations: tuple[MetricViolation, ...]

    def by_kind(self, kind: str) -> list[MetricViolation]:
        return [v for v in self.violations if v.kind == kind]


_KIND_NAMES = {"U": "str", "S": "bytes", "b": "bool"}


def _real_array(values, what: str) -> np.ndarray:
    """``values`` as a float array, once its entries are real numbers.

    An array of strings, bytes or booleans is refused by its dtype, with no
    pass over the entries; only an object array (say, one holding an int
    beyond int64 or a None) has its entries inspected. A bool among numbers
    is promoted by numpy without trace, so it goes unseen here. Raises
    MalformedInputError naming ``what``; OverflowError (an int beyond float
    range) and numpy's ValueError for ragged input reach the caller.
    """
    arr = np.asarray(values)
    kind = arr.dtype.kind
    if kind == "O":
        for entry in arr.flat:
            if not _is_real(entry):
                raise MalformedInputError(
                    f"{what} must be real numbers, not {type(entry).__name__}")
    elif kind not in "fiu":
        raise MalformedInputError(
            f"{what} must be real numbers, not {_KIND_NAMES.get(kind, arr.dtype.name)}")
    return arr.astype(float, copy=False)


def _as_square_matrix(entries) -> np.ndarray:
    """The table check: outside input as a square, finite float array whose
    largest magnitude times m**2 is finite, so no sum the package forms from
    it overflows. Strings, bytes and booleans are refused (``_real_array``)."""
    try:
        arr = _real_array(entries, "distance table entries")
    except OverflowError as exc:  # an int beyond float range
        raise MalformedInputError(f"distance table entry beyond float range: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(f"distance table is not a matrix of numbers: {exc}") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise MalformedInputError(f"distance table must be square, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise MalformedInputError("distance table contains NaN or infinite entries")
    m = arr.shape[0]
    peak = float(np.abs(arr).max()) if arr.size else 0.0
    if not math.isfinite(peak * m * m):  # in Python floats, so numpy does not warn
        raise MalformedInputError(
            f"distance table entries reach {peak:.6g}; sums over {m} points would overflow"
        )
    return arr


def _hard_violations(d: np.ndarray, rel_tol: float) -> list[MetricViolation]:
    """The O(m^2) part of ``validate_metric``: diagonal, then per pair (a < b)
    asymmetry before negativity. Any of these makes ``d`` no distance table."""
    violations: list[MetricViolation] = []

    diag = np.abs(np.diagonal(d))
    for a in np.flatnonzero(diag > comparison_tolerances(diag, rel_tol)):
        violations.append(MetricViolation("diagonal", (int(a),), float(diag[a])))

    gap = np.abs(d - d.T)
    asym = gap > comparison_tolerances(np.maximum(np.abs(d), np.abs(d.T)), rel_tol)
    neg = d < -comparison_tolerances(np.abs(d), rel_tol)
    for a, b in zip(*np.nonzero(asym | neg)):
        if a < b:  # the upper triangle, in row-major order
            pair = (int(a), int(b))
            if asym[a, b]:
                violations.append(MetricViolation("asymmetric", pair, float(gap[a, b])))
            if neg[a, b]:
                violations.append(MetricViolation("negative", pair, -float(d[a, b])))
    return violations


def validate_metric(table, rel_tol: float = DEFAULT_REL_TOL) -> MetricReport:
    """Report every symmetry, nonnegativity, diagonal, and triangle violation.

    ``table`` may be a raw matrix or a :class:`DistanceTable`. A relative
    tolerance of 0 makes every check exact. Violations come out diagonal
    first, then per pair (a < b) its asymmetry before its negativity, then
    triangles in lexicographic (a, b, c) order with a < c.

    Cost: O(m^3) time and O(m^2) memory for m points. The triangle check
    walks the endpoint rows ``a`` in blocks of about ``_TRIANGLE_BLOCK``
    sums, so no m^3 array is ever held.
    """
    check_tolerance(rel_tol)
    if isinstance(table, DistanceTable):
        d = table.entries
    else:
        d = _as_square_matrix(table)
    m = d.shape[0]
    violations = _hard_violations(d, rel_tol)

    # Triangle check: d(a,c) <= d(a,b) + d(b,c) for every b distinct from a, c.
    # The tolerance is never negative, so only entries with d(a,c) above the
    # bare sum can fail; the tolerance is computed for those alone.
    rows_per_block = max(1, _TRIANGLE_BLOCK // max(m * m, 1))
    for a0 in range(0, m - 1, rows_per_block):
        a1 = min(a0 + rows_per_block, m - 1)
        sums = d[a0:a1, :, None] + d[None, :, a0 + 1:]  # sums[a, b, c] = d(a,b) + d(b,c)
        over = d[a0:a1, None, a0 + 1:] > sums
        if not over.any():
            continue
        found = np.nonzero(over)
        via = sums[found]
        a, b, c = found[0] + a0, found[1], found[2] + a0 + 1
        keep = (a < c) & (b != a) & (b != c)  # one report per endpoint pair and witness
        a, b, c, via = a[keep], b[keep], c[keep], via[keep]
        direct = d[a, c]
        bad = direct > via + comparison_tolerances(np.maximum(abs(direct), abs(via)), rel_tol)
        for a_, b_, c_, excess in zip(a[bad], b[bad], c[bad], (direct - via)[bad]):
            violations.append(
                MetricViolation("triangle", (int(a_), int(b_), int(c_)), float(excess))
            )

    return MetricReport(ok=not violations, violations=tuple(violations))


@dataclass(frozen=True, eq=False)
class DistanceTable:
    """Symmetric nonnegative distance matrix with a metric flag.

    ``entries`` is a read-only copy that passed the table check, which also
    bounds the entries: the largest magnitude times m**2, for m points, must
    be finite. That covers every sum formed from the table: route lengths,
    the allocation's 3·n·max scale and the search's n(n+1)·max rounding slack.
    ``metric_flag`` asserts the triangle inequality holds. Generators that
    prove it by construction pass it directly, and so does a file that
    declares it: a declared flag is a claim that ``metric_report`` checks on
    request. ``from_matrix`` computes it only when it is not supplied, and
    only then keeps ``load_check``, the (tolerance, report) of that full
    check, for ``metric_report`` to reuse.
    """

    entries: np.ndarray
    metric_flag: bool
    load_check: tuple[float, MetricReport] | None = field(default=None, repr=False)

    def __post_init__(self):
        entries = _as_square_matrix(self.entries)
        if entries is self.entries:
            entries = entries.copy()  # never freeze or alias the caller's array
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    def __reduce__(self):
        # pickling and copying build the table again, so the copy is checked and frozen too
        return DistanceTable, (self.entries, self.metric_flag, self.load_check)

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def rows(self) -> list[list[float]]:
        # Plain-list view for hot loops.
        return self.entries.tolist()

    def metric_report(self, rel_tol: float = DEFAULT_REL_TOL) -> MetricReport:
        """``validate_metric(self, rel_tol)``, reusing the load's check at that tolerance."""
        if self.load_check is not None and self.load_check[0] == rel_tol:
            return self.load_check[1]
        return validate_metric(self, rel_tol)

    @classmethod
    def from_matrix(cls, entries, metric_flag: bool | None = None,
                    rel_tol: float = DEFAULT_REL_TOL) -> "DistanceTable":
        """A checked table: a diagonal, asymmetry or negativity violation at
        ``rel_tol`` raises MalformedInputError. The O(m^3) triangle scan runs
        only when ``metric_flag`` is not supplied, to compute it."""
        table = cls(entries=entries, metric_flag=False)
        if metric_flag is None:
            report = validate_metric(table, rel_tol)
            hard = [v for v in report.violations if v.kind != "triangle"]
            metric_flag, load_check = report.ok, (rel_tol, report)
        else:
            check_tolerance(rel_tol)
            hard, load_check = _hard_violations(table.entries, rel_tol), None
        if hard:
            first = hard[0]
            raise MalformedInputError(
                f"distance table is not a valid table: {first.kind} violation at {first.indices}"
            )
        # set on the table just built, so its entries are checked and copied once
        object.__setattr__(table, "metric_flag", bool(metric_flag))
        object.__setattr__(table, "load_check", load_check)
        return table


def from_euclidean(coords: Sequence) -> DistanceTable:
    """Distance table of pairwise Euclidean distances.

    Accepts scalars (line metric) or same-dimension coordinate vectors of
    real numbers: strings, bytes and booleans are refused, a boolean point
    too, though numpy would promote it among numeric ones (``_real_array``).
    Non-finite coordinates and overflowing distances fail the table check.
    """
    try:
        points = [np.atleast_1d(c) for c in coords]
        if any(p.dtype.kind == "b" for p in points):
            raise MalformedInputError("coordinates must be real numbers, not bool")
        pts = _real_array(points, "coordinates")
    except OverflowError as exc:  # an int beyond float range
        raise MalformedInputError(f"coordinate beyond float range: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(f"coordinates are not points of one dimension: {exc}") from None
    if pts.ndim != 2:
        raise MalformedInputError(f"coordinates must be a list of points, got shape {pts.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        diff = pts[:, None, :] - pts[None, :, :]
        entries = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(entries, 0.0)
    return DistanceTable(entries=entries, metric_flag=True)


# ---------------------------------------------------------------------------
# Instance
# ---------------------------------------------------------------------------

def _check_integer(what: str, value) -> None:
    """Raise MalformedInputError unless ``value`` is an integer (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise MalformedInputError(f"{what} must be an integer, not {value!r}")


def _is_real(value) -> bool:
    """Whether ``value`` is a real number (a bool is not)."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real)


def _checked_rates(n: int, alpha_op: float,
                   alphas: Iterable[float]) -> tuple[float, tuple[float, ...]]:
    """The rates as floats, once they fit n riders: a positive, finite operator
    rate and n nonnegative, finite sensitivities, each a real number (not a
    string or a boolean). Raises MalformedInputError otherwise."""
    alphas = tuple(alphas)
    if not all(map(_is_real, (alpha_op, *alphas))):
        raise MalformedInputError("rates must be real numbers")
    try:
        alpha_op, alphas = float(alpha_op), tuple(float(a) for a in alphas)
    except OverflowError:
        raise MalformedInputError("rates must be finite") from None
    if not (0 < alpha_op < math.inf):
        raise MalformedInputError("operator rate must be positive and finite")
    if len(alphas) != n:
        raise MalformedInputError(f"need {n} sensitivities, got {len(alphas)}")
    if not all(0 <= a < math.inf for a in alphas):
        raise MalformedInputError("detour sensitivities must be nonnegative and finite")
    return alpha_op, alphas


def _prefix_sums(alphas: Sequence[float]) -> list[float]:
    """``[0.0, alpha_1, alpha_1 + alpha_2, ...]``, the one left-to-right fold."""
    return list(itertools.accumulate(alphas, initial=0.0))


def _stage_denominators(alpha_op: float, prefix: Sequence[float]) -> list[float]:
    """``1 + (alpha_1 + ... + alpha_{j-1}) / alpha_op`` for stages j = 1..n, from
    the ``_prefix_sums`` of the sensitivities: stage j's budget is the
    newcomer's direct distance over the j-th entry."""
    return [1.0 + acc / alpha_op for acc in prefix[:-1]]


def _stage_fits(detour: np.ndarray, budget: np.ndarray, rel: float) -> np.ndarray:
    """The single-dropoff stage test, elementwise over broadcast arrays: a
    boarding fits when its detour is at most its budget, ``approx_leq`` with
    ``comparison_tolerances`` as the slack. The one home of the test: the
    searches' table (``Instance._stage_verdicts``) and the columns a route's
    check reads (``Instance._build_stage_columns``) both come from it."""
    slack = comparison_tolerances(np.maximum(np.abs(detour), np.abs(budget)), rel)
    with np.errstate(over="ignore"):  # a budget plus a huge slack is inf, as in approx_leq
        return detour <= budget + slack


@dataclass(frozen=True, eq=False)
class Instance:
    """Pickup/dropoff geometry plus pricing and sensitivity parameters.

    ``dist`` covers the pickups (indices 0..n-1, rider-visible labels 1..n)
    followed by the dropoff point(s): one shared point in ``single`` mode,
    or one per pickup point in ``multi`` mode. ``alphas[j-1]`` is the detour
    sensitivity of whoever boards j-th. ``regime`` selects how feasibility
    bounds treat the sensitivities: as given (``finite``), or in the limits
    where they vanish (``zero``) or dominate (``infinite``) relative to the
    operator rate; in the limit regimes feasibility checks ignore the stored
    values, and in ``zero`` the stage costs ignore them too.
    """

    dist: DistanceTable
    n: int
    dropoff_mode: str
    alpha_op: float
    alphas: tuple[float, ...]
    regime: str = REGIME_FINITE

    def __post_init__(self):
        _check_integer("rider count n", self.n)
        object.__setattr__(self, "n", int(self.n))
        if self.n < 1:
            raise MalformedInputError("instance needs at least one rider")
        if self.dropoff_mode not in (SINGLE, MULTI):
            raise MalformedInputError(f"unknown dropoff mode {self.dropoff_mode!r}")
        if self.regime not in REGIMES:
            raise MalformedInputError(f"unknown regime {self.regime!r}")
        expected = self.n + 1 if self.dropoff_mode == SINGLE else 2 * self.n
        if self.dist.size != expected:
            raise MalformedInputError(
                f"distance table has {self.dist.size} points, expected {expected} "
                f"for n={self.n} in {self.dropoff_mode} mode"
            )
        alpha_op, alphas = _checked_rates(self.n, self.alpha_op, self.alphas)
        object.__setattr__(self, "alpha_op", alpha_op)
        object.__setattr__(self, "alphas", alphas)

    def __getstate__(self) -> dict:
        # the fields alone: cached tables and the kept stage grid are rebuilt on demand
        state = vars(self)
        return {name: state[name] for name in self.__dataclass_fields__}

    def require_single_dropoff(self, what: str) -> None:
        """Raise UnsupportedModeError unless every rider shares one dropoff."""
        if self.dropoff_mode != SINGLE:
            raise UnsupportedModeError(f"{what} is only defined for single-dropoff instances")

    # -- geometry helpers (labels are 1-based) --

    @cached_property
    def rows(self) -> list[list[float]]:
        return self.dist.rows

    def pickup_distance(self, a: int, b: int) -> float:
        return self.rows[a - 1][b - 1]

    def dropoff_index(self, point_label: int) -> int:
        """0-based table index of the dropoff serving the given pickup point."""
        if self.dropoff_mode == SINGLE:
            return self.n
        return self.n + point_label - 1

    @cached_property
    def direct(self) -> tuple[float, ...]:
        """Pickup-to-own-dropoff distance by point label (index 0 is padding)."""
        labels = range(1, self.n + 1)
        return (0.0,) + tuple(self.rows[p - 1][self.dropoff_index(p)] for p in labels)

    def direct_distance(self, point_label: int) -> float:
        return self.direct[point_label]

    # -- single-dropoff stage tables, by label (index 0 is padding): the j-th boarding,
    # at b right after a, passes when ``_stage_fits(detour[a][b], budget[j][b], rel)``;
    # each entry folds as the per-stage formula does, so bit for bit.

    @cached_property
    def detour(self) -> list[list[float]]:
        """``detour[a][b] = d(a,b) + d(b,D) - d(a,D)``: what a boarding at
        pickup b right after pickup a adds for everyone aboard."""
        n, rows, direct = self.n, self.rows, self.direct
        detour = [[0.0] * (n + 1)]
        for a in range(1, n + 1):
            row, da = rows[a - 1], direct[a]
            detour.append([0.0] + [row[b - 1] + direct[b] - da for b in range(1, n + 1)])
        return detour

    @cached_property
    def budget(self) -> list[list[float]]:
        """``budget[j][b] = d(b,D) / (1 + (alpha_1 + ... + alpha_{j-1}) / alpha_op)``:
        what the j-th boarding, at pickup b, may add; all of d(b,D) when the
        weights vanish (``zero``), 0.0 when they dominate (``infinite``)."""
        n, direct = self.n, self.direct
        if self.regime == REGIME_INFINITE:
            return [[0.0] * (n + 1) for _ in range(n + 1)]
        denoms = _stage_denominators(self.alpha_op, self._priced_prefix)
        return [[0.0] * (n + 1)] + [[d / denom for d in direct] for denom in denoms]

    def _stage_verdicts(self, rel: float) -> np.ndarray:
        """``passes[j, a, b-1]``: may pickup b board j-th right after pickup a?

        For j >= 2 and a >= 1 a cell is ``_stage_fits(detour[a][b],
        budget[j][b], rel)``. Stage 1 passes only from a = 0, because anyone
        may board first; every other cell of stage 0, stage 1 and row a = 0
        fails. Built afresh for each search, in O(n**3) memory.
        """
        n = self.n
        passes = np.zeros((n + 1, n + 1, n), dtype=bool)
        passes[1, 0] = True
        passes[2:, 1:] = _stage_fits(np.array(self.detour)[1:, 1:],  # [a-1, b-1]
                                     np.array(self.budget)[2:, None, 1:], rel)  # [j-2, -, b-1]
        return passes

    def _stage_grid(self, rel: float) -> list[list[list[bool] | None]]:
        """Columns of ``_stage_verdicts(rel)`` as a route's check reads them:
        ``grid[j][b]``, once built, is the list ``fits[a]`` of ``passes[j, a,
        b-1]``, and None before. ``_build_stage_columns`` builds the columns
        a route asks for, so a check costs O(n**2) whatever the instance's
        size. Kept for the last ``rel`` asked; pickles and copies leave it behind.
        """
        kept = vars(self).get("_grid")
        if kept is None or kept[0] != rel:
            kept = (rel, [[None] * (self.n + 1) for _ in range(self.n + 1)])
            vars(self)["_grid"] = kept
        return kept[1]

    def _build_stage_columns(self, rel: float, grid: list,
                             stages: Iterable[tuple[int, int]]) -> None:
        """Fill ``grid[j][b]`` for every (j, b) asked, j >= 2, that is not yet
        built, in one ``_stage_fits`` call."""
        missing = [(j, b) for j, b in stages if grid[j][b] is None]
        detour, budget = self.detour, self.budget
        fits = _stage_fits(np.array([[row[b] for row in detour] for _, b in missing]),
                           np.array([[budget[j][b]] for j, b in missing]), rel)
        fits[:, 0] = False  # row a = 0 is padding
        for (j, b), column in zip(missing, fits.tolist()):
            grid[j][b] = column

    @cached_property
    def _priced_alphas(self) -> tuple[float, ...]:
        """The sensitivities that price a detour (stage budgets, inconvenience
        costs, fair-share compensation): 0.0 in ``zero``."""
        return (0.0,) * self.n if self.regime == REGIME_ZERO else self.alphas

    @cached_property
    def _priced_prefix(self) -> tuple[float, ...]:
        """_priced_prefix[j] = sum of the first j priced sensitivities."""
        return tuple(_prefix_sums(self._priced_alphas))

    @cached_property
    def alpha_prefix(self) -> tuple[float, ...]:
        """alpha_prefix[j] = sum of the first j stored sensitivities, which
        split a fair table's surplus in the proportions alpha_i / alpha_prefix[j]."""
        return tuple(_prefix_sums(self.alphas))

    # -- serialization --

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "dropoff_mode": self.dropoff_mode,
            "distance_matrix": [[float(x) for x in row] for row in self.rows],
            "alpha_op": float(self.alpha_op),
            "alphas": [float(a) for a in self.alphas],
            "regime": self.regime,
            "metric_flag": bool(self.dist.metric_flag),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Instance":
        if not isinstance(data, dict):
            raise MalformedInputError("instance JSON root must be an object")
        for key in ("n", "dropoff_mode", "alpha_op", "alphas", "regime"):
            if key not in data:
                raise MalformedInputError(f"instance JSON missing required key {key!r}")
        has_matrix = data.get("distance_matrix") is not None
        has_coords = data.get("coords") is not None
        if has_matrix == has_coords:
            raise MalformedInputError(
                "instance JSON must supply exactly one of 'distance_matrix' or 'coords'"
            )
        n, alphas, flag = data["n"], data["alphas"], data.get("metric_flag")
        _check_integer("JSON field 'n'", n)
        if not isinstance(alphas, list):
            raise MalformedInputError(f"JSON field 'alphas' must be a list, not {alphas!r}")
        if not isinstance(flag, (bool, type(None))):
            raise MalformedInputError(f"JSON field 'metric_flag' must be a boolean, not {flag!r}")
        if has_coords:
            table = from_euclidean(data["coords"])
        else:
            table = DistanceTable.from_matrix(data["distance_matrix"], metric_flag=flag)
        return cls(
            dist=table,
            n=n,
            dropoff_mode=str(data["dropoff_mode"]),
            alpha_op=data["alpha_op"],
            alphas=alphas,
            regime=str(data["regime"]),
        )

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "Instance":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise MalformedInputError(f"cannot read instance file {path}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MalformedInputError(f"instance file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


# ---------------------------------------------------------------------------
# Routes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Route:
    """Ordered pickup/dropoff event sequence.

    Pickup events are tagged with the pickup point label being visited;
    dropoff events are tagged with the rider's boarding rank (rider j is
    whoever boarded j-th). ``single_dropoff`` routes store only ``pickup_order``,
    the pickups before the shared dropoff, and derive ``events`` on first read.

    A route keeps what it derives: its shape check (instance-free, so one
    per route), the verdict that ``feasibility.sir_feasible`` reached for the
    last (instance, ``rel``) it served, and the ledger of stage costs that
    ``feasibility.stage_costs`` keeps for the last instance it served. A
    route built from events in the canonical single-dropoff form (n pickups,
    then dropoffs 1..n) takes the same order-only shape check as a
    ``single_dropoff`` route. Pickling and copying carry only the field the
    route was built from, so none of shape, verdict or ledger (nor their
    instance) is pickled or copied; ``==``, ``hash`` and ``repr`` read
    ``events`` alone. ``Route(events=...)`` keeps events given as another
    iterable, such as a list or a generator, as a tuple.
    """

    events: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        events = vars(self)["events"]
        if type(events) is not tuple:  # a list or a generator: its tuple twin, hashable and re-readable
            try:
                vars(self)["events"] = tuple(events)
            except TypeError:  # not iterable: ``pickup_order`` names the fault
                pass

    @classmethod
    def single_dropoff(cls, order: Iterable[int]) -> "Route":
        """The route boarding ``order`` (pickup labels) before the shared dropoff.

        Raises MalformedInputError for a label that is not an integer.
        """
        order = tuple(order)
        try:
            if not any(isinstance(p, bool) for p in order):  # a bool is not a label
                return cls._of_order(tuple(map(operator.index, order)))
        except TypeError:
            pass
        raise MalformedInputError(f"route labels must be integers, got {order!r}")

    @classmethod
    def _of_order(cls, order: tuple[int, ...]) -> "Route":
        """``single_dropoff`` of a tuple of Python ints, taken as it is."""
        route = object.__new__(cls)
        vars(route)["pickup_order"] = order
        return route

    def __getstate__(self) -> dict:
        state = vars(self)
        defining = next(iter(state))  # ``events``, or ``pickup_order`` of a single_dropoff route
        return {defining: state[defining]}

    @cached_property
    def pickup_order(self) -> tuple[int, ...]:
        """The pickup labels in boarding order; MalformedInputError unless
        ``events`` is a sequence of (kind, label) pairs."""
        try:
            return tuple(idx for kind, idx in self.events if kind == PICKUP)
        except (TypeError, ValueError):
            raise MalformedInputError(
                f"route events must be (kind, label) pairs, got {self.events!r}") from None

    @property
    def n(self) -> int:
        return len(self.pickup_order)

    @cached_property
    def _shape(self) -> tuple[int, str | None, bool]:
        """Instance-free checks: (rider count, or -1 unless the pickups are a
        permutation of 1..n; first other defect or None; whether a dropoff
        precedes a pickup). Events in the canonical single-dropoff form take
        the order-only check at C speed; every other shape takes the walk,
        which alone names a defect."""
        events = vars(self).get("events")
        if type(events) is tuple:  # not for an order-only route, nor for events not iterable
            try:
                kinds, labels = zip(*events, strict=True)
            except (TypeError, ValueError):  # no events, or one that is not a pair
                pass
            else:
                n = len(labels) // 2
                pickups = labels[:n]
                canonical_kinds, ranks = _canonical_form(n)
                if (kinds == canonical_kinds and labels[n:] == ranks
                        and set(map(type, labels)) == {int} and tuple(sorted(pickups)) == ranks):
                    vars(self)["pickup_order"] = pickups
                    return n, None, False
        n = self.n
        try:
            if sorted(self.pickup_order) != list(range(1, n + 1)):
                return -1, None, False
            if "events" not in vars(self):  # an order alone derives well-formed events
                return n, None, False
            drop_ranks = [idx for kind, idx in self.events if kind == DROPOFF]
            if sorted(drop_ranks) != list(range(1, n + 1)):
                return n, "route must drop off each rider exactly once", False
        except TypeError:  # a label that does not compare with numbers
            return n, f"route labels must be integers, got {self.events!r}", False
        seen_pickups = 0
        for kind, idx in self.events:
            # a label that equals an int passed the checks above; a bool is no label
            if type(idx) is not int and (isinstance(idx, bool)
                                         or not isinstance(idx, numbers.Integral)):
                return n, f"route labels must be integers, not {idx!r}", False
            if kind == PICKUP:
                seen_pickups += 1
            elif kind != DROPOFF:
                return n, f"unknown event kind {kind!r}", False
            elif idx > seen_pickups:
                return n, f"rider {idx} dropped off before boarding", False
        # n pickups and n dropoffs remain, so the pickups come first iff they fill events[:n]
        return n, None, any(kind != PICKUP for kind, _ in self.events[:n])

    def validate(self, instance: Instance) -> None:
        """Raise MalformedInputError unless the route serves this instance.

        The instance-free checks are cached per route, so repeat calls are O(1).
        """
        riders, defect, interleaved = self._shape
        if riders != instance.n:
            defect = (f"route must pick up each of the {instance.n} points exactly once, "
                      f"got {self.pickup_order}")
        elif defect is None and interleaved and instance.dropoff_mode == SINGLE:
            defect = "single-dropoff routes finish all pickups before the shared dropoff"
        if defect is not None:
            raise MalformedInputError(defect)

    def to_tokens(self) -> str:
        if "events" not in vars(self):  # derived events always take the short form
            return ",".join(map(str, self.pickup_order))
        n, events = self.n, self.events
        if (all(kind == PICKUP for kind, _ in events[:n])
                and [idx for kind, idx in events if kind == DROPOFF] == list(range(1, n + 1))):
            return ",".join(map(str, self.pickup_order))  # the canonical single-dropoff shape
        return ",".join(str(idx) if kind == PICKUP else f"d{idx}" for kind, idx in events)


@functools.cache
def _canonical_form(n: int) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The event kinds of a single-dropoff route of n riders (n pickups, then
    n dropoffs) and its dropoff labels 1..n."""
    return (PICKUP,) * n + (DROPOFF,) * n, tuple(range(1, n + 1))


@functools.cache
def _shared_events(n: int) -> tuple[dict[int, tuple[str, int]], tuple[tuple[str, int], ...]]:
    """The pickup event of each label 1..n, and the dropoff tail of n riders."""
    return {p: (PICKUP, p) for p in range(1, n + 1)}, tuple((DROPOFF, r) for r in range(1, n + 1))


def _single_dropoff_events(route: Route) -> tuple[tuple[str, int], ...]:
    pickups, tail = _shared_events(route.n)  # shared by all the routes of n riders
    return tuple(pickups.get(p) or (PICKUP, p) for p in route.pickup_order) + tail


# a ``single_dropoff`` route derives its events here on first read; ``Route(events=...)`` sets them
Route.events = cached_property(_single_dropoff_events)
Route.events.__set_name__(Route, "events")


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def _check_positive(name: str, value: float) -> None:
    """Raise unless ``value`` is a positive, finite real number: MalformedInputError
    for one that is not a real number, is +inf or is an integer beyond float
    range, ConstructionError for one that is not positive."""
    if not _is_real(value):
        raise MalformedInputError(f"{name} must be a real number, not {value!r}")
    if value == math.inf:
        raise MalformedInputError(f"{name} must be finite, got {value}")
    if not (value > 0):
        raise ConstructionError(f"{name} must be positive, got {value}")
    try:
        float(value)
    except OverflowError:
        raise MalformedInputError(f"{name} must be finite, got an integer beyond float range") from None


def _on_grid(target: float, ell: float) -> float:
    """The largest s at or below ``target`` (0 < target <= ell) with
    ``(s + ell) - ell == s``: a pickup separation s beside pickups ``ell``
    from the dropoff makes a detour that folds back to s exactly."""
    s = (target + ell) - ell  # exact: the sum lies within a factor 2 of ell
    if s > target:  # the sum rounded up: take the float below it instead
        s = math.nextafter(target + ell, 0.0) - ell
    return s


def _star(sep: np.ndarray, ell: float, alpha_op: float = 1.0,
          alphas: Sequence[float] | None = None, metric_flag: bool | None = None) -> Instance:
    """The star of the paper's constructions: n pickups ``sep`` apart (an
    n x n array with zero diagonal), each ``ell`` from the one dropoff, with
    every sensitivity equal to the operator rate unless ``alphas`` is given.
    ``metric_flag`` is taken as ``DistanceTable.from_matrix`` takes it."""
    n = len(sep)
    mat = np.full((n + 1, n + 1), float(ell))
    mat[:n, :n] = sep
    mat[n, n] = 0.0
    return Instance(dist=DistanceTable.from_matrix(mat, metric_flag), n=n, dropoff_mode=SINGLE,
                    alpha_op=alpha_op, alphas=(alpha_op,) * n if alphas is None else alphas,
                    regime=REGIME_FINITE)


def _line_coords(positions: Sequence[float], dropoff: float) -> list[float]:
    """The line-input check: the pickup positions, then the dropoff, as
    finite floats; MalformedInputError for anything else, or for no pickup."""
    try:
        coords = [*positions, dropoff]
    except TypeError as exc:
        raise MalformedInputError(f"line positions must be numbers: {exc}") from None
    if not all(map(_is_real, coords)):
        raise MalformedInputError("line positions must be real numbers")
    if len(coords) < 2:
        raise MalformedInputError("need at least one pickup position")
    try:
        floats = [float(x) for x in coords]
    except OverflowError:  # an int beyond float range
        raise MalformedInputError("line positions must be finite") from None
    if not all(map(math.isfinite, floats)):
        raise MalformedInputError("line positions must be finite")
    return floats


def _line(positions: Sequence[float], dropoff: float, alpha_op: float = 1.0,
          weight: float | None = None, regime: str = REGIME_FINITE) -> Instance:
    """Single-dropoff instance on the line whose riders all weigh detours at
    ``weight`` (the operator rate unless given), once ``_line_coords`` passes
    the points."""
    coords = _line_coords(positions, dropoff)
    n = len(coords) - 1
    return Instance(dist=from_euclidean(coords), n=n, dropoff_mode=SINGLE, alpha_op=alpha_op,
                    alphas=(alpha_op if weight is None else weight,) * n, regime=regime)


def generate_lower_bound_instance(
    n: int,
    alpha_op: float = 1.0,
    alphas: Sequence[float] | None = None,
    ell: float = 1.0,
    slack: float = 0.01,
) -> Instance:
    """Instance whose only feasible route has the worst-case detour ratio.

    All pickups sit at distance ``ell`` from the dropoff. Consecutive pickups
    j-1 and j are the stage-j detour budget apart: ``ell / denom`` as
    ``Instance.budget`` computes it, taken down to ell's float grid
    (``_on_grid``) so the detour equals the separation exactly. So the route
    (1, 2, ..., n, D) is feasible with every constraint tight, at any
    tolerance down to ``rel = 0``. Every other pair is strictly farther apart
    (by a slack factor, clamped so the table stays metric; a pair two apart
    at most the float sum of the two separations between them), which rules
    out every other boarding order for n >= 3.
    At n=2 with equal weights no metric can force the order: the table is
    symmetric in the two pickups, so (1, 2) and (2, 1) mirror each other
    and both are feasible with every stage tight.

    Requires strictly positive sensitivities: with a zero weight two stage
    budgets coincide and the boarding order is no longer forced.
    """
    _check_integer("rider count n", n)
    if n < 1:
        raise ConstructionError("need n >= 1")
    _check_positive("ell", ell)
    _check_positive("slack", slack)
    _check_positive("alpha_op", alpha_op)
    alpha_op, alphas = _checked_rates(n, alpha_op, [alpha_op] * n if alphas is None else alphas)
    if not all(alphas):
        raise ConstructionError(
            "lower-bound construction requires strictly positive sensitivities"
        )

    ell = float(ell)
    denoms = _stage_denominators(alpha_op, _prefix_sums(alphas))
    # z[j] is the stage-j detour budget as a fraction of the direct distance.
    z = [0.0] + [1.0 / denom for denom in denoms]

    # Triangle constraint for pickups a, a+1, a+2 binds the slack factor:
    # the separation of the non-adjacent pair may exceed z[a+1]*ell by at
    # most z[a+2]*ell.
    s_eff = min([slack, *(z[a + 2] / z[a + 1] for a in range(1, n - 1))])
    if not (s_eff > 0):
        raise ConstructionError(
            f"slack clamped to {s_eff}; cannot keep non-adjacent pairs strictly separated"
        )

    sep = np.zeros((n, n))
    for a in range(1, n):  # a and a+1 are stage a+1's budget apart, a and any later pickup farther
        sep[a - 1, a:] = sep[a:, a - 1] = z[a + 1] * ell * (1.0 + s_eff)
        sep[a - 1, a] = sep[a, a - 1] = _on_grid(ell / denoms[a], ell)
    for a in range(1, n - 1):  # the triangle (a, a+1, a+2) holds in floats too
        sep[a - 1, a + 1] = sep[a + 1, a - 1] = min(sep[a - 1, a + 1], sep[a - 1, a] + sep[a, a + 1])

    inst = _star(sep, ell, alpha_op, alphas)
    if not inst.dist.metric_flag:
        first = inst.dist.metric_report().by_kind("triangle")[0]
        raise ConstructionError(
            f"constructed table violates the triangle inequality at points {first.indices}"
        )
    return inst


def generate_sqrt_tight_instance(n: int, ell: float = 1.0) -> Instance:
    """Colinear instance where the ascending route meets every bound exactly.

    Dropoff at the origin, pickups on one ray with the j-th at
    (2j/(2j-1)) times the previous distance; sensitivities equal the
    operator rate, so the stage-j detour budget is exactly met along
    (1, 2, ..., n, D). In floats each position is the largest at or below
    that product whose stage-j detour, folded as ``Instance.detour`` folds
    it, is at most its budget x/j, so the route stays feasible at
    ``rel = 0``. The descending route has zero detour throughout.
    """
    _check_integer("rider count n", n)
    if n < 1:
        raise ConstructionError("need n >= 1")
    _check_positive("ell", ell)
    positions = [float(ell)]
    for j in range(2, n + 1):
        prev = positions[-1]
        x = prev * (2 * j) / (2 * j - 1)
        while ((x - prev) + x) - prev > x / j:
            x = math.nextafter(x, 0.0)
        positions.append(x)
    return _line(positions, 0.0)


def generate_exp_tight_instance(n: int, ell: float = 1.0) -> Instance:
    """Colinear instance with doubling distances, for the vanishing-weight regime.

    Pickup i sits at distance 2**(i-1) * ell; with sensitivities that vanish
    relative to the operator rate the ascending route is feasible with every
    stage bound tight. A pickup whose squared distance from the dropoff is
    beyond float range (n above 512 at ell = 1) raises ConstructionError.
    """
    _check_integer("rider count n", n)
    if n < 1:
        raise ConstructionError("need n >= 1")
    _check_positive("ell", ell)
    try:
        positions = [math.ldexp(ell, i - 1) for i in range(1, n + 1)]
    except OverflowError:
        positions = [math.inf]
    if not math.isfinite(positions[-1] * positions[-1]):  # from_euclidean squares each distance
        raise ConstructionError(
            f"pickup {n} at 2**{n - 1} * ell is too far: its squared distance is beyond float range"
        )
    return _line(positions, 0.0, weight=0.0, regime=REGIME_ZERO)


def reduce_hampath(n_vertices: int, edges: Iterable[tuple[int, int]],
                   ell: float = 1.0) -> Instance:
    """Encode an undirected graph so feasible routes are its Hamiltonian paths.

    Pickup points mirror the vertices: adjacent vertices are ell/n apart
    (on ell's float grid, so an edge's detour is exact), non-adjacent ones
    ell apart, and everyone is ell from the dropoff, with all rates equal.
    The stage-j budget is ell/j, so a boarding order is feasible exactly
    when every consecutive pair is a graph edge, at any tolerance. The
    table is generally non-metric; the flag records what validation finds.
    """
    _check_integer("vertex count", n_vertices)
    if n_vertices < 2:
        raise ConstructionError("need at least 2 vertices")
    _check_positive("ell", ell)
    edge_set: set[frozenset[int]] = set()
    for edge in edges:
        try:
            u, v = edge
        except (TypeError, ValueError):
            raise MalformedInputError(f"an edge is a pair of vertices, not {edge!r}") from None
        _check_integer("an edge's vertex", u)
        _check_integer("an edge's vertex", v)
        u, v = int(u), int(v)
        if u == v:
            raise ConstructionError(f"self-loop at vertex {u}; graph must be simple")
        if not (1 <= u <= n_vertices and 1 <= v <= n_vertices):
            raise ConstructionError(f"edge ({u},{v}) out of range 1..{n_vertices}")
        edge_set.add(frozenset((u, v)))

    n = n_vertices
    ell = float(ell)
    edge = _on_grid(ell / n, ell)
    sep = np.full((n, n), ell)
    np.fill_diagonal(sep, 0.0)
    for pair in edge_set:
        u, v = tuple(pair)
        sep[u - 1, v - 1] = sep[v - 1, u - 1] = edge
    return _star(sep, ell)


def reduce_path_tsp(metric, margin: float = 0.01) -> Instance:
    """Embed a metric so the best feasible route solves its open-path tour.

    Pickup distances are copied; every pickup is a common distance L from
    the dropoff with L exceeding n times the largest pickup separation (by a
    configurable margin, so the comparison survives floating point). All
    rates equal. Every boarding order is then feasible and its length is the
    corresponding vertex path weight plus L.
    """
    if not isinstance(metric, DistanceTable):
        metric = DistanceTable.from_matrix(metric)
    if not (metric.metric_flag and metric.metric_report().ok):  # a declared flag is only a claim
        raise MalformedInputError("input table must be metric")
    entries = metric.entries
    n = entries.shape[0]
    if n < 2:
        raise ConstructionError("need at least 2 pickup points")
    _check_positive("margin", margin)
    maxdist = float(entries.max())
    if maxdist <= 0:
        raise ConstructionError("degenerate all-zero metric")
    big_l = n * maxdist * (1.0 + margin)
    return _star(entries, big_l, metric_flag=True)


def line_instance(positions: Sequence[float], dropoff: float,
                  alpha_op: float = 1.0) -> Instance:
    """Single-dropoff instance on the line with all rates equal."""
    return _line(positions, dropoff, alpha_op)
