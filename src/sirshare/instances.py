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
read-only float array. The check runs when the table is built, whoever
builds it (``from_matrix``, ``from_euclidean`` or a generator), and raises
:class:`MalformedInputError` for ragged, non-numeric, non-square or
non-finite input, so no consumer checks the entries again.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConstructionError, MalformedInputError, UnsupportedModeError
from .numeric import ABS_FLOOR, DEFAULT_REL_TOL, check_tolerance

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


def _as_square_matrix(entries) -> np.ndarray:
    """The table check: outside input as a square, finite float array."""
    try:
        arr = np.asarray(entries, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(f"distance table is not a matrix of numbers: {exc}") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise MalformedInputError(f"distance table must be square, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise MalformedInputError("distance table contains NaN or infinite entries")
    return arr


def _tolerances(scale: np.ndarray, rel_tol: float):
    """Elementwise ``comparison_tolerance`` for a nonnegative scale array."""
    if rel_tol == 0.0:
        return 0  # an int keeps integer tables in integer arithmetic
    return np.maximum(rel_tol * scale, ABS_FLOOR)


def _hard_violations(d: np.ndarray, rel_tol: float) -> list[MetricViolation]:
    """The O(m^2) part of ``validate_metric``: diagonal, then per pair (a < b)
    asymmetry before negativity. Any of these makes ``d`` no distance table."""
    violations: list[MetricViolation] = []

    diag = np.abs(np.diagonal(d))
    for a in np.flatnonzero(diag > _tolerances(diag, rel_tol)):
        violations.append(MetricViolation("diagonal", (int(a),), float(diag[a])))

    gap = np.abs(d - d.T)
    asym = gap > _tolerances(np.maximum(np.abs(d), np.abs(d.T)), rel_tol)
    neg = d < -_tolerances(np.abs(d), rel_tol)
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
        bad = direct > via + _tolerances(np.maximum(np.abs(direct), np.abs(via)), rel_tol)
        for a_, b_, c_, excess in zip(a[bad], b[bad], c[bad], (direct - via)[bad]):
            violations.append(
                MetricViolation("triangle", (int(a_), int(b_), int(c_)), float(excess))
            )

    return MetricReport(ok=not violations, violations=tuple(violations))


@dataclass(frozen=True, eq=False)
class DistanceTable:
    """Symmetric nonnegative distance matrix with a metric flag.

    ``entries`` is a read-only copy that passed the table check.
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

    Accepts scalars (line metric) or same-dimension coordinate vectors.
    Non-finite coordinates and overflowing distances fail the table check.
    """
    try:
        pts = np.array([np.atleast_1d(c) for c in coords], dtype=float)
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

def _checked_rates(n: int, alpha_op: float,
                   alphas: Iterable[float]) -> tuple[float, tuple[float, ...]]:
    """The rates as floats, once they fit n riders: a positive, finite operator
    rate and n nonnegative, finite sensitivities, each a real number (not a
    string or a boolean). Raises MalformedInputError otherwise."""
    alphas = tuple(alphas)
    if any(isinstance(x, bool) or not isinstance(x, numbers.Real) for x in (alpha_op, *alphas)):
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


def _stage_denominators(alpha_op: float, alphas: Sequence[float]) -> list[float]:
    """``1 + (alpha_1 + ... + alpha_{j-1}) / alpha_op`` for stages j = 1..n, the
    sensitivities summed left to right from 0.0: stage j's budget is the
    newcomer's direct distance over the j-th entry."""
    denoms, acc = [], 0.0
    for a in alphas:
        denoms.append(1.0 + acc / alpha_op)
        acc += a
    return denoms


@dataclass(frozen=True, eq=False)
class Instance:
    """Pickup/dropoff geometry plus pricing and sensitivity parameters.

    ``dist`` covers the pickups (indices 0..n-1, rider-visible labels 1..n)
    followed by the dropoff point(s): one shared point in ``single`` mode,
    or one per pickup point in ``multi`` mode. ``alphas[j-1]`` is the detour
    sensitivity of whoever boards j-th. ``regime`` selects how feasibility
    bounds treat the sensitivities: as given (``finite``), or in the limits
    where they vanish (``zero``) or dominate (``infinite``) relative to the
    operator rate; in the limit regimes the stored values are ignored by
    feasibility checks.
    """

    dist: DistanceTable
    n: int
    dropoff_mode: str
    alpha_op: float
    alphas: tuple[float, ...]
    regime: str = REGIME_FINITE

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral):
            raise MalformedInputError(f"rider count n must be an integer, not {self.n!r}")
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
    # at b right after a, passes when detour[a][b] <= budget[j][b]. Each entry folds
    # as the per-stage formula does, so a lookup is bit for bit the recomputed value.

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
        if self.regime == REGIME_ZERO:
            return [list(direct) for _ in range(n + 1)]
        if self.regime == REGIME_INFINITE:
            return [[0.0] * (n + 1) for _ in range(n + 1)]
        denoms = _stage_denominators(self.alpha_op, self.alphas)
        return [[0.0] * (n + 1)] + [[d / denom for d in direct] for denom in denoms]

    @cached_property
    def alpha_prefix(self) -> tuple[float, ...]:
        """alpha_prefix[j] = sum of the first j sensitivities."""
        sums = [0.0]
        for a in self.alphas:
            sums.append(sums[-1] + a)
        return tuple(sums)

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
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise MalformedInputError(f"JSON field 'n' must be an integer, not {n!r}")
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
    whoever boarded j-th). Single-dropoff routes are a permutation of the
    pickups followed by the shared dropoff.
    """

    events: tuple[tuple[str, int], ...]

    @classmethod
    def single_dropoff(cls, order: Iterable[int]) -> "Route":
        order = tuple(int(x) for x in order)
        events = tuple((PICKUP, p) for p in order)
        events += tuple((DROPOFF, r) for r in range(1, len(order) + 1))
        return cls(events=events)

    @classmethod
    def _single_dropoff_batch(cls, orders: Iterable[tuple[int, ...]],
                              n: int) -> tuple["Route", ...]:
        """``single_dropoff`` of many orders, each a tuple of ints permuting 1..n.

        The orders are trusted, so the routes skip ``__init__``: they share one
        pickup event per label and one dropoff tail, and each order doubles as
        its route's ``pickup_order``.
        """
        pickups = [(PICKUP, p) for p in range(n + 1)]
        tail = tuple((DROPOFF, r) for r in range(1, n + 1))
        routes = []
        for order in orders:
            route = object.__new__(cls)
            route.__dict__.update(events=tuple(map(pickups.__getitem__, order)) + tail,
                                  pickup_order=order)
            routes.append(route)
        return tuple(routes)

    @cached_property
    def pickup_order(self) -> tuple[int, ...]:
        return tuple(idx for kind, idx in self.events if kind == PICKUP)

    @property
    def n(self) -> int:
        return len(self.pickup_order)

    @cached_property
    def _shape(self) -> tuple[int, str | None, bool]:
        """Instance-free checks: (rider count, or -1 unless the pickups are a
        permutation of 1..n; first other defect or None; whether a dropoff
        precedes a pickup)."""
        n = self.n
        if sorted(self.pickup_order) != list(range(1, n + 1)):
            return -1, None, False
        drop_ranks = [idx for kind, idx in self.events if kind == DROPOFF]
        if sorted(drop_ranks) != list(range(1, n + 1)):
            return n, "route must drop off each rider exactly once", False
        seen_pickups = 0
        for kind, idx in self.events:
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
        parts = []
        pending_drops = set(range(1, self.n + 1))
        if all(kind == PICKUP for kind, _ in self.events[: self.n]):
            # canonical single-dropoff shape prints as the pickup order only
            if [idx for kind, idx in self.events if kind == DROPOFF] == sorted(pending_drops):
                return ",".join(str(p) for p in self.pickup_order)
        for kind, idx in self.events:
            parts.append(str(idx) if kind == PICKUP else f"d{idx}")
        return ",".join(parts)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def _check_positive(name: str, value: float) -> None:
    if not (value > 0):
        raise ConstructionError(f"{name} must be positive, got {value}")


def generate_lower_bound_instance(
    n: int,
    alpha_op: float = 1.0,
    alphas: Sequence[float] | None = None,
    ell: float = 1.0,
    slack: float = 0.01,
) -> Instance:
    """Instance whose only feasible route has the worst-case detour ratio.

    All pickups sit at distance ``ell`` from the dropoff. Consecutive pickups
    j-1 and j are exactly the stage-j detour budget apart, so the route
    (1, 2, ..., n, D) is feasible with every constraint tight; every other
    pair is strictly farther apart (by a slack factor, clamped so the table
    stays metric), which rules out every other boarding order for n >= 3.
    At n=2 with equal weights no metric can force the order: the table is
    symmetric in the two pickups, so (1, 2) and (2, 1) mirror each other
    and both are feasible with every stage tight.

    Requires strictly positive sensitivities: with a zero weight two stage
    budgets coincide and the boarding order is no longer forced.
    """
    if n < 1:
        raise ConstructionError("need n >= 1")
    _check_positive("ell", ell)
    _check_positive("slack", slack)
    _check_positive("alpha_op", alpha_op)
    if alphas is None:
        alphas = [alpha_op] * n
    alphas = [float(a) for a in alphas]
    if len(alphas) != n:
        raise ConstructionError(f"need {n} sensitivities, got {len(alphas)}")
    for a in alphas:
        if not (a > 0):
            raise ConstructionError(
                "lower-bound construction requires strictly positive sensitivities"
            )

    # z[j] is the stage-j detour budget as a fraction of the direct distance.
    z = [0.0] + [1.0 / denom for denom in _stage_denominators(alpha_op, alphas)]

    # Triangle constraint for pickups a, a+1, a+2 binds the slack factor:
    # the separation of the non-adjacent pair may exceed z[a+1]*ell by at
    # most z[a+2]*ell.
    s_eff = slack
    for a in range(1, n - 1):
        s_eff = min(s_eff, z[a + 2] / z[a + 1])
    if not (s_eff > 0):
        raise ConstructionError(
            f"slack clamped to {s_eff}; cannot keep non-adjacent pairs strictly separated"
        )

    size = n + 1
    mat = np.zeros((size, size), dtype=float)
    for a in range(1, n + 1):
        mat[a - 1, n] = mat[n, a - 1] = ell
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            dab = z[a + 1] * ell if b == a + 1 else z[a + 1] * ell * (1.0 + s_eff)
            mat[a - 1, b - 1] = mat[b - 1, a - 1] = dab

    table = DistanceTable(entries=mat, metric_flag=True)
    report = validate_metric(table)
    if not report.ok:
        first = report.by_kind("triangle")[0]
        raise ConstructionError(
            f"constructed table violates the triangle inequality at points {first.indices}"
        )
    return Instance(dist=table, n=n, dropoff_mode=SINGLE, alpha_op=float(alpha_op),
                    alphas=tuple(alphas), regime=REGIME_FINITE)


def generate_sqrt_tight_instance(n: int, ell: float = 1.0) -> Instance:
    """Colinear instance where the ascending route meets every bound exactly.

    Dropoff at the origin, pickups on one ray with the j-th at
    (2j/(2j-1)) times the previous distance; sensitivities equal the
    operator rate, so the stage-j detour budget is exactly met along
    (1, 2, ..., n, D). The descending route has zero detour throughout.
    """
    if n < 1:
        raise ConstructionError("need n >= 1")
    _check_positive("ell", ell)
    positions = [float(ell)]
    for j in range(2, n + 1):
        positions.append(positions[-1] * (2 * j) / (2 * j - 1))
    table = from_euclidean(positions + [0.0])
    return Instance(dist=table, n=n, dropoff_mode=SINGLE, alpha_op=1.0,
                    alphas=(1.0,) * n, regime=REGIME_FINITE)


def generate_exp_tight_instance(n: int, ell: float = 1.0) -> Instance:
    """Colinear instance with doubling distances, for the vanishing-weight regime.

    Pickup i sits at distance 2**(i-1) * ell; with sensitivities that vanish
    relative to the operator rate the ascending route is feasible with every
    stage bound tight.
    """
    if n < 1:
        raise ConstructionError("need n >= 1")
    _check_positive("ell", ell)
    positions = [float(2 ** (i - 1)) * ell for i in range(1, n + 1)]
    table = from_euclidean(positions + [0.0])
    return Instance(dist=table, n=n, dropoff_mode=SINGLE, alpha_op=1.0,
                    alphas=(0.0,) * n, regime=REGIME_ZERO)


def reduce_hampath(n_vertices: int, edges: Iterable[tuple[int, int]],
                   ell: float = 1.0) -> Instance:
    """Encode an undirected graph so feasible routes are its Hamiltonian paths.

    Pickup points mirror the vertices: adjacent vertices are ell/n apart,
    non-adjacent ones ell apart, and everyone is ell from the dropoff, with
    all rates equal. The stage-j budget is ell/j, so a boarding order is
    feasible exactly when every consecutive pair is a graph edge. The table
    is generally non-metric; the flag records what validation finds.
    """
    if n_vertices < 2:
        raise ConstructionError("need at least 2 vertices")
    _check_positive("ell", ell)
    edge_set: set[frozenset[int]] = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise ConstructionError(f"self-loop at vertex {u}; graph must be simple")
        if not (1 <= u <= n_vertices and 1 <= v <= n_vertices):
            raise ConstructionError(f"edge ({u},{v}) out of range 1..{n_vertices}")
        edge_set.add(frozenset((u, v)))

    n = n_vertices
    size = n + 1
    mat = np.full((size, size), float(ell))
    np.fill_diagonal(mat, 0.0)
    for pair in edge_set:
        u, v = tuple(pair)
        mat[u - 1, v - 1] = mat[v - 1, u - 1] = ell / n

    table = DistanceTable.from_matrix(mat)
    return Instance(dist=table, n=n, dropoff_mode=SINGLE, alpha_op=1.0,
                    alphas=(1.0,) * n, regime=REGIME_FINITE)


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
    if not metric.metric_flag:
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

    size = n + 1
    mat = np.zeros((size, size), dtype=float)
    mat[:n, :n] = entries
    mat[:n, n] = big_l
    mat[n, :n] = big_l
    table = DistanceTable(entries=mat, metric_flag=True)
    return Instance(dist=table, n=n, dropoff_mode=SINGLE, alpha_op=1.0,
                    alphas=(1.0,) * n, regime=REGIME_FINITE)


def line_instance(positions: Sequence[float], dropoff: float,
                  alpha_op: float = 1.0) -> Instance:
    """Single-dropoff instance on the line with all rates equal."""
    coords = [float(p) for p in positions] + [float(dropoff)]
    table = from_euclidean(coords)
    n = len(positions)
    return Instance(dist=table, n=n, dropoff_mode=SINGLE, alpha_op=float(alpha_op),
                    alphas=(float(alpha_op),) * n, regime=REGIME_FINITE)
