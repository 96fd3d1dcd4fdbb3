"""The route shape walk, kept as the reference for ``Route.validate``.

``Route._shape`` takes events in the canonical single-dropoff form (n
pickups, then dropoffs 1..n, every label an ``int``) through C-level tuple
operations, and walks every other shape. ``reference_validate`` is the walk
alone, as ``Route`` ran it on every event route before that fast path, plus
the rule that events are (kind, label) pairs. Tests compare the two on the
same events and instance, class and message alike.
"""

from __future__ import annotations

import numbers

from sirshare import MalformedInputError
from sirshare.instances import DROPOFF, PICKUP, SINGLE


def _shape(events, order) -> tuple[int, str | None, bool]:
    """(rider count, or -1 unless the pickups are a permutation of 1..n;
    first other defect or None; whether a dropoff precedes a pickup)."""
    n = len(order)
    try:
        if sorted(order) != list(range(1, n + 1)):
            return -1, None, False
        drop_ranks = [idx for kind, idx in events if kind == DROPOFF]
        if sorted(drop_ranks) != list(range(1, n + 1)):
            return n, "route must drop off each rider exactly once", False
    except TypeError:
        return n, f"route labels must be integers, got {events!r}", False
    seen_pickups = 0
    for kind, idx in events:
        if type(idx) is not int and (isinstance(idx, bool)
                                     or not isinstance(idx, numbers.Integral)):
            return n, f"route labels must be integers, not {idx!r}", False
        if kind == PICKUP:
            seen_pickups += 1
        elif kind != DROPOFF:
            return n, f"unknown event kind {kind!r}", False
        elif idx > seen_pickups:
            return n, f"rider {idx} dropped off before boarding", False
    return n, None, any(kind != PICKUP for kind, _ in events[:n])


def reference_pickup_order(events) -> tuple:
    """The pickup labels of ``events`` in boarding order."""
    try:
        return tuple(idx for kind, idx in events if kind == PICKUP)
    except (TypeError, ValueError):
        raise MalformedInputError(
            f"route events must be (kind, label) pairs, got {events!r}") from None


def reference_validate(events, instance) -> None:
    """Raise MalformedInputError unless ``Route(events=events)`` serves the instance."""
    order = reference_pickup_order(events)
    riders, defect, interleaved = _shape(events, order)
    if riders != instance.n:
        defect = (f"route must pick up each of the {instance.n} points exactly once, "
                  f"got {order}")
    elif defect is None and interleaved and instance.dropoff_mode == SINGLE:
        defect = "single-dropoff routes finish all pickups before the shared dropoff"
    if defect is not None:
        raise MalformedInputError(defect)
