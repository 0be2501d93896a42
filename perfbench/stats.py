"""Pure helpers: order statistics, flow-failure counting, model digest."""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Iterable, Optional, Sequence

#: Payload fields that hold host time rather than simulated results
#: (``run_scale_point`` times itself).  They are left out of the digest
#: so the digest compares what the simulation computed, not how fast.
HOST_TIME_FIELDS = frozenset({"wall_s"})

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence (mean of the middle pair if even)."""
    if not values:
        raise ValueError("median of an empty sequence")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return float(ordered[max(rank, 1) - 1])


def tail_percentile(values: Sequence[float], min_beyond: int = 10
                    ) -> Optional[tuple[float, float]]:
    """Highest percentile with at least ``min_beyond`` samples above it.

    Returns ``(pct, value)``, or None when the sample count supports
    none of :data:`TAIL_PERCENTILES`.
    """
    n = len(values)
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= min_beyond - 1e-9:
            return pct, percentile(values, pct)
    return None


def flow_failures(flows: Iterable[Any]) -> tuple[int, int]:
    """``(attempted, failed)`` over flow objects or flow records.

    A flow fails unless it completed with exactly ``size_bytes``
    delivered.  Accepts :class:`repro.rnic.base.Flow` objects
    (``completed`` property) and payload records (``completed`` key).
    """
    attempted = failed = 0
    for flow in flows:
        if isinstance(flow, dict):
            done, rx, size = (flow["completed"], flow["rx_bytes"],
                              flow["size_bytes"])
        else:
            done, rx, size = flow.completed, flow.rx_bytes, flow.size_bytes
        attempted += 1
        if not done or rx != size:
            failed += 1
    return attempted, failed


def _strip_host_time(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {k: _strip_host_time(v) for k, v in obj.items()
                if k not in HOST_TIME_FIELDS}
    if isinstance(obj, (list, tuple)):
        return [_strip_host_time(v) for v in obj]
    return obj


def model_digest(payloads: Sequence[Any]) -> str:
    """SHA-256 of the canonical payloads, host-time fields removed."""
    text = json.dumps(_strip_host_time(list(payloads)), sort_keys=True,
                      separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode()).hexdigest()


def digest_number(digest: str) -> int:
    """The digest's leading 48 bits as an integer (exact in a JSON float)."""
    return int(digest[:12], 16)
