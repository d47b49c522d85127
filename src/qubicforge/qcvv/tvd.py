"""Total variation distance between discrete outcome distributions."""

from __future__ import annotations

from ..errors import AnalysisError

NORM_TOL = 1e-9


def tvd(p: dict, q: dict) -> float:
    """0.5 * sum |p(x) - q(x)| over the union of outcome labels.

    Inputs map outcome labels (any hashable, typically bit strings) to
    probabilities; labels missing from one distribution count as zero.
    Both inputs must be normalized within 1e-9.
    """
    for name, dist in (("first", p), ("second", q)):
        total = float(sum(dist.values()))
        if abs(total - 1.0) > NORM_TOL:
            raise AnalysisError(
                f"{name} distribution sums to {total!r}, not 1 within {NORM_TOL}"
            )
        if any(v < -NORM_TOL for v in dist.values()):
            raise AnalysisError(f"{name} distribution has a negative entry")
    # p's labels in insertion order, then q's extra ones: a set's order
    # follows string hashing, which changes from process to process
    keys = [*p, *(k for k in q if k not in p)]
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def distribution(counts: dict) -> dict:
    """Normalize a counts mapping into a probability distribution."""
    total = float(sum(counts.values()))
    if total <= 0:
        raise AnalysisError("cannot normalize empty counts")
    return {k: v / total for k, v in counts.items()}


def merge_counts(*count_dicts) -> dict:
    """Pool several counts mappings into one."""
    merged = {}
    for counts in count_dicts:
        for k, v in counts.items():
            merged[k] = merged.get(k, 0) + v
    return merged
