"""Slow, exact reference computations that the fast code in ``src/`` is
tested against."""

from collections import Counter, defaultdict
from fractions import Fraction

from nrrw import oracles, stats


def bounce_bound_exact(d0: int, k: int) -> Fraction:
    """Exact product bound on the probability of k consecutive two-step
    returns to a vertex of degree d0: prod_{j=d0}^{d0+k-1} (2j-1)/(2j)."""
    if d0 < 1 or k < 1:
        raise ValueError("d0 and k must be >= 1")
    out = Fraction(1)
    for j in range(d0, d0 + k):
        out *= Fraction(2 * j - 1, 2 * j)
    return out


def bounce_reports(summaries, max_k: int
                   ) -> dict[int, tuple[int, stats.DominanceReport]]:
    """``{degree: (anchors, report)}`` from one ``stats.dominance_check``
    for every anchor degree of the pooled replicas, none ruled out, in the
    order the bounce suite reports them."""
    anchors = Counter()
    tails = Counter()
    for r in summaries:
        anchors.update(r.bounce_anchors)
        tails.update(r.bounce_tails)
    returns: dict[int, dict[int, int]] = defaultdict(dict)
    for (d, k), c in tails.items():
        returns[d][k] = c
    reports = {}
    for d, n_d in anchors.items():
        hist = returns[d]
        hist[0] = n_d - sum(hist.values())
        bounds = oracles.bounce_bounds(d, max_k)
        reports[d] = n_d, stats.dominance_check(
            hist, range(1, max_k + 1), lambda k: bounds[k - 1])
    return reports


def bounce_check(summaries, max_k: int) -> dict:
    """The bounce suite's details but for its replicas and nodes keys, from
    ``bounce_reports``."""
    reports = bounce_reports(summaries, max_k)
    failures = [f"d={d} k={k}: freq {p:.4f} > bound {limit:.4f} (n={n_d})"
                for d, (n_d, report) in reports.items()
                for k, p, limit in report.violations]
    return {"failures": failures[:10], "checked": len(reports) * max_k,
            "worst_gap": max((r.worst_violation for _, r in reports.values()),
                             default=0.0),
            "degrees": len(reports)}
