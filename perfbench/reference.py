"""Independent reference answers, in plain numpy.

Nothing here imports tiltrate: every expected value the benchmark checks
against comes from these max-shifted log-sum-exp formulas, so a faster but
wrong path in the package cannot agree with itself and pass.
"""

from __future__ import annotations

import math

import numpy as np

BA_MAX_ITER = 20000


def lse_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise ln sum exp, shifted by the row maximum."""
    m = x.max(axis=1, keepdims=True)
    return (m + np.log(np.exp(x - m).sum(axis=1, keepdims=True)))[:, 0]


def tilted_rows(q: np.ndarray, d: np.ndarray, s: float):
    """Per-row (log partition, weights) of Q(j) e^{s d_ij}."""
    x = s * d + np.log(q)[None, :]
    logz = lse_rows(x)
    return logz, np.exp(x - logz[:, None])


def level_rate(p, q, d, s: float) -> tuple[float, float]:
    """Mean distortion D(s) and Legendre rate s*D - sum_x p ln Z_x at force s."""
    logz, w = tilted_rows(q, d, s)
    level = float(p @ (w * d).sum(axis=1))
    return level, s * level - float(p @ logz)


def span(p, q, d) -> float:
    """Zero-force distortion minus the smallest achievable one."""
    return level_rate(p, q, d, 0.0)[0] - float(p @ d.min(axis=1))


def riemann_sums(p, q, d, points) -> tuple[float, float]:
    """Left- and right-labelled sums of s dD over a force partition."""
    pts = np.asarray(points, dtype=float)
    levels = np.array([level_rate(p, q, d, float(s))[0] for s in pts])
    dd = np.diff(levels)
    return float(pts[:-1] @ dd), float(pts[1:] @ dd)


def pair_level_rate(p, q, d1, d2, s1: float, s2: float) -> tuple[float, float, float]:
    """(D1, D2, rate) of the joint tilt Q e^{s1 d1 + s2 d2}."""
    x = s1 * d1 + s2 * d2 + np.log(q)[None, :]
    logz = lse_rows(x)
    w = np.exp(x - logz[:, None])
    l1 = float(p @ (w * d1).sum(axis=1))
    l2 = float(p @ (w * d2).sum(axis=1))
    return l1, l2, s1 * l1 + s2 * l2 - float(p @ logz)


def observable_mean(p, q, d, t, s: float) -> float:
    """Expectation of a letter-pair table t under the tilted conditional law."""
    _, w = tilted_rows(q, d, s)
    return float(p @ (w * t).sum(axis=1))


def entropy(levels, weights, beta: float) -> tuple[float, float]:
    """(mean energy, microcanonical entropy) at inverse temperature beta.

    The least-weighted level counts once, which fixes the absolute count.
    """
    x = (-beta * levels + np.log(weights))[None, :]
    logz = float(lse_rows(x)[0])
    w = np.exp(x[0] - logz)
    energy = float(w @ levels)
    return energy, beta * energy - math.log(float(weights.min())) + logz


def mutual_information(w, q) -> tuple[float, float]:
    """(I(Xhat; X), H(X | Xhat)) of a dense channel w under input law q."""
    p_out = q @ w
    mi = float((q[:, None] * w * np.log(w / p_out[None, :])).sum())
    cond = float(-(q[:, None] * w * np.log(w)).sum())
    return mi, cond


def blahut_arimoto(p, d, s: float) -> tuple[float, float]:
    """(distortion, rate) at slope s with the optimal coding law, iterated to a fixed point."""
    log_p = np.log(p)
    log_q = np.full(d.shape[1], -math.log(d.shape[1]))
    for _ in range(BA_MAX_ITER):
        log_cond = log_q[None, :] + s * d
        log_cond -= lse_rows(log_cond)[:, None]
        nxt = lse_rows((log_p[:, None] + log_cond).T)
        done = float(np.abs(np.exp(nxt) - np.exp(log_q)).max()) < 1e-15
        log_q = nxt
        if done:
            break
    with np.errstate(divide="ignore"):  # letters the optimum drops carry zero weight
        return level_rate(p, np.exp(log_q), d, s)


def row_force(q, row, level: float) -> float:
    """The force at which one row's tilted mean distortion equals ``level``, by bisection."""
    mean_at = lambda s: float(tilted_rows(q, row[None, :], s)[1][0] @ row)  # noqa: E731
    lo, hi = -1.0, 0.0
    while mean_at(lo) > level:
        lo *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (lo, mid) if mean_at(mid) > level else (mid, hi)
    return 0.5 * (lo + hi)


def brute_slack(p, q, d, s: float, grid_points: int) -> float:
    """How far a gridded budget split may sit above the optimal rate at force s.

    Each letter's optimal budget is pushed down one grid cell and the move is
    priced at that cell's force, a convexity bound (the upper side of
    tests/test_acceptance.py, criterion 4).
    """
    _, w = tilted_rows(q, d, s)
    slack = 1e-9
    for x, row in enumerate(d):
        floor, mean = float(row.min()), float(q @ row)
        spacing = (mean - floor) / (grid_points - 1)
        snapped = max(float(w[x] @ row) - spacing, floor)
        if snapped == floor:
            snapped += spacing * 1e-3
        slack += float(p[x]) * abs(row_force(q, row, snapped)) * spacing
    return slack


def block_probability(p, q, d, n: int, delta: float) -> float:
    """P(sum of n letters' distortions <= n*delta) for an integer table and composition."""
    counts = np.rint(p * n).astype(int)
    table = np.rint(d).astype(int)
    dist = {0: 1.0}
    for x, c in enumerate(counts):
        for _ in range(c):
            nxt: dict[int, float] = {}
            for total, pr in dist.items():
                for v, qv in zip(table[x], q):
                    nxt[total + int(v)] = nxt.get(total + int(v), 0.0) + pr * qv
            dist = nxt
    return min(sum(pr for total, pr in dist.items() if total <= n * delta + 1e-9), 1.0)
