"""Spectral radius machinery and dimension-equation solvers.

For a weighted digraph and snowflake parameter alpha > 0, the weight matrix
has entries sum_e d(e)^(-1/alpha) over parallel edges i -> j.  Its spectral
radius is strictly increasing in alpha, which makes bisection on the two
dimension equations (radius at 1/s equal to 1, and radius at alpha/delta
equal to 1) well posed.  Radii come from power iteration on the matrix plus
its largest row sum times the identity; the shift makes irreducible
nonnegative matrices primitive, so periodicity cannot stall the iteration.
On graphs of at most ``_DENSE_START_MAX`` vertices the exponent solver
starts each iteration at the dense eigensolver's Perron vector, so it usually
stops after one step on the same Collatz-Wielandt certificate as an
iteration from the all-ones vector; larger graphs start at all ones, since
the O(n^3) eigensolver soon costs more than the power steps it saves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphs import WeightedDigraph, validate_graph


class ConvergenceError(RuntimeError):
    pass


def weight_matrix(g: WeightedDigraph, alpha: float) -> np.ndarray:
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    n = g.vertex_count
    a = np.zeros((n, n))
    for e in g.edges:
        a[e.src - 1, e.dst - 1] += float(e.degree) ** (-1.0 / alpha)
    return a


@dataclass(frozen=True)
class SpectralResult:
    radius: float
    vector: np.ndarray
    iterations: int


_DECAYED = float(np.finfo(float).eps)  # entries of the sup-normalized x below this are dropped


def spectral_radius(matrix: np.ndarray, tol: float = 1e-12, max_iter: int = 10**5,
                    start: Optional[np.ndarray] = None) -> SpectralResult:
    """Dominant eigenvalue and positive eigenvector of a nonnegative matrix.

    Power iteration on the matrix plus a diagonal shift, with sup-norm
    normalization; the radius is recovered by subtracting the shift.  The
    shift removes periodicity (irreducible plus positive diagonal means
    primitive) and is scaled to the max row sum: a unit shift would crush
    the relative spectral gap of matrices with tiny entries and stall far
    from convergence.

    Stops on the Collatz-Wielandt bounds: for a positive vector x, the
    smallest and largest ratio (Ax)_i / x_i bracket the spectral radius.
    The iteration ends when they agree within tol, scaled by the max row sum
    when that exceeds 1 (the rounding floor of the ratios grows with it),
    and returns the upper bound.  On a reducible matrix the entries of x
    outside the dominant block decay and their ratios stay below the
    radius; the lower bound is then also taken for x with those entries
    zeroed (min over its support of (Az)_i / z_i still bounds the radius
    from below for any nonnegative z != 0), which lets the bounds meet.

    The iteration starts at ``start`` (positive, rescaled to sup-norm 1) or
    at the all-ones vector; any positive start gives the same certificate.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if (a < 0).any():
        raise ValueError("matrix must be nonnegative")
    n = a.shape[0]
    if start is None:
        x = np.ones(n)
    else:
        x = np.asarray(start, dtype=float)
        if x.shape != (n,) or not (np.isfinite(x) & (x > 0)).all():
            raise ValueError(f"start must be a positive finite vector of length {n}")
        x = x / float(x.max())
    shift = float(a.sum(axis=1).max())
    if shift == 0.0:
        return SpectralResult(radius=0.0, vector=np.ones(n), iterations=0)
    shifted = a + shift * np.eye(n)
    bound = tol * max(1.0, shift)
    upper = lower = float("nan")
    for it in range(1, max_iter + 1):
        y = shifted @ x
        ratios = y / x
        upper, lower = float(ratios.max()), float(ratios.min())
        kept = x >= _DECAYED
        if not kept.all():
            z = np.where(kept, x, 0.0)
            lower = max(lower, float(((shifted @ z)[kept] / x[kept]).min()))
        x = y / float(y.max())
        if upper - lower <= bound:
            return SpectralResult(radius=upper - shift, vector=x, iterations=it)
    raise ConvergenceError(f"power iteration did not converge in {max_iter} steps "
                           f"(Collatz-Wielandt bounds {lower - shift:.15g}, "
                           f"{upper - shift:.15g})")


# Largest vertex count whose radius evaluations start at the dense Perron
# vector.  One eig costs 70 us at 16 vertices, 330 us at 32 and 12 ms at 128,
# against 25-45 us for a power-iteration call of one step (numpy with
# OpenBLAS, 2-vCPU Xeon); from the all-ones start an evaluation takes 28
# steps on perfbench's spectral graphs and 60-210 on random 8-256-vertex ones.
# On equal row sums the all-ones start is exact and one step suffices, so the
# eig is pure overhead: it makes the doubled K16's solve a quarter slower.
_DENSE_START_MAX = 16


def _perron_start(matrix: np.ndarray) -> np.ndarray:
    """The dense eigensolver's Perron vector of a nonnegative matrix, as a
    start for ``spectral_radius``.

    Takes the eigenvector of the eigenvalue with the largest real part and
    the absolute values of its real parts.  Falls back to all ones when the
    eigensolver fails or the vector is not finite or has an entry below
    ``_DECAYED`` times its largest, as on a reducible matrix.
    """
    ones = np.ones(matrix.shape[0])
    try:
        values, vectors = np.linalg.eig(matrix)
    except np.linalg.LinAlgError:
        return ones
    v = np.abs(vectors[:, int(np.argmax(values.real))].real)
    if not (np.isfinite(v).all() and v.min() > 0.0 and v.min() >= _DECAYED * v.max()):
        return ones
    return v


def graph_spectral_radius(g: WeightedDigraph, alpha: float, tol: float = 1e-12) -> SpectralResult:
    """Spectral radius of the weight matrix at the given alpha.

    Requires an irreducible graph; the positive-eigenvector guarantees used
    downstream come from Perron theory and fail otherwise.  Validates the
    graph on every call and starts the power iteration at the all-ones
    vector: loops over alpha should validate once and call
    ``spectral_radius`` on ``weight_matrix(g, alpha)`` directly, as
    ``solve_exponent`` does (on small graphs with a start at the dense
    Perron vector).
    """
    if not validate_graph(g).irreducible:
        raise ValueError("graph is not irreducible; spectral data undefined")
    return spectral_radius(weight_matrix(g, alpha), tol=tol)


@dataclass(frozen=True)
class DimensionResult:
    """Solution of one of the two dimension equations.

    ``bracket`` is the final bisection interval (lo, hi) in the exponent;
    the radius at the reciprocal-exponent of hi is <= 1 <= the radius at the
    reciprocal-exponent of lo, by monotonicity.
    """

    exponent: float
    bracket: tuple[float, float]
    tolerance: float
    evaluations: int
    mode: str
    alpha: Optional[float] = None
    radius_trace: Optional[tuple[tuple[float, float], ...]] = None


_BRACKET_LIMIT = float(2**20)


def solve_exponent(g: WeightedDigraph, mode: str = "conformal",
                   alpha: Optional[float] = None, tol: float = 1e-10,
                   keep_trace: bool = False) -> DimensionResult:
    """Solve for the exponent making the relevant spectral radius equal 1.

    mode "conformal": the exponent s with radius(1/s) = 1, the Hausdorff
    dimension of the repellor in the snowflaked metric (independent of alpha).
    mode "hausdorff": requires alpha; the exponent delta with
    radius(alpha/delta) = 1, the dimension in the unsnowflaked metric.  That
    is delta = alpha * s: one conformal solve to tol / alpha, with the
    bracket and the trace scaled by alpha, keeps the delta bracket tol wide.
    The solver brackets by doubling and bisects, exploiting that the radius
    is strictly decreasing in the exponent, until the bracket is tol wide (tol
    finite and positive) or its ends are adjacent floats.  The graph is
    validated once, here; the radius evaluations skip the check.  On graphs
    of at most ``_DENSE_START_MAX`` vertices their power iteration starts at
    the dense Perron vector of the weight matrix, on larger ones at all ones.
    """
    if not 0.0 < tol < float("inf"):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if not g.edges:
        raise ValueError("graph has no edges; the repellor is empty")
    report = validate_graph(g)
    if not report.irreducible:
        raise ValueError("graph is not irreducible")
    if report.levy_witness is not None:
        raise ValueError(f"graph fails the No Levy Cycle condition; "
                         f"witness cycle (edge indices): {list(report.levy_witness)}")
    if mode == "conformal":
        if alpha is not None:
            raise ValueError("alpha is only meaningful in hausdorff mode")
        scale = 1.0
    elif mode == "hausdorff":
        if alpha is None or alpha <= 0:
            raise ValueError("hausdorff mode needs a positive alpha")
        scale = alpha
    else:
        raise ValueError(f"unknown mode {mode!r}")

    trace: list[tuple[float, float]] = []
    evaluations = 0
    dense_start = g.vertex_count <= _DENSE_START_MAX

    def evaluate(s: float) -> float:
        nonlocal evaluations
        evaluations += 1
        a = weight_matrix(g, 1.0 / s)
        r = spectral_radius(a, start=_perron_start(a) if dense_start else None).radius
        if keep_trace:
            trace.append((scale * s, r))
        return r

    lo, hi = 1e-3, 1.0
    if evaluate(lo) < 1.0:
        raise ValueError("no bracket: spectral radius below 1 even at exponent 1e-3")
    while evaluate(hi) > 1.0:
        lo = hi
        hi *= 2.0
        if hi > _BRACKET_LIMIT:
            raise ValueError("no bracket found below exponent 2^20")
    while hi - lo > tol / scale:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # adjacent floats: the bracket cannot shrink further
            break
        if evaluate(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
    exponent = scale * (0.5 * (lo + hi))
    if mode == "hausdorff" and exponent > 1.0 + 2.0 * tol:
        raise ValueError(f"delta = {exponent:.6f} > 1: the chosen alpha has spectral "
                         "radius >= 1; pick alpha with radius below 1")
    return DimensionResult(exponent=exponent, bracket=(scale * lo, scale * hi), tolerance=tol,
                           evaluations=evaluations, mode=mode, alpha=alpha,
                           radius_trace=tuple(trace) if keep_trace else None)


@dataclass(frozen=True)
class PerronData:
    """A positive vector strictly contracted by the weight matrix."""

    alpha: float
    radius: float
    vector: np.ndarray


def perron_vector(g: WeightedDigraph, alpha: float, tol: float = 1e-12) -> PerronData:
    """Positive eigenvector w (sup-norm 1) with matrix @ w < w componentwise.

    Only exists when the spectral radius at alpha is below 1; callers choose
    alpha accordingly.
    """
    result = graph_spectral_radius(g, alpha, tol=tol)
    if result.radius >= 1.0:
        raise ValueError(f"no strictly contracted vector exists: spectral radius "
                         f"{result.radius:.6f} >= 1 at alpha {alpha}")
    w = result.vector
    if (w <= 0).any():
        raise ConvergenceError("power iteration returned a non-positive vector")
    contracted = weight_matrix(g, alpha) @ w
    if not (contracted < w).all():
        raise ConvergenceError("eigenvector failed the strict contraction check")
    return PerronData(alpha=alpha, radius=result.radius, vector=w)
