"""Spectral radius machinery and dimension-equation solvers.

For a weighted digraph and snowflake parameter alpha > 0, the weight matrix
has entries sum_e d(e)^(-1/alpha) over parallel edges i -> j.  Its spectral
radius is strictly increasing in alpha, which makes bisection on the two
dimension equations (radius at 1/s equal to 1, and radius at alpha/delta
equal to 1) well posed.  Radii come from power iteration on the matrix plus
the identity; the shift makes irreducible nonnegative matrices primitive, so
periodicity cannot stall the iteration.
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


def spectral_radius(matrix: np.ndarray, tol: float = 1e-12, max_iter: int = 10**5) -> SpectralResult:
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
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if (a < 0).any():
        raise ValueError("matrix must be nonnegative")
    n = a.shape[0]
    shift = float(a.sum(axis=1).max())
    if shift == 0.0:
        return SpectralResult(radius=0.0, vector=np.ones(n), iterations=0)
    shifted = a + shift * np.eye(n)
    bound = tol * max(1.0, shift)
    x = np.ones(n)
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


def graph_spectral_radius(g: WeightedDigraph, alpha: float, tol: float = 1e-12) -> SpectralResult:
    """Spectral radius of the weight matrix at the given alpha.

    Requires an irreducible graph; the positive-eigenvector guarantees used
    downstream come from Perron theory and fail otherwise.  Validates the
    graph on every call: loops over alpha should validate once and call
    ``spectral_radius(weight_matrix(g, alpha))``, as ``solve_exponent`` does.
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
    validated once, here; the radius evaluations skip the check.
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

    def evaluate(s: float) -> float:
        nonlocal evaluations
        evaluations += 1
        r = spectral_radius(weight_matrix(g, 1.0 / s)).radius
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
