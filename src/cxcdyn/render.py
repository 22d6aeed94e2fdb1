"""Plain-text render targets: hand-rolled SVG strips and tilings, PGM rasters."""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .gdms import IntervalSystem, _cover_levels
from .pillowcase.tiling import Tiling

_FACE_FILLS = ("#dbe7f5", "#f5e3d0")
_LEVEL_STROKES = ("#1a1a1a", "#5b2a86", "#a23b72", "#2a9d8f",
                  "#e07a1f", "#4a6fa5", "#8a8635", "#777777", "#bbbbbb")


def cover_strip_svg(sys: IntervalSystem, depth: int) -> str:
    """One row per cover depth, one rectangle per cylinder; each row is
    pulled back from the row above."""
    width, row_height = 900, 28
    span_left = min(b.left for b in sys.bases)
    span_right = max(b.right for b in sys.bases)
    scale = width / (span_right - span_left)
    height = (depth + 1) * row_height
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">']
    for m, rows in enumerate(_cover_levels(sys, depth)):
        y = m * row_height + 4
        for _, component, _, left, length in rows:
            x = (left - span_left) * scale
            w = max(length * scale, 0.5)
            fill = _FACE_FILLS[component % 2]
            parts.append(f'  <rect x="{x:.3f}" y="{y}" width="{w:.3f}" '
                         f'height="{row_height - 8}" fill="{fill}" stroke="#333" '
                         f'stroke-width="0.4" />')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _memo_format(convert: Callable[[float], float]) -> Callable[[Fraction], str]:
    """``convert(float(value))`` to three decimals, each distinct value once,
    keyed by its numerator and denominator (cheaper to hash than a Fraction)."""
    table: dict[tuple[int, int], str] = {}

    def text(value: Fraction) -> str:
        key = (value.numerator, value.denominator)
        out = table.get(key)
        if out is None:
            out = table[key] = f"{convert(float(value)):.3f}"
        return out

    return text


def tiling_svg(tiling: Tiling) -> str:
    scale = 800
    width, height = scale // 2, scale
    # fundamental rectangle [0,1/2] x [-1/2,1/2]; SVG y axis points down
    sx = _memo_format(lambda x: x * scale)
    sy = _memo_format(lambda y: (0.5 - y) * scale)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">']
    for tile in tiling.cells:
        path = "M " + " L ".join(f"{sx(x)} {sy(y)}" for x, y in tile.vertices) + " Z"
        parts.append(f'  <path d="{path}" fill="{_FACE_FILLS[tile.face]}" '
                     f'stroke="#555" stroke-width="0.35" />')
    for level in range(len(tiling.skeleton) - 1, -1, -1):
        stroke = _LEVEL_STROKES[min(level, len(_LEVEL_STROKES) - 1)]
        width_px = max(2.4 - 0.3 * level, 0.5)
        for (p, q) in tiling.skeleton[level]:
            parts.append(f'  <line x1="{sx(p[0])}" y1="{sy(p[1])}" x2="{sx(q[0])}" '
                         f'y2="{sy(q[1])}" stroke="{stroke}" stroke-width="{width_px}" />')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_pgm(img: np.ndarray, path: str) -> None:
    """ASCII PGM (P2), 8-bit grayscale."""
    rows, cols = img.shape
    with open(path, "w") as handle:
        handle.write(f"P2\n{cols} {rows}\n255\n")
        for row in img:
            handle.write(" ".join(str(int(v)) for v in row) + "\n")


def points_pgm(points: Sequence[complex], resolution: int = 512) -> np.ndarray:
    """Raster a complex point cloud to a grayscale image (dark on light)."""
    margin = 0.05
    xs = np.array([z.real for z in points])
    ys = np.array([z.imag for z in points])
    lo_x, hi_x = xs.min(), xs.max()
    lo_y, hi_y = ys.min(), ys.max()
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9) * (1 + 2 * margin)
    ox = lo_x - margin * span
    oy = lo_y - margin * span
    img = np.full((resolution, resolution), 255, dtype=np.uint8)
    cols = np.clip(((xs - ox) / span * (resolution - 1)).astype(int), 0, resolution - 1)
    rows = np.clip(((ys - oy) / span * (resolution - 1)).astype(int), 0, resolution - 1)
    img[resolution - 1 - rows, cols] = 0
    return img
