"""Cover-refinement diagnostics and the system adapters that feed them."""

from .adapters import (CubeCells, SkewCell, dendrite_adapter, gdms_adapter,
                       menger_adapter, pillowcase_adapter, skew_adapter)
from .core import (Adapter, CoverElement, CoverSequence, DistortionReport,
                   OntoResult, SnowflakeFit, VisualMetricReport, build_covers,
                   degree_report, distortion_report, eventually_onto_check,
                   refine, roundness, roundness_bound, snowflake_fit,
                   visual_metric_check)

__all__ = [name for name in dir() if not name.startswith("_")]
