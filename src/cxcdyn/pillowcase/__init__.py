"""Pillowcase orbifold family: exact maps, curve pullback, subdivision tilings."""

from .core import (CONE_POINTS, CRITICAL_POINTS, AffinePiece, AffineRegion,
                   DifferentialReport, LatticeError, LatticeMap, OrbPoint, TentOrbit,
                   check_parameter, corner_pieces, critical_values, differential_report, doubling,
                   family_deviation, involution, mat, mat_inv, mat_mul, mat_vec,
                   orb_distance, orb_point, perturbation, pillow_map, postcritical_set,
                   preimages, shuffle_atlas, singular_values, tent, tent_orbit,
                   HSQUEEZE, PIECE_MATRICES, SHEAR, VSTRETCH)
from .curves import (LiftedCurve, ObstructionReport, ThurstonReport,
                     curve_preimage, horizontal_curve, horizontal_isotopic,
                     is_horizontal, obstruction_report, thurston_matrix)
from .tiling import (Tile, Tiling, base_faces, base_skeleton,
                     skeleton_forward_invariance, subdivide)

__all__ = [name for name in dir() if not name.startswith("_")]
