"""Exact tools for centre-disjoint disk merging.

Verifiers and solvers for selecting a maximum set of centre-disjoint
disks while merging the rest into them, plus hardness-reduction
generators, JSON serialization and SVG rendering.  All geometry uses
exact rational arithmetic.
"""

from .core import (Assignment, Disk, DisjointnessMode, FormatError,
                   Instance, Point, VerificationReport, aggregate_radius,
                   cardinality, centre_disjoint, format_rational,
                   parse_rational, verify_proper, verify_uproper)
from .formula import (Clause, MonotoneFormula, Polarity, RectilinearRep,
                      grid_embed, grid_size, validate_rep)
from .gadgets import Gadget, GadgetKind, Pose, build_gadget, pose_at
from .reduction import (Assembly, ReductionArtifact, ReductionError,
                        assemble, build_assignment_from_sat,
                        extract_sat_assignment, port_harness, reduce_sat)
from .serialization import (DOCUMENT_VERSION, instance_metadata,
                            parse_assignment, parse_formula, parse_instance,
                            parse_rep, serialize_assignment,
                            serialize_formula, serialize_instance,
                            serialize_rep)
from .solvers import (SolveResult, collinearity_check,
                      enumerate_proper_assignments, solve_collinear,
                      solve_exact_mcmd, solve_exact_rmcmd)
from .svg import RenderOptions, render_svg
from .transforms import (EqualizedInstance, PartitionInput, equalize_radii,
                         reduce_partition)

__version__ = "0.1.0"

__all__ = [
    "Assignment", "Disk", "DisjointnessMode", "FormatError", "Instance",
    "Point", "VerificationReport", "aggregate_radius", "cardinality",
    "centre_disjoint", "format_rational", "parse_rational",
    "verify_proper", "verify_uproper",
    "Clause", "MonotoneFormula", "Polarity", "RectilinearRep",
    "grid_embed", "grid_size", "validate_rep",
    "Gadget", "GadgetKind", "Pose", "build_gadget", "pose_at",
    "Assembly", "ReductionArtifact", "ReductionError", "assemble",
    "build_assignment_from_sat", "extract_sat_assignment", "port_harness",
    "reduce_sat",
    "DOCUMENT_VERSION", "instance_metadata", "parse_assignment",
    "parse_formula", "parse_instance", "parse_rep", "serialize_assignment",
    "serialize_formula", "serialize_instance", "serialize_rep",
    "SolveResult", "collinearity_check", "enumerate_proper_assignments",
    "solve_collinear", "solve_exact_mcmd", "solve_exact_rmcmd",
    "RenderOptions", "render_svg",
    "EqualizedInstance", "PartitionInput", "equalize_radii",
    "reduce_partition",
]
