"""Exact tools for centre-disjoint disk merging.

Verifiers and solvers for selecting a maximum set of centre-disjoint
disks while merging the rest into them, plus hardness-reduction
generators, JSON serialization and SVG rendering.  All geometry uses
exact rational arithmetic.

Each public name below is loaded from its submodule on first use, so
code that needs only the core and the solvers never imports the
reduction, serialization or rendering modules.
"""

import importlib

_EXPORTS = {
    "core": (
        "Assignment", "Disk", "DisjointnessMode", "FormatError", "Instance",
        "Point", "VerificationReport", "centre_disjoint", "format_rational",
        "parse_rational", "verify_proper", "verify_uproper"),
    "formula": (
        "Clause", "MonotoneFormula", "Polarity", "RectilinearRep",
        "grid_embed", "validate_rep"),
    "gadgets": ("Gadget", "GadgetKind", "Pose", "build_gadget", "pose_at"),
    "reduction": (
        "Assembly", "ReductionArtifact", "ReductionError", "assemble",
        "build_assignment_from_sat", "extract_sat_assignment",
        "port_harness", "reduce_sat"),
    "serialization": (
        "DOCUMENT_VERSION", "instance_metadata", "parse_assignment",
        "parse_formula", "parse_instance", "parse_rep",
        "serialize_assignment", "serialize_formula", "serialize_instance",
        "serialize_rep"),
    "solvers": (
        "SolveResult", "collinearity_check", "enumerate_proper_assignments",
        "solve_collinear", "solve_exact_mcmd", "solve_exact_rmcmd"),
    "svg": ("render_svg",),
    "transforms": (
        "EqualizedInstance", "PartitionInput", "equalize_radii",
        "reduce_partition"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__version__ = "0.1.0"

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
