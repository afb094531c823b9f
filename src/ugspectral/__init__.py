"""Spectral solver for Unique Games.

Build the label-extended graph of an instance, extract its high eigenspace,
enumerate a lattice epsilon-net inside the unit ball of that space, and read
off near-optimal assignments.  Ships generators for planted/perturbed
instances, random regular expander skeletons and the Khot-Vishnoi
integrality-gap instance, plus closed-form and brute-force oracles.
"""

from .core import (
    UGInstance,
    UGError,
    characteristic_vector,
    load_instance,
    parse_instance,
    save_instance,
    serialize_instance,
    value,
)
from .label_extended import build_label_extended, build_laplacian
from .linalg import Eigenspace, eigendecompose, project_split, select_eigenspace
from .recover import SolveParams, SolveReport, read_off_assignment, recover_solution
from .maxlin import AbelianGroup, MaxLinInstance, MaxLinParams, solve_maxlin
from .oracle import OracleResult, brute_force

__all__ = [
    "UGInstance",
    "UGError",
    "characteristic_vector",
    "parse_instance",
    "serialize_instance",
    "load_instance",
    "save_instance",
    "value",
    "build_label_extended",
    "build_laplacian",
    "Eigenspace",
    "eigendecompose",
    "select_eigenspace",
    "project_split",
    "SolveParams",
    "SolveReport",
    "read_off_assignment",
    "recover_solution",
    "AbelianGroup",
    "MaxLinInstance",
    "MaxLinParams",
    "solve_maxlin",
    "OracleResult",
    "brute_force",
]
