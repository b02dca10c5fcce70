"""Feasibility toolkit for interference alignment in MIMO networks.

Decides whether a K-pair network configuration {(M_k, N_k, d_k)} admits
aligning transceivers for generic channels: counting-based necessary
conditions with violation witnesses, closed forms for symmetric and
divisible families, constraint-allocation certificates from the
pressure-transfer engine, a randomized rank test on the alignment system's
coefficient matrix, and numerical solvers for corroboration.
"""

from .allocation import (
    AllocationPolicy,
    AllocationReport,
    PressureState,
    PressureTree,
    PttResult,
    allocation_from_json_dict,
    flow_feasibility,
    init_allocation,
    pressures,
    run_ptt,
    run_ptt_symmetric,
    verify_allocation,
)
from .channels import ChannelSet, sample_channels
from .conditions import (
    ClosedForm,
    check_antenna_budget,
    check_stream_support,
    divisible_feasible,
    symmetric_feasible,
)
from .config import (
    NetworkConfig,
    PairConfig,
    ValidationReport,
    config_from_dict,
    config_to_dict,
    load_config_file,
    scale_config,
    system_shape,
    validate_config,
)
from .fields import COMPLEX, DEFAULT_PRIME, validate_field
from .jacobian import (
    AlignmentJacobian,
    build_jacobian,
    col_index,
    parse_dump,
    residual_jacobian,
    residuals,
    row_index,
)
from .rank import RankVerdict, generic_full_row_rank, gf_rank
from .report import (
    FEASIBLE,
    INFEASIBLE,
    UNDETERMINED,
    NecessaryReport,
    VerdictReport,
    feasibility_report,
    necessary_verdict,
)
from .solver import (
    AlignmentCheck,
    SolveResult,
    alt_min,
    gauss_newton,
    gauss_newton_multistart,
    verify_ia,
)
from .transceivers import ReducedTransceivers, TransceiverSet
from .witnesses import (
    SubsetWitness,
    properness_witness_from_cells,
    properness_witness_from_links,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentCheck",
    "AlignmentJacobian",
    "AllocationPolicy",
    "AllocationReport",
    "COMPLEX",
    "ChannelSet",
    "ClosedForm",
    "DEFAULT_PRIME",
    "FEASIBLE",
    "INFEASIBLE",
    "NecessaryReport",
    "NetworkConfig",
    "PairConfig",
    "PressureState",
    "PressureTree",
    "PttResult",
    "RankVerdict",
    "ReducedTransceivers",
    "SolveResult",
    "SubsetWitness",
    "TransceiverSet",
    "UNDETERMINED",
    "ValidationReport",
    "VerdictReport",
    "allocation_from_json_dict",
    "alt_min",
    "build_jacobian",
    "check_antenna_budget",
    "check_stream_support",
    "col_index",
    "config_from_dict",
    "config_to_dict",
    "divisible_feasible",
    "feasibility_report",
    "flow_feasibility",
    "gauss_newton",
    "gauss_newton_multistart",
    "generic_full_row_rank",
    "gf_rank",
    "init_allocation",
    "load_config_file",
    "necessary_verdict",
    "parse_dump",
    "pressures",
    "properness_witness_from_cells",
    "properness_witness_from_links",
    "residual_jacobian",
    "residuals",
    "row_index",
    "run_ptt",
    "run_ptt_symmetric",
    "sample_channels",
    "scale_config",
    "symmetric_feasible",
    "system_shape",
    "validate_config",
    "validate_field",
    "verify_allocation",
    "verify_ia",
]
