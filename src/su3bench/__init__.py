"""su3 complex linear-algebra kernels with scalar and packed-lane backends,
a benchmark harness, and an analytical speedup model."""
from .backends import BACKEND_NAMES, Backend, debug_validation, get_backend
from .flops import flop_count, flop_table
from .lattice import DIRECTIONS, AlignedBuffer, Lattice4D, SiteBuffer
from .perfmodel import (
    InstructionMix,
    ModelInputError,
    TimeComponents,
    arithmetic_fraction,
    bound_from_mix,
    degradation_curve,
    load_instruction_mixes,
    predicted_speedup,
)
from .simd import LaneOpCount, capability, lane_op_count
from .types import (
    OPERAND_SHAPES,
    PRECISIONS,
    ROUTINE_NAMES,
    ROUTINES,
    FlopCount,
    RoutineSpec,
    dtype_for,
    half_wilson_vector,
    random_operands,
    su3_matrix,
    su3_vector,
)
from .verify import EquivalenceReport, EquivalenceRow, check_all, check_routine, ulp_error

__version__ = "0.1.0"

__all__ = [
    "AlignedBuffer",
    "BACKEND_NAMES",
    "Backend",
    "DIRECTIONS",
    "EquivalenceReport",
    "EquivalenceRow",
    "FlopCount",
    "InstructionMix",
    "Lattice4D",
    "LaneOpCount",
    "ModelInputError",
    "OPERAND_SHAPES",
    "PRECISIONS",
    "ROUTINES",
    "ROUTINE_NAMES",
    "RoutineSpec",
    "SiteBuffer",
    "TimeComponents",
    "arithmetic_fraction",
    "bound_from_mix",
    "capability",
    "check_all",
    "check_routine",
    "debug_validation",
    "degradation_curve",
    "dtype_for",
    "flop_count",
    "flop_table",
    "get_backend",
    "half_wilson_vector",
    "lane_op_count",
    "load_instruction_mixes",
    "predicted_speedup",
    "random_operands",
    "su3_matrix",
    "su3_vector",
    "ulp_error",
]
