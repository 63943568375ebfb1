"""Entangling capacity of two-qubit gates.

Canonical decomposition of 4x4 unitaries into local rotations around a
three-angle interaction core, closed-form single-use capacities by parameter
region, and a multi-start numerical optimizer over (optionally
ancilla-extended) initial pure states.
"""

from types import ModuleType as _ModuleType

from .canonical import (
    CanonicalParams,
    bell_coefficients,
    decompose,
    invariants_match,
    local_invariants,
)
from .capacity import (
    AnalyticCapacity,
    RegionTag,
    capacity_c2,
    capacity_concurrence,
    capacity_entropy_no_ancilla,
    capacity_linear_entropy,
    delta_c2_bell,
    region_of,
)
from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    EntcapError,
    MatrixParseError,
    NotCanonicalError,
    NotNormalizedError,
    NotUnitaryError,
    UnsupportedMeasureError,
    WrongPartitionError,
    ZeroCapacityError,
)
from .measures import (
    MeasureKind,
    binary_entropy,
    concurrence,
    entropy_from_concurrence,
    entropy_of_entanglement,
    evaluate,
    linear_entropy,
    linear_entropy_rescaled,
)
from .optimize import (
    CapacityResult,
    FamilyKind,
    GateFamily,
    InterconversionBounds,
    OptimizerConfig,
    SweepRow,
    custom_sweep,
    family_sweep,
    family_unitary,
    interconversion_bounds,
    minimize_initial_entanglement,
    n_copy_capacity,
    numeric_capacity,
    parameterize_state,
    product_start_capacity,
)
from .qcore import (
    BELL_BASIS,
    CNOT,
    DCNOT,
    IDENTITY4,
    SWAP,
    PureState,
    build_canonical_unitary,
    haar_random_local_unitary,
    haar_random_state,
    haar_random_unitary,
    make_rng,
    partial_trace,
    von_neumann_entropy_bits,
)

__version__ = "0.1.0"

# Every name imported above is public API; the submodules are not.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
