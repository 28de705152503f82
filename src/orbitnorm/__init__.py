"""Normality of orthogonal/symplectic nilpotent orbit closures from partition data."""

__version__ = "0.1.0"

from .classification import (
    DegenType,
    classify_core,
    classify_minimal_degeneration,
    instantiate,
    table_codim,
)
from .degeneration import (
    DegenPair,
    PosetGraph,
    covers,
    dominates,
    hasse,
    minimal_degenerations,
)
from .errors import (
    CapacityError,
    ContractError,
    NotMinimalIrreducible,
    OrbitNormError,
    PartitionParseError,
)
from .matrix_oracle import (
    NilpotentModel,
    algebra_dim,
    build_nilpotent_model,
    centralizer_dim,
    codim_oracle,
    jordan_type,
    orbit_dim,
    restrict_to_image,
)
from .normality import NORMAL, NOT_NORMAL, UNDETERMINED, NormalityVerdict, decide, survey
from .partitions import (
    EpsDiagram,
    Partition,
    enumerate_eps_diagrams,
    is_eps_diagram,
    parse_partition,
)
from .reduction import (
    ReductionResult,
    common_leading_columns,
    common_leading_rows,
    erase,
    irreducible_core,
    is_irreducible,
    reconstruct,
)
