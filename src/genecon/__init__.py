"""genecon: eigenanalysis of genetic covariance matrices.

Partitions trait space into a high-variance model space and a nearly null
space, extracts simplicity-ordered bases of the nearly null space under
quadratic simplicity measures, predicts selection responses through the
Breeder's equation, estimates G from balanced family designs, runs the
replicated sampling study, and renders SVG/JSON reports.
"""

__version__ = "0.4.0"

from .core import (
    EigenDecomposition,
    GMatrix,
    SymMatrix,
    TraitGrid,
    clip_negative_eigenvalues,
    symmetric_eigen,
)
from .errors import (
    DimensionMismatch,
    GeneconError,
    GridTooSmall,
    InsufficientData,
    InvalidCovariance,
    InvalidGrid,
    InvalidMatrix,
    NotUnitVector,
    RankDeficientSubspace,
    SingularPhenotypicCovariance,
    UnbalancedDesign,
)
from .estimate import (
    FamilyDataset,
    VarianceComponents,
    anova_estimate,
    ingest_gmatrix,
    load_family_csv,
    save_family_csv,
)
from .simplicity import (
    SimplicityBasis,
    SimplicityMeasure,
    custom_measure,
    first_difference_measure,
    first_difference_penalty,
    measure_from_kind,
    second_difference_measure,
    second_difference_penalty,
    simplicity_basis,
    simplicity_score,
    sparseness_measure,
)
from .simulate import (
    ReplicateResult,
    SimulationParams,
    StudySummary,
    generate_dataset,
    run_study,
)
from .spaces import (
    SelectionVectors,
    SubspacePartition,
    VarianceShares,
    breeders_response,
    canonical_angle_distance,
    heritability_matrix,
    partition,
    response_to_selection,
    sweep_partitions,
    variance_proportions,
)
