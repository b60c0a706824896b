"""genecon: eigenanalysis of genetic covariance matrices.

Partitions trait space into a high-variance model space and a nearly null
space, extracts simplicity-ordered bases of the nearly null space under
quadratic simplicity measures, predicts selection responses through the
Breeder's equation, estimates G from balanced family data, runs the
replicated sampling study, and renders SVG/JSON reports.

The public names load their submodule on first access (PEP 562), so
``import genecon.cli`` runs the CLI module before numpy is imported.
"""

from importlib import import_module

__version__ = "0.7.0"

_EXPORTS = {
    "core": ["EigenDecomposition", "GMatrix", "SymMatrix", "TraitGrid",
             "clip_negative_eigenvalues", "symmetric_eigen"],
    "errors": ["DimensionMismatch", "GeneconError", "GridTooSmall", "InsufficientData",
               "InvalidCovariance", "InvalidGrid", "InvalidMatrix", "NotUnitVector",
               "RankDeficientSubspace", "SingularPhenotypicCovariance", "UnbalancedDesign"],
    "estimate": ["FamilyDataset", "VarianceComponents", "anova_estimate", "ingest_gmatrix",
                 "load_family_csv", "save_family_csv"],
    "simplicity": ["SimplicityBasis", "SimplicityMeasure", "custom_measure",
                   "first_difference_measure", "first_difference_penalty", "measure_from_kind",
                   "second_difference_measure", "second_difference_penalty",
                   "simplicity_basis", "simplicity_score", "sparseness_measure"],
    "simulate": ["SimulationParams", "StudySummary", "generate_dataset", "run_study"],
    "spaces": ["SelectionVectors", "SubspacePartition", "VarianceShares", "breeders_response",
               "canonical_angle_distance", "heritability_matrix", "partition",
               "response_to_selection", "sweep_partitions", "variance_proportions"],
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
