"""Sparse, policy-feasible group-level interventions on mixed-type survey
data, learned by aligning a target group's latent distribution with a
reference group's under an entropic transport objective."""

__version__ = "0.1.0"

from .schema import (  # noqa: F401
    DataValidationError,
    FeatureKind,
    FeatureSchema,
    FeatureSpec,
    SchemaError,
    SurveyDataset,
    Violation,
    default_synthetic_schema,
    generate_synthetic,
    load_dataset,
    save_dataset,
    synthetic_lever_index,
    validate_rows,
)
from .factorization import (  # noqa: F401
    LatentModel,
    NNLSError,
    fit_nmf,
    nnls_project_rows,
    normalize_rows,
)
from .grouping import (  # noqa: F401
    GroupAssignment,
    anchor_groups,
    kmeans,
)
from .surrogate import (  # noqa: F401
    PriorityWeights,
    SurrogateModel,
    aggregate_relevance,
    binarize_outcome,
    build_priorities,
    feature_priorities,
    fit_logistic,
    select_topq,
    shapley_latent,
)
from .transport import (  # noqa: F401
    ConvergenceError,
    TransportPlan,
    TransportProblem,
    cost_matrix,
    sinkhorn,
)
from .optimizer import (  # noqa: F401
    InterventionProblem,
    InterventionResult,
    coupling_grad_codes,
    coupling_grad_levers,
    coupling_residual,
    coupling_value,
    lever_penalty,
    optimize,
    ot_grad_wrt_U,
    project_feasible,
    prox_weighted_l21,
    round_report,
)
from .evaluation import (  # noqa: F401
    MetricsReport,
    conversion_metrics,
    effort_and_levers,
    evaluate_intervention,
    group_movement_report,
)
from .baselines import BaselineSpec, run_ablation, run_baseline  # noqa: F401
from .pipeline import ExperimentConfig, PipelineArtifacts, run_pipeline  # noqa: F401
