"""Trust-aware neighborhood recommendation and offline evaluation."""

from .canonical import canonical_load, canonical_save, datasets_equal
from .dataset import (
    Dataset,
    FeedbackTable,
    IngestWarnings,
    Interner,
    ItemCategories,
    RatingStore,
    ReviewFeedback,
    StatsReport,
    apply_filters,
    compute_stats,
    make_dataset,
)
from .errors import (
    AllWeightsZero,
    IoFailure,
    MalformedRecord,
    MissingFile,
    SchemaVersionMismatch,
    TrustcfError,
    UnknownConfiguration,
    UnknownUser,
    WrongProvenance,
)
from .evaluation import (
    EvaluationReport,
    FoldPlan,
    RecItem,
    RecommendationList,
    accuracy_metrics,
    fold_assignment,
    intra_diversity,
    ranking_metrics,
    run_experiment,
    split_folds,
    top_k,
    user_coverage,
)
from .ingest import (
    ingest_librarything,
    ingest_yelp,
    load_category_closure,
    restaurants_food_closure,
)
from .recommender import (
    InfluenceConfig,
    Prediction,
    PredictionKind,
    TrainedModel,
    config_names,
    make_config,
    pearson,
)
from .social import SocialGraph, jaccard, rel_direct, rel_social_intersection
from .trust import (
    FacetWeights,
    TrustProfiles,
    build_librarything_profiles,
    build_profiles,
    build_yelp_profiles,
    fuse_trust,
    indicator_fcontr,
    indicator_fendors,
    indicator_frev,
    indicator_visibility,
)

__version__ = "0.1.0"
