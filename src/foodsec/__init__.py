"""Sector-level food-security and poverty proxy indicators from mobile
phone records (calls and airtime top-ups) validated against household
survey data."""

__version__ = "0.1.0"

from .ingest import (  # noqa: F401
    CallColumns,
    FormatError,
    RowErrorLog,
    StrictModeError,
    SurveyTable,
    TopUpColumns,
    load_survey,
    load_tower_map,
    read_cdr,
    read_topups,
)
from .features import (  # noqa: F401
    FeatureConfig,
    UserFeatureVector,
    home_towers,
    social_diversity,
    topup_stats,
    user_features,
)
from .aggregate import SectorMatrix, aggregate_sector, build_sector_matrix  # noqa: F401
from .indices import (  # noqa: F401
    coping_strategy_index,
    food_consumption_score,
    multidimensional_poverty_index,
    sector_survey_means,
)
from .correlate import (  # noqa: F401
    CorrelationEntry,
    NullSummary,
    correlation_matrix,
    fisher_ci,
    pearson,
    pearson_p,
    shuffle_null,
)
from .models import (  # noqa: F401
    RegressionModel,
    fit_from_matrices,
    fit_model,
    predict_rows,
)
from .rolling import SectorSeries, emit_overlay, rolling_sector_series  # noqa: F401
from .synth import SynthConfig, generate, verify_outputs  # noqa: F401
