"""Multivariate temporal point process for action sequences with a
time-of-day Gaussian-mixture background, exponential cross-excitation and
time-of-day-conditioned Weibull recurrence, plus EM fitting, thinning
simulation, prediction, baselines and a rolling-window evaluation harness.
"""

from .errors import (
    CensoredPredictionError,
    DataFormatError,
    DegenerateEventError,
    InvalidInputError,
    InvalidStateError,
    NumericalFailureError,
    SimulationOverflowError,
    ThinningBoundError,
    TipasError,
    UnsupportedVersionError,
    VocabularyError,
)
from .model import (
    EventRecord,
    ModelParams,
    ModelStructure,
    UserHistory,
    intensity_vector,
    time_of_day,
)
from .likelihood import (
    LogLikValue,
    analytic_compensator,
    log_likelihood,
    rescaled_interarrivals,
)
from .inference import (
    FitConfig,
    FitReport,
    Responsibilities,
    e_step,
    fit,
    m_step_closed,
    m_step_newton,
    m_step_rate,
    select_n_mixtures,
)
from .simulate import (
    SimConfig,
    SyntheticSpec,
    generate_synthetic,
    intensity_upper_bound,
    simulate,
)
from .predict import (
    ActionPrediction,
    PredictionTask,
    TimePrediction,
    TipasPredictor,
    make_tipas_factory,
    make_windows,
    predict_next_action,
    predict_next_time,
    rolling_window_eval,
)
from .metrics import EvalReport, WindowResult, accuracy, macro_recall, mae_filtered
from .baselines import (
    BASELINE_NAMES,
    AverageIntervalModel,
    CopyModel,
    MarkovModel,
    PoissonGlobalModel,
    PoissonUserModel,
    TimeCopyModel,
    UserAverageIntervalModel,
    make_baseline,
)
from .dataio import (
    LoadResult,
    export_params,
    load_dataset,
    load_model,
    load_spec,
    save_histories,
    save_model,
    save_spec,
)

__version__ = "0.1.0"
