"""Risk-informed analysis of operator behavior on human-machine interfaces.

The pipeline: load an interface knowledge graph, align tracker session
logs to its elements, detect error-prone and time-deviated operation
paths, compute procedure-driven interface metrics, and classify each
path's performance-influencing-factor level with a small neural network.
"""

__version__ = "0.1.0"

from .graph import (  # noqa: F401
    ElementKind,
    ExecutionPath,
    GraphError,
    InterfaceElement,
    InterfaceGraph,
    Screen,
    UnknownPathError,
    UnmappableStepError,
    load_graph,
    map_procedure_step,
    resolve_path,
    validate_graph,
)
from .ingest import (  # noqa: F401
    AlignedStep,
    AlignedTrace,
    ErrorKind,
    EventKind,
    ParseError,
    PathSamples,
    Procedure,
    ProcedureStep,
    SessionLog,
    TrackerEvent,
    align_events,
    hit_test,
    parse_session_log,
    path_samples,
    serialize_session,
)
from .risk import (  # noqa: F401
    HfeReport,
    LognormalTimeModel,
    PathRisk,
    detect_error_paths,
    detect_time_deviated,
    fit_time_model,
    identify_hfes,
    median_from_p95,
    tail_prob,
)
from .metrics import (  # noqa: F401
    MetricVector,
    interaction_span,
    metric_vector,
    semantic_interference_density,
    visual_density,
)
from .embed import (  # noqa: F401
    EmbeddingCache,
    EmbeddingTransportError,
    EmbeddingVector,
    LocalProvider,
    RemoteProvider,
    cosine_similarity,
    embed_text,
    local_embed,
)
from .pifnet import (  # noqa: F401
    CvResult,
    PifModel,
    PifWeights,
    TrainConfig,
    init_model,
    kfold_cv,
    pif_weights,
    predict,
    train,
)
from .simulate import PathPlan, ScenarioPlan, generate_sessions  # noqa: F401
from .report import (  # noqa: F401
    ConflictQuadrant,
    assemble_report,
    conflict_quadrant,
)
