"""som-atlas: self-organizing maps for multidimensional sensor logs.

Train hexagonal Kohonen maps on numeric logs, classify and cluster the data,
detect correlated attributes through component-plane comparison, and render
per-attribute heatmaps. Training runs on a small C kernel loaded through
``ctypes``, compiled on first import into the user cache
(``$XDG_CACHE_HOME/som-atlas``), else, without a working compiler or cache,
on a bit-identical numpy reference
(``som_atlas.kernels.BACKEND`` names the choice).
"""

from .analysis import (
    AttributeRange,
    AttributeStats,
    ClusterModel,
    ComponentPlane,
    CorrelationReport,
    ForwardPrediction,
    classify,
    cluster_stats,
    component_plane,
    kmeans_codebook,
    plane_correlation,
    predict_forward,
    predict_reverse,
)
from .errors import (
    CsvFormatError,
    ModelFormatError,
    RangeOverflowError,
    SchemaMismatchError,
    SomAtlasError,
)
from .hexgrid import HexGrid
from .ingest import (
    AttributeSpec,
    DataTable,
    NormalizedTable,
    append_time_counter,
    denormalize,
    normalize,
    parse_csv,
)
from .model_io import dumps_model, load_model, loads_model, save_model
from .pulse import PulseCurve, PulseFeatures, curve_from_table, extract_pulse_features
from .render import colormap, render_cluster_map, render_plane
from .som import (
    SomModel,
    TrainingSchedule,
    find_bmu,
    init_codebook,
    learning_rate,
    neighborhood,
    quantization_error,
    train,
    update_step,
)

__version__ = "0.1.0"

__all__ = [
    "AttributeRange",
    "AttributeSpec",
    "AttributeStats",
    "ClusterModel",
    "ComponentPlane",
    "CorrelationReport",
    "CsvFormatError",
    "DataTable",
    "ForwardPrediction",
    "HexGrid",
    "ModelFormatError",
    "NormalizedTable",
    "PulseCurve",
    "PulseFeatures",
    "RangeOverflowError",
    "SchemaMismatchError",
    "SomAtlasError",
    "SomModel",
    "TrainingSchedule",
    "append_time_counter",
    "classify",
    "cluster_stats",
    "colormap",
    "component_plane",
    "curve_from_table",
    "denormalize",
    "dumps_model",
    "extract_pulse_features",
    "find_bmu",
    "init_codebook",
    "kmeans_codebook",
    "learning_rate",
    "load_model",
    "loads_model",
    "neighborhood",
    "normalize",
    "parse_csv",
    "plane_correlation",
    "predict_forward",
    "predict_reverse",
    "quantization_error",
    "render_cluster_map",
    "render_plane",
    "save_model",
    "train",
    "update_step",
]
