"""som-atlas: self-organizing maps for multidimensional sensor logs.

Train hexagonal Kohonen maps on numeric logs, classify and cluster the data,
detect correlated attributes through component-plane comparison, and render
per-attribute heatmaps. Training runs on a small C kernel loaded through
``ctypes``, compiled on first use of ``som_atlas.kernels`` into the user
cache (``$XDG_CACHE_HOME/som-atlas``), else, without a working compiler or
cache, on a bit-identical numpy reference
(``som_atlas.kernels.BACKEND`` names the choice).

Importing the package loads no submodule: each public name below imports
the submodule that defines it on first access, so a process pays only for
the parts it uses.
"""

import importlib

__version__ = "0.1.0"

# Public names by the submodule that defines them.
_EXPORTS = {
    "analysis": (
        "AttributeStats", "ClusterModel", "CorrelationReport", "classify", "cluster_stats",
        "component_plane", "kmeans_codebook", "plane_correlation",
    ),
    "errors": (
        "CsvFormatError", "ModelFormatError", "RangeOverflowError", "SchemaMismatchError",
        "SomAtlasError",
    ),
    "hexgrid": ("HexGrid",),
    "ingest": (
        "AttributeSpec", "DataTable", "NormalizedTable", "append_time_counter", "normalize",
        "parse_csv",
    ),
    "model_io": ("load_model", "save_model"),
    "pulse": ("PulseCurve", "PulseFeatures", "curve_from_table", "extract_pulse_features"),
    "render": ("colormap", "render_cluster_map", "render_plane"),
    "som": (
        "SomModel", "TrainingSchedule", "init_codebook", "quantization_error", "train",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)


def __dir__():
    return sorted(globals().keys() | _OWNER.keys())
