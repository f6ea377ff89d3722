"""Segmentation-dialogue dataset tooling: curation, parsing, transforms, matching, evaluation.

Submodules and the public names below load on first use (PEP 562), each
name from the module that defines it, so importing the package, or one
name, costs only what that use needs: only the pixel layer (`mask`),
`build_cost_matrix` and `hungarian` load NumPy.
"""

import importlib

_EXPORTS = {  # module: the public names it defines
    "geometry": ("BBox", "Polygon", "Rle"),
    "mask": (
        "RasterMask",
        "area",
        "bbox_of",
        "mask_iou",
        "mask_union",
        "rasterize",
        "rle_decode",
        "rle_encode",
    ),
    "matching": ("Assignment", "assign_targets", "build_cost_matrix", "hungarian"),
    "ap": ("ApBlock", "ApProtocol", "ApReport", "evaluate_ap"),
    "semseg": ("SemSegScore", "evaluate_semseg"),
    "instances": ("CurationError", "EvalValidationError", "ImageRecord", "InstanceAnnotation", "PredictionInstance"),
    "curation": (
        "DropEntry",
        "FilterResult",
        "PromptJob",
        "annotation_digest",
        "build_caption_prompt",
        "build_instseg_prompt",
        "build_qa_prompt",
        "filter_dataset",
    ),
    "clients": ("FixtureModelClient", "HttpModelClient", "JobResult", "ModelClientError", "run_jobs"),
    "parsing": (
        "DialogueRecord",
        "Diagnostic",
        "ParseResult",
        "Provenance",
        "SegRef",
        "SerializedRecord",
        "SerializedTurn",
        "TextSpan",
        "Turn",
        "from_training_record",
        "parse_caption_response",
        "parse_instseg_response",
        "parse_sid_response",
        "render_dialogue",
        "to_training_record",
    ),
    "transforms": (
        "TASK_TEMPLATES",
        "MergedAnnotation",
        "TransformError",
        "append_task_template",
        "to_pure_text",
        "to_semantic",
    ),
    "dataset_io": (
        "TASK_MODES",
        "CocoDataset",
        "DatasetError",
        "RecordError",
        "load_coco",
        "read_predictions",
        "read_records",
        "write_records",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "metrics", "cli")

__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _OWNER:
        value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER, *_SUBMODULES})


def _on_first_call(module: str, name: str):
    """A function that calls `segdial.<module>.<name>`, importing the module on
    its first call and looking the name up on each, so binding it imports
    nothing: modules bind the pixel layer's names through it and load no
    NumPy until one is called."""

    def call(*args, **kwargs):
        return getattr(importlib.import_module(f"{__name__}.{module}"), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call
