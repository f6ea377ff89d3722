"""Segmentation-dialogue dataset tooling: curation, parsing, transforms, matching, evaluation.

Submodules and the public names below load on first use (PEP 562), so
importing the package, or one submodule, costs only what that use needs.
"""

import importlib

_EXPORTS = {
    "mask": (
        "BBox",
        "Polygon",
        "RasterMask",
        "Rle",
        "area",
        "bbox_of",
        "mask_iou",
        "mask_union",
        "rasterize",
        "rle_decode",
        "rle_encode",
    ),
    "matching": ("Assignment", "assign_targets", "build_cost_matrix", "hungarian"),
    "metrics": (
        "ApBlock",
        "ApProtocol",
        "ApReport",
        "EvalValidationError",
        "PredictionInstance",
        "SemSegScore",
        "evaluate_ap",
        "evaluate_semseg",
    ),
    "curation": (
        "CurationError",
        "DropEntry",
        "FilterResult",
        "ImageRecord",
        "InstanceAnnotation",
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
        "TASK_MODES",
        "TASK_TEMPLATES",
        "MergedAnnotation",
        "TransformError",
        "append_task_template",
        "to_pure_text",
        "to_semantic",
    ),
    "dataset_io": (
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
_SUBMODULES = (*_EXPORTS, "cli")

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
