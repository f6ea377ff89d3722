"""Mask evaluation: COCO-protocol average precision, which `segdial.ap`
scores on bitsets, and gIoU and cIoU, which `segdial.semseg` scores on
bitsets; both take `RasterMask`s too, and this module re-exports their
names.
"""

from __future__ import annotations

from segdial.ap import ApBlock, ApProtocol, ApReport, evaluate_ap
from segdial.ap import _Det, _validate_predictions  # noqa: F401  (the reference scorer of the tests reads them here)
from segdial.instances import EvalValidationError, PredictionInstance
from segdial.mask import mask_iou  # noqa: F401  (bench/tracing.py rebinds it here)
from segdial.semseg import SemSegScore, evaluate_semseg

__all__ = [
    "ApBlock",
    "ApProtocol",
    "ApReport",
    "EvalValidationError",
    "PredictionInstance",
    "SemSegScore",
    "evaluate_ap",
    "evaluate_semseg",
]
