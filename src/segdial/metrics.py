"""Mask evaluation under one name: COCO-protocol average precision, which
`segdial.ap` scores on bitsets, and gIoU and cIoU, which `segdial.semseg`
scores on bitsets; both take `RasterMask`s too. This module re-exports
their public names and the prediction types of `segdial.instances`, and
loads no NumPy.
"""

from __future__ import annotations

from segdial import _on_first_call
from segdial.ap import ApBlock, ApProtocol, ApReport, evaluate_ap
from segdial.instances import EvalValidationError, PredictionInstance
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

mask_iou = _on_first_call("mask", "mask_iou")  # bench/tracing.py rebinds this name
