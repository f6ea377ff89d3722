"""`segdial report`: render a JSON report as text."""

from __future__ import annotations

import json

from segdial.cli import CliUsageError

_REPORT_FIELDS = ("AP50", "AP75", "mAP", "AP-small", "AP-medium", "AP-large")


def render_report(obj: dict) -> str:
    mode = obj.get("mode")
    if mode == "inst":
        names = _REPORT_FIELDS
    elif mode == "sem":
        names = ("gIoU", "cIoU")
    else:
        raise CliUsageError(f"report mode must be 'inst' or 'sem', got {mode!r}")
    met = obj.get("metrics", {})
    if not isinstance(met, dict):
        raise CliUsageError("report metrics must be an object")
    lines = []
    for name in names:
        if name not in met:
            raise CliUsageError(f"report metrics lack {name!r}")
        try:
            lines.append(f"{name:<10}{float(met[name]):.3f}")
        except (TypeError, ValueError, OverflowError):
            raise CliUsageError(f"report metric {name!r} must be a number, got {met[name]!r}") from None
    return "\n".join(lines)


def run(args) -> int:
    with open(args.in_path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise CliUsageError(f"{args.in_path}: report must be a JSON object")
    print(render_report(obj))
    return 0
