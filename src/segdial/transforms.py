"""Record transforms: instance-to-semantic regrouping, text-only stripping, task templates."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from segdial.curation import InstanceAnnotation
from segdial.mask import RasterMask, mask_union
from segdial.parsing import TASK_MODES, DialogueRecord, SegRef, Segment, TextSpan, Turn

__all__ = [
    "TASK_MODES",
    "TASK_TEMPLATES",
    "MergedAnnotation",
    "TransformError",
    "append_task_template",
    "to_pure_text",
    "to_semantic",
]


class TransformError(ValueError):
    pass


# Task templates appended to the person turn so the trained model knows which
# flavor of supervision a record carries. One fixed phrasing per mode.
TASK_TEMPLATES = {
    "semseg": (
        "The mask(s) are for semantic segmentation. No need to differentiate "
        "different instances within the same category."
    ),
    "instseg": (
        "The mask(s) are for instance segmentation. Different instances within "
        "the same countable category should be predicted by separated masks. "
        "Uncountable category does not need separate masks."
    ),
    "sid_semseg": (
        "Please answer the question with text and output semantic segmentation "
        "mask prediction(s). No need to differentiate different instances "
        "within the same category."
    ),
    "sid_instseg": (
        "Please answer the question with text and output the instance "
        "segmentation mask prediction(s). Different instances within the same "
        "countable category should be predicted by separated masks. "
        "Uncountable category does not need separate masks."
    ),
    "pure_text": "Please answer the question only with text, do not output mask.",
}

_SEMANTIC_MODE = {"instseg": "semseg", "sid_instseg": "sid_semseg"}


@dataclass(frozen=True)
class MergedAnnotation:
    """Union of one robot turn's instances of one category."""

    turn_index: int
    instance_id: int  # representative: the smallest member id
    category_id: int
    label_name: str
    member_ids: tuple[int, ...]
    mask: RasterMask


def _ann_map(annotations) -> dict[int, InstanceAnnotation]:
    if isinstance(annotations, Mapping):
        return {int(k): v for k, v in annotations.items()}
    return {a.instance_id: a for a in annotations}


def _merge_text(segments: Sequence[Segment]) -> tuple[Segment, ...]:
    """Drop empty spans and fuse adjacent ones so records stay canonical."""
    out: list[Segment] = []
    for seg in segments:
        if isinstance(seg, TextSpan):
            if not seg.text:
                continue
            if out and isinstance(out[-1], TextSpan):
                out[-1] = TextSpan(out[-1].text + seg.text)
                continue
        out.append(seg)
    return tuple(out)


def to_semantic(
    record: DialogueRecord,
    annotations,
) -> tuple[DialogueRecord, tuple[MergedAnnotation, ...]]:
    """Collapse instance references to one reference per category per robot turn.

    The first reference of a category keeps the slot and points at the merged
    annotation (pixelwise OR of the members, id = smallest member id); later
    references of the same category fold back to their surface word. Returns
    the rewritten record plus the merged annotations it now points at.
    """
    if record.task_mode not in _SEMANTIC_MODE:
        raise TransformError(
            f"task_mode {record.task_mode!r} carries no instance supervision to regroup"
        )
    ann = _ann_map(annotations)
    new_turns: list[Turn] = []
    merged: list[MergedAnnotation] = []
    for ti, turn in enumerate(record.turns):
        if turn.role != "robot":
            new_turns.append(turn)
            continue
        members: dict[int, list[int]] = {}  # category -> member ids, first-seen order
        for seg in turn.segments:
            if not isinstance(seg, SegRef):
                continue
            for i in seg.instance_ids:
                if i not in ann:
                    raise TransformError(f"turn {ti}: unknown instance id {i}")
                ids = members.setdefault(ann[i].category_id, [])
                if i not in ids:
                    ids.append(i)
        reps = {cat: min(ids) for cat, ids in members.items()}
        emitted: set[int] = set()
        segments: list[Segment] = []
        for seg in turn.segments:
            if not isinstance(seg, SegRef):
                segments.append(seg)
                continue
            cats_here: list[int] = []
            for i in seg.instance_ids:
                cat = ann[i].category_id
                if cat not in emitted:
                    emitted.add(cat)
                    cats_here.append(cat)
            if cats_here:
                segments.append(
                    SegRef(
                        instance_ids=tuple(reps[c] for c in cats_here),
                        surface=seg.surface,
                        labels=tuple(ann[members[c][0]].label_name for c in cats_here),
                    )
                )
            elif seg.surface:
                segments.append(TextSpan(seg.surface))
        new_turns.append(Turn(role="robot", segments=_merge_text(segments)))
        for cat, ids in members.items():
            merged.append(
                MergedAnnotation(
                    turn_index=ti,
                    instance_id=reps[cat],
                    category_id=cat,
                    label_name=ann[ids[0]].label_name,
                    member_ids=tuple(ids),
                    mask=mask_union([ann[i].mask for i in ids]),
                )
            )
    out = replace(record, turns=tuple(new_turns), task_mode=_SEMANTIC_MODE[record.task_mode])
    return out, tuple(merged)


def to_pure_text(record: DialogueRecord) -> DialogueRecord:
    """Strip every segmentation reference down to its surface word. Idempotent."""
    new_turns = []
    for turn in record.turns:
        segments: list[Segment] = []
        for seg in turn.segments:
            if isinstance(seg, SegRef):
                if seg.surface:
                    segments.append(TextSpan(seg.surface))
            else:
                segments.append(seg)
        new_turns.append(Turn(role=turn.role, segments=_merge_text(segments)))
    return replace(record, turns=tuple(new_turns), task_mode="pure_text")


def append_task_template(record: DialogueRecord, mode: str) -> DialogueRecord:
    """Append the task template for `mode` to the record's first person turn.

    The record's task_mode must already equal `mode` (templates and modes are
    a bijection), and a record that already carries any task template is
    rejected rather than double-stamped.
    """
    if mode not in TASK_TEMPLATES:
        raise TransformError(f"unknown template mode {mode!r}")
    if record.task_mode != mode:
        raise TransformError(
            f"record task_mode {record.task_mode!r} does not take the {mode!r} template"
        )
    if not record.turns:
        raise TransformError("record has no person turn to stamp")
    for turn in record.turns:
        if turn.role != "person":
            continue
        text = "".join(s.text for s in turn.segments if isinstance(s, TextSpan))
        for template in TASK_TEMPLATES.values():
            if template in text:
                raise TransformError("task template already present")
    template = TASK_TEMPLATES[mode]
    first = record.turns[0]
    body = "".join(s.text for s in first.segments if isinstance(s, TextSpan))
    stamped = f"{body} {template}" if body else template
    new_first = Turn(role="person", segments=(TextSpan(stamped),))
    return replace(record, turns=(new_first,) + record.turns[1:])
