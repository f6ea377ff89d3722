"""Record transforms: instance-to-semantic regrouping, text-only stripping, task templates."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from segdial.parsing import (
    TASK_MODES,
    DialogueRecord,
    SegRef,
    Segment,
    TextSpan,
    Turn,
    annotations_by_id,
)

if TYPE_CHECKING:
    from segdial.mask import RasterMask

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


class MergedAnnotation(NamedTuple):
    """Union of one robot turn's instances of one category."""

    turn_index: int
    instance_id: int  # representative: the smallest member id
    category_id: int
    label_name: str
    member_ids: tuple[int, ...]
    mask: RasterMask


def mask_union(masks: Sequence[RasterMask]) -> RasterMask:
    """`segdial.mask.mask_union`, imported on the first call, so that only
    the semantic targets load the pixel layer and NumPy."""
    from segdial import mask

    return mask.mask_union(masks)


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
    out, merged = _regroup(record, annotations, lambda members: mask_union([a.mask for a in members]))
    return out, tuple(MergedAnnotation._make(fields) for fields in merged)


def _regroup(record: DialogueRecord, annotations, merge: Callable[[list], object]) -> tuple[DialogueRecord, list[tuple]]:
    """`to_semantic` with `merge` in place of the union of masks: the
    rewritten record and the fields of each merged annotation in
    `MergedAnnotation`'s order, the last being `merge` of the member
    annotations. Each `merge` runs as soon as its turn is regrouped, so
    errors surface in the order `to_semantic` raises them."""
    if record.task_mode not in _SEMANTIC_MODE:
        raise TransformError(
            f"task_mode {record.task_mode!r} carries no instance supervision to regroup"
        )
    ann = annotations_by_id(annotations)
    new_turns: list[Turn] = []
    merged: list[tuple] = []
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
            group = [ann[i] for i in ids]
            merged.append((ti, reps[cat], cat, group[0].label_name, tuple(ids), merge(group)))
    out = DialogueRecord(record.image_id, new_turns, _SEMANTIC_MODE[record.task_mode], record.provenance)
    return out, merged


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
    return DialogueRecord(record.image_id, new_turns, "pure_text", record.provenance)


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
    return DialogueRecord(record.image_id, (new_first, *record.turns[1:]), record.task_mode, record.provenance)
