"""`segdial transform`: re-target records to another task mode."""

from __future__ import annotations

from segdial import dataset_io, parsing, transforms
from segdial.cli import _TRANSFORM_TARGETS, CliUsageError


def run(args) -> int:
    target = _TRANSFORM_TARGETS[args.to]
    needs_annotations = target in ("semseg", "sid_semseg")
    by_image = None
    if needs_annotations:
        if args.annotations is None:
            raise CliUsageError(f"--to {args.to} requires --annotations")
        from segdial.geometry import bitset_rle, bitset_union
        from segdial.instances import as_bitset

        # each merged mask is coded from its members' bitsets, so no pixel is drawn
        dataset = dataset_io.load_coco_masks(args.annotations)
        # a record refers to instances of its own image only
        by_image = {img.image_id: {a.instance_id: a for a in img.annotations} for img in dataset.images}

        def merged_rle(members) -> dict:
            return dataset_io.rle_to_obj(bitset_rle(bitset_union([as_bitset(a.mask) for a in members])))

    serialized = dataset_io.read_records(args.in_path)
    out_records = []
    merged_rows = []
    for n, srec in enumerate(serialized, 1):
        try:
            ann_map = None if by_image is None else by_image.get(srec.image_id)
            if needs_annotations and ann_map is None:
                raise ValueError(f"image {srec.image_id} not in the annotations")
            record = parsing.from_training_record(srec, ann_map)
            if target == "pure_text":
                record = transforms.to_pure_text(record)
            elif target in ("semseg", "sid_semseg"):
                # checked before regrouping, so the error names the record's own mode
                regrouped = transforms._SEMANTIC_MODE.get(record.task_mode, target)
                if regrouped != target:
                    raise ValueError(
                        f"record task_mode {record.task_mode!r} regroups to {regrouped!r}, not {target!r}"
                    )
                record, merged = transforms._regroup(record, ann_map, merged_rle)
                for turn_index, instance_id, category_id, label_name, member_ids, rle in merged:
                    merged_rows.append(
                        {
                            "schema_version": dataset_io.SCHEMA_VERSION,
                            "image_id": srec.image_id,
                            "turn_index": turn_index,
                            "instance_id": instance_id,
                            "category_id": category_id,
                            "label_name": label_name,
                            "member_ids": list(member_ids),
                            "rle": rle,
                        }
                    )
            record = transforms.append_task_template(record, target)
            out_records.append(parsing.to_training_record(record))
        except ValueError as exc:
            raise transforms.TransformError(f"record {n} (image {srec.image_id}): {exc}") from exc

    dataset_io.write_records(out_records, args.out)
    if args.merged_out is not None:
        dataset_io.write_jsonl(merged_rows, args.merged_out)
    print(f"transform: wrote {len(out_records)} {args.to} record(s)")
    return 0
