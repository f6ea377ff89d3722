"""`segdial match`: assign predicted masks to ground truth."""

from __future__ import annotations

from segdial import dataset_io, instances, matching
from segdial.cli import check_output_paths


def run(args) -> int:
    matching.check_weights(args.w_iou, args.w_dice)  # before any file is read
    check_output_paths({"--preds": args.preds, "--gt": args.gt}, {"--out": args.out})
    # every mask is matched as a bitset built from its code or polygons, so no pixel is drawn
    dataset = dataset_io.load_coco_masks(args.gt)
    preds = dataset_io.read_prediction_masks(args.preds)
    known = {img.image_id for img in dataset.images}
    bad = sorted({p.image_id for p in preds} - known)
    if bad:
        raise instances.EvalValidationError([f"prediction for unknown image_id {i}" for i in bad])
    by_image: dict[int, list] = {}
    for p in preds:
        by_image.setdefault(p.image_id, []).append(p.mask)

    rows = []
    for img in dataset.images:  # one image's bitsets at a time
        masks = by_image.get(img.image_id, [])
        for m in masks:  # every ground truth is on the image's canvas, and an image may have none
            if (m.width, m.height) != (img.width, img.height):
                raise ValueError(f"mask canvases differ: {m.width}x{m.height} vs {img.width}x{img.height}")
        assignment = matching.assign_targets(
            masks,
            [a.mask for a in img.annotations],
            w_iou=args.w_iou,
            w_dice=args.w_dice,
        )
        rows.append(
            {
                "schema_version": dataset_io.SCHEMA_VERSION,
                "image_id": img.image_id,
                "pairs": [
                    [i, img.annotations[j].instance_id] for i, j in assignment.pairs
                ],
                "unmatched_pred_indices": list(assignment.unmatched_predictions),
                "unmatched_gt_instance_ids": [
                    img.annotations[j].instance_id for j in assignment.unmatched_groundtruths
                ],
                "total_cost": assignment.total_cost,
            }
        )
    dataset_io.write_jsonl(rows, args.out)
    print(f"match: wrote assignments for {len(rows)} image(s)")
    return 0
