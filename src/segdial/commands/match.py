"""`segdial match`: assign predicted masks to ground truth."""

from __future__ import annotations

from segdial import dataset_io, instances, matching
from segdial.geometry import bitset


def run(args) -> int:
    matching.check_weights(args.w_iou, args.w_dice)  # before any file is read
    # every mask is matched as a bitset built from its geometry, so no pixel is drawn
    dataset, geometries = dataset_io.load_coco_geometries(args.gt)
    preds = dataset_io.read_prediction_geometries(args.preds)
    known = {img.image_id for img in dataset.images}
    bad = sorted({p[0] for p in preds} - known)
    if bad:
        raise instances.EvalValidationError([f"prediction for unknown image_id {i}" for i in bad])
    by_image: dict[int, list] = {}
    for image_id, _, _, geometry, width, height in preds:
        by_image.setdefault(image_id, []).append((geometry, width, height))

    rows = []
    for img in dataset.images:  # one image's bitsets at a time
        assignment = matching.assign_targets(
            [bitset(*p) for p in by_image.get(img.image_id, [])],
            [bitset(*geometries[a.instance_id]) for a in img.annotations],
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
