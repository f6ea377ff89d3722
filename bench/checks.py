"""Independent checks of the CLI outputs, computed without importing `segdial`.

Masks are rebuilt from the input files with the numpy code in
`workloads.py`. `match` must reach the optimum that scipy's
`linear_sum_assignment` finds on IoUs computed here; `evaluate --mode sem`
must equal a numpy recomputation of gIoU and cIoU; instance AP must equal
the independent scorer in `tests/oracles.py` on a small input it can finish.
Curation, parsing and the merged masks of the semantic transform are checked
against what the generator wrote.
"""

from __future__ import annotations

import importlib.util
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

import workloads

ORACLES = Path.cwd() / "tests" / "oracles.py"
TOLERANCE = 1e-9
MIN_SIDE_DEFAULT = 512
MIN_AREA_DEFAULT = 400
KEPT_KINDS = ("ok", "mislabel")


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class Ground:
    """Ground-truth masks of one workload, rebuilt per image on demand."""

    def __init__(self, path: Path):
        self.coco = json.loads(path.read_text())
        self.images = {img["id"]: img for img in self.coco["images"]}
        self.anns: dict[int, list[dict]] = {iid: [] for iid in self.images}
        self.ann_by_id = {}
        for a in self.coco["annotations"]:
            self.anns[a["image_id"]].append(a)
            self.ann_by_id[a["id"]] = a

    def masks(self, image_id: int) -> np.ndarray:
        img = self.images[image_id]
        anns = self.anns[image_id]
        out = np.zeros((len(anns), img["height"], img["width"]), dtype=bool)
        for k, a in enumerate(anns):
            out[k] = workloads.segmentation_mask(a["segmentation"], img["width"], img["height"])
        return out

    def mask(self, ann_id: int) -> np.ndarray:
        a = self.ann_by_id[ann_id]
        img = self.images[a["image_id"]]
        return workloads.segmentation_mask(a["segmentation"], img["width"], img["height"])


def _pred_rows(path: Path) -> dict[int, list[dict]]:
    by_image: dict[int, list] = {}
    for row in _jsonl(path):
        by_image.setdefault(row["image_id"], []).append(row)
    return by_image


def _mask(row: dict) -> np.ndarray:
    h, w = row["rle"]["size"]
    return workloads.rle_mask(row["rle"]["counts"], h, w)


def _ious(preds: np.ndarray, gts: np.ndarray) -> np.ndarray:
    """Pairwise IoU of two stacks of masks; float32 sums of 0/1 are exact below 2**24 pixels."""
    p = preds.reshape(len(preds), -1)
    g = gts.reshape(len(gts), -1)
    inter = (p.astype(np.float32) @ g.T.astype(np.float32)).astype(np.int64)
    union = p.sum(1)[:, None] + g.sum(1)[None, :] - inter
    return np.divide(inter, union, out=np.zeros(inter.shape), where=union > 0)


def check_match(ground: Ground, preds, rows: list[dict], fail) -> None:
    if [r["image_id"] for r in rows] != list(ground.images):
        fail("match", "assignment rows do not follow the image order")
        return
    for row in rows:
        iid = row["image_id"]
        gts = ground.masks(iid)
        ps = [_mask(p) for p in preds.get(iid, [])]
        if not ps or not len(gts):
            continue
        cost = 1.0 - _ious(np.stack(ps), gts)
        r, c = linear_sum_assignment(cost)
        optimum = math.fsum(cost[r, c])
        col = {a["id"]: j for j, a in enumerate(ground.anns[iid])}
        pairs = [(i, col[aid]) for i, aid in row["pairs"]]
        chosen = math.fsum(cost[i, j] for i, j in pairs)
        valid = (
            len(pairs) == min(cost.shape)
            and len({i for i, _ in pairs}) == len(pairs)
            and len({j for _, j in pairs}) == len(pairs)
        )
        if not valid or abs(chosen - optimum) > TOLERANCE or abs(row["total_cost"] - optimum) > TOLERANCE:
            fail("match", f"image {iid}: total_cost {row['total_cost']} vs optimum {optimum}")


def check_semantic(ground: Ground, sem_preds, report: dict, fail) -> None:
    per_image, inter_total, union_total = [], 0, 0
    for iid in ground.images:
        gt = ground.masks(iid).any(axis=0)
        pred = _mask(sem_preds[iid][0])
        inter, union = int((pred & gt).sum()), int((pred | gt).sum())
        per_image.append(inter / union if union else 0.0)
        inter_total += inter
        union_total += union
    giou = math.fsum(per_image) / len(per_image)
    ciou = inter_total / union_total if union_total else 0.0
    got = report["metrics"]
    if abs(got["gIoU"] - giou) > TOLERANCE or abs(got["cIoU"] - ciou) > TOLERANCE:
        fail("evaluate_sem", f"gIoU/cIoU {got['gIoU']}/{got['cIoU']} vs {giou}/{ciou}")


def check_curate(ground: Ground, wl, expected: dict, jobs: list[dict], dropped: list[dict], fail) -> None:
    flags = dict(zip(wl.curate_flags[::2], wl.curate_flags[1::2]))
    min_side = int(flags.get("--min-image-side", MIN_SIDE_DEFAULT))
    kept, n_dropped = [], 0
    for iid, img in ground.images.items():
        if min(img["width"], img["height"]) < min_side:
            n_dropped += 1
            continue
        small = sum(a["area"] < MIN_AREA_DEFAULT for a in ground.anns[iid])
        n_dropped += small + (small == len(ground.anns[iid]))
        if small < len(ground.anns[iid]):
            kept.append(iid)
    if [j["image_id"] for j in jobs] != kept or len(dropped) != n_dropped:
        fail("curate", f"{len(jobs)} jobs / {len(dropped)} drops, expected {len(kept)} / {n_dropped}")
        return
    responses = wl.files["responses"]
    for job in jobs:
        missing = expected[str(job["image_id"])] == "missing"
        want = None if missing else (responses / f"{job['image_id']}.txt").read_text(encoding="utf-8")
        if job["response"] != want or (job["error"] is not None) != missing:
            fail("curate", f"image {job['image_id']}: response does not match its fixture")
            return


def check_records(ground: Ground, expected: dict, records: list[dict], fail) -> None:
    want = sorted(int(i) for i, kind in expected.items() if kind in KEPT_KINDS)
    if sorted(r["image_id"] for r in records) != want:
        fail("parse", f"{len(records)} records, expected {len(want)}")
        return
    for r in records:
        ids = [i for t in r["turns"] for i in t["seg_ids"]]
        if not ids or any(ground.ann_by_id[i]["image_id"] != r["image_id"] for i in ids):
            fail("parse", f"image {r['image_id']}: seg ids do not belong to the image")
            return


def check_merged(ground: Ground, records: list[dict], semantic: list[dict], merged: list[dict], fail) -> None:
    if len(semantic) != len(records):
        fail("transform_sem", f"{len(semantic)} semantic records from {len(records)}")
        return
    for row in merged:
        members = row["member_ids"]
        cats = {ground.ann_by_id[i]["category_id"] for i in members}
        h, w = row["rle"]["size"]
        got = workloads.rle_mask(row["rle"]["counts"], h, w)
        want = np.zeros_like(got)
        for i in members:
            want |= ground.mask(i)
        if cats != {row["category_id"]} or row["instance_id"] != min(members) or not np.array_equal(got, want):
            fail("transform_sem", f"merged mask {row['instance_id']} of image {row['image_id']} is wrong")
            return


def check_text(out: Path, records_path: Path, fail) -> None:
    lines = records_path.read_text(encoding="utf-8").splitlines()
    pure = _jsonl(out / "pure.jsonl")
    if len(pure) != len(lines) or any(t["seg_ids"] for r in pure for t in r["turns"]):
        fail("transform_pure", "pure records keep references or lost records")
    split = (out / "train.jsonl").read_text(encoding="utf-8").splitlines()
    split += (out / "eval.jsonl").read_text(encoding="utf-8").splitlines()
    if Counter(split) != Counter(lines):
        fail("split", "train and eval do not partition the records")


def verify(wl, out: Path, ledger) -> None:
    """Check one pass of outputs of workload `wl` written under `out`."""

    def fail(step, message):
        ledger.fail(f"check {step}", message)

    ground = Ground(wl.files["gt"])
    expected = json.loads(wl.files["expected"].read_text())["responses"]
    records = _jsonl(out / "records.jsonl")
    check_curate(ground, wl, expected, _jsonl(out / "jobs.jsonl"), _jsonl(out / "jobs.dropped.jsonl"), fail)
    check_records(ground, expected, records, fail)
    check_merged(ground, records, _jsonl(out / "sid_semseg.jsonl"), _jsonl(out / "merged.jsonl"), fail)
    if (out / "pure.jsonl").is_file():
        check_text(out, out / "records.jsonl", fail)
    check_match(ground, _pred_rows(wl.files["preds"]), _jsonl(out / "assign.jsonl"), fail)
    sem_report = json.loads((out / "sem.json").read_text())
    check_semantic(ground, _pred_rows(wl.files["sem_preds"]), sem_report, fail)


def _oracle():
    spec = importlib.util.spec_from_file_location("segdial_test_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def verify_ap_oracle(name: str, seed: int, work: Path, launch, ledger) -> None:
    """Score a small input of workload `name` with the CLI and with the test oracle."""
    wl = workloads.generate(name, seed, work, scale="mini")
    report_path = work / "inst.json"
    ledger.attempted += 1
    run = launch(
        ["evaluate", "--gt", str(wl.files["gt"]), "--preds", str(wl.files["preds"]), "--mode", "inst",
         "--out", str(report_path)],
        work,
    )
    if run.code != 0:
        ledger.fail("check evaluate_inst oracle", f"mini evaluate exited {run.code}")
        return
    ground = Ground(wl.files["gt"])
    preds = [
        {"image_id": row["image_id"], "category_id": row["category_id"], "score": row["score"], "pixels": _mask(row)}
        for row in _jsonl(wl.files["preds"])
    ]
    images = [
        {
            "image_id": iid,
            "annotations": [{"category_id": a["category_id"], "pixels": m} for a, m in zip(ground.anns[iid], ground.masks(iid))],
        }
        for iid in ground.images
    ]
    want = _oracle().reference_ap(preds, images)
    got = json.loads(report_path.read_text())
    fields = {"mAP": "mAP", "AP50": "AP50", "AP75": "AP75", "AP_small": "AP-small",
              "AP_medium": "AP-medium", "AP_large": "AP-large"}
    pairs = [(want[k], got["metrics"][v]) for k, v in fields.items()]
    for cat, block in want["per_category"].items():
        pairs += [(block[k], got["per_category"][str(cat)][v]) for k, v in fields.items()]
    if any(abs(a - b) > TOLERANCE for a, b in pairs):
        ledger.fail("check evaluate_inst oracle", f"AP {got['metrics']} vs oracle {want}")
