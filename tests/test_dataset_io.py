import json

import numpy as np
import pytest

from conftest import (
    coco_payload,
    rect_mask,
    rect_polygon,
    rle_obj,
    write_json,
)
from segdial.dataset_io import (
    DatasetError,
    RecordError,
    load_coco,
    load_coco_footprints,
    load_coco_geometries,
    load_coco_labels,
    read_prediction_geometries,
    read_predictions,
    read_record_lines,
    read_records,
    write_predictions,
    write_records,
)
from segdial.geometry import BBox, Rle, bitset, bitset_rle, bitset_union, footprint
from segdial.mask import RasterMask, mask_union, rle_decode, rle_encode
from segdial.metrics import PredictionInstance
from segdial.parsing import (
    Provenance,
    SerializedRecord,
    SerializedTurn,
    parse_sid_response,
    to_training_record,
)


class TestLoadCoco:
    def test_polygon_and_rle_annotations_load(self, tmp_path):
        m = rect_mask(16, 12, 3, 2, 9, 8)
        payload = coco_payload(
            images=[
                (1, 16, 12, [(10, 1, [rect_polygon(3, 2, 9, 8)]), (11, 2, rle_obj(m))]),
                (2, 16, 12, []),
            ],
            categories=[(1, "cat"), (2, "dog")],
        )
        path = tmp_path / "gt.json"
        write_json(path, payload)
        ds = load_coco(path)
        assert ds.warnings == ()
        assert ds.categories == {1: "cat", 2: "dog"}
        assert [img.image_id for img in ds.images] == [1, 2]
        first, second = ds.images
        assert second.annotations == ()
        assert [a.instance_id for a in first.annotations] == [10, 11]
        assert first.annotations[0].mask == m
        assert first.annotations[1].mask == m
        assert first.annotations[0].label_name == "cat"
        assert first.annotations[0].area == 36
        assert load_coco_labels(path) == {1: {10: "cat", 11: "dog"}, 2: {}}

    def test_area_and_bbox_revalidation_warnings(self, tmp_path):
        payload = coco_payload(
            images=[(1, 16, 12, [(10, 1, [rect_polygon(3, 2, 9, 8)])])],
            categories=[(1, "cat")],
        )
        ann = payload["annotations"][0]
        ann["area"] = 36  # exact: no warning
        ann["bbox"] = [3, 2, 6, 6]  # xywh, matches computed corners exactly
        path = tmp_path / "gt.json"
        write_json(path, payload)
        assert load_coco(path).warnings == ()

        ann["area"] = 39  # off by 3 > 1% of 36
        ann["bbox"] = [3, 2, 9, 6]  # right edge lands 3 px out
        write_json(path, payload)
        warnings = load_coco(path).warnings
        assert any("stored area 39 vs computed 36" in w for w in warnings)
        assert any("stored bbox" in w for w in warnings)

        ann["area"] = 36.2  # inside the 1% band
        ann["bbox"] = [3.5, 2, 6, 6.5]  # inside the 1 px band
        write_json(path, payload)
        assert load_coco(path).warnings == ()

    def test_empty_mask_with_stored_bbox_warns(self, tmp_path):
        empty = RasterMask.zeros(16, 12)
        payload = coco_payload(
            images=[(1, 16, 12, [(10, 1, rle_obj(empty))])],
            categories=[(1, "cat")],
        )
        payload["annotations"][0]["bbox"] = [0, 0, 2, 2]
        path = tmp_path / "gt.json"
        write_json(path, payload)
        ds = load_coco(path)
        assert any("stored bbox but the mask is empty" in w for w in ds.warnings)
        assert ds.images[0].annotations[0].area == 0

    def test_footprints_are_load_coco_without_masks(self, tmp_path):
        payload = coco_payload(
            images=[
                (1, 16, 12, [
                    (10, 1, [rect_polygon(3, 2, 9, 8), rect_polygon(8, 7, 12, 11)]),
                    (11, 2, rle_obj(rect_mask(16, 12, 0, 5, 3, 12))),
                    (12, 2, rle_obj(RasterMask.zeros(16, 12))),
                    (13, 1, [rect_polygon(14, 1, 20, 3.5)]),
                ]),
                (2, 8, 8, []),
            ],
            categories=[(1, "cat"), (2, "dog")],
        )
        stored = [(39, [3, 2, 9, 6]), (21, [0, 5, 3, 7]), (None, [0, 0, 2, 2]), (4, [14.5, 1, 2, 2.5])]
        for ann, (area, bbox) in zip(payload["annotations"], stored):
            ann["bbox"] = bbox
            if area is not None:
                ann["area"] = area
        path = tmp_path / "gt.json"
        write_json(path, payload)
        full, light = load_coco(path), load_coco_footprints(path)
        assert light.warnings == full.warnings and len(full.warnings) == 3
        assert light.categories == full.categories
        assert [a.area for a in light.images[0].annotations] == [51, 21, 0, 4]
        for kept, read in zip(full.images, light.images):
            assert read == kept._replace(annotations=read.annotations)
            assert [a._replace(mask=None) for a in kept.annotations] == list(read.annotations)
            assert all(a.mask is None for a in read.annotations)

        payload["annotations"][0]["bbox"] = [3, "x", 6, 6]
        write_json(path, payload)
        for load in (load_coco, load_coco_footprints):
            with pytest.raises(DatasetError, match=r"annotation 10: stored bbox \[3, 'x', 6, 6\] is not four numbers"):
                load(path)

    def test_each_polygon_is_traced_once(self, tmp_path, monkeypatch):
        # `footprint` counts each annotation's bitset, and the bitsets of
        # the geometries read it back: a polygon's edges are followed once,
        # and the codes equal those of the decoded masks
        import segdial.geometry as geometry

        payload = coco_payload(
            images=[
                (1, 16, 12, [
                    (10, 1, [rect_polygon(3, 2, 9, 8), rect_polygon(8, 7, 12, 11)]),
                    (11, 1, rle_obj(rect_mask(16, 12, 0, 5, 3, 12))),
                    (12, 2, [rect_polygon(0, 0, 4, 3)]),
                ]),
            ],
            categories=[(1, "cat"), (2, "dog")],
        )
        path = tmp_path / "gt.json"
        write_json(path, payload)
        traced = []
        fill = geometry._polygon_bitset
        monkeypatch.setattr(geometry, "_polygon_bitset", lambda poly, w, h: traced.append(poly) or fill(poly, w, h))
        dataset, geometries = load_coco_geometries(path)
        codes = [
            bitset_rle(bitset_union([bitset(*geometries[i]) for i in ids])) for ids in ([10, 11], [12], [10, 11, 12])
        ]
        assert len(traced) == 3
        masks = {a.instance_id: a.mask for a in load_coco(path).images[0].annotations}
        assert codes == [rle_encode(mask_union([masks[i] for i in ids])) for ids in ([10, 11], [12], [10, 11, 12])]
        assert dataset == load_coco_footprints(path)
        # on another canvas the kept bitset does not hold: it is built anew
        assert footprint(geometries[10][0], 10, 9) == (39, BBox(3, 2, 9, 8)) != footprint(*geometries[10])

    def test_reference_and_id_errors_aggregate(self, tmp_path):
        payload = coco_payload(
            images=[
                (1, 16, 12, [(10, 1, [rect_polygon(0, 0, 4, 4)])]),
                (1, 16, 12, []),  # duplicate image id
            ],
            categories=[(1, "cat"), (1, "dog")],  # duplicate category id
        )
        payload["annotations"].append(
            {"id": 10, "image_id": 1, "category_id": 1,  # duplicate annotation id
             "segmentation": [rect_polygon(0, 0, 2, 2)], "iscrowd": 0}
        )
        payload["annotations"].append(
            {"id": 12, "image_id": 99, "category_id": 1,
             "segmentation": [rect_polygon(0, 0, 2, 2)], "iscrowd": 0}
        )
        payload["annotations"].append(
            {"id": 13, "image_id": 1, "category_id": 42,
             "segmentation": [rect_polygon(0, 0, 2, 2)], "iscrowd": 0}
        )
        path = tmp_path / "gt.json"
        write_json(path, payload)
        with pytest.raises(DatasetError) as exc:
            load_coco(path)
        text = "\n".join(exc.value.errors)
        assert "duplicate image id 1" in text
        assert "duplicate category id 1" in text
        assert "duplicate annotation id 10" in text
        assert "annotation 12: unknown image_id 99" in text
        assert "annotation 13: unknown category_id 42" in text

    def test_malformed_geometry_errors(self, tmp_path):
        payload = coco_payload(
            images=[(1, 16, 12, [
                (10, 1, "not-geometry"),
                (11, 1, {"size": [12], "counts": [5]}),
                (12, 1, {"size": [12, 16], "counts": [5, 5]}),  # sums to 10, not 192
            ])],
            categories=[(1, "cat")],
        )
        path = tmp_path / "gt.json"
        write_json(path, payload)
        with pytest.raises(DatasetError) as exc:
            load_coco(path)
        text = "\n".join(exc.value.errors)
        assert "annotation 10: segmentation must be polygons or rle" in text
        assert "annotation 11: malformed rle segmentation" in text
        assert "annotation 12:" in text

    def test_rle_canvas_mismatch_is_an_error(self, tmp_path):
        m = rect_mask(8, 8, 0, 0, 2, 2)
        payload = coco_payload(
            images=[(1, 16, 12, [(10, 1, rle_obj(m))])],
            categories=[(1, "cat")],
        )
        path = tmp_path / "gt.json"
        write_json(path, payload)
        with pytest.raises(DatasetError, match="rle canvas 8x8"):
            load_coco(path)

    def test_image_metadata_errors(self, tmp_path):
        payload = {
            "images": [
                {"id": "one", "width": 16, "height": 12, "file_name": "a.jpg"},
                {"id": 2, "width": 16.5, "height": 12, "file_name": "b.jpg"},
                {"id": 3, "width": 16, "height": 12},
            ],
            "annotations": [],
            "categories": [{"id": 1, "name": "cat"}, {"name": "dog"}],
        }
        path = tmp_path / "gt.json"
        write_json(path, payload)
        with pytest.raises(DatasetError) as exc:
            load_coco(path)
        text = "\n".join(exc.value.errors)
        assert "image without integer id" in text
        assert "image 2: width/height must be integers" in text
        assert "image 3: missing file_name" in text
        assert "category without integer id" in text


def canonical_records():
    text = (
        "<person>: Where are the keyboards?\n"
        "<robot>: keyboards <34494; keyboard> <31264; keyboard>"
    )
    anns = {34494: "keyboard", 31264: "keyboard"}
    first = to_training_record(parse_sid_response(text, anns, image_id=7).record)
    second = SerializedRecord(
        image_id=9,
        task_mode="pure_text",
        turns=(
            SerializedTurn("person", "how are you?", ()),
            SerializedTurn("robot", "fine", ()),
        ),
        provenance=None,
    )
    return [first, second]


class TestRecordsJsonl:
    def test_round_trip(self, tmp_path):
        records = canonical_records()
        path = tmp_path / "records.jsonl"
        write_records(records, path)
        assert read_records(path) == records

    def test_written_bytes_are_deterministic_and_sorted(self, tmp_path):
        records = canonical_records()
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_records(records, a)
        write_records(records, b)
        assert a.read_bytes() == b.read_bytes()
        first_line = a.read_text(encoding="utf-8").splitlines()[0]
        obj = json.loads(first_line)
        assert list(obj) == sorted(obj)
        assert obj["schema_version"] == 1
        assert obj["turns"][1]["text"] == "keyboards <SEG> <SEG>"
        assert obj["turns"][1]["seg_ids"] == [34494, 31264]

    def test_write_requires_integer_image_id(self, tmp_path):
        record = SerializedRecord(
            image_id=None, task_mode="pure_text",
            turns=(SerializedTurn("person", "hi", ()),),
        )
        with pytest.raises(RecordError, match="integer image_id"):
            write_records([record], tmp_path / "r.jsonl")

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records(canonical_records(), path)
        padded = tmp_path / "padded.jsonl"
        padded.write_text("\n" + path.read_text(encoding="utf-8") + "\n\n", encoding="utf-8")
        assert read_records(padded) == canonical_records()
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert read_record_lines(padded) == lines

    @pytest.mark.parametrize("mutate,message", [
        (lambda o: o.update(schema_version=2), "schema_version must be 1"),
        (lambda o: o.update(image_id="x"), "image_id must be an integer"),
        (lambda o: o.update(task_mode="freeform"), "unknown task_mode"),
        (lambda o: o.update(turns={}), "turns must be a list"),
        (lambda o: o["turns"][0].update(role="narrator"), "unknown role"),
        (lambda o: o["turns"][0].update(text=5), "text must be a string"),
        (lambda o: o["turns"][0].update(seg_ids=["3"]), "seg_ids must be a list of integers"),
        (lambda o: o["turns"][1].update(seg_ids=[1]), "2 <SEG> slots but 1 seg_ids"),
        (lambda o: o.update(provenance="tag"), "provenance must be an object or null"),
    ])
    def test_schema_violations_name_the_line(self, tmp_path, mutate, message):
        records = canonical_records()
        path = tmp_path / "records.jsonl"
        write_records(records, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        obj = json.loads(lines[0])
        mutate(obj)
        bad = tmp_path / "bad.jsonl"
        bad.write_text(lines[1] + "\n" + json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(RecordError, match="line 2") as exc:
            read_records(bad)
        assert message in str(exc.value)
        with pytest.raises(RecordError) as checked:
            read_record_lines(bad)
        assert str(checked.value) == str(exc.value)

    def test_booleans_are_not_integers(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records(canonical_records(), path)
        obj = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        for key, value, message in [("image_id", True, "image_id must be an integer"),
                                    ("seg_ids", [True, 2], "turn 1 seg_ids must be a list of integers")]:
            bad = json.loads(json.dumps(obj))
            (bad if key == "image_id" else bad["turns"][1])[key] = value
            path.write_text(json.dumps(bad) + "\n", encoding="utf-8")
            for read in (read_records, read_record_lines):
                with pytest.raises(RecordError, match=f"line 1: {message}"):
                    read(path)

    def test_invalid_json_names_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema_version": 1}\n{broken\n', encoding="utf-8")
        with pytest.raises(RecordError, match="line 1"):
            read_records(path)  # line 1 is valid JSON but fails the schema
        path.write_text("{broken\n", encoding="utf-8")
        with pytest.raises(RecordError, match="line 1: invalid JSON"):
            read_records(path)

    def test_provenance_round_trip(self, tmp_path):
        record = SerializedRecord(
            image_id=3, task_mode="pure_text",
            turns=(SerializedTurn("person", "hi", ()),),
            provenance=Provenance(prompt_kind="qa", response_hash="ab" * 32),
        )
        path = tmp_path / "r.jsonl"
        write_records([record], path)
        assert read_records(path)[0].provenance == record.provenance


class TestPredictionsJsonl:
    def test_rle_form_with_default_score(self, tmp_path):
        m = rect_mask(16, 12, 3, 2, 9, 8)
        path = tmp_path / "preds.jsonl"
        path.write_text(
            json.dumps({"image_id": 1, "category_id": 2, "rle": rle_obj(m)}) + "\n",
            encoding="utf-8",
        )
        preds = read_predictions(path)
        assert preds == [PredictionInstance(image_id=1, mask=m, score=1.0, category_id=2)]

    def test_polygon_form_unions_parts(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        obj = {
            "image_id": 4,
            "score": 0.5,
            "polygon": [rect_polygon(0, 0, 2, 2), rect_polygon(4, 0, 6, 2)],
            "width": 8,
            "height": 4,
        }
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        preds = read_predictions(path)
        assert preds[0].category_id is None
        assert preds[0].score == 0.5
        expected = rect_mask(8, 4, 0, 0, 2, 2).pixels | rect_mask(8, 4, 4, 0, 6, 2).pixels
        assert np.array_equal(preds[0].mask.pixels, expected)

    @pytest.mark.parametrize("obj,message", [
        ({"category_id": 1, "rle": {"size": [4, 4], "counts": [16]}}, "image_id must be an integer"),
        ({"image_id": 1, "category_id": "a", "rle": {"size": [4, 4], "counts": [16]}},
         "category_id must be an integer"),
        ({"image_id": 1, "score": "high", "rle": {"size": [4, 4], "counts": [16]}},
         "score must be a number"),
        ({"image_id": 1}, "needs an 'rle' or 'polygon' mask"),
        ({"image_id": 1, "polygon": [rect_polygon(0, 0, 2, 2)]},
         "polygon predictions need width and height"),
        ({"image_id": 1, "polygon": {"size": [4, 4], "counts": [16]}, "width": 4, "height": 4},
         "expected polygons"),
        ({"image_id": 1, "rle": {"size": [4, 4], "counts": [3]}}, ""),
        ({"image_id": 1, "score": 1.5, "rle": {"size": [4, 4], "counts": [16]}},
         "score must be in [0, 1]"),
        ({"image_id": 1, "score": 10 ** 400, "rle": {"size": [4, 4], "counts": [16]}},
         "too large to convert to float"),
    ])
    def test_bad_lines_rejected_with_position(self, tmp_path, obj, message):
        path = tmp_path / "preds.jsonl"
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(RecordError, match="line 1") as exc:
            read_predictions(path)
        assert message in str(exc.value)

    def test_first_bad_line_is_reported_whatever_its_fault(self, tmp_path):
        # lines are checked before any mask is decoded, and a score out of
        # range is refused only as the prediction is built after decoding;
        # either way the first bad line is the one named
        good = {"image_id": 1, "rle": {"size": [4, 4], "counts": [16]}}
        bad_score = dict(good, score=1.5)
        bad_id = dict(good, image_id="x")
        no_canvas = {"image_id": 1, "polygon": [rect_polygon(0, 0, 2, 2)], "width": 0, "height": 4}
        cases = [
            ([good, bad_score, bad_id], "line 2: score must be in [0, 1], got 1.5"),
            ([good, bad_id, bad_score], "line 2: image_id must be an integer"),
            ([good, "", bad_score, "{broken"], "line 3: score must be in [0, 1], got 1.5"),
            ([good, "{broken", bad_score], "line 2: invalid JSON"),
            ([bad_score, no_canvas], "line 1: score must be in [0, 1], got 1.5"),
            ([good, no_canvas, bad_score], "line 2: canvas must span at least one pixel"),
        ]
        path = tmp_path / "preds.jsonl"
        for rows, message in cases:
            path.write_text("".join((r if isinstance(r, str) else json.dumps(r)) + "\n" for r in rows))
            with pytest.raises(RecordError) as exc:
                read_predictions(path)
            assert str(exc.value).startswith(f"{path}: {message}"), (rows, str(exc.value))

    def test_mixed_canvases_and_forms_keep_their_order(self, tmp_path):
        preds = [
            PredictionInstance(image_id=1, mask=rect_mask(16, 12, 2, 1, 6, 4), score=0.5, category_id=1),
            PredictionInstance(image_id=2, mask=rect_mask(5, 30, 0, 0, 5, 30), score=1.0, category_id=2),
            PredictionInstance(image_id=3, mask=RasterMask.zeros(7, 3), score=0.25, category_id=None),
            PredictionInstance(image_id=4, mask=rect_mask(1, 9, 0, 3, 1, 8), score=0.75, category_id=1),
        ]
        path = tmp_path / "preds.jsonl"
        write_predictions(preds, path)
        polygon = {"image_id": 5, "polygon": [rect_polygon(1, 1, 3, 2)], "width": 4, "height": 4}
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(polygon) + "\n")
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([lines[0], lines[4], *lines[1:4]]) + "\n", encoding="utf-8")
        got = read_predictions(path)
        assert [p.image_id for p in got] == [1, 5, 2, 3, 4]
        assert [got[0], *got[2:]] == preds
        assert got[1].mask == rect_mask(4, 4, 1, 1, 3, 2)

    def test_bitset_and_raster_masks_round_trip(self, tmp_path):
        # a Bitset mask is written as the code of the mask it holds, in the
        # bytes its RasterMask gives: empty, full, wrapping and one-pixel masks
        codes = [
            Rle(4, 3, (2, 5, 5)), Rle(4, 3, (12,)), Rle(4, 3, (0, 12)), Rle(4, 3, (11, 1)),
            rle_encode(rect_mask(16, 12, 2, 1, 6, 4)),
        ]
        kinds = {"raster": map(rle_decode, codes), "bits": (bitset(c, c.width, c.height) for c in codes)}
        for kind, masks in kinds.items():
            path = tmp_path / f"{kind}.jsonl"
            write_predictions([PredictionInstance(k, m, 0.5, 1) for k, m in enumerate(masks)], path)
            assert [row[3] for row in read_prediction_geometries(path)] == codes
        assert (tmp_path / "raster.jsonl").read_bytes() == (tmp_path / "bits.jsonl").read_bytes()

    def test_write_read_round_trip_and_determinism(self, tmp_path):
        preds = [
            PredictionInstance(
                image_id=i, mask=rect_mask(16, 12, i, 0, i + 4, 6), score=i / 10, category_id=i
            )
            for i in range(1, 4)
        ]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_predictions(preds, a)
        write_predictions(preds, b)
        assert a.read_bytes() == b.read_bytes()
        assert read_predictions(a) == preds
