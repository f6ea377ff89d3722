import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from conftest import coco_payload, rect_mask, rect_polygon, rle_obj, write_json
from segdial.cli import _run, build_parser, main
from segdial.commands.evaluate import _inst_metrics_obj
from segdial.dataset_io import (
    load_coco, read_prediction_masks, read_predictions, read_records, rle_to_obj, write_jsonl,
    write_predictions, write_records,
)
from segdial.geometry import bitset_rle
from segdial.mask import mask_union, overlap, rle_encode
from segdial.matching import assign_targets, hungarian
from segdial.metrics import EvalValidationError, PredictionInstance, evaluate_ap
from segdial.parsing import from_training_record, parse_sid_response, to_training_record
from segdial.transforms import TASK_TEMPLATES, to_semantic

M_KEY1 = rect_mask(512, 512, 10, 10, 40, 40)
M_KEY2 = rect_mask(512, 512, 100, 100, 130, 130)
M_LAMP = rect_mask(512, 512, 5, 5, 30, 30)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("SEGDIAL_SEED", raising=False)
    monkeypatch.delenv("SEGDIAL_JOBS", raising=False)


def write_gt(tmp_path, name="gt.json"):
    payload = coco_payload(
        images=[
            (1, 512, 512, [(34494, 3, rle_obj(M_KEY1)), (31264, 3, rle_obj(M_KEY2))]),
            (2, 512, 512, [(9, 5, rle_obj(M_LAMP))]),
        ],
        categories=[(3, "keyboard"), (5, "lamp")],
    )
    path = tmp_path / name
    write_json(path, payload)
    return path


def write_perfect_preds(tmp_path, name="preds.jsonl"):
    preds = [
        PredictionInstance(image_id=1, mask=M_KEY1, score=1.0, category_id=3),
        PredictionInstance(image_id=1, mask=M_KEY2, score=0.9, category_id=3),
        PredictionInstance(image_id=2, mask=M_LAMP, score=1.0, category_id=5),
    ]
    path = tmp_path / name
    write_predictions(preds, path)
    return path


def write_sem_preds(tmp_path, name="sem_preds.jsonl"):
    path = tmp_path / name
    write_predictions(
        [
            PredictionInstance(image_id=1, mask=mask_union([M_KEY1, M_KEY2]), score=1.0),
            PredictionInstance(image_id=2, mask=M_LAMP, score=1.0),
        ],
        path,
    )
    return path


def write_qa_responses(tmp_path):
    responses = tmp_path / "responses"
    responses.mkdir()
    (responses / "1.txt").write_text(
        "<person>: Where are the keyboards?\n"
        "<robot>: keyboards <34494; keyboard> <31264; keyboard>",
        encoding="utf-8",
    )
    (responses / "2.txt").write_text(
        "<person>: what lights the room?\n<robot>: a lamp <9; lamp>", encoding="utf-8"
    )
    return responses


def write_sid_records(tmp_path, name="records.jsonl"):
    keyboard_text = (
        "<person>: Where are the keyboards?\n"
        "<robot>: keyboards <34494; keyboard> <31264; keyboard>"
    )
    rec = parse_sid_response(
        keyboard_text, {34494: "keyboard", 31264: "keyboard"}, image_id=1
    ).record
    path = tmp_path / name
    write_records([to_training_record(rec)], path)
    return path


INST_REPORT = (
    "AP50      1.000\n"
    "AP75      1.000\n"
    "mAP       1.000\n"
    "AP-small  1.000\n"
    "AP-medium 0.000\n"
    "AP-large  0.000"
)


def decoded_assignments(gt, preds, w_iou=1.0, w_dice=0.0):
    """The rows `match` writes, from the decoded masks of `load_coco` and
    `read_predictions`, matched by `assign_targets`."""
    dataset, decoded = load_coco(gt), read_predictions(preds)
    bad = sorted({p.image_id for p in decoded} - {img.image_id for img in dataset.images})
    if bad:
        raise EvalValidationError([f"prediction for unknown image_id {i}" for i in bad])
    rows = []
    for img in dataset.images:
        ids = [a.instance_id for a in img.annotations]
        got = assign_targets([p.mask for p in decoded if p.image_id == img.image_id],
                             [a.mask for a in img.annotations], w_iou, w_dice)
        rows.append({"schema_version": 1, "image_id": img.image_id, "pairs": [[i, ids[j]] for i, j in got.pairs],
                     "unmatched_pred_indices": list(got.unmatched_predictions),
                     "unmatched_gt_instance_ids": [ids[j] for j in got.unmatched_groundtruths],
                     "total_cost": got.total_cost})
    return rows


def _run_fresh(args, refused, tmp_path):
    """`segdial <args>` in a fresh interpreter in which importing any module
    named in `refused`, or a submodule of one, fails; (exit code, stdout, stderr)."""
    import segdial

    code = (
        "import sys\n"
        f"REFUSED = {tuple(refused)!r}\n"
        "class Refuse:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if any(name == r or name.startswith(r + '.') for r in REFUSED):\n"
        "            raise ImportError(f'{name} is refused')\n"
        "sys.meta_path.insert(0, Refuse())\n"
        "from segdial.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(segdial.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestExitCodes:
    def test_no_command_is_a_usage_error(self, capsys):
        assert main([]) == 1
        assert "a command is required" in capsys.readouterr().err

    def test_unknown_command_and_flags(self, capsys):
        assert main(["frobnicate"]) == 1
        assert main(["split", "--bogus"]) == 1
        assert main(["split"]) == 1  # missing required flags
        assert "error" in capsys.readouterr().err

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_missing_input_file_is_io_error(self, tmp_path, capsys):
        code = main(
            ["evaluate", "--gt", str(tmp_path / "nope.json"),
             "--preds", str(tmp_path / "nope.jsonl"), "--mode", "inst"]
        )
        assert code == 2
        assert "i/o error" in capsys.readouterr().err

    def test_malformed_dataset_is_validation_error(self, tmp_path, capsys):
        gt = tmp_path / "gt.json"
        write_json(gt, {"images": [{"id": 1}], "annotations": [], "categories": []})
        preds = write_perfect_preds(tmp_path)
        assert main(["evaluate", "--gt", str(gt), "--preds", str(preds), "--mode", "inst"]) == 1
        assert "validation error" in capsys.readouterr().err

    def test_negative_max_retries_is_validation_error(self, tmp_path, capsys):
        # rejected before any output is written, whether or not a client runs
        gt = write_gt(tmp_path)
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        out = tmp_path / "jobs.jsonl"
        for client, retries in (("fixture", "-1"), ("none", "-5")):
            code = main(
                ["curate", "--input", str(gt), "--task", "qa", "--out", str(out),
                 "--client", client, "--fixture-dir", str(fixtures), "--max-retries", retries]
            )
            assert code == 1, client
            assert "validation error: max_retries must be >= 0" in capsys.readouterr().err
            assert not out.exists()
            assert not (tmp_path / "jobs.dropped.jsonl").exists()

    def test_main_registers_the_exit_freeze_once(self, tmp_path, monkeypatch, capsys):
        import atexit
        import gc

        import segdial.cli

        registered = []
        monkeypatch.setattr(atexit, "register", lambda func, *a, **kw: registered.append(func) or func)
        monkeypatch.setattr(segdial.cli, "_freeze_at_exit_registered", False, raising=False)
        assert main([]) == 1
        assert main(["report", "--in", str(tmp_path / "missing.json")]) == 2
        assert registered == [gc.freeze]

    def test_console_script_is_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "segdial.cli", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "curate" in proc.stdout and "evaluate" in proc.stdout

    def test_import_loads_neither_scipy_nor_requests(self):
        # No subcommand needs scipy, and only `curate --client http` needs
        # requests; no other subcommand may pay for importing them.
        import segdial

        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(segdial.__file__))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = "import sys, segdial.cli; print(sorted({'scipy', 'requests'} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


    def test_match_runs_without_scipy(self, tmp_path):
        # `match` solves its assignments in pure Python: a fresh interpreter
        # that cannot import scipy writes the same bytes as this process.
        gt = write_gt(tmp_path)
        preds = tmp_path / "preds.jsonl"
        write_predictions([
            PredictionInstance(image_id=1, mask=M_KEY2, score=0.9, category_id=3),
            PredictionInstance(image_id=1, mask=M_KEY1, score=1.0, category_id=3),
            PredictionInstance(image_id=1, mask=M_KEY1, score=0.8, category_id=3),
            PredictionInstance(image_id=2, mask=M_LAMP, score=1.0, category_id=5),
        ], preds)
        here, fresh = tmp_path / "here.jsonl", tmp_path / "fresh.jsonl"
        args = ["match", "--preds", str(preds), "--gt", str(gt), "--out"]
        assert main([*args, str(here)]) == 0
        code, _, err = _run_fresh([*args, fresh], ["scipy"], tmp_path)
        assert code == 0, err
        assert fresh.read_bytes() == here.read_bytes()

    @pytest.mark.parametrize("flag", ["--w-iou=nan", "--w-dice=nan", "--w-iou=inf", "--w-dice=inf", "--w-iou=-inf",
                                      "--w-dice=-1e-300"])
    def test_bad_cost_weights_are_refused_before_any_file_is_read(self, tmp_path, capsys, flag):
        out = tmp_path / "assign.jsonl"
        args = ["match", "--preds", tmp_path / "missing.jsonl", "--gt", tmp_path / "missing.json", "--out", out, flag]
        assert main(list(map(str, args))) == 1
        assert capsys.readouterr().err == "validation error: cost weights must be finite and non-negative\n"
        assert not out.exists()

    def test_a_negative_zero_weight_is_a_zero_weight(self, tmp_path, capsys):
        gt, preds = write_gt(tmp_path), write_perfect_preds(tmp_path)
        outs = []
        for n, flags in enumerate((["--w-iou=-0.0", "--w-dice=-0.0"], ["--w-iou=0", "--w-dice=0"])):
            outs.append(tmp_path / f"assign-{n}.jsonl")
            assert main(list(map(str, ["match", "--preds", preds, "--gt", gt, "--out", outs[-1], *flags]))) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert json.loads(outs[0].read_text().splitlines()[0])["total_cost"] == 0.0

    def test_an_overflowing_cost_is_refused_without_a_warning(self, tmp_path, capsys):
        # each weight is finite, but a disjoint pair costs 1e308 + 1e308
        gt, preds = write_gt(tmp_path), write_perfect_preds(tmp_path)
        args = ["match", "--preds", preds, "--gt", gt, "--out", tmp_path / "assign.jsonl", "--w-iou", "1e308",
                "--w-dice", "1e308"]
        assert main(list(map(str, args))) == 1
        assert capsys.readouterr().err == "validation error: cost matrix entries must be finite\n"
        code, _, err = _run_fresh(args, [], tmp_path)
        assert (code, err) == (1, "validation error: cost matrix entries must be finite\n")

    def test_an_overflowing_total_is_refused(self, tmp_path, capsys):
        # each cost is finite, but both predictions miss every ground truth,
        # so any assignment costs 1e308 + 1e308
        gt, preds = write_gt(tmp_path), tmp_path / "preds.jsonl"
        write_predictions([
            PredictionInstance(image_id=1, mask=rect_mask(512, 512, 300, 300, 310, 310), score=1.0, category_id=3),
            PredictionInstance(image_id=1, mask=rect_mask(512, 512, 400, 400, 410, 410), score=0.9, category_id=3),
        ], preds)
        args = ["match", "--preds", preds, "--gt", gt, "--out", tmp_path / "assign.jsonl", "--w-iou", "1e308"]
        assert main(list(map(str, args))) == 1
        assert capsys.readouterr().err == "validation error: the optimal total cost overflows the float range\n"


class TestMalformedGroundTruth:
    """A ground-truth file of the wrong shape is a validation error (exit 1)
    for every subcommand that reads one, never a traceback."""

    NOT_OBJECTS = (7, 2.5, "x", None, True, [], [1, 2])
    NOT_ARRAYS = (7, "x", None, False, {}, {"a": 1})
    NOT_INTS = ("x", None, 2.5, [], [1], {}, {"id": 1})
    NOT_STRINGS = (7, None, [], {})
    BAD_SEGMENTATIONS = (
        "x", 7, None, [], {}, [7], [[1, 2, 3]], [[1, -2, 3, 4, 5, 6]], [["x", 1, 2, 3, 4, 5]],
        [[10 ** 400, 1, 2, 3, 4, 5]], [[math.inf, 1, 2, 3, 4, 5]], {"size": "x", "counts": []},
        {"size": [12], "counts": [192]}, {"size": ["x", 16], "counts": [192]}, {"size": [16, 12], "counts": [192]},
        {"size": [12, 16], "counts": "abc"}, {"size": [12, 16], "counts": [193]},
        {"size": [12, 16], "counts": [None]}, {"size": [12, 16], "counts": [math.inf]},
        # numbers that are not JSON numbers, and fractional sizes; each but the
        # boolean converts to a valid value
        {"size": ["12", 16], "counts": [192]}, {"size": [12.4, 16], "counts": [192]},
        {"size": [12, True], "counts": [12]}, {"size": [12, 16], "counts": ["2", 3, 187]},
        [["1", "1", "6", "1", "6", "5"]],
        {"size": [12, 16], "counts": [1.7, 191]}, {"size": [12, 16], "counts": [True, 191]},
        [[True, 1, 6, 1, 6, 5]], [[1, 1, 6, 1, 6, 5, 1, False]],
    )
    STRINGS_AND_SIZES = BAD_SEGMENTATIONS[-9:-4]
    ID_VALUES = NOT_INTS + (99, 1.0, 3.0)  # 1.0 and 3.0 equal the ids of image 1 and category 3

    @staticmethod
    def payload():
        return coco_payload(
            images=[
                (1, 16, 12, [(11, 3, rle_obj(rect_mask(16, 12, 2, 2, 9, 9))), (12, 5, [rect_polygon(1, 1, 6, 5)])]),
                (2, 16, 12, [(21, 3, [rect_polygon(3, 3, 12, 10), rect_polygon(0, 0, 2, 2)])]),
            ],
            categories=[(3, "keyboard"), (5, "lamp")],
        )

    def mutations(self):
        """(path, value) for every structural spot of the payload and each
        value that no valid file holds there."""
        payload = self.payload()
        spots = [((), (7, "x", None, [], [1, 2]))]
        for section in ("categories", "images", "annotations"):
            spots.append(((section,), self.NOT_ARRAYS))
            spots += [((section, n), self.NOT_OBJECTS) for n in range(len(payload[section]))]
        spots += [(("categories", n, "id"), self.NOT_INTS) for n in range(len(payload["categories"]))]
        for n in range(len(payload["images"])):
            spots.append((("images", n, "id"), self.NOT_INTS))
            spots += [(("images", n, key), self.NOT_INTS + (0, -3)) for key in ("width", "height")]
            spots.append((("images", n, "file_name"), self.NOT_STRINGS))
        for n in range(len(payload["annotations"])):
            spots.append((("annotations", n, "id"), self.NOT_INTS))
            spots += [(("annotations", n, key), self.ID_VALUES) for key in ("image_id", "category_id")]
            spots.append((("annotations", n, "segmentation"), self.BAD_SEGMENTATIONS))
        return [(path, value) for path, values in spots for value in values]

    def mutated(self, path, value):
        """The payload with `value` at `path`."""
        payload = self.payload()
        if not path:
            return value
        *parents, last = path
        node = payload
        for key in parents:
            node = node[key]
        node[last] = value
        return payload

    def runs(self, tmp_path, capsys):
        """(ground-truth path, argument lists of the five subcommands that
        read it); each run succeeds on the payload as written."""
        responses = tmp_path / "responses"
        responses.mkdir()
        (responses / "1.txt").write_text("<person>: which?\n<robot>: keys <11; keyboard> and a lamp <12; lamp>")
        (responses / "2.txt").write_text("<person>: and here?\n<robot>: a keyboard <21; keyboard>")
        preds = tmp_path / "preds.jsonl"
        write_predictions([PredictionInstance(1, rect_mask(16, 12, 2, 2, 9, 9), 0.9, 3)], preds)
        gt, records = tmp_path / "gt.json", tmp_path / "records.jsonl"
        runs = [
            ["parse", "--responses", responses, "--annotations", gt, "--task", "qa", "--out", records],
            ["curate", "--input", gt, "--task", "qa", "--min-image-side", "1", "--min-area", "1",
             "--out", tmp_path / "jobs.jsonl"],
            ["transform", "--in", records, "--to", "sid-semseg", "--annotations", gt, "--out", tmp_path / "sem.jsonl"],
            ["match", "--preds", preds, "--gt", gt, "--out", tmp_path / "assign.jsonl"],
            ["evaluate", "--gt", gt, "--preds", preds, "--mode", "inst"],
        ]
        write_json(gt, self.payload())
        for args in runs:
            assert main(list(map(str, args))) == 0, args[0]
        capsys.readouterr()
        return gt, runs

    def assert_refused(self, tmp_path, capsys, cases, message=""):
        gt, runs = self.runs(tmp_path, capsys)
        for path, value in cases:
            write_json(gt, self.mutated(path, value))
            for args in runs:
                assert main(list(map(str, args))) == 1, (args[0], path, value)
                err = capsys.readouterr().err
                assert err.startswith("validation error: ") and "Traceback" not in err, (args[0], path, value)
                assert message in err, (args[0], err)

    def test_seeded_mutations_exit_one_without_traceback(self, tmp_path, capsys):
        self.assert_refused(tmp_path, capsys, random.Random(11).sample(self.mutations(), 80))

    def test_booleans_are_not_integers(self, tmp_path, capsys):
        # JSON true and false decode to Python bools, which are ints equal to
        # 1 and 0: `"image_id": true` must not attach to image 1
        spots = [("images", 0, "id"), ("images", 1, "width"), ("images", 1, "height"), ("categories", 0, "id"),
                 ("annotations", 0, "id"), ("annotations", 2, "image_id"), ("annotations", 2, "category_id")]
        self.assert_refused(tmp_path, capsys, [(path, value) for path in spots for value in (True, False)])

    def test_floats_and_booleans_in_geometry_and_ids_are_refused(self, tmp_path, capsys):
        # each decodes to a value equal to a valid one: a count of 1.7 would
        # be read as 1, a vertex of true as 1.0, an image_id of 1.0 as image 1
        cases = [(("annotations", n, "segmentation"), value) for n in (0, 1)
                 for value in self.BAD_SEGMENTATIONS[-4:]]
        cases += [(("annotations", 2, "image_id"), 1.0), (("annotations", 2, "category_id"), 3.0)]
        runs = [(cases, ""), (cases[:1], "annotation 11: rle counts must be integers, got 1.7"),
                (cases[-1:], "annotation 21: unknown category_id 3.0")]
        for n, (some, message) in enumerate(runs):
            (tmp_path / str(n)).mkdir()
            self.assert_refused(tmp_path / str(n), capsys, some, message)

    def test_strings_and_fractional_sizes_in_geometry_are_refused(self, tmp_path, capsys):
        # "12" would be read as 12, 12.4 as 12 and "1" as 1.0
        cases = [(("annotations", n, "segmentation"), value) for n in (0, 1) for value in self.STRINGS_AND_SIZES]
        runs = [(cases, ""), (cases[:1], "annotation 11: rle size entries must be integers, got '12'"),
                (cases[1:2], "annotation 11: rle size entries must be integers, got 12.4"),
                (cases[3:4], "annotation 11: rle counts must be integers, got '2'"),
                (cases[-1:], "annotation 12: polygon vertices must be numbers, got '1'")]
        for n, (some, message) in enumerate(runs):
            (tmp_path / str(n)).mkdir()
            self.assert_refused(tmp_path / str(n), capsys, some, message)

    def test_a_vertex_past_the_bound_is_refused(self, tmp_path, capsys):
        # its row crossings would overflow when the polygon is drawn or counted
        cases = [(("annotations", 1, "segmentation"), [[0, 0, 1.5e308, 8, 0, 9]])]
        self.assert_refused(tmp_path, capsys, cases, "annotation 12: polygon vertices must be below 2**500")

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([1, 2], "the file must hold an object, not an array"),
            ({"categories": 5}, "categories must be an array, not a number"),
            ({"categories": [5]}, "categories[0] must be an object, not a number"),
            ({"categories": [], "images": [], "annotations": [{"id": 1}, 7]}, "annotations[1] must be an object"),
        ],
    )
    def test_fresh_process_names_the_entry(self, tmp_path, payload, message):
        gt = tmp_path / "gt.json"
        write_json(gt, payload)
        preds = write_perfect_preds(tmp_path)
        for args in (
            ["parse", "--responses", tmp_path, "--annotations", gt, "--task", "qa", "--out", tmp_path / "r.jsonl"],
            ["evaluate", "--gt", gt, "--preds", preds, "--mode", "inst"],
        ):
            code, _, err = _run_fresh(args, [], tmp_path)
            assert code == 1 and "Traceback" not in err, err
            assert err.startswith("validation error: ") and message in err, err

    def test_unreadable_stored_bbox_names_the_annotation(self, tmp_path, capsys):
        payload = self.payload()
        payload["annotations"][0]["bbox"] = [2, None, 7, 7]
        gt = tmp_path / "gt.json"
        write_json(gt, payload)
        assert main(["curate", "--input", str(gt), "--task", "qa", "--out", str(tmp_path / "jobs.jsonl")]) == 1
        assert "annotation 11: stored bbox [2, None, 7, 7] is not four numbers" in capsys.readouterr().err


class TestMalformedPredictions:
    """A predictions file of the wrong shape is a validation error (exit 1)
    for every subcommand that reads one, never a traceback."""

    NOT_OBJECTS = TestMalformedGroundTruth.NOT_OBJECTS
    NOT_INTS = TestMalformedGroundTruth.NOT_INTS
    DELETED = object()
    BAD_RLES = (
        "x", 7, None, [], {}, [192], {"size": "x", "counts": [192]}, {"size": [12], "counts": [192]},
        {"size": ["x", 16], "counts": [192]}, {"size": [12, 16, 1], "counts": [192]}, {"counts": [192]},
        {"size": [12, 16]}, {"size": [0, 16], "counts": []}, {"size": [12, 16], "counts": "abc"},
        {"size": [12, 16], "counts": []}, {"size": [12, 16], "counts": [193]}, {"size": [12, 16], "counts": [None]},
        {"size": [12, 16], "counts": [math.inf]}, {"size": [12, 16], "counts": [-1, 193]},
        {"size": [12, 16], "counts": [0, 0, 192]}, {"size": [12, 16], "counts": [10 ** 400]},
        {"size": [16, 12], "counts": [192]}, [[1, 1, 9, 1, 9, 7]], {"size": [12, 16], "counts": [1.7, 191]},
        {"size": [12, 16], "counts": [True, 191]}, *TestMalformedGroundTruth.STRINGS_AND_SIZES[:4],
    )
    BAD_POLYGONS = TestMalformedGroundTruth.BAD_SEGMENTATIONS[:11] + (
        {"size": [12, 16], "counts": [192]}, [[0, 0, 1.5e308, 8, 0, 9]], [[True, 1, 6, 1, 6, 5]],
        [[1, 1, 6, 1, 6, 5, 1, False]], TestMalformedGroundTruth.STRINGS_AND_SIZES[4],
    )

    @staticmethod
    def lines():
        return [
            {"image_id": 1, "category_id": 3, "score": 0.9, "rle": rle_obj(rect_mask(16, 12, 2, 2, 9, 9))},
            {"image_id": 2, "category_id": 3, "score": 0.8, "polygon": [rect_polygon(3, 3, 12, 10)],
             "width": 16, "height": 12},
        ]

    def mutations(self):
        """(path, value) for every structural spot of the lines and each
        value that no valid file holds there; DELETED drops the key."""
        spots = []
        for n, line in enumerate(self.lines()):
            spots.append(((n,), self.NOT_OBJECTS))
            spots += [((n, key), (self.DELETED,)) for key in ("image_id", "rle", "polygon", "width", "height")
                      if key in line]
            spots.append(((n, "image_id"), self.NOT_INTS + (99, True, 1.0)))
            spots.append(((n, "score"), ("x", None, [], {}, "0.5", 1.5, -0.5, math.inf, math.nan, 10 ** 400, True)))
            spots.append(((n, "category_id"), ("x", 2.5, [], [3], {}, True, 3.0)))
            if "rle" in line:
                spots.append(((n, "rle"), self.BAD_RLES))
            else:
                spots.append(((n, "polygon"), self.BAD_POLYGONS))
                spots += [((n, key), self.NOT_INTS + (0, -3, True)) for key in ("width", "height")]
        return [(path, value) for path, values in spots for value in values]

    def test_a_geometry_error_names_the_line(self, tmp_path, capsys):
        gt, preds = tmp_path / "gt.json", tmp_path / "preds.jsonl"
        write_json(gt, TestMalformedGroundTruth.payload())
        line = {"image_id": 1, "category_id": 3, "rle": {"size": [12, 16], "counts": [3]}}
        preds.write_text(json.dumps(line) + "\n", encoding="utf-8")
        assert main(["evaluate", "--gt", str(gt), "--preds", str(preds), "--mode", "inst"]) == 1
        assert capsys.readouterr().err == f"validation error: {preds}: line 1: rle counts sum to 3, expected 192\n"

    def test_strings_in_geometry_name_the_line(self, tmp_path, capsys):
        gt, preds = tmp_path / "gt.json", tmp_path / "preds.jsonl"
        write_json(gt, TestMalformedGroundTruth.payload())
        lines = self.lines()
        lines[0]["rle"] = {"size": [12, 16], "counts": ["2", 3, 187]}
        preds.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        message = f"validation error: {preds}: line 1: rle counts must be integers, got '2'\n"
        for mode in ("inst", "sem"):
            assert main(["evaluate", "--gt", str(gt), "--preds", str(preds), "--mode", mode]) == 1
            assert capsys.readouterr().err == message

    def test_the_geometry_reader_refuses_what_read_predictions_refuses(self, tmp_path):
        # `read_prediction_masks` is the reader that `match` and `evaluate`
        # score from without decoding: each mutation fails it with the
        # exception `read_predictions` raises, message and line included, and
        # one that only the scorers refuse (an unknown image) fails neither
        preds = tmp_path / "preds.jsonl"
        preds.write_text("".join(json.dumps(line) + "\n" for line in self.lines()), encoding="utf-8")
        rows = read_prediction_masks(preds)
        decoded = read_predictions(preds)
        assert [(p.image_id, p.category_id, p.score) for p in rows] == [
            (p.image_id, p.category_id, p.score) for p in decoded] == [(1, 3, 0.9), (2, 3, 0.8)]
        assert [rle_encode(p.mask) for p in decoded] == [rows[0].mask, bitset_rle(rows[1].mask)]
        refused = 0
        for path, value in self.mutations():
            lines = self.lines()
            if len(path) == 1:
                lines[path[0]] = value
            elif value is self.DELETED:
                del lines[path[0]][path[1]]
            else:
                lines[path[0]][path[1]] = value
            preds.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
            outcomes = []
            for read in (read_predictions, read_prediction_masks):
                try:
                    outcomes.append(len(read(preds)))
                except ValueError as exc:
                    outcomes.append((type(exc), str(exc)))
            assert outcomes[0] == outcomes[1], (path, value)
            assert outcomes[0] == 2 or f"{preds}: line " in outcomes[0][1], (path, value)
            refused += outcomes[0] != 2
        assert refused > 0.9 * len(self.mutations())

    def test_instance_scoring_refuses_what_the_decoded_path_refuses(self, tmp_path, capsys):
        # `evaluate --mode inst` scores bitsets built from the geometry: each
        # mutation fails it with the exception, message included, that
        # `read_predictions` and `metrics.evaluate_ap` of decoded masks
        # raise, and one that both accept gives the same report
        gt, preds = tmp_path / "gt.json", tmp_path / "preds.jsonl"
        write_json(gt, TestMalformedGroundTruth.payload())
        args = build_parser().parse_args(
            ["evaluate", "--gt", str(gt), "--preds", str(preds), "--mode", "inst", "--out", str(tmp_path / "inst.json")]
        )

        def outcome(run):
            try:
                return run()
            except ValueError as exc:
                return type(exc), str(exc)

        def decoded():
            dataset = load_coco(gt)
            report = evaluate_ap(read_predictions(preds), dataset.images, categories=set(dataset.categories))
            return _inst_metrics_obj(report)

        def from_bitsets():
            _run(args)
            return json.loads((tmp_path / "inst.json").read_text())

        refused = 0
        for path, value in [((), None), *self.mutations()]:
            lines = self.lines()
            if len(path) == 1:
                lines[path[0]] = value
            elif value is self.DELETED:
                del lines[path[0]][path[1]]
            elif path:
                lines[path[0]][path[1]] = value
            preds.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
            want = outcome(decoded)
            assert outcome(from_bitsets) == want, (path, value)
            refused += isinstance(want, tuple)
        capsys.readouterr()
        assert refused > 0.9 * len(self.mutations())

    def test_matching_refuses_what_the_decoded_path_refuses(self, tmp_path, capsys):
        # `match` matches bitsets built from the geometry: each mutation fails
        # it with the exception, message included, that `read_predictions`
        # and `assign_targets` of decoded masks raise, and one that both
        # accept gives the same rows
        gt, preds, out = tmp_path / "gt.json", tmp_path / "preds.jsonl", tmp_path / "assign.jsonl"
        write_json(gt, TestMalformedGroundTruth.payload())
        args = build_parser().parse_args(["match", "--gt", str(gt), "--preds", str(preds), "--out", str(out)])

        def outcome(run):
            try:
                return run()
            except ValueError as exc:
                return type(exc), str(exc)

        def from_bitsets():
            _run(args)
            return [json.loads(line) for line in out.read_text().splitlines()]

        refused = 0
        for path, value in [((), None), *self.mutations()]:
            lines = self.lines()
            if len(path) == 1:
                lines[path[0]] = value
            elif value is self.DELETED:
                del lines[path[0]][path[1]]
            elif path:
                lines[path[0]][path[1]] = value
            preds.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
            want = outcome(lambda: decoded_assignments(gt, preds))
            assert outcome(from_bitsets) == want, (path, value)
            refused += isinstance(want, tuple)
        capsys.readouterr()
        assert refused > 0.9 * len(self.mutations())

    def test_seeded_mutations_exit_one_without_traceback(self, tmp_path, capsys):
        gt, preds = tmp_path / "gt.json", tmp_path / "preds.jsonl"
        write_json(gt, TestMalformedGroundTruth.payload())
        runs = [
            ["match", "--preds", preds, "--gt", gt, "--out", tmp_path / "assign.jsonl"],
            ["evaluate", "--gt", gt, "--preds", preds, "--mode", "inst"],
            ["evaluate", "--gt", gt, "--preds", preds, "--mode", "sem"],
        ]

        def write(lines):
            preds.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")

        write(self.lines())
        for args in runs:  # the file as written is good
            assert main(list(map(str, args))) == 0, args[:4]
        capsys.readouterr()

        mutations = self.mutations()
        for path, value in random.Random(12).sample(mutations, len(mutations)):
            lines = self.lines()
            if len(path) == 1:
                lines[path[0]] = value
            elif value is self.DELETED:
                del lines[path[0]][path[1]]
            else:
                lines[path[0]][path[1]] = value
            write(lines)
            for args in runs:
                assert main(list(map(str, args))) == 1, (args[:4], path, value)
                err = capsys.readouterr().err
                assert err.startswith("validation error: ") and "Traceback" not in err, (args[:4], path, value, err)


class TestImportBoundary:
    """Each subcommand loads only the modules it runs."""

    def test_cli_import_loads_no_numpy_and_no_other_module(self):
        import segdial

        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(segdial.__file__))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = (
            "import sys, segdial.cli\n"
            "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith(('numpy.', 'segdial.'))))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['segdial.cli']"

    def test_names_outside_the_pixel_layer_load_no_numpy(self):
        # each public name comes from the module that defines it, and
        # `segdial.metrics` reaches `mask_iou` only when it is called
        import segdial

        names = [name for name in segdial.__all__ if segdial._OWNER[name] != "mask"]
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(segdial.__file__))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = (
            "import sys\n"
            f"from segdial import {', '.join(names)}\n"
            "import segdial.metrics\n"
            "print(sorted(m for m in sys.modules if m in ('numpy', 'segdial.mask') or m.startswith('numpy.')))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_public_names_resolve_from_their_defining_modules(self):
        import segdial

        for name in segdial.__all__:
            obj = getattr(segdial, name)
            if callable(obj):  # the classes and functions
                assert obj.__module__ == f"segdial.{segdial._OWNER[name]}", name

    def test_split_runs_without_numpy(self, tmp_path, capsys):
        records = write_sid_records(tmp_path)

        def args(how):
            return ["split", "--in", records, "--train-out", tmp_path / f"{how}-train.jsonl",
                    "--eval-out", tmp_path / f"{how}-eval.jsonl", "--eval-fraction", "0.5"]

        assert main([str(a) for a in args("here")]) == 0
        here = capsys.readouterr().out
        code, fresh, err = _run_fresh(args("fresh"), ["numpy"], tmp_path)
        assert code == 0, err
        assert fresh == here
        for name in ("train", "eval"):
            assert (tmp_path / f"fresh-{name}.jsonl").read_bytes() == (tmp_path / f"here-{name}.jsonl").read_bytes()

    def test_curate_runs_without_numpy(self, tmp_path, capsys):
        # areas and boxes come from the geometry, so neither NumPy nor the
        # pixel layer is needed; polygons, rle, a stored-area warning and an
        # object drop all go through the fresh run
        gt = tmp_path / "gt.json"
        payload = coco_payload(
            images=[
                (1, 16, 12, [(11, 3, rle_obj(rect_mask(16, 12, 2, 2, 9, 9))), (12, 5, [rect_polygon(1, 1, 6, 5)])]),
                (2, 16, 12, [(21, 3, [rect_polygon(3, 3, 12, 10), rect_polygon(0, 0, 2, 2)])]),
            ],
            categories=[(3, "keyboard"), (5, "lamp")],
        )
        payload["annotations"][0]["area"] = 7
        write_json(gt, payload)

        def args(how):
            return ["curate", "--input", gt, "--task", "caption", "--min-image-side", "1", "--min-area", "25",
                    "--out", tmp_path / f"{how}-jobs.jsonl"]

        assert main([str(a) for a in args("here")]) == 0
        here = capsys.readouterr()
        code, fresh, err = _run_fresh(args("fresh"), ["numpy", "segdial.mask"], tmp_path)
        assert code == 0, err
        assert (fresh, err) == (here.out, here.err)
        assert "warning: annotation 11: stored area 7 vs computed 49" in err
        for name in ("jobs.jsonl", "jobs.dropped.jsonl"):
            assert (tmp_path / f"fresh-{name}").read_bytes() == (tmp_path / f"here-{name}").read_bytes()
        assert len((tmp_path / "here-jobs.dropped.jsonl").read_text().splitlines()) == 1

    @pytest.mark.parametrize("task, target", [("instseg", "semseg"), ("qa", "sid-semseg")])
    def test_semantic_transforms_run_without_numpy(self, tmp_path, capsys, task, target):
        # each merged mask is coded from its members' polygons and run-length
        # codes, so neither NumPy nor the pixel layer is needed; an rle and
        # two overlapping polygons of one category merge in the fresh run, and
        # every code equals the one of the decoded masks' union
        gt = tmp_path / "gt.json"
        write_json(gt, coco_payload(
            images=[
                (1, 16, 12, [(11, 3, rle_obj(rect_mask(16, 12, 2, 2, 9, 9))), (12, 5, [rect_polygon(1, 1, 6, 5)]),
                             (13, 3, [rect_polygon(6.5, 0, 15, 11.5), [0, 12, 3, 0, 5.5, 12]])]),
                (2, 16, 12, [(21, 3, [rect_polygon(3, 3, 12, 10), rect_polygon(0, 0, 2, 2)])]),
            ],
            categories=[(3, "keyboard"), (5, "lamp")],
        ))
        responses = tmp_path / "responses"
        responses.mkdir()
        if task == "qa":
            (responses / "1.txt").write_text("<person>: which?\n<robot>: keys <11; keyboard> <13; keyboard> "
                                             "and a lamp <12; lamp>")
            (responses / "2.txt").write_text("<person>: and here?\n<robot>: a keyboard <21; keyboard>")
        else:
            (responses / "1.txt").write_text("Q1: What is there?\nA1: instance id is 11, label name is keyboard; "
                                             "instance id is 13, label name is keyboard; "
                                             "instance id is 12, label name is lamp")
            (responses / "2.txt").write_text("Q1: And here?\nA1: instance id is 21, label name is keyboard")
        records = tmp_path / "records.jsonl"
        assert main(list(map(str, ["parse", "--responses", responses, "--annotations", gt, "--task", task,
                                   "--out", records]))) == 0
        capsys.readouterr()

        def args(how):
            return ["transform", "--in", records, "--to", target, "--annotations", gt,
                    "--out", tmp_path / f"{how}.jsonl", "--merged-out", tmp_path / f"{how}-merged.jsonl"]

        assert main([str(a) for a in args("here")]) == 0
        here = capsys.readouterr()
        code, fresh, err = _run_fresh(args("fresh"), ["numpy", "segdial.mask"], tmp_path)
        assert code == 0, err
        assert (fresh, err) == (here.out, here.err)
        for name in ("", "-merged"):
            assert (tmp_path / f"fresh{name}.jsonl").read_bytes() == (tmp_path / f"here{name}.jsonl").read_bytes()
        merged = [json.loads(line) for line in (tmp_path / "here-merged.jsonl").read_text().splitlines()]
        assert [m["member_ids"] for m in merged] == [[11, 13], [12], [21]]
        anns = {a.instance_id: a for img in load_coco(gt).images for a in img.annotations}
        decoded = [rle_to_obj(rle_encode(m.mask)) for srec in read_records(records)
                   for m in to_semantic(from_training_record(srec, anns), anns)[1]]
        assert [m["rle"] for m in merged] == decoded

    def test_report_runs_without_numpy(self, tmp_path, capsys):
        # a fresh process, which freezes its heap at exit, exits 0, 1 or 2
        # and prints what an in-process run prints
        report = tmp_path / "inst.json"
        assert main(["evaluate", "--gt", str(write_gt(tmp_path)), "--preds", str(write_perfect_preds(tmp_path)),
                     "--mode", "inst", "--out", str(report)]) == 0
        capsys.readouterr()
        bad = tmp_path / "bad.json"
        bad.write_text('{"mode": "banana", "metrics": {}}', encoding="utf-8")
        runs = []
        for path, want in ((report, 0), (bad, 1), (tmp_path / "missing.json", 2)):
            assert main(["report", "--in", str(path)]) == want
            here = capsys.readouterr()
            assert _run_fresh(["report", "--in", path], ["numpy"], tmp_path) == (want, here.out, here.err)
            runs.append(here)
        assert [r.out for r in runs] == [INST_REPORT + "\n", "", ""]
        assert runs[1].err.startswith("report mode must be") and runs[2].err.startswith("i/o error: ")

    def test_text_subcommands_load_no_numpy(self, tmp_path):
        # `parse` reads only ids and labels, `transform --to pure` only text
        # and `split` only the records file: none of them loads NumPy, the
        # pixel layer or anything else it does not run
        import segdial

        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(segdial.__file__))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = (
            "import sys\n"
            "from segdial.cli import main\n"
            "status = main(sys.argv[1:])\n"
            "print(status, sorted(m for m in sys.modules if m == 'numpy' or m.startswith(('numpy.', 'segdial.'))))"
        )
        gt, responses = write_gt(tmp_path), write_qa_responses(tmp_path)
        records = tmp_path / "records.jsonl"
        runs = [
            (["parse", "--responses", responses, "--annotations", gt, "--task", "qa", "--out", records],
             ["segdial.cli", "segdial.commands", "segdial.commands.parse", "segdial.dataset_io", "segdial.geometry",
              "segdial.parsing"]),
            (["transform", "--in", records, "--to", "pure", "--out", tmp_path / "pure.jsonl"],
             ["segdial.cli", "segdial.commands", "segdial.commands.transform", "segdial.dataset_io", "segdial.parsing",
              "segdial.transforms"]),
            (["split", "--in", records, "--train-out", tmp_path / "train.jsonl", "--eval-out", tmp_path / "eval.jsonl"],
             ["segdial.cli", "segdial.commands", "segdial.commands.split", "segdial.dataset_io"]),
        ]
        for args, modules in runs:
            proc = subprocess.run(
                [sys.executable, "-c", code, *map(str, args)], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.splitlines()[-1] == f"0 {modules}", args[0]
        assert len(read_records(tmp_path / "pure.jsonl")) == 2

    def test_each_subcommand_loads_its_own_modules(self, tmp_path):
        # the segdial modules of every subcommand, pinned: scoring loads no
        # prompt building (`curation`), `match` no AP scoring, `evaluate` no
        # matcher and no subcommand the pixel layer (`mask`); only hashing a
        # parsed response loads hashlib, and no subcommand defines a
        # dataclass, so none loads `dataclasses`, nor the `inspect` that
        # NumPy pulls in
        import segdial

        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(segdial.__file__))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = (
            "import json, sys\n"
            "from segdial.cli import main\n"
            "status = main(sys.argv[1:])\n"
            "print(json.dumps([status, sorted(m[8:] for m in sys.modules if m.startswith('segdial.')),"
            " sorted({'dataclasses', 'hashlib', 'inspect'} & set(sys.modules))]))"
        )
        gt, responses, preds = write_gt(tmp_path), write_qa_responses(tmp_path), write_perfect_preds(tmp_path)
        records, report, sem_preds = tmp_path / "records.jsonl", tmp_path / "inst.json", write_sem_preds(tmp_path)
        runs = [
            (["parse", "--responses", responses, "--annotations", gt, "--task", "qa", "--out", records],
             ["cli", "commands", "commands.parse", "dataset_io", "geometry", "parsing"], ["hashlib"]),
            (["curate", "--input", gt, "--task", "qa", "--out", tmp_path / "jobs.jsonl"],
             ["cli", "clients", "commands", "commands.curate", "curation", "dataset_io", "geometry", "instances"], []),
            (["transform", "--in", records, "--to", "sid-semseg", "--annotations", gt, "--out", tmp_path / "sem.jsonl"],
             ["cli", "commands", "commands.transform", "dataset_io", "geometry", "instances", "parsing", "transforms"],
             []),
            (["transform", "--in", records, "--to", "pure", "--out", tmp_path / "pure.jsonl"],
             ["cli", "commands", "commands.transform", "dataset_io", "parsing", "transforms"], []),
            (["split", "--in", records, "--train-out", tmp_path / "train.jsonl", "--eval-out", tmp_path / "eval.jsonl"],
             ["cli", "commands", "commands.split", "dataset_io"], []),
            (["match", "--preds", preds, "--gt", gt, "--out", tmp_path / "assign.jsonl"],
             ["cli", "commands", "commands.match", "dataset_io", "geometry", "instances", "matching"], []),
            (["evaluate", "--gt", gt, "--preds", preds, "--mode", "inst", "--out", report],
             ["ap", "cli", "commands", "commands.evaluate", "commands.report", "dataset_io", "geometry", "instances"],
             []),
            (["evaluate", "--gt", gt, "--preds", sem_preds, "--mode", "sem", "--out", tmp_path / "sem.json"],
             ["cli", "commands", "commands.evaluate", "commands.report", "dataset_io", "geometry", "instances",
              "semseg"], []),
            (["report", "--in", report], ["cli", "commands", "commands.report"], []),
        ]
        for args, modules, stdlib in runs:
            proc = subprocess.run(
                [sys.executable, "-c", code, *map(str, args)], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, proc.stderr
            status, loaded, markers = json.loads(proc.stdout.splitlines()[-1])
            assert (status, loaded) == (0, modules), args[:3]
            assert ("hashlib" in markers) == (args[0] == "parse"), args[:3]
            assert "dataclasses" not in markers, args[:3]
            assert markers == stdlib, args[:3]  # every subcommand is NumPy-free: exactly these

    def test_semantic_scoring_runs_without_numpy(self, tmp_path, capsys):
        # every mask is scored as a run-length code: polygons and rle on both
        # sides, an image without annotations, one without a prediction and a
        # stored-area warning all go through a fresh run that can load
        # neither NumPy nor the pixel layer nor AP scoring
        gt, preds = tmp_path / "gt.json", tmp_path / "preds.jsonl"
        payload = coco_payload(
            images=[
                (1, 16, 12, [(11, 3, rle_obj(rect_mask(16, 12, 2, 2, 9, 9))), (12, 5, [rect_polygon(1, 1, 6, 5)])]),
                (2, 16, 12, [(21, 3, [rect_polygon(3, 3, 12, 10), rect_polygon(0, 0, 2, 2)])]),
                (3, 16, 12, []),
                (4, 16, 12, [(41, 5, [[0, 12, 3, 0, 5.5, 12]])]),
            ],
            categories=[(3, "keyboard"), (5, "lamp")],
        )
        payload["annotations"][0]["area"] = 7
        write_json(gt, payload)
        lines = [
            {"image_id": 1, "rle": rle_obj(rect_mask(16, 12, 0, 3, 7, 12))},
            {"image_id": 3, "score": 0.5, "rle": rle_obj(rect_mask(16, 12, 15, 11, 16, 12))},
            {"image_id": 2, "polygon": [rect_polygon(6.5, 0, 15, 11.5), rect_polygon(0, 0, 3, 3)],
             "width": 16, "height": 12},
        ]
        preds.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")

        def args(how):
            return ["evaluate", "--gt", gt, "--preds", preds, "--mode", "sem", "--out", tmp_path / f"{how}.json"]

        assert main([str(a) for a in args("here")]) == 0
        here = capsys.readouterr()
        code, fresh, err = _run_fresh(args("fresh"), ["numpy", "segdial.mask", "segdial.metrics"], tmp_path)
        assert code == 0, err
        assert (fresh, err) == (here.out, here.err)
        assert (tmp_path / "fresh.json").read_bytes() == (tmp_path / "here.json").read_bytes()
        assert err == ("warning: annotation 11: stored area 7 vs computed 49\n"
                       "warning: image 4: no prediction, scored as IoU 0\n")
        # the scores of NumPy pixel counts of the decoded masks
        truth = {img.image_id: mask_union([a.mask for a in img.annotations]).pixels if img.annotations else None
                 for img in load_coco(gt).images}
        counts = []
        for image_id, pixels in truth.items():
            pixels = np.zeros((12, 16), bool) if pixels is None else pixels
            pred = next((p.mask.pixels for p in read_predictions(preds) if p.image_id == image_id), pixels & False)
            counts.append((int((pred & pixels).sum()), int((pred | pixels).sum())))
        sem = json.loads((tmp_path / "here.json").read_text())["metrics"]
        assert sem["gIoU"] == math.fsum(i / u if u else 0.0 for i, u in counts) / 4
        assert sem["cIoU"] == sum(i for i, _ in counts) / sum(u for _, u in counts)
        assert 0 < sem["gIoU"] < sem["cIoU"] < 1

    def test_instance_scoring_runs_without_numpy(self, tmp_path, capsys):
        # every mask is scored as a bitset: polygons and rle on both sides,
        # objects in every area band, an image without annotations, one
        # without predictions, a category without ground truth and a
        # stored-area warning all go through a fresh run that can load
        # neither NumPy nor the pixel layer nor `metrics`
        gt, preds = tmp_path / "gt.json", tmp_path / "preds.jsonl"
        payload = coco_payload(
            images=[
                (1, 160, 120, [(11, 3, rle_obj(rect_mask(160, 120, 2, 2, 9, 9))),
                               (12, 5, [rect_polygon(10, 10, 60, 50)]),
                               (13, 3, [rect_polygon(0, 0, 150, 100), rect_polygon(140, 100, 160, 120)])]),
                (2, 160, 120, [(21, 3, [rect_polygon(30, 30, 120, 100)]), (22, 3, [[0, 120, 30, 0, 55, 120]])]),
                (3, 160, 120, []),
                (4, 160, 120, [(41, 5, rle_obj(rect_mask(160, 120, 100, 0, 160, 120)))]),
            ],
            categories=[(3, "keyboard"), (5, "lamp"), (7, "vase")],
        )
        payload["annotations"][0]["area"] = 7
        write_json(gt, payload)
        lines = [
            {"image_id": 1, "category_id": 3, "score": 0.9, "rle": rle_obj(rect_mask(160, 120, 3, 2, 9, 10))},
            {"image_id": 1, "category_id": 5, "score": 0.8, "polygon": [rect_polygon(12, 8, 60, 50)],
             "width": 160, "height": 120},
            {"image_id": 1, "category_id": 3, "score": 0.7, "polygon": [rect_polygon(0, 0, 150, 90)],
             "width": 160, "height": 120},
            {"image_id": 2, "category_id": 3, "score": 0.81, "rle": rle_obj(rect_mask(160, 120, 28, 30, 120, 100))},
            {"image_id": 2, "category_id": 3, "score": 0.84, "polygon": [rect_polygon(0, 0, 200, 200)],
             "width": 160, "height": 120},
            {"image_id": 3, "category_id": 7, "score": 0.5, "rle": rle_obj(rect_mask(160, 120, 0, 0, 4, 4))},
            {"image_id": 3, "category_id": 3, "score": 0.4, "polygon": [[1, 1, 9, 9]], "width": 160, "height": 120},
        ]
        preds.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")

        def args(how):
            return ["evaluate", "--gt", gt, "--preds", preds, "--mode", "inst", "--out", tmp_path / f"{how}.json"]

        assert main([str(a) for a in args("here")]) == 0
        here = capsys.readouterr()
        code, fresh, err = _run_fresh(args("fresh"), ["numpy", "segdial.mask", "segdial.metrics"], tmp_path)
        assert code == 0, err
        assert (fresh, err) == (here.out, here.err)
        assert (tmp_path / "fresh.json").read_bytes() == (tmp_path / "here.json").read_bytes()
        assert err == "warning: annotation 11: stored area 7 vs computed 49\n"
        # the report of the decoded masks
        dataset = load_coco(gt)
        report = evaluate_ap(read_predictions(preds), dataset.images, categories=set(dataset.categories))
        assert json.loads((tmp_path / "here.json").read_text()) == _inst_metrics_obj(report)
        assert 0 < report.mAP < 1 and min(report.AP_small, report.AP_medium, report.AP_large) > 0

    def test_match_runs_without_numpy(self, tmp_path, capsys):
        # every mask is matched as a bitset: polygons and rle on both sides,
        # an image without predictions, one without annotations, k x 1 and
        # 1 x k matrices, exact ties and a Dice term all go through a fresh
        # run that can load neither NumPy nor the pixel layer nor `metrics`,
        # and so does a canvas mismatch
        gt, preds = tmp_path / "gt.json", tmp_path / "preds.jsonl"
        write_json(gt, coco_payload(
            images=[
                (1, 160, 120, [(11, 3, rle_obj(rect_mask(160, 120, 2, 2, 9, 9))),
                               (12, 5, [rect_polygon(10, 10, 60, 50)]),
                               (13, 3, [rect_polygon(0, 0, 150, 100), rect_polygon(140, 100, 160, 120)])]),
                (2, 160, 120, [(21, 3, [rect_polygon(30, 30, 120, 100)])]),
                (3, 160, 120, []),
                (4, 160, 120, [(41, 5, rle_obj(rect_mask(160, 120, 100, 0, 160, 120))),
                               (42, 3, [[0, 120, 30, 0, 55, 120]]), (43, 3, [rect_polygon(0, 0, 20, 20)])]),
                (5, 160, 120, [(51, 3, [rect_polygon(5, 5, 25, 25)])]),
            ],
            categories=[(3, "keyboard"), (5, "lamp")],
        ))
        twin = rle_obj(rect_mask(160, 120, 3, 2, 9, 10))
        lines = [
            {"image_id": 1, "rle": twin},
            {"image_id": 1, "polygon": [rect_polygon(12, 8, 60, 50)], "width": 160, "height": 120},
            {"image_id": 1, "rle": twin},  # an exact tie with the first
            {"image_id": 1, "polygon": [rect_polygon(0, 0, 150, 90)], "width": 160, "height": 120},
            {"image_id": 2, "rle": rle_obj(rect_mask(160, 120, 28, 30, 120, 100))},
            {"image_id": 2, "polygon": [rect_polygon(0, 0, 200, 200)], "width": 160, "height": 120},
            {"image_id": 2, "rle": rle_obj(rect_mask(160, 120, 0, 0, 4, 4))},
            {"image_id": 3, "polygon": [[1, 1, 9, 9]], "width": 160, "height": 120},
            {"image_id": 3, "rle": twin},
            {"image_id": 4, "polygon": [rect_polygon(0, 0, 40, 40)], "width": 160, "height": 120},
        ]
        preds.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")

        for n, weights in enumerate(((1.0, 0.0), (0.7, 0.5))):
            def args(how):
                return ["match", "--preds", preds, "--gt", gt, "--w-iou", weights[0], "--w-dice", weights[1],
                        "--out", tmp_path / f"{how}-{n}.jsonl"]

            assert main([str(a) for a in args("here")]) == 0
            here = capsys.readouterr()
            code, fresh, err = _run_fresh(args("fresh"), ["numpy", "segdial.mask", "segdial.metrics"], tmp_path)
            assert code == 0, err
            assert (fresh, err) == (here.out, here.err) == ("match: wrote assignments for 5 image(s)\n", "")
            assert (tmp_path / f"fresh-{n}.jsonl").read_bytes() == (tmp_path / f"here-{n}.jsonl").read_bytes()
            # the bytes of the decoded masks' assignments
            write_jsonl(decoded_assignments(gt, preds, *weights), tmp_path / f"decoded-{n}.jsonl")
            assert (tmp_path / f"here-{n}.jsonl").read_bytes() == (tmp_path / f"decoded-{n}.jsonl").read_bytes()
            rows = [json.loads(line) for line in (tmp_path / f"here-{n}.jsonl").read_text().splitlines()]
            assert [len(r["pairs"]) for r in rows] == [3, 1, 0, 1, 0]
            assert rows[0]["pairs"][0] == [0, 11] and 2 in rows[0]["unmatched_pred_indices"]

        # the decoded masks' costs, pair by pair, give the same assignment
        dataset, decoded = load_coco(gt), read_predictions(preds)
        img = dataset.images[0]
        costs = [[1.0 - (i / u if u else 0.0) for i, u in (overlap(p.mask, a.mask) for a in img.annotations)]
                 for p in decoded if p.image_id == 1]
        got = hungarian(np.array(costs))
        assert [[i, img.annotations[j].instance_id] for i, j in got.pairs] == rows[0]["pairs"]

        # a prediction on another canvas fails the same way in both runs
        lines.insert(5, {"image_id": 2, "rle": rle_obj(rect_mask(16, 12, 0, 0, 4, 4))})
        preds.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        args = ["match", "--preds", preds, "--gt", gt, "--out", tmp_path / "mismatch.jsonl"]
        assert main([str(a) for a in args]) == 1
        here = capsys.readouterr()
        code, fresh, err = _run_fresh(args, ["numpy", "segdial.mask", "segdial.metrics"], tmp_path)
        assert (code, fresh, err) == (1, here.out, here.err) == (1, "", "validation error: mask canvases differ: "
                                                                       "16x12 vs 160x120\n")
        with pytest.raises(ValueError, match="^mask canvases differ: 16x12 vs 160x120$"):
            decoded_assignments(gt, preds)

    def test_scoring_skips_parsing_clients_and_transforms(self, tmp_path):
        gt, preds, sem_preds = write_gt(tmp_path), write_perfect_preds(tmp_path), write_sem_preds(tmp_path)
        refused = ["segdial.parsing", "segdial.clients", "segdial.transforms", "scipy"]
        runs = {
            "assign.jsonl": ["match", "--preds", preds, "--gt", gt, "--w-dice", "0.5", "--out"],
            "inst.json": ["evaluate", "--gt", gt, "--preds", preds, "--mode", "inst", "--out"],
            "sem.json": ["evaluate", "--gt", gt, "--preds", sem_preds, "--mode", "sem", "--out"],
        }
        for name, args in runs.items():
            assert main(list(map(str, [*args, tmp_path / f"here-{name}"]))) == 0
            code, _, err = _run_fresh([*args, tmp_path / f"fresh-{name}"], refused, tmp_path)
            assert code == 0, err
            assert (tmp_path / f"fresh-{name}").read_bytes() == (tmp_path / f"here-{name}").read_bytes()

    def test_public_names_are_the_module_objects(self):
        import importlib

        import segdial

        owners = {
            "mask": ["BBox", "Polygon", "RasterMask", "Rle", "area", "bbox_of", "mask_iou", "mask_union",
                     "rasterize", "rle_decode", "rle_encode"],
            "matching": ["Assignment", "assign_targets", "build_cost_matrix", "hungarian"],
            "metrics": ["ApBlock", "ApProtocol", "ApReport", "EvalValidationError", "PredictionInstance",
                        "SemSegScore", "evaluate_ap", "evaluate_semseg"],
            "curation": ["CurationError", "DropEntry", "FilterResult", "ImageRecord", "InstanceAnnotation",
                         "PromptJob", "annotation_digest", "build_caption_prompt", "build_instseg_prompt",
                         "build_qa_prompt", "filter_dataset"],
            "clients": ["FixtureModelClient", "HttpModelClient", "JobResult", "ModelClientError", "run_jobs"],
            "parsing": ["DialogueRecord", "Diagnostic", "ParseResult", "Provenance", "SegRef", "SerializedRecord",
                        "SerializedTurn", "TextSpan", "Turn", "from_training_record", "parse_caption_response",
                        "parse_instseg_response", "parse_sid_response", "render_dialogue", "to_training_record"],
            "transforms": ["TASK_MODES", "TASK_TEMPLATES", "MergedAnnotation", "TransformError",
                           "append_task_template", "to_pure_text", "to_semantic"],
            "dataset_io": ["CocoDataset", "DatasetError", "RecordError", "load_coco", "read_predictions",
                           "read_records", "write_records"],
        }
        assert sorted(segdial.__all__) == sorted(n for names in owners.values() for n in names)
        for module, names in owners.items():
            assert getattr(segdial, module) is importlib.import_module(f"segdial.{module}")
            for name in names:
                assert getattr(segdial, name) is getattr(getattr(segdial, module), name), name
        star: dict = {}
        exec("from segdial import *", star)
        assert all(star[name] is getattr(segdial, name) for name in segdial.__all__)
        with pytest.raises(AttributeError):
            segdial.no_such_name


class TestRuntimeResolution:
    def test_flag_env_config_default_precedence(self, tmp_path, monkeypatch):
        # per-line content must differ so different seeds shuffle into
        # observably different eval files
        def distinct_records(label):
            path = tmp_path / f"recs-{label}.jsonl"
            rows = []
            for i in range(12):
                rows.append(json.dumps({
                    "schema_version": 1, "image_id": i, "task_mode": "pure_text",
                    "turns": [{"role": "person", "text": f"q{i}", "seg_ids": []}],
                    "provenance": None,
                }, sort_keys=True))
            path.write_text("\n".join(rows) + "\n", encoding="utf-8")
            return path

        def split_with(label, extra_args):
            src = distinct_records(label)
            train = tmp_path / f"t-{label}.jsonl"
            ev = tmp_path / f"e-{label}.jsonl"
            assert main(
                ["split", "--in", str(src), "--train-out", str(train),
                 "--eval-out", str(ev), "--eval-fraction", "0.5", *extra_args]
            ) == 0
            return ev.read_bytes()

        ref = {seed: split_with(f"seed{seed}", ["--seed", str(seed)]) for seed in (0, 1, 2)}
        assert len({ref[0], ref[1], ref[2]}) == 3

        assert split_with("default", []) == ref[0]

        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 1}', encoding="utf-8")
        assert split_with("config", ["--config", str(cfg)]) == ref[1]

        monkeypatch.setenv("SEGDIAL_SEED", "2")
        assert split_with("env", []) == ref[2]
        assert split_with("env-beats-config", ["--config", str(cfg)]) == ref[2]
        assert split_with("flag-beats-env", ["--seed", "1"]) == ref[1]

    def test_bad_runtime_values_are_usage_errors(self, tmp_path, monkeypatch, capsys):
        records = write_sid_records(tmp_path)
        argv = ["split", "--in", str(records), "--train-out", str(tmp_path / "t.jsonl"),
                "--eval-out", str(tmp_path / "e.jsonl")]
        monkeypatch.setenv("SEGDIAL_SEED", "not-a-number")
        assert main(argv) == 1
        assert "SEGDIAL_SEED must be an integer" in capsys.readouterr().err
        monkeypatch.delenv("SEGDIAL_SEED")

        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": "zero"}', encoding="utf-8")
        assert main(argv + ["--config", str(cfg)]) == 1
        cfg.write_text("[1, 2]", encoding="utf-8")
        assert main(argv + ["--config", str(cfg)]) == 1
        capsys.readouterr()
        # JSON true decodes to a Python bool, an int subclass equal to 1
        curate = ["curate", "--input", str(write_gt(tmp_path)), "--task", "qa", "--out", str(tmp_path / "jobs.jsonl")]
        for command, text, key in ((argv, '{"seed": true}', "seed"), (curate, '{"jobs": true}', "jobs"),
                                   (argv, '{"seed": false}', "seed")):
            cfg.write_text(text, encoding="utf-8")
            assert main(command + ["--config", str(cfg)]) == 1, text
            assert f"config key {key!r} must be an integer" in capsys.readouterr().err

    def test_jobs_must_be_positive(self, tmp_path, capsys):
        gt = write_gt(tmp_path)
        code = main(
            ["curate", "--input", str(gt), "--task", "qa",
             "--out", str(tmp_path / "jobs.jsonl"), "--jobs", "0"]
        )
        assert code == 1
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_jobs_capped_before_any_thread_starts(self, tmp_path, monkeypatch, capsys):
        from segdial import cli, clients

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(clients, "ThreadPoolExecutor", no_pool)
        gt = write_gt(tmp_path)
        out = tmp_path / "jobs.jsonl"
        argv = ["curate", "--input", str(gt), "--task", "qa", "--out", str(out),
                "--client", "fixture", "--fixture-dir", str(write_qa_responses(tmp_path))]
        too_many = str(cli.MAX_JOBS + 1)
        assert main(argv + ["--jobs", too_many]) == 1
        assert f"--jobs must be <= {cli.MAX_JOBS}, got {too_many}" in capsys.readouterr().err
        monkeypatch.setenv("SEGDIAL_JOBS", too_many)
        assert main(argv) == 1
        assert f"--jobs must be <= {cli.MAX_JOBS}" in capsys.readouterr().err
        assert not out.exists()

    def test_curate_jobs_flag_env_config_default_precedence(self, tmp_path, monkeypatch):
        from segdial import clients

        seen = []
        run_jobs = clients.run_jobs

        def spy(jobs, client, max_retries=2, parallelism=1):
            seen.append(parallelism)
            return run_jobs(jobs, client, max_retries=max_retries, parallelism=parallelism)

        monkeypatch.setattr(clients, "run_jobs", spy)
        argv = ["curate", "--input", str(write_gt(tmp_path)), "--task", "qa", "--out", str(tmp_path / "jobs.jsonl"),
                "--client", "fixture", "--fixture-dir", str(write_qa_responses(tmp_path))]
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"jobs": 3, "seed": "not read by curate"}', encoding="utf-8")
        assert main(argv) == 0
        assert main(argv + ["--config", str(cfg)]) == 0
        monkeypatch.setenv("SEGDIAL_JOBS", "4")
        assert main(argv + ["--config", str(cfg)]) == 0
        assert main(argv + ["--config", str(cfg), "--jobs", "5"]) == 0
        assert seen == [1, 3, 4, 5]

    @pytest.mark.parametrize("command", ["parse", "transform", "match", "evaluate", "report"])
    def test_other_subcommands_take_no_runtime_options(self, tmp_path, monkeypatch, capsys, command):
        # only curate reads --jobs and only split reads --seed: the other
        # subcommands refuse all three flags and never read either variable
        gt = write_gt(tmp_path)
        out = tmp_path / "out.json"
        report = tmp_path / "report.json"
        report.write_text(
            json.dumps({"mode": "sem", "metrics": {"gIoU": 1.0, "cIoU": 1.0}}), encoding="utf-8"
        )
        cfg = tmp_path / "f.json"
        cfg.write_text('{"jobs": 2, "seed": 1}', encoding="utf-8")
        argv = {
            "parse": ["parse", "--responses", str(write_qa_responses(tmp_path)),
                      "--annotations", str(gt), "--task", "qa", "--out", str(out)],
            "transform": ["transform", "--in", str(write_sid_records(tmp_path)), "--to", "pure", "--out", str(out)],
            "match": ["match", "--preds", str(write_perfect_preds(tmp_path)), "--gt", str(gt),
                      "--out", str(out)],
            "evaluate": ["evaluate", "--gt", str(gt), "--preds", str(write_perfect_preds(tmp_path)),
                         "--mode", "inst", "--out", str(out)],
            "report": ["report", "--in", str(report)],
        }[command]
        inputs = set(tmp_path.iterdir())

        for flag, value in (("--jobs", "2"), ("--seed", "1"), ("--config", str(cfg))):
            assert main(argv + [flag, value]) == 1, flag
            captured = capsys.readouterr()
            assert f"segdial: error: unrecognized arguments: {flag}" in captured.err
            assert captured.out == ""
            assert set(tmp_path.iterdir()) == inputs

        def run():
            assert main(argv) == 0
            written = {p: p.read_bytes() for p in set(tmp_path.iterdir()) - inputs}
            for p in written:
                p.unlink()
            return capsys.readouterr(), written

        clean = run()
        monkeypatch.setenv("SEGDIAL_JOBS", "abc")
        monkeypatch.setenv("SEGDIAL_SEED", "abc")
        assert run() == clean
        assert clean[0].out

    def test_curate_takes_no_seed_and_split_no_jobs(self, tmp_path, capsys):
        curate = ["curate", "--input", str(write_gt(tmp_path)), "--task", "qa", "--out", str(tmp_path / "jobs.jsonl")]
        split = ["split", "--in", str(write_sid_records(tmp_path)), "--train-out", str(tmp_path / "t.jsonl"),
                 "--eval-out", str(tmp_path / "e.jsonl")]
        inputs = set(tmp_path.iterdir())
        for argv, flag, value in ((curate, "--seed", "1"), (split, "--jobs", "2")):
            assert main(argv + [flag, value]) == 1, flag
            captured = capsys.readouterr()
            assert f"segdial: error: unrecognized arguments: {flag}" in captured.err
            assert captured.out == ""
        assert set(tmp_path.iterdir()) == inputs

    def test_help_lists_runtime_options_only_where_they_are_read(self, capsys):
        for command in ("curate", "parse", "transform", "match", "evaluate", "report", "split"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            text = capsys.readouterr().out
            assert ("--jobs" in text) == (command == "curate"), command
            assert ("--seed" in text) == (command == "split"), command
            assert ("--config" in text) == (command in ("curate", "split")), command


class TestOutputPaths:
    """An output that names an input's file or another output's, defaults
    included, is a usage error before anything is written."""

    @staticmethod
    def _inputs(tmp_path):
        """{name: path} of the files the runs below read."""
        gt = write_gt(tmp_path)
        (tmp_path / "gt_link.json").symlink_to(gt)
        write_json(tmp_path / "config.json", {})
        return {
            "tmp": tmp_path,
            "gt": gt,
            "gt_link": tmp_path / "gt_link.json",
            "preds": write_perfect_preds(tmp_path),
            "records": write_sid_records(tmp_path),
            "responses": write_qa_responses(tmp_path),
            "config": tmp_path / "config.json",
            # where `parse --out records.jsonl` and `curate --out jobs.jsonl` put their reports by default
            "records_diagnostics": write_gt(tmp_path, "records.diagnostics.jsonl"),
            "jobs_dropped": write_gt(tmp_path, "jobs.dropped.jsonl"),
        }

    @pytest.mark.parametrize("argv, options", [
        ("evaluate --gt {gt} --preds {preds} --mode inst --out {gt}", "--out and --gt"),
        ("evaluate --gt {gt} --preds {preds} --mode sem --out {preds}", "--out and --preds"),
        ("evaluate --gt {gt} --preds {preds} --mode inst --out {gt_link}", "--out and --gt"),
        ("match --preds {preds} --gt {gt} --out {preds}", "--out and --preds"),
        ("match --preds {preds} --gt {gt} --out {tmp}/absent/../gt.json", "--out and --gt"),
        ("split --in {records} --train-out {tmp}/x.jsonl --eval-out {tmp}/x.jsonl", "--eval-out and --train-out"),
        ("split --in {records} --train-out {records} --eval-out {tmp}/e.jsonl", "--train-out and --in"),
        ("split --in {records} --config {config} --train-out {tmp}/t.jsonl --eval-out {config}",
         "--eval-out and --config"),
        ("parse --responses {responses} --annotations {gt} --task qa --diagnostics {tmp}/x.jsonl --out {tmp}/x.jsonl",
         "--diagnostics and --out"),
        ("parse --responses {responses} --annotations {gt} --task qa --out {gt}", "--out and --annotations"),
        ("parse --responses {responses} --annotations {records_diagnostics} --task qa --out {tmp}/records.jsonl",
         "--diagnostics and --annotations"),
        ("curate --input {gt} --task qa --out {tmp}/jobs.jsonl --dropped-out {tmp}/jobs.jsonl",
         "--dropped-out and --out"),
        ("curate --input {gt} --task qa --out {gt}", "--out and --input"),
        ("curate --input {jobs_dropped} --task qa --out {tmp}/jobs.jsonl", "--dropped-out and --input"),
        ("curate --input {gt} --config {config} --task qa --out {config}", "--out and --config"),
        ("transform --in {records} --to pure --out {records}", "--out and --in"),
        ("transform --in {records} --to sid-semseg --annotations {gt} --out {tmp}/o.jsonl --merged-out {gt}",
         "--merged-out and --annotations"),
        ("transform --in {records} --to sid-semseg --annotations {gt} --out {tmp}/o.jsonl --merged-out {tmp}/o.jsonl",
         "--merged-out and --out"),
    ])
    def test_a_colliding_output_is_refused_and_nothing_is_written(self, tmp_path, capsys, argv, options):
        paths = self._inputs(tmp_path)
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert main([word.format(**paths) for word in argv.split()]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{options} name the same file: ") and captured.err.count("\n") == 1
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    # each writing command with each of its outputs in turn in a missing
    # directory, or below a regular file
    @pytest.mark.parametrize("argv, refused", [
        ("curate --input {gt} --task qa --out {tmp}/nodir/j.jsonl --dropped-out {tmp}/d.jsonl", "{tmp}/nodir/j.jsonl"),
        ("curate --input {gt} --task qa --out {tmp}/j.jsonl --dropped-out {tmp}/nodir/d.jsonl", "{tmp}/nodir/d.jsonl"),
        ("curate --input {gt} --task qa --out {tmp}/nodir/j.jsonl", "{tmp}/nodir/j.jsonl"),
        ("parse --responses {responses} --annotations {gt} --task qa --out {tmp}/nodir/r.jsonl "
         "--diagnostics {tmp}/d.jsonl", "{tmp}/nodir/r.jsonl"),
        ("parse --responses {responses} --annotations {gt} --task qa --out {tmp}/r.jsonl "
         "--diagnostics {tmp}/nodir/d.jsonl", "{tmp}/nodir/d.jsonl"),
        ("transform --in {records} --to sid-semseg --annotations {gt} --out {tmp}/nodir/o.jsonl "
         "--merged-out {tmp}/m.jsonl", "{tmp}/nodir/o.jsonl"),
        ("transform --in {records} --to sid-semseg --annotations {gt} --out {tmp}/o.jsonl "
         "--merged-out {tmp}/nodir/m.jsonl", "{tmp}/nodir/m.jsonl"),
        ("transform --in {records} --to pure --out {tmp}/nodir/o.jsonl", "{tmp}/nodir/o.jsonl"),
        ("match --preds {preds} --gt {gt} --out {tmp}/nodir/a.jsonl", "{tmp}/nodir/a.jsonl"),
        ("evaluate --gt {gt} --preds {preds} --mode inst --out {tmp}/nodir/inst.json", "{tmp}/nodir/inst.json"),
        ("evaluate --gt {gt} --preds {sem_preds} --mode sem --out {tmp}/nodir/sem.json", "{tmp}/nodir/sem.json"),
        ("split --in {records} --train-out {tmp}/nodir/t.jsonl --eval-out {tmp}/e.jsonl", "{tmp}/nodir/t.jsonl"),
        ("split --in {records} --train-out {tmp}/t.jsonl --eval-out {tmp}/nodir/e.jsonl", "{tmp}/nodir/e.jsonl"),
        ("split --in {records} --train-out {tmp}/t.jsonl --eval-out {tmp}/nodir/deeper/e.jsonl",
         "{tmp}/nodir/deeper/e.jsonl"),
        ("split --in {records} --train-out {tmp}/t.jsonl --eval-out {gt}/e.jsonl", "{gt}/e.jsonl"),
    ])
    def test_an_output_without_its_directory_is_refused_and_nothing_is_written(self, tmp_path, capsys, argv, refused):
        paths = {**self._inputs(tmp_path), "sem_preds": write_sem_preds(tmp_path)}
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert main([word.format(**paths) for word in argv.split()]) == 2
        captured = capsys.readouterr()
        refused = refused.format(**paths)
        below_a_file = refused.startswith(str(paths["gt"]))
        reason = "[Errno 20] Not a directory" if below_a_file else "[Errno 2] No such file or directory"
        assert captured.out == ""
        assert captured.err == f"i/o error: {reason}: {refused!r}\n"
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
        assert not (tmp_path / "nodir").exists()


class TestCurate:
    def test_builds_jobs_and_dropped_report(self, tmp_path, capsys):
        payload = coco_payload(
            images=[
                (1, 512, 512, [(34494, 3, rle_obj(M_KEY1)), (31264, 3, rle_obj(M_KEY2))]),
                (2, 512, 512, [(9, 5, rle_obj(M_LAMP))]),
                (3, 100, 100, [(77, 5, rle_obj(rect_mask(100, 100, 0, 0, 30, 30)))]),
            ],
            categories=[(3, "keyboard"), (5, "lamp")],
        )
        gt = tmp_path / "gt.json"
        write_json(gt, payload)
        out = tmp_path / "jobs.jsonl"
        assert main(["curate", "--input", str(gt), "--task", "qa", "--out", str(out)]) == 0
        summary = capsys.readouterr().out
        assert "curate: kept 2 image(s), dropped 1 entry, wrote 2 job(s)" in summary

        jobs = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert [j["image_id"] for j in jobs] == [1, 2]
        assert all(j["kind"] == "qa" for j in jobs)
        assert all(j["response"] is None and j["attempts"] == 0 for j in jobs)
        assert "keyboards <34494; keyboard> <31264; keyboard>" in jobs[0]["prompt_text"]
        assert "instance id is 34494" in jobs[0]["annotation_digest"]

        dropped = [
            json.loads(line)
            for line in (tmp_path / "jobs.dropped.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        assert dropped == [
            {"schema_version": 1, "image_id": 3, "annotation_id": None,
             "reason": "image below 512x512"}
        ]

    def test_caption_task_bakes_image_size(self, tmp_path):
        gt = write_gt(tmp_path)
        out = tmp_path / "jobs.jsonl"
        assert main(["curate", "--input", str(gt), "--task", "caption", "--out", str(out)]) == 0
        jobs = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert "image_size: (512, 512)" in jobs[0]["prompt_text"]

    def test_fixture_client_fills_responses(self, tmp_path, capsys):
        gt = write_gt(tmp_path)
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        (fixtures / "1.txt").write_text("reply one", encoding="utf-8")
        out = tmp_path / "jobs.jsonl"
        code = main(
            ["curate", "--input", str(gt), "--task", "qa", "--out", str(out),
             "--client", "fixture", "--fixture-dir", str(fixtures),
             "--max-retries", "0", "--jobs", "2"]
        )
        assert code == 0
        assert ", 1 failed" in capsys.readouterr().out
        jobs = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert jobs[0]["response"] == "reply one" and jobs[0]["error"] is None
        assert jobs[1]["response"] is None and "no fixture response" in jobs[1]["error"]
        assert jobs[1]["attempts"] == 1

    @pytest.mark.parametrize("token_flags, token", [(["--auth-token-env", "SEGDIAL_TEST_TOKEN"], "s3cret"), ([], None)])
    def test_http_client_is_built_from_its_flags(self, tmp_path, capsys, monkeypatch, token_flags, token):
        from segdial import clients

        built = []

        class RecordingClient:  # stands in for HttpModelClient, so nothing is sent
            def __init__(self, endpoint, auth_token=None, image_root=None):
                built.append((endpoint, auth_token, image_root))

            def complete(self, job):
                return f"reply for {job.image_id}"

        monkeypatch.setattr(clients, "HttpModelClient", RecordingClient)
        monkeypatch.setenv("SEGDIAL_TEST_TOKEN", "s3cret")
        gt = write_gt(tmp_path)
        out = tmp_path / "jobs.jsonl"
        code = main(["curate", "--input", str(gt), "--task", "qa", "--out", str(out), "--client", "http",
                     "--endpoint", "http://annotator.invalid/v1", *token_flags, "--image-root", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out == "curate: kept 2 image(s), dropped 0 entries, wrote 2 job(s)\n"
        assert built == [("http://annotator.invalid/v1", token, tmp_path)]
        jobs = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert [(j["response"], j["error"], j["attempts"]) for j in jobs] == [
            ("reply for 1", None, 1), ("reply for 2", None, 1)
        ]

    def test_fixture_client_requires_directory_flag(self, tmp_path, capsys):
        # and the http client its endpoint: both refused before any output is written
        gt = write_gt(tmp_path)
        for client, needs in (("fixture", "--fixture-dir"), ("http", "--endpoint")):
            code = main(
                ["curate", "--input", str(gt), "--task", "qa",
                 "--out", str(tmp_path / "jobs.jsonl"), "--client", client]
            )
            assert code == 1, client
            assert f"--client {client} requires {needs}" in capsys.readouterr().err
            assert not (tmp_path / "jobs.jsonl").exists()
            assert not (tmp_path / "jobs.dropped.jsonl").exists()


class TestParse:
    def test_qa_responses_become_records(self, tmp_path, capsys):
        gt = write_gt(tmp_path)
        responses = write_qa_responses(tmp_path)
        out = tmp_path / "records.jsonl"
        code = main(
            ["parse", "--responses", str(responses), "--annotations", str(gt),
             "--task", "qa", "--out", str(out)]
        )
        assert code == 0
        assert "parse: 2 record(s) from 2 response(s), 0 diagnostic(s)" in capsys.readouterr().out
        records = read_records(out)
        assert [r.image_id for r in records] == [1, 2]
        assert records[0].task_mode == "sid_instseg"
        assert records[0].turns[1].text == "keyboards <SEG> <SEG>"
        assert records[0].turns[1].seg_ids == (34494, 31264)
        assert records[0].provenance.prompt_kind == "qa"
        diagnostics = (tmp_path / "records.diagnostics.jsonl").read_text(encoding="utf-8")
        assert diagnostics == ""

    def test_bad_responses_become_diagnostics_not_failures(self, tmp_path, capsys):
        gt = write_gt(tmp_path)
        responses = tmp_path / "responses"
        responses.mkdir()
        (responses / "notanid.txt").write_text("<person>: hi\n<robot>: yo", encoding="utf-8")
        (responses / "99.txt").write_text("<person>: hi\n<robot>: yo", encoding="utf-8")
        (responses / "1.txt").write_text("no markers at all", encoding="utf-8")
        out = tmp_path / "records.jsonl"
        diag_out = tmp_path / "diags.jsonl"
        code = main(
            ["parse", "--responses", str(responses), "--annotations", str(gt),
             "--task", "qa", "--out", str(out), "--diagnostics", str(diag_out)]
        )
        assert code == 0
        assert read_records(out) == []
        rows = [json.loads(line) for line in diag_out.read_text(encoding="utf-8").splitlines()]
        by_file = {r["file"]: r["message"] for r in rows}
        assert by_file["notanid.txt"] == "file name is not an image id"
        assert by_file["99.txt"] == "image 99 not in the annotations"
        assert "no <person>/<robot> markers" in by_file["1.txt"]

    def test_only_the_canonical_name_of_an_image_id_is_read(self, tmp_path, capsys):
        gt = write_gt(tmp_path)
        responses = write_qa_responses(tmp_path)
        (responses / "2.txt").unlink()
        reply = (responses / "1.txt").read_bytes()
        aliases = [" 1.txt", "+1.txt", "001.txt", "1_000.txt", "-0.txt"]
        for name in aliases:
            (responses / name).write_bytes(reply)
        out = tmp_path / "records.jsonl"
        code = main(
            ["parse", "--responses", str(responses), "--annotations", str(gt),
             "--task", "qa", "--out", str(out)]
        )
        assert code == 0
        assert "parse: 1 record(s) from 1 response(s), 5 diagnostic(s)" in capsys.readouterr().out
        assert [r.image_id for r in read_records(out)] == [1]
        rows = [json.loads(line) for line in (tmp_path / "records.diagnostics.jsonl").read_text().splitlines()]
        assert sorted((r["file"], r["image_id"], r["severity"], r["message"]) for r in rows) == sorted(
            (name, None, "error", "file name is not an image id") for name in aliases
        )

    def test_an_undecodable_response_is_a_diagnostic_for_its_file(self, tmp_path, capsys):
        gt = write_gt(tmp_path)
        responses = write_qa_responses(tmp_path)
        (responses / "1.txt").write_bytes(b"<person>: hi\n<robot>: \xff")
        out = tmp_path / "records.jsonl"
        code = main(
            ["parse", "--responses", str(responses), "--annotations", str(gt),
             "--task", "qa", "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert "parse: 1 record(s) from 1 response(s), 1 diagnostic(s)" in captured.out
        assert [r.image_id for r in read_records(out)] == [2]
        rows = [json.loads(line) for line in (tmp_path / "records.diagnostics.jsonl").read_text().splitlines()]
        assert rows == [
            {"schema_version": 1, "file": "1.txt", "image_id": 1, "severity": "error", "line": None,
             "message": "response is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 22: "
                        "invalid start byte"}
        ]

    def test_instseg_responses_make_one_record_per_pair(self, tmp_path):
        gt = write_gt(tmp_path)
        responses = tmp_path / "responses"
        responses.mkdir()
        (responses / "1.txt").write_text(
            "Q1: What do people type on?\n"
            "A1: instance id is 34494, label name is keyboard; "
            "instance id is 31264, label name is keyboard\n"
            "Q2: Where might a cat nap?\n"
            "A2: instance id is 34494, label name is keyboard",
            encoding="utf-8",
        )
        out = tmp_path / "records.jsonl"
        code = main(
            ["parse", "--responses", str(responses), "--annotations", str(gt),
             "--task", "instseg", "--out", str(out)]
        )
        assert code == 0
        records = read_records(out)
        assert [r.task_mode for r in records] == ["instseg", "instseg"]
        assert records[0].turns[1].seg_ids == (34494, 31264)
        assert records[1].turns[1].seg_ids == (34494,)

    def test_instseg_diagnostics_are_written(self, tmp_path, capsys):
        gt = write_gt(tmp_path)
        responses = tmp_path / "responses"
        responses.mkdir()
        (responses / "1.txt").write_text(
            "Q1: What do people type on?\n"
            "A1: instance id is 999, label name is keyboard\n"
            "Q2 Where might a cat nap?\n",
            encoding="utf-8",
        )
        out = tmp_path / "records.jsonl"
        code = main(["parse", "--responses", str(responses), "--annotations", str(gt),
                     "--task", "instseg", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == "parse: 0 record(s) from 1 response(s), 2 diagnostic(s)\n"
        assert out.read_bytes() == b""
        rows = [json.loads(line) for line in (tmp_path / "records.diagnostics.jsonl").read_text().splitlines()]
        assert rows == [
            {"schema_version": 1, "file": "1.txt", "image_id": 1, "severity": "warning", "line": 3,
             "message": "malformed question/answer line"},
            {"schema_version": 1, "file": "1.txt", "image_id": 1, "severity": "error", "line": 2,
             "message": "A1 references unknown instance id(s) [999]"},
        ]

    @pytest.mark.parametrize("defect,expected", [
        ({"size": [12, 16], "counts": [20, 6, 160]}, "annotation 11: rle counts sum to 186, expected 192"),
        ({"size": [12, 16], "counts": [-1, 193]}, "annotation 11: rle counts must be non-negative"),
        ({"size": [12, 16], "counts": [20, 0, 172]}, "annotation 11: rle has a zero-length run after the first"),
        ([[1, 1, 9, 1, 9]], "annotation 11: flat coordinate list must have even length"),
        ([[1, -1, 9, 1, 9, 7]], "annotation 11: polygon vertices must be non-negative"),
        ({"size": [8, 8], "counts": [64]}, "annotation 11: rle canvas 8x8 does not match image 16x12"),
        ("duplicate annotation", "duplicate annotation id 10"),
        ("duplicate image", "duplicate image id 1"),
        ("duplicate category", "duplicate category id 2"),
        ("unknown image", "annotation 11: unknown image_id 7"),
        ("unknown category", "annotation 11: unknown category_id 9"),
        ("empty image", "image 2: empty canvas"),
        ("polygon on empty image", "annotation 11: canvas must span at least one pixel"),
    ])
    def test_rejects_what_load_coco_rejects_with_its_message(self, tmp_path, capsys, defect, expected):
        # `parse` decodes no geometry, yet it refuses every file `evaluate`
        # refuses, with the same message
        payload = coco_payload(
            images=[(1, 16, 12, [(10, 1, [[1, 1, 9, 1, 9, 7]]), (11, 2, {"size": [12, 16], "counts": [20, 6, 166]})]),
                    (2, 8, 8, [])],
            categories=[(1, "cat"), (2, "dog")],
        )
        anns, images = payload["annotations"], payload["images"]
        if isinstance(defect, (dict, list)):
            anns[1]["segmentation"] = defect
        elif defect == "duplicate annotation":
            anns[1]["id"] = 10
        elif defect == "duplicate image":
            images[1]["id"] = 1
        elif defect == "duplicate category":
            payload["categories"].append({"id": 2, "name": "wolf"})
        elif defect == "unknown image":
            anns[1]["image_id"] = 7
        elif defect == "unknown category":
            anns[1]["category_id"] = 9
        else:
            images[1]["width"] = 0
            if defect == "polygon on empty image":
                anns[1].update(image_id=2, segmentation=[[1, 1, 5, 1, 5, 5]])
        gt = tmp_path / "gt.json"
        write_json(gt, payload)
        responses = write_qa_responses(tmp_path)
        preds = write_perfect_preds(tmp_path)
        assert main(["evaluate", "--gt", str(gt), "--preds", str(preds), "--mode", "inst"]) == 1
        evaluate_err = capsys.readouterr().err
        assert main(["parse", "--responses", str(responses), "--annotations", str(gt), "--task", "qa",
                     "--out", str(tmp_path / "records.jsonl")]) == 1
        parse_err = capsys.readouterr().err
        assert parse_err == evaluate_err
        assert parse_err.startswith("validation error: ") and expected in parse_err
        assert not (tmp_path / "records.jsonl").exists()

    def test_missing_responses_directory_is_io_error(self, tmp_path):
        gt = write_gt(tmp_path)
        code = main(
            ["parse", "--responses", str(tmp_path / "nowhere"), "--annotations", str(gt),
             "--task", "qa", "--out", str(tmp_path / "r.jsonl")]
        )
        assert code == 2


class TestTransform:
    @pytest.mark.parametrize("target", ["pure", "instseg", "sid-instseg"])
    def test_merged_out_is_refused_where_nothing_merges(self, tmp_path, capsys, target):
        gt = write_gt(tmp_path)
        records = write_sid_records(tmp_path)
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        code = main(["transform", "--in", str(records), "--to", target, "--annotations", str(gt),
                     "--out", str(tmp_path / "o.jsonl"), "--merged-out", str(tmp_path / "m.jsonl")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"--merged-out needs --to semseg or sid-semseg, got --to {target}\n"
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    def test_to_pure_strips_and_stamps(self, tmp_path):
        records = write_sid_records(tmp_path)
        out = tmp_path / "pure.jsonl"
        assert main(["transform", "--in", str(records), "--to", "pure", "--out", str(out)]) == 0
        rec = read_records(out)[0]
        assert rec.task_mode == "pure_text"
        assert rec.turns[0].text == (
            "Where are the keyboards? " + TASK_TEMPLATES["pure_text"]
        )
        assert rec.turns[1].text == "keyboards"
        assert rec.turns[1].seg_ids == ()

    def test_to_sid_semseg_merges_and_reports(self, tmp_path):
        gt = write_gt(tmp_path)
        records = write_sid_records(tmp_path)
        out = tmp_path / "sem.jsonl"
        merged_out = tmp_path / "merged.jsonl"
        code = main(
            ["transform", "--in", str(records), "--to", "sid-semseg",
             "--annotations", str(gt), "--out", str(out), "--merged-out", str(merged_out)]
        )
        assert code == 0
        rec = read_records(out)[0]
        assert rec.task_mode == "sid_semseg"
        assert rec.turns[0].text.endswith(TASK_TEMPLATES["sid_semseg"])
        assert rec.turns[1].text == "keyboards <SEG>"
        assert rec.turns[1].seg_ids == (31264,)
        merged = [json.loads(line) for line in merged_out.read_text(encoding="utf-8").splitlines()]
        assert len(merged) == 1
        assert merged[0]["member_ids"] == [34494, 31264]
        assert merged[0]["instance_id"] == 31264
        assert merged[0]["category_id"] == 3
        assert merged[0]["rle"]["size"] == [512, 512]

    def test_semantic_target_requires_annotations(self, tmp_path, capsys):
        records = write_sid_records(tmp_path)
        code = main(
            ["transform", "--in", str(records), "--to", "sid-semseg",
             "--out", str(tmp_path / "x.jsonl")]
        )
        assert code == 1
        assert "requires --annotations" in capsys.readouterr().err

    def test_stamping_in_place_keeps_mode(self, tmp_path):
        records = write_sid_records(tmp_path)
        out = tmp_path / "stamped.jsonl"
        code = main(["transform", "--in", str(records), "--to", "sid-instseg", "--out", str(out)])
        assert code == 0
        rec = read_records(out)[0]
        assert rec.task_mode == "sid_instseg"
        assert rec.turns[0].text.endswith(TASK_TEMPLATES["sid_instseg"])
        assert rec.turns[1].seg_ids == (34494, 31264)

    def test_mode_mismatch_names_the_record(self, tmp_path, capsys):
        records = write_sid_records(tmp_path)
        pure = tmp_path / "pure.jsonl"
        assert main(["transform", "--in", str(records), "--to", "pure", "--out", str(pure)]) == 0
        code = main(
            ["transform", "--in", str(pure), "--to", "sid-instseg",
             "--out", str(tmp_path / "y.jsonl")]
        )
        assert code == 1
        assert "record 1 (image 1)" in capsys.readouterr().err

    def test_a_record_resolves_only_against_its_own_image(self, tmp_path, capsys):
        # instance 9 is image 2's lamp: a record of image 1 cannot name it,
        # and a record of an image the file lacks names nothing
        gt = write_gt(tmp_path)
        lamp = "<person>: Where is the lamp?\n<robot>: lamp <9; lamp>"
        keyboard = "<person>: Where is the keyboard?\n<robot>: keyboard <34494; keyboard>"
        labels = {9: "lamp", 34494: "keyboard"}
        cases = [
            ([(lamp, 2), (lamp, 1)], "record 2 (image 1): turn 1: unknown instance id 9"),
            ([(keyboard, 1), (keyboard, 7)], "record 2 (image 7): image 7 not in the annotations"),
        ]
        for n, (texts, message) in enumerate(cases):
            records, out = tmp_path / f"records{n}.jsonl", tmp_path / f"out{n}.jsonl"
            rows = [to_training_record(parse_sid_response(t, labels, image_id=i).record) for t, i in texts]
            write_records(rows, records)
            argv = ["transform", "--in", str(records), "--to", "sid-semseg", "--annotations", str(gt), "--out", str(out)]
            assert main(argv) == 1
            assert capsys.readouterr().err == f"validation error: {message}\n"
            assert not out.exists()
            write_records(rows[:1], records)
            assert main(argv) == 0
            assert read_records(out)[0].turns[1].seg_ids == rows[0].turns[1].seg_ids

    def test_a_semantic_target_is_checked_against_the_records_own_mode(self, tmp_path, capsys):
        # a sid_instseg record regroups to sid_semseg, so --to semseg names its own mode
        gt = write_gt(tmp_path)
        records, out = tmp_path / "records.jsonl", tmp_path / "out.jsonl"
        lamp = parse_sid_response("<person>: Where is the lamp?\n<robot>: lamp <9; lamp>", {9: "lamp"}, image_id=2)
        write_records([to_training_record(lamp.record)], records)
        argv = ["transform", "--in", str(records), "--to", "semseg", "--annotations", str(gt), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "validation error: record 1 (image 2): record task_mode 'sid_instseg' regroups to 'sid_semseg', not 'semseg'\n"
        )
        assert not out.exists()


class TestMatch:
    def test_perfect_predictions_match_every_truth(self, tmp_path):
        gt = write_gt(tmp_path)
        preds = write_perfect_preds(tmp_path)
        out = tmp_path / "assign.jsonl"
        assert main(["match", "--preds", str(preds), "--gt", str(gt), "--out", str(out)]) == 0
        rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert rows[0]["image_id"] == 1
        assert rows[0]["pairs"] == [[0, 34494], [1, 31264]]
        assert rows[0]["total_cost"] == 0.0
        assert rows[0]["unmatched_pred_indices"] == []
        assert rows[1]["pairs"] == [[0, 9]]

    def test_image_without_predictions_lists_all_truths(self, tmp_path):
        gt = write_gt(tmp_path)
        preds = tmp_path / "preds.jsonl"
        write_predictions(
            [PredictionInstance(image_id=1, mask=M_KEY1, score=1.0, category_id=3)], preds
        )
        out = tmp_path / "assign.jsonl"
        assert main(["match", "--preds", str(preds), "--gt", str(gt), "--out", str(out)]) == 0
        rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert rows[1]["pairs"] == []
        assert rows[1]["unmatched_gt_instance_ids"] == [9]

    def test_canvases_are_checked_on_images_without_truth_in_image_order(self, tmp_path, capsys):
        payload = coco_payload(
            images=[(1, 512, 512, [(34494, 3, rle_obj(M_KEY1))]), (3, 640, 480, []), (4, 512, 512, [])],
            categories=[(3, "keyboard")],
        )
        gt = tmp_path / "gt.json"
        write_json(gt, payload)
        preds, out = tmp_path / "preds.jsonl", tmp_path / "assign.jsonl"
        for masks, message in (
            ({3: rect_mask(10, 10, 0, 0, 4, 4)}, "10x10 vs 640x480"),
            ({4: rect_mask(10, 10, 0, 0, 4, 4), 3: M_KEY1}, "512x512 vs 640x480"),
            ({4: rect_mask(10, 10, 0, 0, 4, 4), 1: rect_mask(16, 12, 0, 0, 4, 4)}, "16x12 vs 512x512"),
        ):
            write_predictions(
                [PredictionInstance(image_id=i, mask=m, score=1.0, category_id=3) for i, m in masks.items()], preds
            )
            assert main(["match", "--preds", str(preds), "--gt", str(gt), "--out", str(out)]) == 1
            assert capsys.readouterr().err == f"validation error: mask canvases differ: {message}\n"
            assert not out.exists()

    def test_unknown_prediction_image_rejected(self, tmp_path, capsys):
        gt = write_gt(tmp_path)
        preds = tmp_path / "preds.jsonl"
        write_predictions(
            [PredictionInstance(image_id=77, mask=M_KEY1, score=1.0, category_id=3)], preds
        )
        code = main(["match", "--preds", str(preds), "--gt", str(gt),
                     "--out", str(tmp_path / "a.jsonl")])
        assert code == 1
        assert "unknown image_id 77" in capsys.readouterr().err


class TestEvaluateAndReport:
    def test_report_of_a_json_array_is_refused(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        write_json(path, [{"mode": "inst"}])
        assert main(["report", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"{path}: report must be a JSON object\n")

    def test_inst_mode_perfect_detector(self, tmp_path, capsys):
        gt = write_gt(tmp_path)
        preds = write_perfect_preds(tmp_path)
        report_path = tmp_path / "report.json"
        code = main(
            ["evaluate", "--gt", str(gt), "--preds", str(preds),
             "--mode", "inst", "--out", str(report_path)]
        )
        assert code == 0
        assert INST_REPORT in capsys.readouterr().out
        obj = json.loads(report_path.read_text(encoding="utf-8"))
        assert obj["mode"] == "inst"
        assert obj["metrics"]["AP50"] == 1.0 and obj["metrics"]["AP-small"] == 1.0
        assert set(obj["per_category"]) == {"3", "5"}

        assert main(["report", "--in", str(report_path)]) == 0
        assert INST_REPORT in capsys.readouterr().out

    def test_sem_mode_scores_whole_image_masks(self, tmp_path, capsys):
        gt = write_gt(tmp_path)
        preds = tmp_path / "sem_preds.jsonl"
        write_predictions(
            [
                PredictionInstance(image_id=1, mask=mask_union([M_KEY1, M_KEY2]), score=1.0),
                PredictionInstance(image_id=2, mask=M_LAMP, score=1.0),
            ],
            preds,
        )
        code = main(["evaluate", "--gt", str(gt), "--preds", str(preds), "--mode", "sem"])
        assert code == 0
        out = capsys.readouterr().out
        assert "gIoU      1.000" in out
        assert "cIoU      1.000" in out

    def test_sem_mode_warns_on_missing_images(self, tmp_path, capsys):
        gt = write_gt(tmp_path)
        preds = tmp_path / "sem_preds.jsonl"
        write_predictions(
            [PredictionInstance(image_id=1, mask=mask_union([M_KEY1, M_KEY2]), score=1.0)],
            preds,
        )
        assert main(["evaluate", "--gt", str(gt), "--preds", str(preds), "--mode", "sem"]) == 0
        captured = capsys.readouterr()
        assert "gIoU      0.500" in captured.out
        assert "image 2: no prediction" in captured.err

    def test_sem_mode_rejects_duplicate_image_predictions(self, tmp_path, capsys):
        gt = write_gt(tmp_path)
        preds = tmp_path / "sem_preds.jsonl"
        write_predictions(
            [
                PredictionInstance(image_id=1, mask=M_KEY1, score=1.0),
                PredictionInstance(image_id=1, mask=M_KEY2, score=1.0),
            ],
            preds,
        )
        assert main(["evaluate", "--gt", str(gt), "--preds", str(preds), "--mode", "sem"]) == 1
        assert "duplicate whole-image mask" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "report, message",
        [
            ({"mode": "inst", "metrics": {}}, "report metrics lack 'AP50'"),
            ({"mode": "inst"}, "report metrics lack 'AP50'"),
            ({"mode": "sem", "metrics": [1]}, "report metrics must be an object"),
            ({"mode": "sem", "metrics": {"gIoU": 0.5}}, "report metrics lack 'cIoU'"),
            ({"mode": "inst", "metrics": {"AP50": None}}, "report metric 'AP50' must be a number, got None"),
            ({"mode": "sem", "metrics": {"gIoU": [0.5], "cIoU": 0.5}}, "report metric 'gIoU' must be a number"),
            ({"mode": "sem", "metrics": {"gIoU": 0.5, "cIoU": "x"}}, "report metric 'cIoU' must be a number"),
            ({"mode": "sem", "metrics": {"gIoU": 0.5, "cIoU": 10 ** 400}}, "report metric 'cIoU' must be a number"),
            # float() would read both, as 0.25 and 1.0
            ({"mode": "sem", "metrics": {"gIoU": "0.25", "cIoU": 0.5}}, "report metric 'gIoU' must be a number, got '0.25'"),
            ({"mode": "sem", "metrics": {"gIoU": 0.5, "cIoU": True}}, "report metric 'cIoU' must be a number, got True"),
        ],
    )
    def test_report_rejects_malformed_metrics(self, tmp_path, capsys, report, message):
        bad = tmp_path / "bad.json"
        write_json(bad, report)
        assert main(["report", "--in", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message) and "Traceback" not in captured.err, captured.err

    def test_report_rejects_unknown_modes(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"mode": "banana", "metrics": {}}', encoding="utf-8")
        assert main(["report", "--in", str(bad)]) == 1
        assert "report mode must be" in capsys.readouterr().err
        assert main(["report", "--in", str(tmp_path / "missing.json")]) == 2


class TestSplit:
    def run_split(self, tmp_path, records, seed, fraction):
        train = tmp_path / f"train-{seed}-{fraction}.jsonl"
        ev = tmp_path / f"eval-{seed}-{fraction}.jsonl"
        code = main(
            ["split", "--in", str(records), "--train-out", str(train), "--eval-out", str(ev),
             "--eval-fraction", str(fraction), "--seed", str(seed)]
        )
        assert code == 0
        return train, ev

    def records_file(self, tmp_path, n=10):
        path = tmp_path / "records.jsonl"
        rows = []
        for i in range(n):
            rows.append(json.dumps({
                "schema_version": 1, "image_id": i, "task_mode": "pure_text",
                "turns": [{"role": "person", "text": f"q{i}", "seg_ids": []}],
                "provenance": None,
            }, sort_keys=True))
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        return path

    def test_partition_and_rounding(self, tmp_path, capsys):
        records = self.records_file(tmp_path, 10)
        train, ev = self.run_split(tmp_path, records, seed=3, fraction=0.25)
        assert "split: 7 train / 3 eval record(s)" in capsys.readouterr().out  # 10*0.25+0.5 -> 3
        train_lines = train.read_text(encoding="utf-8").splitlines()
        eval_lines = ev.read_text(encoding="utf-8").splitlines()
        all_lines = records.read_text(encoding="utf-8").splitlines()
        assert sorted(train_lines + eval_lines) == sorted(all_lines)
        assert len(eval_lines) == 3

    def test_same_seed_is_byte_identical(self, tmp_path):
        records = self.records_file(tmp_path)
        t1, e1 = self.run_split(tmp_path, records, seed=5, fraction=0.4)
        # rerun into fresh paths
        t2 = tmp_path / "t2.jsonl"
        e2 = tmp_path / "e2.jsonl"
        assert main(
            ["split", "--in", str(records), "--train-out", str(t2), "--eval-out", str(e2),
             "--eval-fraction", "0.4", "--seed", "5"]
        ) == 0
        assert t1.read_bytes() == t2.read_bytes()
        assert e1.read_bytes() == e2.read_bytes()

    def test_extreme_fractions(self, tmp_path):
        records = self.records_file(tmp_path)
        train, ev = self.run_split(tmp_path, records, seed=0, fraction=0.0)
        assert ev.read_text(encoding="utf-8") == ""
        train, ev = self.run_split(tmp_path, records, seed=0, fraction=1.0)
        assert train.read_text(encoding="utf-8") == ""

    def test_fraction_out_of_range_rejected(self, tmp_path, capsys):
        records = self.records_file(tmp_path)
        code = main(
            ["split", "--in", str(records), "--train-out", str(tmp_path / "t.jsonl"),
             "--eval-out", str(tmp_path / "e.jsonl"), "--eval-fraction", "1.5"]
        )
        assert code == 1
        assert "--eval-fraction must be in [0, 1]" in capsys.readouterr().err

    def test_invalid_records_rejected_before_writing(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema_version": 99}\n', encoding="utf-8")
        train = tmp_path / "t.jsonl"
        ev = tmp_path / "e.jsonl"
        code = main(
            ["split", "--in", str(bad), "--train-out", str(train), "--eval-out", str(ev)]
        )
        assert code == 1
        assert not train.exists() and not ev.exists()
