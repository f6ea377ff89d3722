import json
import os
import subprocess
import sys

import pytest

from conftest import coco_payload, rect_mask, rle_obj, write_json
from segdial.cli import main
from segdial.dataset_io import read_records, write_predictions, write_records
from segdial.mask import mask_union
from segdial.metrics import PredictionInstance
from segdial.parsing import parse_sid_response, to_training_record
from segdial.transforms import TASK_TEMPLATES

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
        gt = write_gt(tmp_path)
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        out = tmp_path / "jobs.jsonl"
        code = main(
            ["curate", "--input", str(gt), "--task", "qa", "--out", str(out),
             "--client", "fixture", "--fixture-dir", str(fixtures), "--max-retries", "-1"]
        )
        assert code == 1
        assert "validation error: max_retries must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_console_script_is_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "segdial.cli", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "curate" in proc.stdout and "evaluate" in proc.stdout

    def test_import_loads_neither_scipy_nor_requests(self):
        # Only `match` needs scipy and only `curate --client http` needs
        # requests; every other subcommand must not pay for importing them.
        import segdial

        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(segdial.__file__))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = "import sys, segdial.cli; print(sorted({'scipy', 'requests'} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


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

    @pytest.mark.parametrize("command", ["match", "evaluate", "parse", "report"])
    @pytest.mark.parametrize("source, value", [("--jobs", "0"), ("--jobs", "65"), ("SEGDIAL_JOBS", "abc")])
    def test_every_subcommand_checks_jobs(self, tmp_path, monkeypatch, capsys, command, source, value):
        gt = write_gt(tmp_path)
        out = tmp_path / "out.json"
        report = tmp_path / "report.json"
        report.write_text(
            json.dumps({"mode": "sem", "metrics": {"gIoU": 1.0, "cIoU": 1.0}}), encoding="utf-8"
        )
        argv = {
            "match": ["match", "--preds", str(write_perfect_preds(tmp_path)), "--gt", str(gt),
                      "--out", str(out)],
            "evaluate": ["evaluate", "--gt", str(gt), "--preds", str(write_perfect_preds(tmp_path)),
                         "--mode", "inst", "--out", str(out)],
            "parse": ["parse", "--responses", str(write_qa_responses(tmp_path)),
                      "--annotations", str(gt), "--task", "qa", "--out", str(out)],
            "report": ["report", "--in", str(report)],
        }[command]
        inputs = set(tmp_path.iterdir())

        if source == "--jobs":
            assert main(argv + [source, value]) == 1
        else:
            monkeypatch.setenv(source, value)
            assert main(argv) == 1
            monkeypatch.delenv(source)
        captured = capsys.readouterr()
        assert "SEGDIAL_JOBS must be an integer" in captured.err or "--jobs must be" in captured.err
        assert captured.out == ""
        assert set(tmp_path.iterdir()) == inputs

        assert main(argv) == 0  # the same command with a valid --jobs runs
        assert capsys.readouterr().out


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

    def test_fixture_client_requires_directory_flag(self, tmp_path, capsys):
        gt = write_gt(tmp_path)
        code = main(
            ["curate", "--input", str(gt), "--task", "qa",
             "--out", str(tmp_path / "jobs.jsonl"), "--client", "fixture"]
        )
        assert code == 1
        assert "--client fixture requires --fixture-dir" in capsys.readouterr().err


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

    def test_missing_responses_directory_is_io_error(self, tmp_path):
        gt = write_gt(tmp_path)
        code = main(
            ["parse", "--responses", str(tmp_path / "nowhere"), "--annotations", str(gt),
             "--task", "qa", "--out", str(tmp_path / "r.jsonl")]
        )
        assert code == 2


class TestTransform:
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
