"""`segdial parse`: parse annotator responses into records."""

from __future__ import annotations

from pathlib import Path

from segdial import dataset_io, parsing
from segdial.cli import check_output_paths


def run(args) -> int:
    diagnostics_out = args.diagnostics or args.out.parent / (args.out.stem + ".diagnostics.jsonl")
    check_output_paths({"--annotations": args.annotations}, {"--out": args.out, "--diagnostics": diagnostics_out})
    labels_by_image = dataset_io.load_coco_labels(args.annotations)
    records: list[parsing.SerializedRecord] = []
    diag_rows: list[dict] = []

    def note(file_name, image_id, diag: parsing.Diagnostic):
        diag_rows.append(
            {
                "schema_version": dataset_io.SCHEMA_VERSION,
                "file": file_name,
                "image_id": image_id,
                "severity": diag.severity,
                "line": diag.line,
                "message": diag.message,
            }
        )

    responses_dir = Path(args.responses)
    if not responses_dir.is_dir():
        raise FileNotFoundError(f"response directory {responses_dir} does not exist")
    files = sorted(responses_dir.glob("*.txt"), key=lambda p: p.name)
    n_parsed_files = 0
    for path in files:
        try:
            image_id = int(path.stem)
        except ValueError:
            image_id = None
        if image_id is None or str(image_id) != path.stem:  # ` 1`, `+1`, `001` and `1_000` are not `1`
            note(path.name, None, parsing.Diagnostic("error", None, "file name is not an image id"))
            continue
        if image_id not in labels_by_image:
            note(
                path.name,
                image_id,
                parsing.Diagnostic("error", None, f"image {image_id} not in the annotations"),
            )
            continue
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            note(path.name, image_id, parsing.Diagnostic("error", None, f"response is not UTF-8: {exc}"))
            continue
        anns = labels_by_image[image_id]
        n_parsed_files += 1
        if args.task == "instseg":
            recs, diags = parsing.parse_instseg_records(text, anns, image_id=image_id)
            for d in diags:
                note(path.name, image_id, d)
            records.extend(parsing.to_training_record(r) for r in recs)
        else:
            parse = parsing.parse_sid_response if args.task == "qa" else parsing.parse_caption_response
            result = parse(text, anns, image_id=image_id)
            for d in result.diagnostics:
                note(path.name, image_id, d)
            if result.record is not None:
                records.append(parsing.to_training_record(result.record))

    dataset_io.write_records(records, args.out)
    dataset_io.write_jsonl(diag_rows, diagnostics_out)
    print(
        f"parse: {len(records)} record(s) from {n_parsed_files} response(s), "
        f"{len(diag_rows)} diagnostic(s)"
    )
    return 0
