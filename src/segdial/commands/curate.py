"""`segdial curate`: filter a dataset and build annotator jobs."""

from __future__ import annotations

import os
import sys

from segdial import clients, curation, dataset_io
from segdial.cli import CliUsageError, check_output_paths


def run(args) -> int:
    if args.max_retries < 0:  # before any output is written, whatever the client
        raise ValueError("max_retries must be >= 0")
    dropped_out = args.dropped_out or args.out.parent / (args.out.stem + ".dropped.jsonl")
    check_output_paths(
        {"--input": args.input, "--config": args.config}, {"--out": args.out, "--dropped-out": dropped_out}
    )
    client = None
    if args.client == "fixture":
        if args.fixture_dir is None:
            raise CliUsageError("--client fixture requires --fixture-dir")
        client = clients.FixtureModelClient(args.fixture_dir)
    elif args.client == "http":
        if args.endpoint is None:
            raise CliUsageError("--client http requires --endpoint")
        token = os.environ.get(args.auth_token_env) if args.auth_token_env else None
        client = clients.HttpModelClient(
            args.endpoint, auth_token=token, image_root=args.image_root
        )
    dataset = dataset_io.load_coco_masks(args.input)  # areas and boxes are all it reads
    for w in dataset.warnings:
        print(f"warning: {w}", file=sys.stderr)
    result = curation.filter_dataset(dataset.images, args.min_image_side, args.min_area)
    dataset_io.write_jsonl(
        (
            {
                "schema_version": dataset_io.SCHEMA_VERSION,
                "image_id": d.image_id,
                "annotation_id": d.annotation_id,
                "reason": d.reason,
            }
            for d in result.dropped
        ),
        dropped_out,
    )

    builders = {
        "instseg": curation.build_instseg_prompt,
        "qa": curation.build_qa_prompt,
        "caption": curation.build_caption_prompt,
    }
    prompt_jobs = [builders[args.task](img) for img in result.kept]

    outcomes: list = [None] * len(prompt_jobs)
    if client is not None:
        outcomes = clients.run_jobs(
            prompt_jobs, client, max_retries=args.max_retries, parallelism=args.jobs
        )

    def job_obj(job, res):
        return {
            "schema_version": dataset_io.SCHEMA_VERSION,
            "kind": job.kind,
            "image_id": job.image_id,
            "file_name": job.file_name,
            "prompt_text": job.prompt_text,
            "annotation_digest": job.annotation_digest,
            "response": res.response if res else None,
            "error": res.error if res else None,
            "attempts": res.attempts if res else 0,
        }

    dataset_io.write_jsonl((job_obj(j, r) for j, r in zip(prompt_jobs, outcomes)), args.out)
    failed = sum(1 for r in outcomes if r is not None and r.error is not None)
    print(
        f"curate: kept {len(result.kept)} image(s), dropped {len(result.dropped)} entr"
        f"{'y' if len(result.dropped) == 1 else 'ies'}, wrote {len(prompt_jobs)} job(s)"
        + (f", {failed} failed" if failed else "")
    )
    return 0
