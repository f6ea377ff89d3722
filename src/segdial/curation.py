"""Dataset curation: size/area filters and prompt assembly for a vision-language annotator.

Three prompt kinds are built per image: multi-question instance grounding
("instseg"), free-form grounded dialogue ("qa"), and whole-image captioning
("caption"). Each prompt is the fixed system template plus a per-image
annotation digest; the digest line layout is frozen because downstream
parsers key on it. The image and instance types are those of
`segdial.instances`, re-exported here.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from segdial.instances import CurationError, ImageRecord, InstanceAnnotation
from segdial.mask import area, bbox_of, mask_union, rasterize, rle_decode  # noqa: F401  (bench/tracing.py rebinds them here)

__all__ = [
    "CurationError",
    "DropEntry",
    "FilterResult",
    "ImageRecord",
    "InstanceAnnotation",
    "PromptJob",
    "INSTSEG_PROMPT_TEMPLATE",
    "QA_PROMPT_TEMPLATE",
    "CAPTION_PROMPT_TEMPLATE",
    "DIGEST_LINE",
    "annotation_digest",
    "build_caption_prompt",
    "build_instseg_prompt",
    "build_qa_prompt",
    "filter_dataset",
]


class DropEntry(NamedTuple):
    image_id: int
    annotation_id: Optional[int]  # None for image-level drops
    reason: str


class FilterResult(NamedTuple):
    kept: tuple[ImageRecord, ...]
    dropped: tuple[DropEntry, ...]


def filter_dataset(
    records: Sequence[ImageRecord],
    min_side: int = 512,
    min_area: int = 400,
) -> FilterResult:
    """Drop undersized images, undersized objects, then images left empty.

    An image is undersized when either side is below `min_side`; an object is
    undersized when its pixel area is strictly below `min_area`. Every removal
    is itemized in the dropped report.
    """
    kept: list[ImageRecord] = []
    dropped: list[DropEntry] = []
    for rec in records:
        if rec.width < min_side or rec.height < min_side:
            dropped.append(DropEntry(rec.image_id, None, f"image below {min_side}x{min_side}"))
            continue
        surviving = []
        for ann in rec.annotations:
            if ann.area < min_area:
                dropped.append(
                    DropEntry(
                        rec.image_id,
                        ann.instance_id,
                        f"object area under {min_area} square pixels",
                    )
                )
            else:
                surviving.append(ann)
        if not surviving:
            dropped.append(DropEntry(rec.image_id, None, "image has no remaining objects"))
            continue
        if len(surviving) == len(rec.annotations):
            kept.append(rec)
        else:
            kept.append(
                ImageRecord(
                    image_id=rec.image_id,
                    width=rec.width,
                    height=rec.height,
                    file_name=rec.file_name,
                    annotations=tuple(surviving),
                )
            )
    return FilterResult(kept=tuple(kept), dropped=tuple(dropped))


INSTSEG_PROMPT_TEMPLATE = """You are asked to generate the instruction tuning data for language-guided reasoning instance segmentation. Requirements are:
(1) Create a series of specific questions (Q1, Q2, Q3, etc.)(but no more than 5 questions) focusing on identifying and isolating different elements within the image, based on the polygon information. Each question should not refer to previous questions, and facilitate the generation of segmented masks for objects when processed by an imaging system. Ensure the questions are clear, precise, logical, and interesting, and avoid directly mentioning coordinates, label names, and polygons. The questions should try to consider the use and nature of the object, not just its appearance. The output format must be 'Q[number]: [question]'. If the question is about humans, do not ask questions without extra modifiers, but ask questions simply like 'Please find out all the individuals in the image.'
(2) Answer all your questions (A1, A2, A3, etc.) indicating which polygons in <anno> correspond to each question. For items with multiple instances in the same category, list ALL instances for that category in the answer! Do not output full information; the format MUST follow: 'A[number]: instance id is [id1], label name is [name]; instance id is [id2], label name is [name]; instance id is [id3], label name is [name]; ...'"""

QA_PROMPT_TEMPLATE = """You are asked to generate the Q&A conversational data. Requirements are:
(1) Construct a dialogue that paints a vivid picture of the scene through natural and diverse questions and answers, ensuring a logical and engaging flow.
(2) The context of the dialogue can be relevant. Include interactions that cover object identification, counting, actions, locations, and the relationship between objects, while also integrating complex queries that delve into the objects' background information and the scenario depicted in the image.
(3) Carefully formulate questions to avoid ambiguity and ensure they can be answered with confidence based on the image annotations. Avoid including <instance id; label name> in <person>'s queries. Do not directly mention 'polygon', or 'annotations' in the questions and answers.
(4) Format the output as:
'<person>: XXXX
<robot>: XXXX'
, with <robot> responses incorporating instance IDs and label names like 'keyboards <34494; keyboard> <31264; keyboard>'."""

CAPTION_PROMPT_TEMPLATE = """You are asked to generate the captioning conversational data.
Please generate one question-and-answer pair based on the provided image (image_size: {image_size}) and its instance segmentation annotation. The focus is on describing(captioning) the whole image focusing on those instances given in the annotation, as detailedly as you can without directly referencing anything in the annotation except for instance id. Make sure the answers indicate the specific instances involved. The annotation consists of struct {'label name', 'instance id', 'bbox', 'center point'} that each is corresponded with a unique instance in the image (segmentation mask is given in the form of bbox[left, top, right, bottom] and 'center_point' is the center of the instance. x-coordinates are increasing from left to right. y-coordinates are increasing from top to bottom! The more the instance is close to the TOP edge, the SMALLER the y-coordinate is.
Please assume that you are in a space where point1 [0, 0] is to the upper left of point2 [1, 1], and point2 [1, 1] is to the bottom right of point1 [0, 0]. The starting point [0, 0] is on the top-left of the given image. The generated QA should follow the format of:
'Q1: <question>.
A1: <descriptions>'"""

# frozen: parsers and downstream tooling key on this exact layout
DIGEST_LINE = (
    "label name is {label}, instance id is {id}, bbox is [{l}, {t}, {r}, {b}], "
    "center point is [{cx}, {cy}]"
)


class PromptJob(NamedTuple):
    """A ready-to-send annotator request for one image."""

    kind: str  # instseg | qa | caption
    image_id: int
    file_name: str
    prompt_text: str
    annotation_digest: str


def annotation_digest(image: ImageRecord) -> str:
    """One line per annotation: label, id, inclusive bbox, integer center."""
    if not image.annotations:
        raise CurationError(f"image {image.image_id} has no annotations to digest")
    lines = []
    for ann in image.annotations:
        if ann.bbox is None or ann.center_point is None:
            raise CurationError(
                f"image {image.image_id}: annotation {ann.instance_id} has an empty mask"
            )
        lines.append(
            DIGEST_LINE.format(
                label=ann.label_name,
                id=ann.instance_id,
                l=ann.bbox.left,
                t=ann.bbox.top,
                r=ann.bbox.right,
                b=ann.bbox.bottom,
                cx=ann.center_point[0],
                cy=ann.center_point[1],
            )
        )
    return "\n".join(lines)


def _job(kind: str, image: ImageRecord, template: str) -> PromptJob:
    digest = annotation_digest(image)
    return PromptJob(
        kind=kind,
        image_id=image.image_id,
        file_name=image.file_name,
        prompt_text=template + "\n\n" + digest,
        annotation_digest=digest,
    )


def build_instseg_prompt(image: ImageRecord) -> PromptJob:
    """Prompt asking for up to five grounding questions with id-listing answers."""
    return _job("instseg", image, INSTSEG_PROMPT_TEMPLATE)


def build_qa_prompt(image: ImageRecord) -> PromptJob:
    """Prompt asking for a grounded multi-turn dialogue."""
    return _job("qa", image, QA_PROMPT_TEMPLATE)


def build_caption_prompt(image: ImageRecord) -> PromptJob:
    """Prompt asking for one grounded caption QA pair; bakes in the image size."""
    template = CAPTION_PROMPT_TEMPLATE.replace(
        "{image_size}", f"({image.width}, {image.height})"
    )
    return _job("caption", image, template)
