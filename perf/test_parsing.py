"""Micro-benchmarks of the record layer: the three response parsers and the
training-record round trip, on dialogue_build-shaped inputs (16 images of
3-10 instances from 20 categories, 2-6 turn replies whose robot turns hang
runs of 1-3 tags off a word, a few with an unknown id or a mislabel).

    pytest perf --benchmark-only

They sit outside `tests/` so the tier-1 run (`testpaths = ["tests"]`) does
not time them.
"""

import random

import pytest

from segdial.parsing import (
    from_training_record,
    parse_caption_response,
    parse_instseg_response,
    parse_sid_response,
    to_training_record,
)

_LINKS = ("there is", "I can see", "look at", "next to it", "and also")
_QUESTIONS = (
    "What stands out in this picture?",
    "Where is everything placed?",
    "What else is visible?",
)


def _images(rng, count=16):
    """(image id, {instance id: label}) with 3-10 instances per image."""
    images = []
    for image_id in range(1, count + 1):
        n = 3 + (image_id - 1) % 8
        labels = {image_id * 1000 + k + 1: f"kind{rng.randint(1, 20)}" for k in range(n)}
        images.append((image_id, labels))
    return images


def _mentions(rng, labels):
    """One robot turn: 1-3 phrases, each a word followed by a run of 1-3 tags."""
    by_label: dict[str, list[int]] = {}
    for i, lab in labels.items():
        by_label.setdefault(lab, []).append(i)
    parts = []
    for _ in range(rng.randint(1, 3)):
        lab = rng.choice(sorted(by_label))
        ids = sorted(rng.sample(by_label[lab], min(len(by_label[lab]), rng.randint(1, 3))))
        written = lab if rng.random() < 0.9 else "mislabel"
        tags = " ".join(f"<{i}; {written}>" for i in ids)
        parts.append(f"{rng.choice(_LINKS)} {lab} {tags}")
    return ", ".join(parts) + "."


def _sid(rng, labels):
    lines = []
    for t in range(rng.randint(2, 6)):
        body = rng.choice(_QUESTIONS) if t % 2 == 0 else _mentions(rng, labels)
        lines.append(f"<{('person', 'robot')[t % 2]}>: {body}")
    if rng.random() < 0.05:
        lines[1] += " and a ghost <999999; ghost>"
    return "\n".join(lines) + "\n"


def _instseg(rng, labels):
    lines = []
    for n in range(1, 6):
        ids = rng.sample(sorted(labels), rng.randint(1, 3))
        clauses = "; ".join(f"instance id is {i}, label name is {labels[i]}" for i in ids)
        lines += [f"Q{n}: {rng.choice(_QUESTIONS)}", f"A{n}: {clauses}"]
    return "\n".join(lines) + "\n"


def _caption(rng, labels):
    return f"Q1: {rng.choice(_QUESTIONS)}\nA1: {_mentions(rng, labels)}\n{_mentions(rng, labels)}\n"


_rng = random.Random(0)
IMAGES = _images(_rng)
RESPONSES = {
    "sid": [(_sid(_rng, labels), labels) for _, labels in IMAGES],
    "instseg": [(_instseg(_rng, labels), labels) for _, labels in IMAGES],
    "caption": [(_caption(_rng, labels), labels) for _, labels in IMAGES],
}
PARSERS = {
    "sid": parse_sid_response,
    "instseg": parse_instseg_response,
    "caption": parse_caption_response,
}
PARSED = [(parse_sid_response(text, labels).record, labels) for text, labels in RESPONSES["sid"]]
RECORDS = [(record, labels) for record, labels in PARSED if record is not None]
SERIALIZED = [(to_training_record(record), labels) for record, labels in RECORDS]


@pytest.mark.parametrize("kind", list(PARSERS))
def test_parse_responses(benchmark, kind):
    parse = PARSERS[kind]
    results = benchmark(lambda: [parse(text, labels) for text, labels in RESPONSES[kind]])
    assert len(results) == len(IMAGES)


def test_to_training_record(benchmark):
    out = benchmark(lambda: [to_training_record(record) for record, _ in RECORDS])
    assert len(out) == len(RECORDS) > 10


def test_from_training_record(benchmark):
    out = benchmark(lambda: [from_training_record(ser, labels) for ser, labels in SERIALIZED])
    assert [r.turns[0] for r in out] == [r.turns[0] for r, _ in RECORDS]
