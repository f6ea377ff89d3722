"""Annotator-response parsing and the dialogue record model.

A dialogue turn is a sequence of plain text spans and segmentation
references. A reference is written inline as one or more whitespace-adjacent
"<instance id; label>" tags hanging off the word right before them, e.g.

    keyboards <34494; keyboard> <31264; keyboard>

so the reference owns the surface word "keyboards" and two instance ids.
Serializing for training rewrites each tag as a "<SEG>" slot and collects the
ids in order; dropping references keeps only the surface word.

Parsers are total: they always return diagnostics plus either a record or
None, never raise on malformed model output.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

__all__ = [
    "TASK_MODES",
    "Diagnostic",
    "DialogueRecord",
    "InstSegQA",
    "InstSegParse",
    "ParseResult",
    "Provenance",
    "SegRef",
    "SerializedRecord",
    "SerializedTurn",
    "TextSpan",
    "Turn",
    "from_training_record",
    "parse_caption_response",
    "parse_instseg_records",
    "parse_instseg_response",
    "parse_sid_response",
    "render_dialogue",
    "to_training_record",
]

TASK_MODES = ("semseg", "instseg", "sid_semseg", "sid_instseg", "pure_text")

_TAG_RE = re.compile(r"<\s*(\d+)\s*;\s*([^<>]*?)\s*>")
_SEG_TOKEN_RE = re.compile(r"<SEG>")
_MARKER_RE = re.compile(r"<(person|robot)>\s*:")
_QA_LINE_RE = re.compile(r"^\s*([QA])\s*(\d+)\s*:\s*(.*?)\s*$")
_QA_LOOKALIKE_RE = re.compile(r"^\s*[QA]\s*\d")
_CLAUSE_RE = re.compile(
    r"instance\s+id\s+is\s+\[?(\d+)\]?\s*,\s*label\s+name\s+is\s+\[?(.+?)\]?\s*$",
    re.IGNORECASE,
)


@dataclass(frozen=True)
class TextSpan:
    text: str


@dataclass(frozen=True)
class SegRef:
    """Inline reference: the surface word plus the instance ids tagged onto it."""

    instance_ids: tuple[int, ...]
    surface: str = ""
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        ids = tuple(int(i) for i in self.instance_ids)
        labels = tuple(self.labels) if self.labels else tuple("" for _ in ids)
        object.__setattr__(self, "instance_ids", ids)
        object.__setattr__(self, "labels", labels)
        if not ids:
            raise ValueError("SegRef needs at least one instance id")
        if len(labels) != len(ids):
            raise ValueError("SegRef labels must pair up with instance ids")


Segment = Union[TextSpan, SegRef]


@dataclass(frozen=True)
class Turn:
    role: str  # person | robot
    segments: tuple[Segment, ...] = ()

    def __post_init__(self) -> None:
        if self.role not in ("person", "robot"):
            raise ValueError(f"unknown role {self.role!r}")
        object.__setattr__(self, "segments", tuple(self.segments))

    def seg_ids(self) -> tuple[int, ...]:
        out: list[int] = []
        for seg in self.segments:
            if isinstance(seg, SegRef):
                out.extend(seg.instance_ids)
        return tuple(out)


@dataclass(frozen=True)
class Provenance:
    prompt_kind: Optional[str] = None
    response_hash: Optional[str] = None


@dataclass(frozen=True)
class DialogueRecord:
    """A parsed multi-turn exchange tied to one image."""

    image_id: Optional[int]
    turns: tuple[Turn, ...]
    task_mode: str
    provenance: Optional[Provenance] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "turns", tuple(self.turns))
        if self.task_mode not in TASK_MODES:
            raise ValueError(f"unknown task_mode {self.task_mode!r}")
        for n, turn in enumerate(self.turns):
            expected = "person" if n % 2 == 0 else "robot"
            if turn.role != expected:
                raise ValueError(
                    f"turn {n} must be {expected!r}, got {turn.role!r}: "
                    "dialogues start with person and alternate"
                )
            if turn.role == "person" and any(isinstance(s, SegRef) for s in turn.segments):
                raise ValueError(f"turn {n}: person turns cannot carry segmentation refs")


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # error | warning
    line: Optional[int]
    message: str


@dataclass(frozen=True)
class ParseResult:
    record: Optional[DialogueRecord]
    diagnostics: tuple[Diagnostic, ...]


@dataclass(frozen=True)
class InstSegQA:
    """One question plus its (instance id, label-as-written) answers."""

    index: int
    question: str
    answers: tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class InstSegParse:
    qas: tuple[InstSegQA, ...]
    diagnostics: tuple[Diagnostic, ...]


@dataclass(frozen=True)
class SerializedTurn:
    role: str
    text: str
    seg_ids: tuple[int, ...]


@dataclass(frozen=True)
class SerializedRecord:
    image_id: Optional[int]
    task_mode: str
    turns: tuple[SerializedTurn, ...]
    provenance: Optional[Provenance] = None


# --- generic tag-group machinery --------------------------------------------


def _split_surface(chunk: str) -> tuple[str, str]:
    """Split the text before a tag group into (leading text, surface word)."""
    trimmed = chunk.rstrip()
    if not trimmed:
        return chunk, ""
    m = re.search(r"(\S+)\Z", trimmed)
    return trimmed[: m.start()], m.group(1)


def _tag_groups(body: str, pattern: re.Pattern) -> list[list[re.Match]]:
    """Split matches into runs separated only by whitespace."""
    groups: list[list[re.Match]] = []
    for m in pattern.finditer(body):
        if groups and not body[groups[-1][-1].end() : m.start()].strip():
            groups[-1].append(m)
        else:
            groups.append([m])
    return groups


def _segments_from_tags(body: str) -> tuple[Segment, ...]:
    segments: list[Segment] = []
    cursor = 0
    for group in _tag_groups(body, _TAG_RE):
        lead, surface = _split_surface(body[cursor : group[0].start()])
        if lead:
            segments.append(TextSpan(lead))
        ids = tuple(int(m.group(1)) for m in group)
        labels = tuple(m.group(2) for m in group)
        segments.append(SegRef(instance_ids=ids, surface=surface, labels=labels))
        cursor = group[-1].end()
    tail = body[cursor:]
    if tail:
        segments.append(TextSpan(tail))
    return tuple(segments)


def _render_segment(seg: Segment, style: str) -> str:
    if isinstance(seg, TextSpan):
        return seg.text
    if style == "tags":
        marks = " ".join(f"<{i}; {lab}>" for i, lab in zip(seg.instance_ids, seg.labels))
    elif style == "tokens":
        marks = " ".join("<SEG>" for _ in seg.instance_ids)
    else:  # pure text keeps only the surface word
        return seg.surface
    return f"{seg.surface} {marks}" if seg.surface else marks


def _render_body(turn: Turn, style: str) -> str:
    return "".join(_render_segment(seg, style) for seg in turn.segments)


def render_dialogue(record: DialogueRecord) -> str:
    """Render back to marker form with inline <id; label> tags."""
    return "\n".join(f"<{t.role}>: {_render_body(t, 'tags')}" for t in record.turns)


# --- shared helpers ----------------------------------------------------------


def _ann_labels(annotations) -> dict[int, str]:
    """Normalize the known instances to an id -> label mapping."""
    if isinstance(annotations, Mapping):
        out = {}
        for key, value in annotations.items():
            out[int(key)] = value if isinstance(value, str) else value.label_name
        return out
    return {a.instance_id: a.label_name for a in annotations}


def _line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def _hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check_refs(
    segments: Sequence[Segment],
    labels: Mapping[int, str],
    line: Optional[int],
    diags: list[Diagnostic],
) -> bool:
    """Validate a turn's refs against known instances; True when acceptable."""
    ok = True
    seen: set[int] = set()
    for seg in segments:
        if not isinstance(seg, SegRef):
            continue
        for i, lab in zip(seg.instance_ids, seg.labels):
            if i not in labels:
                diags.append(Diagnostic("error", line, f"unknown instance id {i}"))
                ok = False
                continue
            if i in seen:
                diags.append(Diagnostic("warning", line, f"instance id {i} repeated in turn"))
            seen.add(i)
            if lab and lab.strip().lower() != labels[i].strip().lower():
                diags.append(
                    Diagnostic(
                        "warning",
                        line,
                        f"instance {i} tagged {lab!r} but annotated {labels[i]!r}",
                    )
                )
    return ok


# --- dialogue (sid) responses -------------------------------------------------


def parse_sid_response(
    text: str,
    annotations,
    *,
    image_id: Optional[int] = None,
    prompt_kind: str = "qa",
) -> ParseResult:
    """Parse a <person>:/<robot>: dialogue with inline instance tags.

    Structural violations (no markers, dialogue not starting with <person>,
    broken alternation, tags inside a person turn, unknown instance ids)
    reject the record; the diagnostics say why.
    """
    labels = _ann_labels(annotations)
    diags: list[Diagnostic] = []
    if not text.strip():
        diags.append(Diagnostic("error", None, "empty response"))
        return ParseResult(None, tuple(diags))
    markers = list(_MARKER_RE.finditer(text))
    if not markers:
        diags.append(Diagnostic("error", None, "no <person>/<robot> markers found"))
        return ParseResult(None, tuple(diags))
    if text[: markers[0].start()].strip():
        diags.append(Diagnostic("warning", 1, "text before the first speaker marker ignored"))

    turns: list[Turn] = []
    rejected = False
    for n, m in enumerate(markers):
        role = m.group(1)
        end = markers[n + 1].start() if n + 1 < len(markers) else len(text)
        body = text[m.end() : end].strip()
        line = _line_of(text, m.start())
        expected = "person" if n % 2 == 0 else "robot"
        if role != expected:
            diags.append(
                Diagnostic(
                    "error", line, f"expected <{expected}> turn, found <{role}>"
                )
            )
            rejected = True
            continue
        if role == "person":
            if _TAG_RE.search(body):
                diags.append(
                    Diagnostic("error", line, "segmentation tag inside a person turn")
                )
                rejected = True
                continue
            segments: tuple[Segment, ...] = (TextSpan(body),) if body else ()
        else:
            segments = _segments_from_tags(body)
            if not _check_refs(segments, labels, line, diags):
                rejected = True
                continue
        turns.append(Turn(role=role, segments=segments))

    if rejected:
        return ParseResult(None, tuple(diags))
    has_refs = any(isinstance(s, SegRef) for t in turns for s in t.segments)
    record = DialogueRecord(
        image_id=image_id,
        turns=tuple(turns),
        task_mode="sid_instseg" if has_refs else "pure_text",
        provenance=Provenance(prompt_kind=prompt_kind, response_hash=_hash(text)),
    )
    return ParseResult(record, tuple(diags))


# --- multi-question grounding responses ---------------------------------------


def parse_instseg_response(text: str, annotations, max_questions: int = 5) -> InstSegParse:
    """Extract Q[n]:/A[n]: pairs whose answers list instance ids.

    Pairs referencing unknown ids, unanswered questions, and answers without a
    single parseable clause are rejected into the diagnostics; at most
    `max_questions` pairs are kept, lowest indices first.
    """
    labels = _ann_labels(annotations)
    diags: list[Diagnostic] = []
    questions: dict[int, str] = {}
    answers: dict[int, tuple[int, str]] = {}  # index -> (line_no, content)
    for line_no, line in enumerate(text.splitlines(), 1):
        m = _QA_LINE_RE.match(line)
        if not m:
            if _QA_LOOKALIKE_RE.match(line):
                diags.append(Diagnostic("warning", line_no, "malformed question/answer line"))
            continue
        kind, idx, content = m.group(1), int(m.group(2)), m.group(3)
        if idx < 1:
            diags.append(Diagnostic("warning", line_no, f"{kind}{idx}: index must be >= 1"))
            continue
        if kind == "Q":
            if idx in questions:
                diags.append(Diagnostic("warning", line_no, f"duplicate Q{idx} ignored"))
            else:
                questions[idx] = content
        else:
            if idx in answers:
                diags.append(Diagnostic("warning", line_no, f"duplicate A{idx} ignored"))
            else:
                answers[idx] = (line_no, content)

    qas: list[InstSegQA] = []
    for idx in sorted(set(questions) | set(answers)):
        if idx not in answers:
            diags.append(Diagnostic("warning", None, f"Q{idx} has no answer"))
            continue
        line_no, content = answers[idx]
        if idx not in questions or not questions[idx].strip():
            diags.append(Diagnostic("warning", line_no, f"A{idx} has no question"))
            continue
        pairs: list[tuple[int, str]] = []
        unknown: list[int] = []
        for clause in content.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            cm = _CLAUSE_RE.search(clause)
            if not cm:
                diags.append(
                    Diagnostic("warning", line_no, f"unparseable answer clause {clause[:60]!r}")
                )
                continue
            instance_id = int(cm.group(1))
            label = cm.group(2).strip()
            if instance_id not in labels:
                unknown.append(instance_id)
                continue
            if label and label.lower() != labels[instance_id].strip().lower():
                diags.append(
                    Diagnostic(
                        "warning",
                        line_no,
                        f"instance {instance_id} tagged {label!r} but annotated "
                        f"{labels[instance_id]!r}",
                    )
                )
            pairs.append((instance_id, label))
        if unknown:
            diags.append(
                Diagnostic(
                    "error",
                    line_no,
                    f"A{idx} references unknown instance id(s) {sorted(set(unknown))}",
                )
            )
            continue
        if not pairs:
            diags.append(Diagnostic("warning", line_no, f"A{idx} has no valid clauses"))
            continue
        qas.append(InstSegQA(index=idx, question=questions[idx], answers=tuple(pairs)))

    if len(qas) > max_questions:
        diags.append(
            Diagnostic(
                "warning",
                None,
                f"response has {len(qas)} questions, first {max_questions} kept",
            )
        )
        qas = qas[:max_questions]
    return InstSegParse(qas=tuple(qas), diagnostics=tuple(diags))


def parse_instseg_records(
    text: str,
    annotations,
    *,
    image_id: Optional[int] = None,
) -> tuple[list[DialogueRecord], tuple[Diagnostic, ...]]:
    """Lower each parsed QA pair to a two-turn instance-supervision record."""
    parsed = parse_instseg_response(text, annotations)
    response_hash = _hash(text)
    records = []
    for qa in parsed.qas:
        ref = SegRef(
            instance_ids=tuple(i for i, _ in qa.answers),
            surface="",
            labels=tuple(lab for _, lab in qa.answers),
        )
        records.append(
            DialogueRecord(
                image_id=image_id,
                turns=(
                    Turn("person", (TextSpan(qa.question),)),
                    Turn("robot", (ref,)),
                ),
                task_mode="instseg",
                provenance=Provenance(prompt_kind="instseg", response_hash=response_hash),
            )
        )
    return records, parsed.diagnostics


# --- caption responses ---------------------------------------------------------


def parse_caption_response(
    text: str,
    annotations,
    *,
    image_id: Optional[int] = None,
) -> ParseResult:
    """Parse a single Q1:/A1: captioning pair.

    Lines between an answer line and the next question line continue the
    answer. A tag-free answer still yields a record, as pure text.
    """
    labels = _ann_labels(annotations)
    diags: list[Diagnostic] = []
    items: dict[tuple[str, int], tuple[int, str]] = {}
    current: Optional[tuple[str, int]] = None
    for line_no, line in enumerate(text.splitlines(), 1):
        m = _QA_LINE_RE.match(line)
        if m:
            kind, idx = m.group(1), int(m.group(2))
            if (kind, idx) in items:
                diags.append(Diagnostic("warning", line_no, f"duplicate {kind}{idx} ignored"))
                current = None
                continue
            items[(kind, idx)] = (line_no, m.group(3))
            current = (kind, idx)
        elif line.strip() and current is not None and current[0] == "A":
            line_start, body = items[current]
            items[current] = (line_start, body + "\n" + line.strip())
        elif line.strip() and current is None:
            pass  # preamble outside any pair

    q_indices = sorted(idx for kind, idx in items if kind == "Q")
    pair_idx = None
    for idx in q_indices:
        if ("A", idx) in items:
            pair_idx = idx
            break
    if pair_idx is None:
        diags.append(Diagnostic("error", None, "no complete Q/A pair found"))
        return ParseResult(None, tuple(diags))
    if len([i for i in q_indices if ("A", i) in items]) > 1:
        diags.append(Diagnostic("warning", None, "multiple QA pairs found, first kept"))

    q_line, question = items[("Q", pair_idx)]
    a_line, answer = items[("A", pair_idx)]
    if _TAG_RE.search(question):
        diags.append(Diagnostic("error", q_line, "segmentation tag inside the question"))
        return ParseResult(None, tuple(diags))
    segments = _segments_from_tags(answer)
    if not _check_refs(segments, labels, a_line, diags):
        return ParseResult(None, tuple(diags))
    has_refs = any(isinstance(s, SegRef) for s in segments)
    record = DialogueRecord(
        image_id=image_id,
        turns=(
            Turn("person", (TextSpan(question),) if question else ()),
            Turn("robot", segments),
        ),
        task_mode="sid_instseg" if has_refs else "pure_text",
        provenance=Provenance(prompt_kind="caption", response_hash=_hash(text)),
    )
    return ParseResult(record, tuple(diags))


# --- training-record serialization ---------------------------------------------


def to_training_record(record: DialogueRecord) -> SerializedRecord:
    """Rewrite inline tags as <SEG> slots; the k-th slot owns the k-th seg id."""
    turns = tuple(
        SerializedTurn(role=t.role, text=_render_body(t, "tokens"), seg_ids=t.seg_ids())
        for t in record.turns
    )
    return SerializedRecord(
        image_id=record.image_id,
        task_mode=record.task_mode,
        turns=turns,
        provenance=record.provenance,
    )


def from_training_record(
    serialized: SerializedRecord,
    annotations=None,
) -> DialogueRecord:
    """Rebuild dialogue structure from <SEG> slots and positional seg ids."""
    labels = _ann_labels(annotations) if annotations is not None else {}
    turns = []
    for n, st in enumerate(serialized.turns):
        token_count = len(_SEG_TOKEN_RE.findall(st.text))
        if token_count != len(st.seg_ids):
            raise ValueError(
                f"turn {n}: {token_count} <SEG> slots but {len(st.seg_ids)} seg_ids"
            )
        segments: list[Segment] = []
        cursor = 0
        queue = list(st.seg_ids)
        for group in _tag_groups(st.text, _SEG_TOKEN_RE):
            lead, surface = _split_surface(st.text[cursor : group[0].start()])
            if lead:
                segments.append(TextSpan(lead))
            ids = tuple(queue.pop(0) for _ in group)
            segments.append(
                SegRef(
                    instance_ids=ids,
                    surface=surface,
                    labels=tuple(labels.get(i, "") for i in ids),
                )
            )
            cursor = group[-1].end()
        tail = st.text[cursor:]
        if tail:
            segments.append(TextSpan(tail))
        turns.append(Turn(role=st.role, segments=tuple(segments)))
    return DialogueRecord(
        image_id=serialized.image_id,
        turns=tuple(turns),
        task_mode=serialized.task_mode,
        provenance=serialized.provenance,
    )
