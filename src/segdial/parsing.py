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

import re
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, Union

from segdial.dataset_io import TASK_MODES

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

_TAG_RE = re.compile(r"<\s*(\d+)\s*;\s*([^<>]*?)\s*>")
_SEG_TOKEN_RE = re.compile(r"<SEG>")
_MARKER_RE = re.compile(r"<(person|robot)>\s*:")
_QA_LINE_RE = re.compile(r"^\s*([QA])\s*(\d+)\s*:\s*(.*?)\s*$")
_QA_LOOKALIKE_RE = re.compile(r"^\s*[QA]\s*\d")
_CLAUSE_RE = re.compile(
    r"instance\s+id\s+is\s+\[?(\d+)\]?\s*,\s*label\s+name\s+is\s+\[?(.+?)\]?\s*$",
    re.IGNORECASE,
)


# Checked record types (SegRef, Turn, DialogueRecord) check in __new__,
# which `_make` and `_replace` skip: rebuild them through the constructor.


class TextSpan(NamedTuple):
    text: str


class _SegRefFields(NamedTuple):
    instance_ids: tuple[int, ...]
    surface: str = ""
    labels: tuple[str, ...] = ()


class SegRef(_SegRefFields):
    """Inline reference: the surface word plus the instance ids tagged onto it."""

    __slots__ = ()

    def __new__(cls, instance_ids, surface="", labels=()):
        ids = tuple(int(i) for i in instance_ids)
        labels = tuple(labels) if labels else tuple("" for _ in ids)
        if not ids:
            raise ValueError("SegRef needs at least one instance id")
        if len(labels) != len(ids):
            raise ValueError("SegRef labels must pair up with instance ids")
        return tuple.__new__(cls, (ids, surface, labels))


Segment = Union[TextSpan, SegRef]


class _TurnFields(NamedTuple):
    role: str  # person | robot
    segments: tuple[Segment, ...] = ()


class Turn(_TurnFields):
    __slots__ = ()

    def __new__(cls, role, segments=()):
        if role not in ("person", "robot"):
            raise ValueError(f"unknown role {role!r}")
        return tuple.__new__(cls, (role, tuple(segments)))

    def seg_ids(self) -> tuple[int, ...]:
        out: list[int] = []
        for seg in self.segments:
            if isinstance(seg, SegRef):
                out.extend(seg.instance_ids)
        return tuple(out)


class Provenance(NamedTuple):
    prompt_kind: Optional[str] = None
    response_hash: Optional[str] = None


class _DialogueRecordFields(NamedTuple):
    image_id: Optional[int]
    turns: tuple[Turn, ...]
    task_mode: str
    provenance: Optional[Provenance] = None


class DialogueRecord(_DialogueRecordFields):
    """A parsed multi-turn exchange tied to one image."""

    __slots__ = ()

    def __new__(cls, image_id, turns, task_mode, provenance=None):
        turns = tuple(turns)
        if task_mode not in TASK_MODES:
            raise ValueError(f"unknown task_mode {task_mode!r}")
        for n, turn in enumerate(turns):
            expected = "person" if n % 2 == 0 else "robot"
            if turn.role != expected:
                raise ValueError(
                    f"turn {n} must be {expected!r}, got {turn.role!r}: "
                    "dialogues start with person and alternate"
                )
            if turn.role == "person" and any(isinstance(s, SegRef) for s in turn.segments):
                raise ValueError(f"turn {n}: person turns cannot carry segmentation refs")
        return tuple.__new__(cls, (image_id, turns, task_mode, provenance))


class Diagnostic(NamedTuple):
    severity: str  # error | warning
    line: Optional[int]
    message: str


class ParseResult(NamedTuple):
    record: Optional[DialogueRecord]
    diagnostics: tuple[Diagnostic, ...]


class InstSegQA(NamedTuple):
    """One question plus its (instance id, label-as-written) answers."""

    index: int
    question: str
    answers: tuple[tuple[int, str], ...]


class InstSegParse(NamedTuple):
    qas: tuple[InstSegQA, ...]
    diagnostics: tuple[Diagnostic, ...]


class SerializedTurn(NamedTuple):
    role: str
    text: str
    seg_ids: tuple[int, ...]


class SerializedRecord(NamedTuple):
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


def _walk_tags(body: str, pattern: re.Pattern, pair_of: Callable) -> tuple[Segment, ...]:
    """Split `body` into text spans and one SegRef per run of `pattern` matches.

    Matches separated only by whitespace form one run, which owns the word
    right before it; `pair_of(match)` gives each match's (instance id, label).
    """
    runs: list[list[re.Match]] = []
    for m in pattern.finditer(body):
        if runs and not body[runs[-1][-1].end() : m.start()].strip():
            runs[-1].append(m)
        else:
            runs.append([m])
    segments: list[Segment] = []
    cursor = 0
    for run in runs:
        lead, surface = _split_surface(body[cursor : run[0].start()])
        if lead:
            segments.append(TextSpan(lead))
        ids, labels = zip(*map(pair_of, run))
        segments.append(SegRef(instance_ids=ids, surface=surface, labels=labels))
        cursor = run[-1].end()
    tail = body[cursor:]
    if tail:
        segments.append(TextSpan(tail))
    return tuple(segments)


def _segments_from_tags(body: str) -> tuple[Segment, ...]:
    return _walk_tags(body, _TAG_RE, lambda m: (int(m.group(1)), m.group(2)))


def _render_segment(seg: Segment, style: str) -> str:
    if isinstance(seg, TextSpan):
        return seg.text
    if style == "tags":
        marks = " ".join(f"<{i}; {lab}>" for i, lab in zip(seg.instance_ids, seg.labels))
    else:  # "tokens"
        marks = " ".join("<SEG>" for _ in seg.instance_ids)
    return f"{seg.surface} {marks}" if seg.surface else marks


def _render_body(turn: Turn, style: str) -> str:
    return "".join(_render_segment(seg, style) for seg in turn.segments)


def render_dialogue(record: DialogueRecord) -> str:
    """Render back to marker form with inline <id; label> tags."""
    return "\n".join(f"<{t.role}>: {_render_body(t, 'tags')}" for t in record.turns)


# --- shared helpers ----------------------------------------------------------


def annotations_by_id(annotations) -> dict:
    """Index known instances by id: a mapping keyed by id, or an iterable of annotations."""
    if isinstance(annotations, Mapping):
        return {int(k): v for k, v in annotations.items()}
    return {a.instance_id: a for a in annotations}


def _ann_labels(annotations) -> dict[int, str]:
    by_id = annotations_by_id(annotations)
    return {i: a if isinstance(a, str) else a.label_name for i, a in by_id.items()}


def _line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def _hash(text: str) -> str:
    import hashlib  # here, so that only parsing a response pays for loading it

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
            _check_label(i, lab, labels, line, diags)
    return ok


def _check_label(i: int, label: str, labels: Mapping[int, str], line, diags) -> None:
    """Warn when a written label differs from the annotated one beyond case and spacing."""
    if label and label.strip().lower() != labels[i].strip().lower():
        message = f"instance {i} tagged {label!r} but annotated {labels[i]!r}"
        diags.append(Diagnostic("warning", line, message))


def _dialogue_result(turns, diags, text: str, image_id, prompt_kind: str) -> ParseResult:
    """A sid_instseg record when any turn holds a reference, else a pure_text one."""
    task_mode = "sid_instseg" if any(t.seg_ids() for t in turns) else "pure_text"
    provenance = Provenance(prompt_kind=prompt_kind, response_hash=_hash(text))
    return ParseResult(DialogueRecord(image_id, tuple(turns), task_mode, provenance), tuple(diags))


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
    return _dialogue_result(turns, diags, text, image_id, prompt_kind)


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
            _check_label(instance_id, label, labels, line_no, diags)
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

    complete = sorted(idx for kind, idx in items if kind == "Q" and ("A", idx) in items)
    if not complete:
        diags.append(Diagnostic("error", None, "no complete Q/A pair found"))
        return ParseResult(None, tuple(diags))
    if len(complete) > 1:
        diags.append(Diagnostic("warning", None, "multiple QA pairs found, first kept"))

    q_line, question = items[("Q", complete[0])]
    a_line, answer = items[("A", complete[0])]
    if _TAG_RE.search(question):
        diags.append(Diagnostic("error", q_line, "segmentation tag inside the question"))
        return ParseResult(None, tuple(diags))
    segments = _segments_from_tags(answer)
    if not _check_refs(segments, labels, a_line, diags):
        return ParseResult(None, tuple(diags))
    turns = (Turn("person", (TextSpan(question),) if question else ()), Turn("robot", segments))
    return _dialogue_result(turns, diags, text, image_id, "caption")


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
        slots = iter([(i, labels.get(i, "")) for i in st.seg_ids])
        segments = _walk_tags(st.text, _SEG_TOKEN_RE, lambda _: next(slots))
        turns.append(Turn(role=st.role, segments=segments))
    return DialogueRecord(
        image_id=serialized.image_id,
        turns=tuple(turns),
        task_mode=serialized.task_mode,
        provenance=serialized.provenance,
    )
