import hashlib
import random
import re
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import pytest

from conftest import ann_from_mask, random_canonical_dialogue, rect_mask
from segdial.parsing import (
    TASK_MODES,
    Diagnostic,
    DialogueRecord,
    InstSegParse,
    InstSegQA,
    ParseResult,
    Provenance,
    SegRef,
    Segment,
    SerializedRecord,
    SerializedTurn,
    TextSpan,
    Turn,
    from_training_record,
    parse_caption_response,
    parse_instseg_records,
    parse_instseg_response,
    parse_sid_response,
    render_dialogue,
    to_training_record,
)

KEYBOARDS = {34494: "keyboard", 31264: "keyboard"}
CANONICAL = (
    "<person>: Where are the keyboards?\n"
    "<robot>: keyboards <34494; keyboard> <31264; keyboard>"
)


def errors(diags):
    return [d for d in diags if d.severity == "error"]


def warnings(diags):
    return [d for d in diags if d.severity == "warning"]


class TestModel:
    def test_task_modes(self):
        assert TASK_MODES == ("semseg", "instseg", "sid_semseg", "sid_instseg", "pure_text")

    def test_segref_needs_ids_and_paired_labels(self):
        ref = SegRef(instance_ids=(3, 4))
        assert ref.labels == ("", "")
        with pytest.raises(ValueError):
            SegRef(instance_ids=())
        with pytest.raises(ValueError):
            SegRef(instance_ids=(1, 2), labels=("only-one",))

    def test_turn_collects_seg_ids_in_order(self):
        turn = Turn(
            "robot",
            (
                SegRef(instance_ids=(5,), surface="cat"),
                TextSpan(" and "),
                SegRef(instance_ids=(9, 2), surface="dogs"),
            ),
        )
        assert turn.seg_ids() == (5, 9, 2)
        with pytest.raises(ValueError):
            Turn("narrator", ())

    def test_dialogue_must_alternate_starting_with_person(self):
        person = Turn("person", (TextSpan("hi"),))
        robot = Turn("robot", (TextSpan("hello"),))
        DialogueRecord(image_id=1, turns=(person, robot, person), task_mode="pure_text")
        with pytest.raises(ValueError, match="turn 0 must be 'person'"):
            DialogueRecord(image_id=1, turns=(robot,), task_mode="pure_text")
        with pytest.raises(ValueError, match="turn 1 must be 'robot'"):
            DialogueRecord(image_id=1, turns=(person, person), task_mode="pure_text")

    def test_person_turns_cannot_carry_refs(self):
        tagged = Turn("person", (SegRef(instance_ids=(1,), surface="x"),))
        with pytest.raises(ValueError, match="person turns cannot carry"):
            DialogueRecord(image_id=1, turns=(tagged,), task_mode="pure_text")

    def test_unknown_task_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown task_mode"):
            DialogueRecord(image_id=1, turns=(), task_mode="freeform")


class TestParseSid:
    def test_canonical_two_keyboard_example(self):
        result = parse_sid_response(CANONICAL, KEYBOARDS, image_id=42)
        assert result.diagnostics == ()
        rec = result.record
        assert rec.image_id == 42
        assert rec.task_mode == "sid_instseg"
        assert rec.turns[0] == Turn("person", (TextSpan("Where are the keyboards?"),))
        ref = rec.turns[1].segments[0]
        assert isinstance(ref, SegRef)
        assert ref.surface == "keyboards"
        assert ref.instance_ids == (34494, 31264)
        assert ref.labels == ("keyboard", "keyboard")
        assert rec.provenance == Provenance(
            prompt_kind="qa",
            response_hash=hashlib.sha256(CANONICAL.encode("utf-8")).hexdigest(),
        )

    def test_interleaved_text_splits_reference_groups(self):
        text = "<person>: What is on the desk?\n<robot>: a cat <7; cat> beside a lamp <9; lamp>."
        rec = parse_sid_response(text, {7: "cat", 9: "lamp"}).record
        segs = rec.turns[1].segments
        assert [type(s).__name__ for s in segs] == ["TextSpan", "SegRef", "TextSpan", "SegRef", "TextSpan"]
        assert segs[1].surface == "cat" and segs[3].surface == "lamp"
        assert rec.turns[1].seg_ids() == (7, 9)
        assert segs[4] == TextSpan(".")

    def test_leading_tag_has_empty_surface(self):
        text = "<person>: go\n<robot>: <5; cat> sits here"
        rec = parse_sid_response(text, {5: "cat"}).record
        assert rec.turns[1].segments[0] == SegRef(instance_ids=(5,), surface="", labels=("cat",))
        assert rec.turns[1].segments[1] == TextSpan(" sits here")

    def test_tag_spacing_variants_normalize(self):
        text = "<person>: go\n<robot>: cats <5;cat> < 9 ;  cat >"
        rec = parse_sid_response(text, {5: "cat", 9: "cat"}).record
        ref = rec.turns[1].segments[0]
        assert ref.instance_ids == (5, 9)
        assert ref.labels == ("cat", "cat")

    def test_unknown_instance_id_rejects(self):
        result = parse_sid_response("<person>: hi\n<robot>: cat <777; cat>", {5: "cat"})
        assert result.record is None
        assert any("unknown instance id 777" in d.message for d in errors(result.diagnostics))

    def test_label_mismatch_warns_but_keeps(self):
        result = parse_sid_response("<person>: hi\n<robot>: dog <5; dog>", {5: "cat"})
        assert result.record is not None
        assert any("tagged 'dog' but annotated 'cat'" in d.message for d in warnings(result.diagnostics))

    def test_repeated_id_in_turn_warns(self):
        result = parse_sid_response(
            "<person>: hi\n<robot>: cats <5; cat> <5; cat>", {5: "cat"}
        )
        assert result.record is not None
        assert any("repeated in turn" in d.message for d in warnings(result.diagnostics))

    def test_tag_in_person_turn_rejects(self):
        result = parse_sid_response("<person>: what about <5; cat>?\n<robot>: yes", {5: "cat"})
        assert result.record is None
        assert any("person turn" in d.message for d in errors(result.diagnostics))

    def test_dialogue_must_start_with_person(self):
        result = parse_sid_response("<robot>: hello", {})
        assert result.record is None
        assert any("expected <person> turn, found <robot>" in d.message for d in errors(result.diagnostics))

    def test_broken_alternation_rejects(self):
        result = parse_sid_response("<person>: a\n<person>: b", {})
        assert result.record is None
        assert any("expected <robot> turn" in d.message for d in errors(result.diagnostics))

    def test_no_markers_rejects(self):
        result = parse_sid_response("just prose, no speakers", {})
        assert result.record is None
        assert any("no <person>/<robot> markers" in d.message for d in errors(result.diagnostics))

    def test_empty_response_rejects(self):
        result = parse_sid_response("   \n ", {})
        assert result.record is None

    def test_preamble_warns_and_is_dropped(self):
        result = parse_sid_response("Sure, here you go:\n" + CANONICAL, KEYBOARDS)
        assert result.record is not None
        assert any("before the first speaker marker" in d.message for d in warnings(result.diagnostics))
        assert render_dialogue(result.record) == CANONICAL

    def test_tag_free_dialogue_is_pure_text(self):
        rec = parse_sid_response("<person>: how are you?\n<robot>: fine, thanks", {}).record
        assert rec.task_mode == "pure_text"
        assert rec.turns[1] == Turn("robot", (TextSpan("fine, thanks"),))

    def test_annotation_objects_accepted_as_known_instances(self):
        ann = ann_from_mask(5, 1, "cat", rect_mask(8, 8, 0, 0, 2, 2))
        result = parse_sid_response("<person>: hi\n<robot>: cat <5; cat>", [ann])
        assert result.record is not None and result.diagnostics == ()


class TestRenderRoundTrip:
    def test_render_reproduces_canonical_text(self):
        rec = parse_sid_response(CANONICAL, KEYBOARDS).record
        assert render_dialogue(rec) == CANONICAL

    def test_random_canonical_dialogues_round_trip(self):
        for seed in range(60):
            text, annotations = random_canonical_dialogue(random.Random(5200 + seed))
            result = parse_sid_response(text, annotations)
            assert result.diagnostics == (), (seed, result.diagnostics)
            assert render_dialogue(result.record) == text
            again = parse_sid_response(render_dialogue(result.record), annotations)
            assert again.record.turns == result.record.turns
            assert again.record.task_mode == result.record.task_mode


INSTSEG_RESPONSE = """Q1: What do people type on?
A1: instance id is 34494, label name is keyboard; instance id is 31264, label name is keyboard
Q2: What lights the room?
A2: instance id is 9, label name is lamp"""

INSTSEG_ANNS = {34494: "keyboard", 31264: "keyboard", 9: "lamp"}


class TestParseInstseg:
    def test_canonical_two_question_response(self):
        parsed = parse_instseg_response(INSTSEG_RESPONSE, INSTSEG_ANNS)
        assert parsed.diagnostics == ()
        assert [qa.index for qa in parsed.qas] == [1, 2]
        assert parsed.qas[0].question == "What do people type on?"
        assert parsed.qas[0].answers == ((34494, "keyboard"), (31264, "keyboard"))
        assert parsed.qas[1].answers == ((9, "lamp"),)

    def test_bracketed_clause_form(self):
        parsed = parse_instseg_response(
            "Q1: find the dog\nA1: instance id is [123], label name is [dog]", {123: "dog"}
        )
        assert parsed.qas[0].answers == ((123, "dog"),)

    def test_clause_match_is_case_insensitive(self):
        parsed = parse_instseg_response(
            "Q1: find it\nA1: Instance ID is 5, Label Name is cat", {5: "cat"}
        )
        assert parsed.qas[0].answers == ((5, "cat"),)

    def test_keeps_lowest_five_of_many(self):
        lines = []
        for i in range(1, 8):
            lines.append(f"Q{i}: question {i}?")
            lines.append(f"A{i}: instance id is {i}, label name is cat")
        anns = {i: "cat" for i in range(1, 8)}
        parsed = parse_instseg_response("\n".join(lines), anns)
        assert [qa.index for qa in parsed.qas] == [1, 2, 3, 4, 5]
        assert any("first 5 kept" in d.message for d in parsed.diagnostics)
        wider = parse_instseg_response("\n".join(lines), anns, max_questions=7)
        assert len(wider.qas) == 7

    def test_out_of_order_lines_sort_by_index(self):
        text = "A2: instance id is 9, label name is lamp\nQ2: lights?\nQ1: type?\nA1: instance id is 9, label name is lamp"
        parsed = parse_instseg_response(text, {9: "lamp"})
        assert [qa.index for qa in parsed.qas] == [1, 2]

    def test_unknown_id_drops_the_pair(self):
        parsed = parse_instseg_response(
            "Q1: what?\nA1: instance id is 5, label name is cat; instance id is 777, label name is cat",
            {5: "cat"},
        )
        assert parsed.qas == ()
        assert any(
            "unknown instance id(s) [777]" in d.message for d in errors(parsed.diagnostics)
        )

    def test_unanswered_question_warned_and_skipped(self):
        parsed = parse_instseg_response("Q1: what?\nQ2: where?\nA1: instance id is 5, label name is cat", {5: "cat"})
        assert [qa.index for qa in parsed.qas] == [1]
        assert any("Q2 has no answer" in d.message for d in parsed.diagnostics)

    def test_answer_without_question_warned(self):
        parsed = parse_instseg_response("A3: instance id is 5, label name is cat", {5: "cat"})
        assert parsed.qas == ()
        assert any("A3 has no question" in d.message for d in parsed.diagnostics)

    def test_label_mismatch_warns_but_keeps(self):
        parsed = parse_instseg_response(
            "Q1: what?\nA1: instance id is 5, label name is dog", {5: "cat"}
        )
        assert parsed.qas[0].answers == ((5, "dog"),)
        assert any("tagged 'dog' but annotated 'cat'" in d.message for d in parsed.diagnostics)

    def test_unparseable_clauses_warned_and_skipped(self):
        parsed = parse_instseg_response(
            "Q1: what?\nA1: the cat is cute; instance id is 5, label name is cat", {5: "cat"}
        )
        assert parsed.qas[0].answers == ((5, "cat"),)
        assert any("unparseable answer clause" in d.message for d in parsed.diagnostics)
        empty = parse_instseg_response("Q1: what?\nA1: nothing useful here", {5: "cat"})
        assert empty.qas == ()
        assert any("A1 has no valid clauses" in d.message for d in empty.diagnostics)

    def test_duplicates_and_bad_indices_warned(self):
        text = "Q1: a?\nQ1: b?\nA1: instance id is 5, label name is cat\nA1: instance id is 5, label name is cat\nQ0: zero?"
        parsed = parse_instseg_response(text, {5: "cat"})
        messages = [d.message for d in parsed.diagnostics]
        assert "duplicate Q1 ignored" in messages
        assert "duplicate A1 ignored" in messages
        assert any("index must be >= 1" in m for m in messages)
        assert parsed.qas[0].question == "a?"

    def test_lookalike_line_warned(self):
        parsed = parse_instseg_response("Q1 what is this\nQ1: ok?\nA1: instance id is 5, label name is cat", {5: "cat"})
        assert any("malformed question/answer line" in d.message for d in parsed.diagnostics)
        assert len(parsed.qas) == 1


class TestParseInstsegRecords:
    def test_each_pair_becomes_a_two_turn_record(self):
        records, diags = parse_instseg_records(INSTSEG_RESPONSE, INSTSEG_ANNS, image_id=7)
        assert diags == ()
        assert len(records) == 2
        first = records[0]
        assert first.image_id == 7
        assert first.task_mode == "instseg"
        assert first.turns[0] == Turn("person", (TextSpan("What do people type on?"),))
        ref = first.turns[1].segments[0]
        assert ref.instance_ids == (34494, 31264)
        assert ref.surface == ""
        assert first.provenance.prompt_kind == "instseg"
        assert first.provenance.response_hash == hashlib.sha256(
            INSTSEG_RESPONSE.encode("utf-8")
        ).hexdigest()

    def test_bad_response_yields_no_records(self):
        records, diags = parse_instseg_records("total nonsense", INSTSEG_ANNS)
        assert records == []


CAPTION_RESPONSE = (
    "Q1: What does the image show?\n"
    "A1: Two cats <3; cat> <4; cat> lounging on a sofa <9; sofa>."
)
CAPTION_ANNS = {3: "cat", 4: "cat", 9: "sofa"}


class TestParseCaption:
    def test_canonical_caption_pair(self):
        result = parse_caption_response(CAPTION_RESPONSE, CAPTION_ANNS, image_id=3)
        assert result.diagnostics == ()
        rec = result.record
        assert rec.task_mode == "sid_instseg"
        assert rec.turns[0] == Turn("person", (TextSpan("What does the image show?"),))
        assert rec.turns[1].seg_ids() == (3, 4, 9)
        assert rec.provenance.prompt_kind == "caption"

    def test_continuation_lines_extend_the_answer(self):
        text = "Q1: describe\nA1: A cat <3; cat> sits.\nNearby rests a sofa <9; sofa>."
        rec = parse_caption_response(text, CAPTION_ANNS).record
        body = "".join(
            s.text if isinstance(s, TextSpan) else f"{s.surface} ..."
            for s in rec.turns[1].segments
        )
        assert "\n" in body
        assert rec.turns[1].seg_ids() == (3, 9)

    def test_tag_free_answer_is_pure_text(self):
        rec = parse_caption_response("Q1: describe\nA1: a cozy room", {}).record
        assert rec.task_mode == "pure_text"

    def test_no_pair_rejects(self):
        result = parse_caption_response("nothing here", {})
        assert result.record is None
        assert any("no complete Q/A pair" in d.message for d in errors(result.diagnostics))
        lone_q = parse_caption_response("Q1: anyone?", {})
        assert lone_q.record is None

    def test_multiple_pairs_keep_first_with_warning(self):
        text = CAPTION_RESPONSE + "\nQ2: more?\nA2: a lamp"
        result = parse_caption_response(text, CAPTION_ANNS)
        assert result.record.turns[1].seg_ids() == (3, 4, 9)
        assert any("first kept" in d.message for d in warnings(result.diagnostics))

    def test_tag_in_question_rejects(self):
        result = parse_caption_response("Q1: about <3; cat>?\nA1: yes", CAPTION_ANNS)
        assert result.record is None

    def test_unknown_id_rejects(self):
        result = parse_caption_response("Q1: show?\nA1: a bird <777; bird>", CAPTION_ANNS)
        assert result.record is None

    def test_duplicate_pair_ignored_with_warning(self):
        text = CAPTION_RESPONSE + "\nA1: another answer"
        result = parse_caption_response(text, CAPTION_ANNS)
        assert any("duplicate A1 ignored" in d.message for d in warnings(result.diagnostics))
        assert result.record.turns[1].seg_ids() == (3, 4, 9)


class TestTrainingRecords:
    def test_tags_become_seg_slots(self):
        rec = parse_sid_response(CANONICAL, KEYBOARDS, image_id=1).record
        ser = to_training_record(rec)
        assert ser.image_id == 1
        assert ser.task_mode == "sid_instseg"
        assert ser.turns[0] == SerializedTurn("person", "Where are the keyboards?", ())
        assert ser.turns[1] == SerializedTurn("robot", "keyboards <SEG> <SEG>", (34494, 31264))
        assert ser.provenance == rec.provenance

    def test_from_training_record_inverts(self):
        rec = parse_sid_response(CANONICAL, KEYBOARDS, image_id=1).record
        back = from_training_record(to_training_record(rec), KEYBOARDS)
        assert back == rec

    def test_from_training_record_without_labels(self):
        rec = parse_sid_response(CANONICAL, KEYBOARDS).record
        back = from_training_record(to_training_record(rec))
        ref = back.turns[1].segments[0]
        assert ref.instance_ids == (34494, 31264)
        assert ref.labels == ("", "")

    def test_slot_count_must_match_seg_ids(self):
        ser = SerializedRecord(
            image_id=1,
            task_mode="sid_instseg",
            turns=(
                SerializedTurn("person", "hi", ()),
                SerializedTurn("robot", "cats <SEG>", (3, 4)),
            ),
        )
        with pytest.raises(ValueError, match="1 <SEG> slots but 2 seg_ids"):
            from_training_record(ser)

    def test_slots_consume_ids_positionally(self):
        ser = SerializedRecord(
            image_id=None,
            task_mode="sid_instseg",
            turns=(
                SerializedTurn("person", "where?", ()),
                SerializedTurn("robot", "cat <SEG> and dogs <SEG> <SEG>", (3, 9, 11)),
            ),
        )
        rec = from_training_record(ser, {3: "cat", 9: "dog", 11: "dog"})
        first, second = [s for s in rec.turns[1].segments if isinstance(s, SegRef)]
        assert first.instance_ids == (3,) and first.surface == "cat"
        assert second.instance_ids == (9, 11) and second.surface == "dogs"
        assert second.labels == ("dog", "dog")

    def test_random_records_round_trip_through_training_form(self):
        for seed in range(60):
            text, annotations = random_canonical_dialogue(random.Random(9100 + seed))
            rec = parse_sid_response(text, annotations).record
            back = from_training_record(to_training_record(rec), annotations)
            assert back == rec
            assert render_dialogue(back) == text


# --- the record layer against a reference copy ------------------------------------
#
# The functions below are verbatim copies of the parsers and of
# `from_training_record` from before the parsing rules were shared (one tag
# walker, one label check, one record builder, one annotation normalizer),
# renamed with a `ref` prefix. The package must return the same records and
# the same diagnostics on every input.

_REF_TAG_RE = re.compile(r"<\s*(\d+)\s*;\s*([^<>]*?)\s*>")
_REF_SEG_TOKEN_RE = re.compile(r"<SEG>")
_REF_MARKER_RE = re.compile(r"<(person|robot)>\s*:")
_REF_QA_LINE_RE = re.compile(r"^\s*([QA])\s*(\d+)\s*:\s*(.*?)\s*$")
_REF_QA_LOOKALIKE_RE = re.compile(r"^\s*[QA]\s*\d")
_REF_CLAUSE_RE = re.compile(
    r"instance\s+id\s+is\s+\[?(\d+)\]?\s*,\s*label\s+name\s+is\s+\[?(.+?)\]?\s*$",
    re.IGNORECASE,
)


def _ref_split_surface(chunk: str) -> tuple[str, str]:
    """Split the text before a tag group into (leading text, surface word)."""
    trimmed = chunk.rstrip()
    if not trimmed:
        return chunk, ""
    m = re.search(r"(\S+)\Z", trimmed)
    return trimmed[: m.start()], m.group(1)


def _ref_tag_groups(body: str, pattern: re.Pattern) -> list[list[re.Match]]:
    """Split matches into runs separated only by whitespace."""
    groups: list[list[re.Match]] = []
    for m in pattern.finditer(body):
        if groups and not body[groups[-1][-1].end() : m.start()].strip():
            groups[-1].append(m)
        else:
            groups.append([m])
    return groups


def _ref_segments_from_tags(body: str) -> tuple[Segment, ...]:
    segments: list[Segment] = []
    cursor = 0
    for group in _ref_tag_groups(body, _REF_TAG_RE):
        lead, surface = _ref_split_surface(body[cursor : group[0].start()])
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


def _ref_ann_labels(annotations) -> dict[int, str]:
    """Normalize the known instances to an id -> label mapping."""
    if isinstance(annotations, Mapping):
        out = {}
        for key, value in annotations.items():
            out[int(key)] = value if isinstance(value, str) else value.label_name
        return out
    return {a.instance_id: a.label_name for a in annotations}


def _ref_line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def _ref_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _ref_check_refs(
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


def ref_parse_sid_response(
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
    labels = _ref_ann_labels(annotations)
    diags: list[Diagnostic] = []
    if not text.strip():
        diags.append(Diagnostic("error", None, "empty response"))
        return ParseResult(None, tuple(diags))
    markers = list(_REF_MARKER_RE.finditer(text))
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
        line = _ref_line_of(text, m.start())
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
            if _REF_TAG_RE.search(body):
                diags.append(
                    Diagnostic("error", line, "segmentation tag inside a person turn")
                )
                rejected = True
                continue
            segments: tuple[Segment, ...] = (TextSpan(body),) if body else ()
        else:
            segments = _ref_segments_from_tags(body)
            if not _ref_check_refs(segments, labels, line, diags):
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
        provenance=Provenance(prompt_kind=prompt_kind, response_hash=_ref_hash(text)),
    )
    return ParseResult(record, tuple(diags))


def ref_parse_instseg_response(text: str, annotations, max_questions: int = 5) -> InstSegParse:
    """Extract Q[n]:/A[n]: pairs whose answers list instance ids.

    Pairs referencing unknown ids, unanswered questions, and answers without a
    single parseable clause are rejected into the diagnostics; at most
    `max_questions` pairs are kept, lowest indices first.
    """
    labels = _ref_ann_labels(annotations)
    diags: list[Diagnostic] = []
    questions: dict[int, str] = {}
    answers: dict[int, tuple[int, str]] = {}  # index -> (line_no, content)
    for line_no, line in enumerate(text.splitlines(), 1):
        m = _REF_QA_LINE_RE.match(line)
        if not m:
            if _REF_QA_LOOKALIKE_RE.match(line):
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
            cm = _REF_CLAUSE_RE.search(clause)
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


def ref_parse_caption_response(
    text: str,
    annotations,
    *,
    image_id: Optional[int] = None,
) -> ParseResult:
    """Parse a single Q1:/A1: captioning pair.

    Lines between an answer line and the next question line continue the
    answer. A tag-free answer still yields a record, as pure text.
    """
    labels = _ref_ann_labels(annotations)
    diags: list[Diagnostic] = []
    items: dict[tuple[str, int], tuple[int, str]] = {}
    current: Optional[tuple[str, int]] = None
    for line_no, line in enumerate(text.splitlines(), 1):
        m = _REF_QA_LINE_RE.match(line)
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
    if _REF_TAG_RE.search(question):
        diags.append(Diagnostic("error", q_line, "segmentation tag inside the question"))
        return ParseResult(None, tuple(diags))
    segments = _ref_segments_from_tags(answer)
    if not _ref_check_refs(segments, labels, a_line, diags):
        return ParseResult(None, tuple(diags))
    has_refs = any(isinstance(s, SegRef) for s in segments)
    record = DialogueRecord(
        image_id=image_id,
        turns=(
            Turn("person", (TextSpan(question),) if question else ()),
            Turn("robot", segments),
        ),
        task_mode="sid_instseg" if has_refs else "pure_text",
        provenance=Provenance(prompt_kind="caption", response_hash=_ref_hash(text)),
    )
    return ParseResult(record, tuple(diags))


def ref_from_training_record(
    serialized: SerializedRecord,
    annotations=None,
) -> DialogueRecord:
    """Rebuild dialogue structure from <SEG> slots and positional seg ids."""
    labels = _ref_ann_labels(annotations) if annotations is not None else {}
    turns = []
    for n, st in enumerate(serialized.turns):
        token_count = len(_REF_SEG_TOKEN_RE.findall(st.text))
        if token_count != len(st.seg_ids):
            raise ValueError(
                f"turn {n}: {token_count} <SEG> slots but {len(st.seg_ids)} seg_ids"
            )
        segments: list[Segment] = []
        cursor = 0
        queue = list(st.seg_ids)
        for group in _ref_tag_groups(st.text, _REF_SEG_TOKEN_RE):
            lead, surface = _ref_split_surface(st.text[cursor : group[0].start()])
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


_WORDS = ("a", "the", "cats", "Sofa", "two", "near", "it's", "x-ray", "SEG")
_PUNCT = (",", ".", "?", ";", ":", "(", ")", "<", ">", "-")
_GAPS = ("", " ", "  ", "\t", "\n", " \n ")
_LABELS = ("cat", "dog", "traffic light", "sofa")
_UNKNOWN = (40, 41)
_NOISE_LINES = ("Q1 no colon", "A2 - instance id is 3", " Q 4 what", "QA1: both", "", "  ", "prose")


@dataclass(frozen=True)
class _Ann:
    instance_id: int
    label_name: str


def _known(rng):
    """(id -> annotated label, the same instances in one of the accepted argument forms)."""
    labels = {}
    for i in rng.sample(range(1, 13), rng.randint(0, 6)):
        lab = rng.choice(_LABELS)
        labels[i] = rng.choice((lab, lab, lab.upper(), f" {lab}  ", lab.title()))
    form = rng.randrange(4)
    if form == 0:
        return labels, labels
    if form == 1:
        return labels, {str(i): _Ann(i, lab) for i, lab in labels.items()}
    if form == 2:
        return labels, {i: _Ann(i, lab) for i, lab in labels.items()}
    return labels, [_Ann(i, lab) for i, lab in labels.items()]


def _instance(rng, labels):
    return rng.choice(list(labels) + list(_UNKNOWN))


def _written(rng, labels, i):
    """The label an annotator writes for `i`: exact, recased, another one, or none."""
    lab = labels.get(i, "ghost").strip()
    return rng.choice((lab, lab.lower(), lab.upper(), lab.capitalize(), rng.choice(_LABELS), ""))


def _tag(rng, labels):
    i = _instance(rng, labels)
    pad = ("", " ", "  ")
    return (
        f"<{rng.choice(pad)}{i}{rng.choice(pad)};"
        f"{rng.choice(pad)}{_written(rng, labels, i)}{rng.choice(pad)}>"
    )


def _role(rng, t, wrong):
    """The role of turn `t` in a well-formed dialogue, or a random one with chance `wrong`."""
    roles = ("person", "robot")
    return rng.choice(roles) if rng.random() < wrong else roles[t % 2]


def _body(rng, slot=None):
    """Words, punctuation and whitespace, with runs of `slot()` between them."""
    parts = []
    for _ in range(rng.randint(0, 8)):
        r = rng.random()
        if slot is not None and r < 0.3:
            sep = rng.choice(("", " ", " ", "\n", " \t"))
            parts.append(sep.join(slot() for _ in range(rng.randint(1, 3))))
        elif r < 0.7:
            parts.append(rng.choice(_WORDS))
        elif r < 0.85:
            parts.append(rng.choice(_PUNCT))
        else:
            parts.append(rng.choice(_GAPS))
    return "".join(p + rng.choice(("", " ", " ", "  ")) for p in parts)


def _sid_response(rng, labels):
    lines = []
    if rng.random() < 0.2:
        lines.append(rng.choice(("Sure, here it is:", "Q1: hi", "  ")))
    for t in range(rng.randint(0, 5)):
        role = _role(rng, t, wrong=0.15)
        tags = role == "robot" or rng.random() < 0.15
        marker = rng.choice((f"<{role}>:", f"<{role}> :", f"<{role}>\n:"))
        body = _body(rng, (lambda: _tag(rng, labels)) if tags else None)
        lines.append(marker + rng.choice(("", " ")) + body)
    return rng.choice(("\n", "\n\n")).join(lines)


def _clause(rng, labels):
    if rng.random() < 0.1:
        return rng.choice(("the cat is cute", "", "instance id is x"))
    i = _instance(rng, labels)
    form = rng.choice(
        (
            "instance id is {i}, label name is {lab}",
            "Instance ID is [{i}], Label Name is [{lab}]",
            "instance  id is {i} , label name is  {lab} ",
        )
    )
    return form.format(i=i, lab=_written(rng, labels, i))


def _qa_response(rng, question, answer):
    """Q[n]:/A[n]: lines, some missing, repeated, zero-indexed, misspelt or out of order."""
    lines = []
    for idx in range(1, rng.randint(1, 8)):
        n = idx if rng.random() < 0.9 else rng.randint(0, 3)
        head = rng.choice(("{k}{n}:", "{k} {n} : ", " {k}{n}:"))
        if rng.random() < 0.9:
            lines.append(head.format(k="Q", n=n) + question())
        if rng.random() < 0.85:
            lines.append(head.format(k="A", n=n) + answer())
        if rng.random() < 0.25:
            lines.append(rng.choice(_NOISE_LINES + (_body(rng),)))
    if rng.random() < 0.2:
        rng.shuffle(lines)
    if rng.random() < 0.2:
        lines.insert(0, "Here you go:")
    return "\n".join(lines)


def _instseg_response(rng, labels):
    def answer():
        sep = rng.choice((";", "; ", " ; ", ";; "))
        return sep.join(_clause(rng, labels) for _ in range(rng.randint(1, 3)))

    return _qa_response(rng, lambda: rng.choice(("What is this?", "", "which one")), answer)


def _caption_response(rng, labels):
    def question():
        return _body(rng, (lambda: _tag(rng, labels)) if rng.random() < 0.1 else None)

    return _qa_response(rng, question, lambda: _body(rng, lambda: _tag(rng, labels)))


def _serialized(rng, labels):
    turns = []
    for t in range(rng.randint(0, 4)):
        role = _role(rng, t, wrong=0.1)
        text = _body(rng, (lambda: "<SEG>") if role == "robot" or rng.random() < 0.1 else None)
        k = text.count("<SEG>")
        if rng.random() < 0.05:
            k = abs(k + rng.choice((-1, 1)))
        turns.append(SerializedTurn(role, text, tuple(_instance(rng, labels) for _ in range(k))))
    return SerializedRecord(
        image_id=rng.choice((None, 3)),
        task_mode=rng.choice(TASK_MODES),
        turns=tuple(turns),
        provenance=rng.choice((None, Provenance("qa", "0" * 64))),
    )


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


class TestRecordLayerMatchesReference:
    CASES = 2000

    def test_parsers_and_training_records_match_the_reference_copies(self):
        messages: set[str] = set()
        refs = []  # (annotated labels, SegRef) of every accepted record
        continued = 0  # accepted captions whose answer runs over several lines
        for seed in range(self.CASES):
            rng = random.Random(70_000 + seed)
            labels, annotations = _known(rng)
            image_id = rng.choice((None, 7))

            text = _sid_response(rng, labels)
            kind = rng.choice(("qa", "caption"))
            args = (text, annotations)
            got = _outcome(parse_sid_response, *args, image_id=image_id, prompt_kind=kind)
            want = ref_parse_sid_response(*args, image_id=image_id, prompt_kind=kind)
            assert got == want, (seed, text)
            results = [want]

            text = _instseg_response(rng, labels)
            limit = rng.randint(1, 6)
            got = _outcome(parse_instseg_response, text, annotations, max_questions=limit)
            want = ref_parse_instseg_response(text, annotations, max_questions=limit)
            assert got == want, (seed, text)
            messages.update(d.message for d in want.diagnostics)

            text = _caption_response(rng, labels)
            got = _outcome(parse_caption_response, text, annotations, image_id=image_id)
            want = ref_parse_caption_response(text, annotations, image_id=image_id)
            assert got == want, (seed, text)
            results.append(want)
            if want.record is not None:
                continued += "\n" in render_dialogue(want.record).split("<robot>: ", 1)[1]

            serialized = _serialized(rng, labels)
            given = rng.choice((None, annotations))
            got = _outcome(from_training_record, serialized, given)
            want = _outcome(ref_from_training_record, serialized, given)
            assert got == want, (seed, serialized)

            for result in results:
                messages.update(d.message for d in result.diagnostics)
                turns = result.record.turns if result.record else ()
                refs.extend((labels, s) for t in turns for s in t.segments if isinstance(s, SegRef))

        # the inputs reach every rule the shared helpers now carry
        for fragment in (
            "text before the first speaker marker",
            "expected <robot> turn",
            "expected <person> turn",
            "segmentation tag inside a person turn",
            "segmentation tag inside the question",
            "unknown instance id",
            "repeated in turn",
            "but annotated",
            "malformed question/answer line",
            "index must be >= 1",
            "duplicate Q",
            "duplicate A",
            "has no valid clauses",
            "unparseable answer clause",
            "multiple QA pairs found",
        ):
            assert any(fragment in m for m in messages), fragment
        assert continued and any(len(ref.instance_ids) > 1 for _, ref in refs)
        assert any(
            lab != labels[i] and lab.strip().lower() == labels[i].strip().lower()
            for labels, ref in refs
            for i, lab in zip(ref.instance_ids, ref.labels)
        )

