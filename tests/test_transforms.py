import random

import pytest

from conftest import ann_from_mask, random_canonical_dialogue, rect_mask
from segdial.mask import mask_union
from segdial.parsing import (
    DialogueRecord,
    SegRef,
    TextSpan,
    Turn,
    parse_sid_response,
    to_training_record,
)
from segdial.transforms import (
    TASK_MODES,
    TASK_TEMPLATES,
    TransformError,
    append_task_template,
    to_pure_text,
    to_semantic,
)

CANVAS = 32
LABEL_CATEGORIES = {"cat": 1, "dog": 2, "table": 3, "chair": 4, "lamp": 5, "keyboard": 6, "sofa": 7}


def anns_for(label_by_id):
    """Distinct-mask annotations on one canvas, categories keyed by label."""
    out = []
    for n, (instance_id, label) in enumerate(sorted(label_by_id.items())):
        x0 = (n * 3) % (CANVAS - 2)
        y0 = (n * 5) % (CANVAS - 2)
        mask = rect_mask(CANVAS, CANVAS, x0, y0, x0 + 2, y0 + 2)
        out.append(ann_from_mask(instance_id, LABEL_CATEGORIES[label], label, mask))
    return out


def sid_record(text, label_by_id):
    result = parse_sid_response(text, label_by_id)
    assert result.record is not None, result.diagnostics
    return result.record


KEYBOARDS = {34494: "keyboard", 31264: "keyboard"}
CANONICAL = (
    "<person>: Where are the keyboards?\n"
    "<robot>: keyboards <34494; keyboard> <31264; keyboard>"
)


class TestTaskTemplates:
    def test_one_template_per_task_mode(self):
        assert set(TASK_TEMPLATES) == set(TASK_MODES)

    def test_template_wordings_are_frozen(self):
        assert TASK_TEMPLATES["semseg"] == (
            "The mask(s) are for semantic segmentation. No need to differentiate "
            "different instances within the same category."
        )
        assert TASK_TEMPLATES["instseg"] == (
            "The mask(s) are for instance segmentation. Different instances within "
            "the same countable category should be predicted by separated masks. "
            "Uncountable category does not need separate masks."
        )
        assert TASK_TEMPLATES["sid_semseg"] == (
            "Please answer the question with text and output semantic segmentation "
            "mask prediction(s). No need to differentiate different instances "
            "within the same category."
        )
        assert TASK_TEMPLATES["sid_instseg"] == (
            "Please answer the question with text and output the instance "
            "segmentation mask prediction(s). Different instances within the same "
            "countable category should be predicted by separated masks. "
            "Uncountable category does not need separate masks."
        )
        assert TASK_TEMPLATES["pure_text"] == (
            "Please answer the question only with text, do not output mask."
        )


class TestToSemantic:
    def test_same_category_references_collapse(self):
        record = sid_record(CANONICAL, KEYBOARDS)
        annotations = anns_for(KEYBOARDS)
        semantic, merged = to_semantic(record, annotations)
        assert semantic.task_mode == "sid_semseg"
        ref = semantic.turns[1].segments[0]
        assert isinstance(ref, SegRef)
        assert ref.instance_ids == (31264,)  # smallest member represents the merge
        assert ref.surface == "keyboards"
        assert ref.labels == ("keyboard",)
        assert len(merged) == 1
        m = merged[0]
        assert m.turn_index == 1
        assert m.instance_id == 31264
        assert m.category_id == LABEL_CATEGORIES["keyboard"]
        assert m.member_ids == (34494, 31264)  # first-seen order
        by_id = {a.instance_id: a for a in annotations}
        assert m.mask == mask_union([by_id[34494].mask, by_id[31264].mask])

    def test_later_references_fold_to_surface_text(self):
        text = "<person>: what?\n<robot>: a cat <7; cat> and another cat <8; cat>"
        record = sid_record(text, {7: "cat", 8: "cat"})
        semantic, merged = to_semantic(record, anns_for({7: "cat", 8: "cat"}))
        segs = semantic.turns[1].segments
        assert segs == (
            TextSpan("a "),
            SegRef(instance_ids=(7,), surface="cat", labels=("cat",)),
            TextSpan(" and another cat"),
        )
        assert merged[0].member_ids == (7, 8)

    def test_distinct_categories_stay_separate(self):
        text = "<person>: desk?\n<robot>: a cat <7; cat> beside a lamp <9; lamp>"
        record = sid_record(text, {7: "cat", 9: "lamp"})
        semantic, merged = to_semantic(record, anns_for({7: "cat", 9: "lamp"}))
        refs = [s for s in semantic.turns[1].segments if isinstance(s, SegRef)]
        assert [r.instance_ids for r in refs] == [(7,), (9,)]
        assert {m.category_id for m in merged} == {1, 5}

    def test_mixed_category_group_keeps_one_slot_per_category(self):
        text = "<person>: all?\n<robot>: pets <7; cat> <8; dog> and cat again <9; cat>"
        record = sid_record(text, {7: "cat", 8: "dog", 9: "cat"})
        semantic, merged = to_semantic(record, anns_for({7: "cat", 8: "dog", 9: "cat"}))
        refs = [s for s in semantic.turns[1].segments if isinstance(s, SegRef)]
        assert len(refs) == 1
        assert refs[0].instance_ids == (7, 8)
        assert refs[0].labels == ("cat", "dog")
        cat_merge = next(m for m in merged if m.category_id == LABEL_CATEGORIES["cat"])
        assert cat_merge.member_ids == (7, 9) and cat_merge.instance_id == 7

    def test_reference_count_equals_distinct_categories_per_turn(self):
        for seed in range(30):
            text, label_by_id = random_canonical_dialogue(random.Random(3300 + seed))
            record = parse_sid_response(text, label_by_id).record
            if record.task_mode != "sid_instseg":
                continue
            annotations = anns_for(label_by_id)
            by_id = {a.instance_id: a for a in annotations}
            semantic, merged = to_semantic(record, annotations)
            for ti, (orig, new) in enumerate(zip(record.turns, semantic.turns)):
                if orig.role != "robot":
                    assert new == orig
                    continue
                want = len({by_id[i].category_id for i in orig.seg_ids()})
                assert len(new.seg_ids()) == want
                turn_merges = [m for m in merged if m.turn_index == ti]
                assert sorted(new.seg_ids()) == sorted(m.instance_id for m in turn_merges)
                for m in turn_merges:
                    assert m.instance_id == min(m.member_ids)
                    assert m.mask == mask_union([by_id[i].mask for i in m.member_ids])

    def test_merging_is_per_turn(self):
        text = (
            "<person>: one?\n<robot>: cat <7; cat>\n"
            "<person>: two?\n<robot>: cat <8; cat>"
        )
        record = sid_record(text, {7: "cat", 8: "cat"})
        semantic, merged = to_semantic(record, anns_for({7: "cat", 8: "cat"}))
        assert [(m.turn_index, m.member_ids) for m in merged] == [(1, (7,)), (3, (8,))]
        assert semantic.turns[1].seg_ids() == (7,)
        assert semantic.turns[3].seg_ids() == (8,)

    def test_instseg_mode_maps_to_semseg(self):
        record = DialogueRecord(
            image_id=1,
            turns=(
                Turn("person", (TextSpan("find cats"),)),
                Turn("robot", (SegRef(instance_ids=(7, 8), labels=("cat", "cat")),)),
            ),
            task_mode="instseg",
        )
        semantic, _ = to_semantic(record, anns_for({7: "cat", 8: "cat"}))
        assert semantic.task_mode == "semseg"

    def test_unsupported_modes_rejected(self):
        record = to_pure_text(sid_record(CANONICAL, KEYBOARDS))
        with pytest.raises(TransformError, match="carries no instance supervision"):
            to_semantic(record, anns_for(KEYBOARDS))
        semantic, _ = to_semantic(sid_record(CANONICAL, KEYBOARDS), anns_for(KEYBOARDS))
        with pytest.raises(TransformError):
            to_semantic(semantic, anns_for(KEYBOARDS))

    def test_unknown_instance_id_rejected(self):
        record = sid_record(CANONICAL, KEYBOARDS)
        with pytest.raises(TransformError, match="unknown instance id 31264"):
            to_semantic(record, anns_for({34494: "keyboard"}))


class TestToPureText:
    def test_references_reduce_to_surface_words(self):
        record = sid_record(CANONICAL, KEYBOARDS)
        stripped = to_pure_text(record)
        assert stripped.task_mode == "pure_text"
        assert stripped.turns[0] == record.turns[0]
        assert stripped.turns[1] == Turn("robot", (TextSpan("keyboards"),))
        ser = to_training_record(stripped)
        assert all("<SEG>" not in t.text and t.seg_ids == () for t in ser.turns)

    def test_surfaceless_reference_vanishes(self):
        record = sid_record("<person>: go\n<robot>: <5; cat> sits here", {5: "cat"})
        stripped = to_pure_text(record)
        assert stripped.turns[1] == Turn("robot", (TextSpan(" sits here"),))

    def test_adjacent_spans_fuse(self):
        record = sid_record(
            "<person>: what?\n<robot>: a cat <7; cat> and a cat <8; cat>",
            {7: "cat", 8: "cat"},
        )
        stripped = to_pure_text(record)
        assert stripped.turns[1] == Turn("robot", (TextSpan("a cat and a cat"),))

    def test_empty_spans_are_dropped(self):
        record = DialogueRecord(
            1, (Turn("person", (TextSpan(""), TextSpan("go"))), Turn("robot", (TextSpan(""),))), "pure_text"
        )
        stripped = to_pure_text(record)
        assert stripped.turns == (Turn("person", (TextSpan("go"),)), Turn("robot", ()))

    def test_idempotent(self):
        record = sid_record(CANONICAL, KEYBOARDS)
        once = to_pure_text(record)
        assert to_pure_text(once) == once

    def test_composition_with_to_semantic(self):
        for seed in range(30):
            text, label_by_id = random_canonical_dialogue(random.Random(4400 + seed))
            record = parse_sid_response(text, label_by_id).record
            if record.task_mode != "sid_instseg":
                continue
            semantic, _ = to_semantic(record, anns_for(label_by_id))
            assert to_pure_text(semantic) == to_pure_text(record)

    def test_no_references_survive_random_records(self):
        for seed in range(30):
            text, label_by_id = random_canonical_dialogue(random.Random(6600 + seed))
            record = parse_sid_response(text, label_by_id).record
            stripped = to_pure_text(record)
            assert stripped.task_mode == "pure_text"
            for turn in stripped.turns:
                assert turn.seg_ids() == ()
                assert all(isinstance(s, TextSpan) for s in turn.segments)


class TestAppendTaskTemplate:
    def test_stamps_first_person_turn(self):
        record = sid_record(CANONICAL, KEYBOARDS)
        stamped = append_task_template(record, "sid_instseg")
        assert stamped.turns[0] == Turn(
            "person",
            (TextSpan("Where are the keyboards? " + TASK_TEMPLATES["sid_instseg"]),),
        )
        assert stamped.turns[1:] == record.turns[1:]
        assert stamped.task_mode == record.task_mode

    def test_empty_person_turn_gets_bare_template(self):
        record = DialogueRecord(image_id=None, turns=(Turn("person", ()),), task_mode="pure_text")
        stamped = append_task_template(record, "pure_text")
        assert stamped.turns[0] == Turn("person", (TextSpan(TASK_TEMPLATES["pure_text"]),))

    def test_mode_and_record_mode_must_agree(self):
        record = sid_record(CANONICAL, KEYBOARDS)
        with pytest.raises(TransformError, match="does not take the 'semseg' template"):
            append_task_template(record, "semseg")
        with pytest.raises(TransformError, match="unknown template mode"):
            append_task_template(record, "freeform")

    def test_double_stamping_rejected(self):
        record = sid_record(CANONICAL, KEYBOARDS)
        stamped = append_task_template(record, "sid_instseg")
        with pytest.raises(TransformError, match="already present"):
            append_task_template(stamped, "sid_instseg")

    def test_any_template_anywhere_blocks_stamping(self):
        text = (
            "<person>: hello\n<robot>: hi\n"
            f"<person>: also {TASK_TEMPLATES['pure_text']}\n<robot>: ok"
        )
        record = sid_record(text, {})
        with pytest.raises(TransformError, match="already present"):
            append_task_template(record, "pure_text")

    def test_no_turns_rejected(self):
        bare = DialogueRecord(image_id=None, turns=(), task_mode="pure_text")
        with pytest.raises(TransformError, match="no person turn"):
            append_task_template(bare, "pure_text")
