"""Tests for the paired prompt template engine."""

import pytest

from diffunlearn.artifacts import read_jsonl, write_jsonl
from diffunlearn.errors import DomainError
from diffunlearn.prompts import (
    CONCEPT_TOKENS,
    DIMENSIONS,
    gen_prompt_pairs,
    render_pair,
    split_dimension,
)

import numpy as np


def hits(values, prompt):
    """The values found in the prompt as whole words; some hold spaces."""
    return {v for v in values if f" {v} " in f" {prompt} "}


class TestRenderPair:
    def test_reference_pair(self):
        forget, remain = render_pair(
            "unclad",
            {
                "mood": "melancholic",
                "activity": "painting",
                "environment": "a bright, airy studio",
                "time": "early evening",
            },
        )
        assert forget == (
            "A melancholic unclad person painting in a bright, airy studio "
            "early evening"
        )
        assert remain == (
            "A melancholic person painting in a bright, airy studio early evening"
        )

    def test_vowel_mood_fixes_article_on_both_sides(self):
        # The template's literal "A" meets a vowel-initial mood in both fills,
        # so the pair differs in the concept token alone.
        forget, remain = render_pair(
            "unclad",
            {
                "mood": "excited",
                "activity": "shopping",
                "environment": "a bright, airy studio",
                "time": "early evening",
            },
        )
        assert forget == (
            "An excited unclad person shopping in a bright, airy studio "
            "early evening"
        )
        assert remain == (
            "An excited person shopping in a bright, airy studio early evening"
        )
        assert remain == forget.replace("unclad ", "", 1)

    def test_remain_is_forget_minus_token(self):
        forget, remain = render_pair(
            "nude",
            {
                "mood": "hopeful",
                "activity": "playing guitar",
                "environment": "a desert",
                "time": "at noon",
            },
        )
        assert forget == "A hopeful nude person playing guitar in a desert at noon"
        assert remain == "A hopeful person playing guitar in a desert at noon"
        assert remain == forget.replace("nude ", "", 1)


class TestSplitDimension:
    def test_parts_are_disjoint_and_cover(self):
        values = ("a", "b", "c", "d", "e")
        train, test = split_dimension(values, np.random.default_rng(0))
        assert set(train) | set(test) == set(values)
        assert set(train) & set(test) == set()
        assert len(train) == 2

    def test_both_sides_nonempty_even_at_extremes(self):
        gen = np.random.default_rng(1)
        train, test = split_dimension(("a", "b"), gen)
        assert len(train) == 1 and len(test) == 1


class TestGenPromptPairs:
    def test_emits_count_records_per_split(self):
        records = gen_prompt_pairs(4, 0)
        assert len(records) == 8
        assert [r["split"] for r in records] == ["train"] * 4 + ["test"] * 4
        assert records[0]["id"] == "train_0000"
        assert records[4]["id"] == "test_0000"

    def test_splits_share_no_subconcept_in_any_dimension(self):
        records = gen_prompt_pairs(6, 21)
        used = {"train": {d: set() for d in DIMENSIONS},
                "test": {d: set() for d in DIMENSIONS}}
        for r in records:
            for dim, values in DIMENSIONS.items():
                hit = hits(values, r["forget_prompt"])
                assert len(hit) == 1
                used[r["split"]][dim] |= hit
        for dim in DIMENSIONS:
            assert used["train"][dim] & used["test"][dim] == set()

    def test_remain_equals_forget_with_token_removed(self):
        for r in gen_prompt_pairs(6, 5):
            matching = hits(CONCEPT_TOKENS, r["forget_prompt"])
            assert len(matching) == 1
            stripped = r["forget_prompt"].replace(f"{matching.pop()} ", "", 1)
            from diffunlearn.prompts import _fix_leading_article

            assert r["remain_prompt"] == _fix_leading_article(stripped)

    def test_no_repeated_combination_within_split(self):
        records = gen_prompt_pairs(6, 3)
        for split in ("train", "test"):
            bodies = [
                r["remain_prompt"] for r in records if r["split"] == split
            ]
            assert len(set(bodies)) == len(bodies)

    def test_over_requested_count_rejected(self):
        # The test split holds 2*2*1*2 = 8 combinations.
        with pytest.raises(DomainError):
            gen_prompt_pairs(9, 0)

    def test_deterministic_per_seed(self):
        a = gen_prompt_pairs(5, 42)
        b = gen_prompt_pairs(5, 42)
        assert a == b

    def test_default_template_emits_reference_shape(self):
        records = gen_prompt_pairs(8, 17)
        assert len(records) == 16
        for r in records:
            assert set(r) == {"id", "split", "forget_prompt", "remain_prompt"}
            assert r["forget_prompt"].endswith(
                ("early evening", "during twilight", "late night", "at noon")
            )


class TestPromptIO:
    def test_roundtrip(self, tmp_path):
        records = gen_prompt_pairs(3, 1)
        path = tmp_path / "pairs.jsonl"
        write_jsonl(path, records)
        assert read_jsonl(path) == records
