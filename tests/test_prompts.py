"""Tests for the paired prompt template engine."""

import pytest

from diffunlearn.artifacts import read_jsonl
from diffunlearn.errors import DomainError
from diffunlearn.prompts import (
    PromptTemplateSpec,
    gen_prompt_pairs,
    render_pair,
    save_prompt_pairs,
    split_dimension,
)

import numpy as np


def token_spec():
    """Vocabulary of unique whitespace-free tokens for unambiguous parsing."""
    return PromptTemplateSpec(
        concept_tokens=("c1", "c2"),
        dimensions={
            "mood": ("m1", "m2", "m3", "m4", "m5", "m6"),
            "activity": ("a1", "a2", "a3", "a4"),
            "time": ("t1", "t2", "t3", "t4"),
        },
        template="A {mood} {concept} person {activity} {time}",
        train_fraction=0.5,
    )


class TestRenderPair:
    def test_reference_pair(self):
        spec = PromptTemplateSpec()
        forget, remain = render_pair(
            spec,
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
        spec = PromptTemplateSpec()
        forget, remain = render_pair(
            spec,
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
        spec = token_spec()
        forget, remain = render_pair(
            spec, "c2", {"mood": "m1", "activity": "a3", "time": "t2"}
        )
        assert forget == "A m1 c2 person a3 t2"
        assert remain == "A m1 person a3 t2"
        assert remain == forget.replace("c2 ", "", 1)


class TestPromptTemplateSpec:
    def test_empty_concept_tokens_rejected(self):
        with pytest.raises(DomainError):
            PromptTemplateSpec(concept_tokens=())

    def test_single_value_dimension_rejected(self):
        with pytest.raises(DomainError):
            PromptTemplateSpec(
                dimensions={"mood": ("only",)},
                template="A {mood} {concept} person",
            )

    def test_duplicate_subconcepts_rejected(self):
        with pytest.raises(DomainError):
            PromptTemplateSpec(
                dimensions={"mood": ("sad", "sad")},
                template="A {mood} {concept} person",
            )

    def test_missing_slot_rejected(self):
        with pytest.raises(DomainError):
            PromptTemplateSpec(
                dimensions={"mood": ("sad", "glad")},
                template="A {concept} person",
            )

    def test_missing_concept_slot_rejected(self):
        with pytest.raises(DomainError):
            PromptTemplateSpec(
                dimensions={"mood": ("sad", "glad")},
                template="A {mood} person",
            )

    def test_bad_train_fraction_rejected(self):
        for frac in (0.0, 1.0, -0.2):
            with pytest.raises(DomainError):
                PromptTemplateSpec(train_fraction=frac)


class TestSplitDimension:
    def test_parts_are_disjoint_and_cover(self):
        values = ("a", "b", "c", "d", "e")
        train, test = split_dimension(values, 0.6, np.random.default_rng(0))
        assert set(train) | set(test) == set(values)
        assert set(train) & set(test) == set()
        assert len(train) == 3

    def test_both_sides_nonempty_even_at_extremes(self):
        gen = np.random.default_rng(1)
        train, test = split_dimension(("a", "b"), 0.99, gen)
        assert len(train) == 1 and len(test) == 1


class TestGenPromptPairs:
    def test_emits_count_records_per_split(self):
        records = gen_prompt_pairs(token_spec(), 4, 0)
        assert len(records) == 8
        assert [r["split"] for r in records] == ["train"] * 4 + ["test"] * 4
        assert records[0]["id"] == "train_0000"
        assert records[4]["id"] == "test_0000"

    def test_splits_share_no_subconcept_in_any_dimension(self):
        spec = token_spec()
        records = gen_prompt_pairs(spec, 6, 21)
        used = {"train": {d: set() for d in spec.dimensions},
                "test": {d: set() for d in spec.dimensions}}
        for r in records:
            words = set(r["forget_prompt"].split())
            for dim, values in spec.dimensions.items():
                hit = words & set(values)
                assert len(hit) == 1
                used[r["split"]][dim] |= hit
        for dim in spec.dimensions:
            assert used["train"][dim] & used["test"][dim] == set()

    def test_remain_equals_forget_with_token_removed(self):
        spec = token_spec()
        for r in gen_prompt_pairs(spec, 6, 5):
            matching = [
                t
                for t in spec.concept_tokens
                if f" {t} " in f" {r['forget_prompt']} "
            ]
            assert len(matching) == 1
            stripped = r["forget_prompt"].replace(f"{matching[0]} ", "", 1)
            from diffunlearn.prompts import _fix_leading_article

            assert r["remain_prompt"] == _fix_leading_article(stripped)

    def test_no_repeated_combination_within_split(self):
        records = gen_prompt_pairs(token_spec(), 6, 3)
        for split in ("train", "test"):
            bodies = [
                r["remain_prompt"] for r in records if r["split"] == split
            ]
            assert len(set(bodies)) == len(bodies)

    def test_over_requested_count_rejected(self):
        # Each split of token_spec holds 3*2*2 = 12 combinations.
        with pytest.raises(DomainError):
            gen_prompt_pairs(token_spec(), 13, 0)

    def test_deterministic_per_seed(self):
        a = gen_prompt_pairs(token_spec(), 5, 42)
        b = gen_prompt_pairs(token_spec(), 5, 42)
        assert a == b

    def test_default_spec_emits_reference_shape(self):
        records = gen_prompt_pairs(PromptTemplateSpec(), 8, 17)
        assert len(records) == 16
        for r in records:
            assert set(r) == {"id", "split", "forget_prompt", "remain_prompt"}
            assert r["forget_prompt"].endswith(
                ("early evening", "during twilight", "late night", "at noon")
            )


class TestPromptIO:
    def test_roundtrip(self, tmp_path):
        records = gen_prompt_pairs(token_spec(), 3, 1)
        path = tmp_path / "pairs.jsonl"
        save_prompt_pairs(records, path)
        assert read_jsonl(path) == records
