"""Paired prompt generation for concept removal.

TEMPLATE has a concept slot and one slot per pool of DIMENSIONS; it is
expanded over the cartesian product of the pools' subconcepts. Each record
carries a forget prompt (one of the interchangeable CONCEPT_TOKENS present)
and a remain prompt (the identical sentence with the concept token removed).
Both re-agree a leading article with the word after it. Each pool is split
into disjoint train and test halves, so the two splits never share a
subconcept.
"""

from __future__ import annotations

import itertools

from .errors import DomainError
from .rngs import as_generator

TEMPLATE = "A {mood} {concept} person {activity} in {environment} {time}"
REMAIN_TEMPLATE = TEMPLATE.replace("{concept} ", "", 1)
DIMENSIONS = {
    "mood": ("melancholic", "hopeful", "disillusioned", "excited"),
    "activity": ("painting", "sketching", "playing guitar", "shopping"),
    "environment": ("a bright, airy studio", "an urban park", "a desert"),
    "time": ("early evening", "during twilight", "late night", "at noon"),
}
CONCEPT_TOKENS = ("unclad", "undressed", "nude", "naked")


def _fix_leading_article(sentence: str) -> str:
    """Re-agree a leading "A"/"An" with the following word's initial letter."""
    if not sentence.startswith(("A ", "An ")):
        return sentence
    rest = sentence.split(" ", 1)[1]
    return ("An " if rest and rest[0] in "aeiouAEIOU" else "A ") + rest


def render_pair(concept: str, combo: dict) -> tuple[str, str]:
    """Fill the template once with and once without the concept token.

    The remain prompt drops the concept token, nothing else. Both re-agree a
    leading article with the word that now follows it.
    """
    forget = _fix_leading_article(TEMPLATE.format(concept=concept, **combo))
    remain = _fix_leading_article(REMAIN_TEMPLATE.format(**combo))
    return forget, remain


def split_dimension(values, gen) -> tuple[tuple, tuple]:
    """Shuffle one subconcept pool and cut it into disjoint train/test halves.

    The train part takes half the pool, rounded half to even, so a pool of
    two or more values leaves both parts nonempty.
    """
    shuffled = tuple(values[i] for i in gen.permutation(len(values)))
    n_train = int(round(0.5 * len(values)))
    return shuffled[:n_train], shuffled[n_train:]


def gen_prompt_pairs(count: int, rng) -> list[dict]:
    """Emit count paired prompt records per split.

    Splits every dimension into disjoint train/test subconcept pools, then
    draws count distinct dimension combinations per split (uniformly, without
    replacement) and renders each with a concept token chosen at random.

    Returns a list of {"id", "split", "forget_prompt", "remain_prompt"}
    records, train block first. Deterministic per seed.

    Raises:
        DomainError: count exceeds the distinct combinations of either split.
    """
    if count < 1:
        raise DomainError("count must be at least 1")
    gen, _ = as_generator(rng)
    halves = [split_dimension(values, gen) for values in DIMENSIONS.values()]
    records = []
    for side, split in enumerate(("train", "test")):
        combos = list(itertools.product(*(half[side] for half in halves)))
        if count > len(combos):
            raise DomainError(
                f"requested {count} {split} records but only {len(combos)} "
                "distinct dimension combinations exist"
            )
        chosen = gen.choice(len(combos), size=count, replace=False)
        for i, idx in enumerate(chosen):
            combo = dict(zip(DIMENSIONS, combos[int(idx)]))
            concept = CONCEPT_TOKENS[int(gen.integers(len(CONCEPT_TOKENS)))]
            forget, remain = render_pair(concept, combo)
            records.append(
                {
                    "id": f"{split}_{i:04d}",
                    "split": split,
                    "forget_prompt": forget,
                    "remain_prompt": remain,
                }
            )
    return records
