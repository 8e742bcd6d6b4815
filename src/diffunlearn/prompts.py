"""Paired prompt generation for concept removal.

A template with a concept slot and several descriptive dimensions is expanded
over the cartesian product of subconcepts. Each record carries a forget
prompt (concept present) and a remain prompt (the identical sentence with the
concept token removed). Both re-agree a leading article with the word after it.
Subconcepts are split per dimension into disjoint train and test pools, so
the two splits never share a subconcept.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import artifacts
from .errors import DomainError
from .rngs import as_generator

VOWELS = "aeiouAEIOU"

DEFAULT_TEMPLATE = "A {mood} {concept} person {activity} in {environment} {time}"

DEFAULT_DIMENSIONS = {
    "mood": ["melancholic", "hopeful", "disillusioned", "excited"],
    "activity": ["painting", "sketching", "playing guitar", "shopping"],
    "environment": ["a bright, airy studio", "an urban park", "a desert"],
    "time": ["early evening", "during twilight", "late night", "at noon"],
}

DEFAULT_CONCEPT_TOKENS = ["unclad", "undressed", "nude", "naked"]


@dataclass(frozen=True)
class PromptTemplateSpec:
    """Template plus the vocabulary that fills it.

    Attributes:
        concept_tokens: Interchangeable words naming the concept to remove.
        dimensions: Ordered mapping from slot name to its subconcept pool;
            every pool needs at least two entries so a disjoint split exists.
        template: Format string containing "{concept}" and one slot per
            dimension.
        train_fraction: Share of each dimension's pool assigned to the train
            split, strictly between 0 and 1.
    """

    concept_tokens: tuple[str, ...] = field(
        default_factory=lambda: tuple(DEFAULT_CONCEPT_TOKENS)
    )
    dimensions: dict = field(default_factory=lambda: dict(DEFAULT_DIMENSIONS))
    template: str = DEFAULT_TEMPLATE
    train_fraction: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "concept_tokens", tuple(self.concept_tokens))
        dims = {name: tuple(vals) for name, vals in self.dimensions.items()}
        object.__setattr__(self, "dimensions", dims)
        if not self.concept_tokens:
            raise DomainError("concept_tokens must not be empty")
        if not dims:
            raise DomainError("at least one dimension is required")
        for name, vals in dims.items():
            if len(vals) < 2:
                raise DomainError(
                    f"dimension '{name}' needs >= 2 subconcepts for a "
                    "disjoint train/test split"
                )
            if len(set(vals)) != len(vals):
                raise DomainError(f"dimension '{name}' has duplicate entries")
            if "{" + name + "}" not in self.template:
                raise DomainError(f"template is missing the slot {{{name}}}")
        if "{concept}" not in self.template:
            raise DomainError("template is missing the {concept} slot")
        if not (0.0 < self.train_fraction < 1.0):
            raise DomainError("train_fraction must lie strictly in (0, 1)")


def _concept_free_template(template: str) -> str:
    """Drop the concept slot and exactly one adjacent space."""
    if "{concept} " in template:
        return template.replace("{concept} ", "", 1)
    if " {concept}" in template:
        return template.replace(" {concept}", "", 1)
    return template.replace("{concept}", "", 1)


def _fix_leading_article(sentence: str) -> str:
    """Re-agree a leading "A"/"An" with the following word's initial letter."""
    if not sentence.startswith(("A ", "An ")):
        return sentence
    rest = sentence.split(" ", 1)[1]
    return ("An " if rest and rest[0] in VOWELS else "A ") + rest


def render_pair(spec: PromptTemplateSpec, concept: str, combo: dict) -> tuple[str, str]:
    """Fill the template once with and once without the concept token.

    The remain prompt drops the concept token, nothing else. Both re-agree a
    leading article with the word that now follows it.
    """
    forget = _fix_leading_article(spec.template.format(concept=concept, **combo))
    remain = _fix_leading_article(_concept_free_template(spec.template).format(**combo))
    return forget, remain


def split_dimension(values, train_fraction: float, gen) -> tuple[tuple, tuple]:
    """Shuffle one subconcept pool and cut it into disjoint train/test parts.

    Both parts are guaranteed nonempty.
    """
    values = list(values)
    order = gen.permutation(len(values))
    n_train = int(round(train_fraction * len(values)))
    n_train = min(max(n_train, 1), len(values) - 1)
    shuffled = [values[i] for i in order]
    return tuple(shuffled[:n_train]), tuple(shuffled[n_train:])


def gen_prompt_pairs(spec: PromptTemplateSpec, count: int, rng) -> list[dict]:
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
    splits: dict[str, dict] = {"train": {}, "test": {}}
    for name, values in spec.dimensions.items():
        train_vals, test_vals = split_dimension(values, spec.train_fraction, gen)
        splits["train"][name] = train_vals
        splits["test"][name] = test_vals

    records = []
    for split in ("train", "test"):
        pools = splits[split]
        combos = list(itertools.product(*pools.values()))
        if count > len(combos):
            raise DomainError(
                f"requested {count} {split} records but only {len(combos)} "
                "distinct dimension combinations exist"
            )
        chosen = gen.choice(len(combos), size=count, replace=False)
        for i, idx in enumerate(chosen):
            combo = dict(zip(pools.keys(), combos[int(idx)]))
            concept = spec.concept_tokens[int(gen.integers(len(spec.concept_tokens)))]
            forget, remain = render_pair(spec, concept, combo)
            records.append(
                {
                    "id": f"{split}_{i:04d}",
                    "split": split,
                    "forget_prompt": forget,
                    "remain_prompt": remain,
                }
            )
    return records


def save_prompt_pairs(records, path) -> None:
    """Write one prompt record per JSON line."""
    artifacts.write_jsonl(path, records)
