"""Generate paired forget/remain prompts from the package's slot template.

Each pair fills ``prompts.TEMPLATE`` twice: once with one of
``prompts.CONCEPT_TOKENS``, the concept to be forgotten, and once without it
(with the leading article repaired). Each pool of ``prompts.DIMENSIONS`` is
split into disjoint train and test halves, so evaluation never sees a
training subconcept. Run:

    python3 demos/prompt_pairs.py [--count N]
"""

import argparse
from collections import Counter

from diffunlearn.prompts import CONCEPT_TOKENS, DIMENSIONS, TEMPLATE, gen_prompt_pairs


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=6, help="pairs per split")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(f"template: {TEMPLATE}")
    for name, values in DIMENSIONS.items():
        print(f"  {name}: {', '.join(values)}")
    print(f"  concept tokens: {', '.join(CONCEPT_TOKENS)}\n")

    records = gen_prompt_pairs(args.count, args.seed)
    for record in records:
        token = next(
            t for t in CONCEPT_TOKENS if f" {t} " in f" {record['forget_prompt']} "
        )
        print(f"[{record['split']}] {record['id']}  (token: {token})")
        print(f"  forget: {record['forget_prompt']}")
        print(f"  remain: {record['remain_prompt']}")

    splits = Counter(r["split"] for r in records)
    print(f"\n{splits['train']} train pairs, {splits['test']} test pairs; "
          "subconcept pools are disjoint between the splits.")


if __name__ == "__main__":
    main()
