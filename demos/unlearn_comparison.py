"""Erase one class from a trained diffusion model, three ways.

Starting from one pretrained checkpoint, this script runs the three update
strategies on identical budgets and scores each result:

  finetune    descend the remain loss only; forgetting happens by neglect
  graddiff    ascend the forget loss and descend the remain loss, summed raw
  restricted  the same two gradients, but mutually projected when they
              conflict, so neither objective regresses to first order

The mixture is deliberately tight (radius 2, sigma 0.5): noised samples of
neighboring classes overlap at mid timesteps, so forgetting one class and
retaining its neighbors genuinely compete for the same weights. On a
well-separated ring the strategies all coast and the comparison shows
nothing. The forgetting cap runs at 50x the derived percentile for the same
reason: at 1x the truncation saturates almost immediately.

UA is the fraction of forget-conditioned samples that no longer land on the
forgotten class (higher = better forgetting). RA is conditional accuracy on
the retained classes (higher = better retention). MMD compares retained
generations against fresh mixture draws (closer to zero = better fidelity).

Trajectory CSVs land next to this script unless --out is given. Roughly a
minute of CPU. Run:
    python3 demos/unlearn_comparison.py [--out DIR]
"""

import argparse
import pathlib
import time

import numpy as np

from diffunlearn.data import balanced_remaining_set, circle_mixture, gen_mixture
from diffunlearn.diffusion import make_schedule
from diffunlearn.evaluate import EvalConfig, full_eval
from diffunlearn.nn import init_model
from diffunlearn.train import TrainConfig, derive_loss_cap, pretrain
from diffunlearn.unlearn import UnlearnConfig, unlearn_run, write_trajectory_csv

FORGET = 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=pathlib.Path,
                        default=pathlib.Path(__file__).parent)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    spec = circle_mixture(num_classes=5, radius=2.0, sigma=0.5, samples_per_class=1000)
    data = gen_mixture(spec, args.seed)
    schedule = make_schedule(100, 1e-4, 0.1)
    model = init_model(2, (64, 64), spec.num_classes, schedule.num_timesteps,
                       np.random.default_rng(args.seed + 1))
    t0 = time.time()
    model, _ = pretrain(
        model, data, schedule,
        TrainConfig(steps=30000, batch_size=128, lr=0.05, lr_final=0.005),
        args.seed + 2,
    )
    print(f"pretrained in {time.time() - t0:.1f}s")

    eval_cfg = EvalConfig(n_per_condition=1500)
    before = full_eval(model, FORGET, spec, schedule, eval_cfg, args.seed + 3)
    print(f"before unlearning: ua={before.ua:.3f} ra={before.ra:.3f} "
          f"mmd={before.mmd:+.5f}")

    forget_set = data.class_subset(FORGET)
    remain_set = balanced_remaining_set(data, FORGET, per_class=50, rng=args.seed + 4)
    cap = 50.0 * derive_loss_cap(model, data.drop_class(FORGET), schedule,
                                 args.seed + 5)
    print(f"loss cap alpha = {cap:.3f} (50x the 90th-percentile remain loss), "
          f"|D_f| = {len(forget_set)}, |D_r| = {len(remain_set)}\n")

    print("strategy     ua      ra      mmd        conflicted  seconds")
    for strategy in ("finetune", "graddiff", "restricted"):
        config = UnlearnConfig(
            forget_weight=5.0, loss_cap=cap, step_size=1e-3, iterations=2000,
            batch_forget=64, batch_remain=64, strategy=strategy,
            seed=args.seed + 6,
        )
        t0 = time.time()
        unlearned, reports = unlearn_run(model, forget_set, remain_set,
                                         schedule, config)
        seconds = time.time() - t0
        after = full_eval(unlearned, FORGET, spec, schedule, eval_cfg, args.seed + 3)
        conflicted = float(np.mean([r.conflicted for r in reports]))
        print(f"{strategy:<11}{after.ua:7.3f}{after.ra:8.3f}{after.mmd:+11.5f}"
              f"{conflicted:9.2f}  {seconds:7.1f}")
        path = args.out / f"trajectory_{strategy}.csv"
        write_trajectory_csv(reports, path)

    print(f"\ntrajectories written to {args.out}/trajectory_<strategy>.csv")
    print("watch loss_f fall (forgetting) while loss_r holds (retention), and")
    print("how often the two gradients actually conflicted along the way.")


if __name__ == "__main__":
    main()
