"""Train a small class-conditional diffusion model and sample from it.

The data is a ring of Gaussian blobs, one class each. A two-layer tanh
network learns to predict the corruption noise at every timestep; ancestral
sampling then runs the chain backwards from pure noise. At the end we check
each conditional against the known mixture with a nearest-mean oracle.

Takes a few seconds on a laptop CPU. Run:
    python3 demos/train_and_sample.py [--seed N]
"""

import argparse
import time

import numpy as np

from diffunlearn.data import circle_mixture, gen_mixture
from diffunlearn.diffusion import NoiseSchedule, ddpm_sample
from diffunlearn.evaluate import classify_points
from diffunlearn.nn import init_model
from diffunlearn.train import TrainConfig, pretrain


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    spec = circle_mixture(num_classes=4, radius=4.0, sigma=0.3, samples_per_class=500)
    data = gen_mixture(spec, args.seed)
    # Needs enough total noise that the terminal step is near-pure noise;
    # a short schedule leaves residual signal and biases samples inward.
    schedule = NoiseSchedule(100, 1e-4, 0.1)
    model = init_model(2, (64, 64), spec.num_classes, schedule.num_timesteps,
                       np.random.default_rng(args.seed + 1))

    config = TrainConfig(steps=30000, batch_size=128, lr=0.05, lr_final=0.005)
    t0 = time.time()
    model, history = pretrain(model, data, schedule, config, args.seed + 2)
    print(f"trained {config.steps} steps in {time.time() - t0:.1f}s; "
          f"loss {history[0]:.3f} -> {np.mean(history[-200:]):.3f}")

    print("\ncondition  accuracy  mean-point           spread (true 0.30)")
    rng = np.random.default_rng(args.seed + 3)
    for k in range(spec.num_classes):
        out = ddpm_sample(model, k, 400, schedule, rng)
        labels = classify_points(out.samples, spec, none_threshold=4.0)
        acc = float(np.mean(labels == k))
        mean = out.samples.mean(axis=0)
        spread = float(out.samples.std(axis=0).mean())
        target = spec.means[k]
        print(f"  class {k}   {acc:7.3f}   ({mean[0]:+.2f}, {mean[1]:+.2f})"
              f"  target ({target[0]:+.2f}, {target[1]:+.2f})   {spread:.2f}")


if __name__ == "__main__":
    main()
