"""Hyperparameter search over learning rate and regularization strength.

Runs a small custom grid (a subset of the stock 3x3) on a reduced dataset so
the demo stays quick, then prints the ranked outcome. The winner maximizes
micro + macro validation F1; exact ties would prefer the smaller learning
rate and then the larger regularizer.
"""

from dataclasses import replace

from faultcast import SynthConfig, TrainConfig, split_samples, synth_generate
from faultcast.training import grid_search

meta, samples = synth_generate(SynthConfig(seed=0), 500)
train_s, val_s, test_s = split_samples(samples, (300, 100, 100), seed=0)

base = TrainConfig(loss="base", batch_size=16, max_epochs=120, patience=40)
grid = [
    replace(base, eta=eta, lam=lam)
    for eta in (0.001, 0.01, 0.1)
    for lam in (0.01, 0.1)
]
print(f"searching {len(grid)} grid points "
      "(each trains its own model from its own seed)...\n")
best_cfg, best_model, results = grid_search(grid, meta.dims, train_s, val_s, base_seed=0)

print(f"{'eta':>8}{'lambda':>8}{'val micro':>11}{'val macro':>11}{'sum':>8}")
for res in sorted(results, key=lambda r: -r.score):
    marker = "  <- selected" if res.config == best_cfg else ""
    print(f"{res.config.eta:>8}{res.config.lam:>8}"
          f"{res.val_micro_f1:>11.4f}{res.val_macro_f1:>11.4f}"
          f"{res.score:>8.4f}{marker}")

print("\nlarge learning rates can destabilize runs (there is no clipping by")
print("default); those points simply score poorly and lose the search.")
