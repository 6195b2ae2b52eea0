"""Tour of the synthetic benchmark generator.

Generates a small dataset, prints the label imbalance profile, and walks
through one sample to show how the pieces fit together: setpoint schedule,
lagged sensor observations, and the stepwise fault labels in the forecast
window.
"""

import numpy as np

from faultcast.data import SynthConfig, class_stats, synth_generate

config = SynthConfig(seed=7)
meta, samples = synth_generate(config, 600)

print(f"{len(samples)} samples: tau={meta.dims.tau} observed steps, "
      f"{meta.dims.horizon} forecast steps, {meta.dims.n_labels} labels")
print(f"observations: {meta.dims.d_obs} sensor channels; "
      f"context: {meta.dims.d_ctx} setpoint channel(s)\n")

counts = class_stats(samples)
print(f"{'label':<10}{'count':>7}{'frequency':>12}")
for name, count in zip(meta.label_names, counts):
    print(f"{name:<10}{count:>7}{count / len(samples):>12.3f}")
print(f"\nmost/least common ratio: {counts.max() / counts.min():.1f}x "
      "(rare faults are the interesting ones)\n")

sample = next(s for s in samples if s.labels.sum() >= 2)
print("one sample with co-occurring faults:")
print("  setpoint over the full horizon:", np.round(sample.ctx[:, 0], 2))
print("  sensor 0 over the observed part:", np.round(sample.obs[:, 0], 2))
print("  segment label:", sample.labels.astype(int))
print("  stepwise labels (rows = forecast steps):")
print(sample.step_labels.astype(int))
print("\nnote the identity: a label is on in the segment vector exactly when"
      "\nits stepwise column contains a 1.")
