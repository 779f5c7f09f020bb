"""Follow one feature map through the ambiguity and noise filters.

Shows the class maps, the weighted ambiguity vote, the rank-based drop
mask, and which positions the noise filter keeps.  Writes the maps as
PGM + CSV to demo_out/.

Run:  python demos/02_filter_pipeline.py
"""

import numpy as np

from sfinet.export import export_stage_maps
from sfinet.filters import AmbiguityParams, NoiseParams, filter_stage
from sfinet.tensor import Tensor

rng = np.random.default_rng(7)

# a 6x6 map with 8 channels: a bright blob on a noisy background
features = 0.3 * rng.standard_normal((6, 6, 8))
features[1:3, 1:3] += 2.0

projection = Tensor(rng.uniform(-0.5, 0.5, size=(8, 5)))
amb = AmbiguityParams(k=3, gamma1=0.15)
noise = NoiseParams(gamma2=0.3)

arts = filter_stage(Tensor(features), projection, amb, noise)

print("coarse prediction p:", np.round(arts.coarse.data, 3))
print("top-k classes:", arts.topk_indices, "with weights", np.round(arts.weights, 3))
print("\nambiguity map (higher = more confusable):")
print(np.round(arts.ambiguity_map.data, 2))
print(f"\nkeep-mask ({int(arts.mask.data.sum())} of 36 kept; 0 = dropped):")
print(arts.mask.data.astype(int))
print("\nnoise scores (channel-average of surviving class maps):")
print(np.round(arts.noise_scores.data, 2))
kept = np.zeros(36, dtype=int)
kept[arts.selected_indices] = 1
print(f"\nnoise filter keeps {len(arts.selected_indices)} positions:")
print(kept.reshape(6, 6))
print("\nselected feature block:", arts.selected_features.shape)

written = export_stage_maps("demo_out", "demo", 0, arts)
print(f"\nwrote {len(written)} map files under demo_out/")
