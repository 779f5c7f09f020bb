"""Follow one feature map through the ambiguity and noise filters.

Shows the class maps, the weighted ambiguity vote, the rank-based drop
mask, and which positions the noise filter keeps.  Writes the maps as
PGM + CSV to demo_out/.

Run:  python demos/02_filter_pipeline.py
"""

import numpy as np

from sfinet.export import export_stage_maps
from sfinet.filters import AmbiguityParams, filter_pass, split_stages, stage_layout
from sfinet.tensor import Tensor

rng = np.random.default_rng(7)

# a 6x6 map with 8 channels: a bright blob on a noisy background, passed
# to the filters as 36 rows in row-major order (row x * 6 + y is cell (x, y))
grid = (6, 6)
features = 0.3 * rng.standard_normal((*grid, 8))
features[1:3, 1:3] += 2.0

projection = Tensor(rng.uniform(-0.5, 0.5, size=(8, 5)))
amb = AmbiguityParams(k=3, gamma1=0.15)
# one stage of 36 rows; the noise filter drops the fraction gamma2 = 0.3
layout = stage_layout([36], amb.gamma1, 0.3)

# a pass stacks every stage's values; split_stages gives each stage its own record
stacked = filter_pass([Tensor(features.reshape(36, 8))], [projection], amb, layout)
arts = split_stages(stacked, layout)[0]

print("coarse prediction p:", np.round(arts.coarse, 3))
print("top-k classes:", arts.topk_indices.tolist(), "with weights", np.round(amb.weights, 3))
print("\nambiguity map (higher = more confusable):")
print(np.round(arts.ambiguity_map.reshape(grid), 2))
print(f"\nkeep-mask ({int(arts.mask.sum())} of 36 kept; 0 = dropped):")
print(arts.mask.reshape(grid).astype(int))
print("\nnoise scores (channel-average of surviving class maps):")
print(np.round(arts.noise_scores.reshape(grid), 2))
kept = np.zeros(36, dtype=int)
kept[arts.selected_indices] = 1
print(f"\nnoise filter keeps {len(arts.selected_indices)} positions:")
print(kept.reshape(grid))
print("\nselected feature block:", arts.selected_features.shape)

written = export_stage_maps("demo_out", "demo", 0, arts, grid)
print(f"\nwrote {len(written)} map files under demo_out/")
