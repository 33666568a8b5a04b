"""One aggregation layer, by hand on a star, then a full multi-layer run.

Each layer recomputes softmax coefficients from its input features and
replaces every node's feature by the weighted average of its neighbours'.
A positive attention intensity up-weights sign-agreeing neighbours; zero
intensity is plain graph convolution.
"""

import math

from csbmlab import (CsbmParams, FeaturedGraph, LayerSchedule, SignSym, forward_layer,
                     run_network, sample_csbm)

# a 4-node star: centre 0 (feature 1.0) joined to leaves with 2.0, -1.0, 3.0
star = FeaturedGraph.from_edges([1, 1, 0, 1], [1.0, 2.0, -1.0, 3.0],
                                [(0, 1), (0, 2), (0, 3)])
t = 1.0
out = forward_layer(star, star.features, SignSym(t))

# by hand: score +t for a leaf that agrees in sign with the centre, -t for
# one that does not; softmax weights e^t and e^-t, then the weighted average
agree, disagree = math.exp(t), math.exp(-t)
by_hand = (agree * 2.0 + disagree * -1.0 + agree * 3.0) / (2 * agree + disagree)
print(f"centre after one SignSym({t:g}) layer: {out[0]:.12f}")
print(f"e^t / e^-t weighted average by hand: {by_hand:.12f}")
print("leaves (their one neighbour is the centre):", out[1:].tolist())

# a full network at the easy-regime parameters: one attention layer suffices
n = 3000
mu = 2 * 10.0 * math.sqrt(math.log(n))
params = CsbmParams.from_ab(n, a=3.0, b=2.0, mu=mu, sigma=10.0)
graph = sample_csbm(params, seed=0)

for intensities in ([10.0], [0.0] * 4, [0.0, 0.5, 0.5, 5.0]):
    schedule = LayerSchedule.from_intensities(intensities)
    trace, result = run_network(graph, schedule)
    print(f"schedule {schedule.describe():44s} accuracy {result.accuracy:.4f} "
          f"perfect={str(result.perfect).lower()}")
