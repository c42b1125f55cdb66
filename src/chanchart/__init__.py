"""Unsupervised channel charting on synthetic MIMO channels.

The pipeline: synthesize spatially continuous channels along a pedestrian
trajectory, measure them with a phase- and scale-invariant pseudo-distance,
initialize a sparse correlation encoder from an Isomap embedding of sampled
channels, refine it with a temporal triplet loss, and score the resulting
2-D chart with trustworthiness and continuity.
"""

__version__ = "0.1.0"
