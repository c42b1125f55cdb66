"""Dataset split, Adam, and minibatch triplet training for either encoder.

Each step stacks the anchor/close/far members of a batch into one index
vector, runs a single shared-parameter batched forward over those rows
through the encoder interface (``forward_rows``/``backward_rows``, see
``encoder``), backpropagates the margin loss, averages gradients over the
processed triplets, and applies one Adam update.  Degenerate members
(unchartable channels) knock out their whole triplet, which is counted
rather than trained on.  Forward and backward see the parameters read-only,
and Adam checks each block it writes for finiteness while it is in cache.

A run trains in a fixed working set: one gradient array per parameter is
allocated once, beside the Adam moments, and every step's backward writes
into it; a step's forward cache, outputs and output gradients are freed
before the next step's forward.  The gradient arrays are reused rather
than freed, because a parameter-sized array freed and allocated again goes
back to the operating system and faults its pages in anew every step.

Seeding: the train/eval split uses substream(seed, 0), epoch shuffles use
substream(seed, 1), and mining uses the MiningConfig's own seed, so every
stage is reproducible in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .metricspace import DataError
from .rng import SplitMix64, substream
from .triplet import MiningConfig, mine_triplets, triplet_loss_grad_batch


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    margin: float = 1.0
    split_ratio: float = 0.7
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.split_ratio < 1.0:
            raise ValueError("split_ratio must be in (0, 1)")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        for name in ("learning_rate", "eps"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0")
        if self.margin < 0.0:
            raise ValueError("margin must be >= 0")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")


# Adam walks each flattened parameter in blocks of this many float64 values,
# so the element-wise passes over a block stay in L2 cache.
_ADAM_BLOCK = 1 << 14


@dataclass
class OptimizerState:
    """Adam accumulators, one pair per parameter array, plus two scratch rows.

    ``m`` and ``v`` are C-contiguous zeros shaped like their parameters;
    ``scratch`` holds the two (_ADAM_BLOCK,) rows that ``adam_step`` reuses
    for every block of every step, so a step allocates nothing.
    """

    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    step: int = 0
    scratch: np.ndarray = field(default_factory=lambda: np.empty((2, _ADAM_BLOCK)))

    @classmethod
    def for_params(cls, params: list) -> "OptimizerState":
        return cls(m=[np.zeros(p.shape) for p in params],
                   v=[np.zeros(p.shape) for p in params])


@dataclass
class TrainReport:
    epoch_losses: list
    skipped: int


def split_dataset(n: int, ratio: float, seed: int):
    """Seeded disjoint train/eval index split; both halves sorted ascending.

    The training half holds train_size(n, ratio) samples.  Sorting keeps
    sampling-time order inside each subset so temporal mining windows stay
    meaningful on the train positions.
    """
    if n < 2:
        raise DataError("need at least two samples to split")
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must be in (0, 1)")
    perm = np.arange(n)
    SplitMix64(seed).shuffle(perm)
    n_train = train_size(n, ratio)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def train_size(n: int, ratio: float) -> int:
    """Samples in split_dataset's training half: round(ratio * n), half up,
    clipped to [1, n - 1]."""
    return min(max(math.floor(ratio * n + 0.5), 1), n - 1)


def adam_step(state: OptimizerState, params: list, grads: list, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update (Kingma & Ba), in place on p, m and v.

    Each flattened parameter is walked in blocks of _ADAM_BLOCK values, and
    every element-wise pass of a block writes into ``state.scratch``, so the
    step allocates no parameter-sized temporaries.  The per-element operation
    order is that of the textbook form

        m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
        p -= lr * (m/c1) / (sqrt(v/c2) + eps)

    so the result is bit-identical to it.  ``grads`` are only read.
    Parameters must be C-contiguous: a flattening copy would be updated
    instead of the parameter, so other layouts raise ValueError.  Each block
    is summed while it is still in cache; if any sum is not finite, the
    update is completed and FloatingPointError is raised.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("parameter/gradient/state length mismatch")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError(f"shape mismatch {p.shape} vs {g.shape}")
        if not p.flags.c_contiguous:
            raise ValueError("parameters must be C-contiguous")
    state.step += 1
    t = state.step
    b1, b2, lr, eps = cfg.beta1, cfg.beta2, cfg.learning_rate, cfg.eps
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    finite = True
    for p, g, m, v in zip(params, grads, state.m, state.v):
        p, g, m, v = p.reshape(-1), g.reshape(-1), m.reshape(-1), v.reshape(-1)
        for lo in range(0, p.size, _ADAM_BLOCK):
            hi = min(lo + _ADAM_BLOCK, p.size)
            pb, gb, mb, vb = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
            a, b = state.scratch[0, :hi - lo], state.scratch[1, :hi - lo]
            np.multiply(mb, b1, out=mb)
            np.multiply(gb, 1.0 - b1, out=a)
            np.add(mb, a, out=mb)
            np.multiply(vb, b2, out=vb)
            np.multiply(gb, gb, out=a)
            np.multiply(a, 1.0 - b2, out=a)
            np.add(vb, a, out=vb)
            np.divide(mb, c1, out=a)
            np.multiply(a, lr, out=a)
            np.divide(vb, c2, out=b)
            np.sqrt(b, out=b)
            np.add(b, eps, out=b)
            np.divide(a, b, out=a)
            np.subtract(pb, a, out=pb)
            finite &= math.isfinite(np.add.reduce(pb))
    if not finite:
        raise FloatingPointError("non-finite parameters")


def _backprop(model, channels: np.ndarray, idx: np.ndarray, margin: float, grads: list):
    """One batch's forward, margin loss and backward; returns (n_ok, loss sum).

    ``idx`` stacks the batch's anchor, close and far rows.  n_ok counts the
    triplets whose three members are chartable, and the loss is summed over
    them.  When n_ok > 0, the gradient of the mean loss over those triplets
    is written into ``grads``.  The step's intermediates die when this
    returns.
    """
    nb = idx.size // 3
    z3, ok3, cache = model.forward_rows(channels, idx)
    ok = ok3.reshape(3, nb).all(axis=0)
    n_ok = int(np.sum(ok))
    if n_ok == 0:
        return 0, 0.0
    loss, *gz = triplet_loss_grad_batch(*z3.reshape(3, nb, -1), margin)
    scale = np.where(ok, 1.0 / n_ok, 0.0)[:, None]
    model.backward_rows(cache, np.concatenate([g * scale for g in gz]), grads)
    return n_ok, float(np.sum(loss[ok]))


# Overflow and NaN in a step are caught by the finiteness checks below and
# raised as one error, so numpy's warnings about them are silenced.
@np.errstate(over="ignore", invalid="ignore")
def train(model, cs, cfg: TrainConfig, mining: MiningConfig) -> TrainReport:
    """Triplet-train the encoder on a split of cs; returns losses and skip count.

    The training rows are split_dataset's training half of cs.  Triplets
    are mined over positions within the ordered train subset, then mapped
    back to rows of cs.  ``cs.channels`` may be an array or a
    fileio.RowReader, which reads each step's rows from its file.  All
    three branches of a triplet share the same parameter snapshot within a
    step: the parameters are read-only during forward, loss and backward,
    so a write to them raises at the write.

    A step whose loss sum, or any of whose Adam-updated parameter blocks,
    is not finite stops training with ValueError("training diverged: ...")
    naming its 1-based epoch and step.
    """
    channels = cs.channels
    rows, _ = split_dataset(channels.shape[0], cfg.split_ratio, substream(cfg.seed, 0))
    trip = rows[mine_triplets(int(rows.size), mining)]
    if trip.size == 0:
        raise DataError("mining produced no triplets")

    params = model.arrays()
    state = OptimizerState.for_params(params)
    grads = [np.empty(p.shape) for p in params]
    shuffle_rng = SplitMix64(substream(cfg.seed, 1))
    order = np.arange(trip.shape[0])

    epoch_losses: list[float] = []
    skipped = 0
    for epoch in range(1, cfg.epochs + 1):
        shuffle_rng.shuffle(order)
        loss_sum = 0.0
        loss_count = 0
        for step, b0 in enumerate(range(0, order.size, cfg.batch_size), 1):
            sel = order[b0:b0 + cfg.batch_size]
            writeable = [p.flags.writeable for p in params]
            try:
                for p in params:
                    p.flags.writeable = False
                n_ok, step_loss = _backprop(model, channels, trip[sel].T.ravel(),
                                            cfg.margin, grads)
            finally:
                for p, w in zip(params, writeable):
                    p.flags.writeable = w
            skipped += sel.size - n_ok
            if n_ok == 0:
                continue
            if not math.isfinite(step_loss):
                raise ValueError(f"training diverged: non-finite loss at epoch {epoch}, "
                                 f"step {step}")
            loss_sum += step_loss
            loss_count += n_ok
            try:
                adam_step(state, params, grads, cfg)
            except FloatingPointError:
                raise ValueError(f"training diverged: non-finite parameters at epoch "
                                 f"{epoch}, step {step}") from None
        if loss_count == 0:
            raise DataError("all training triplets degenerate")
        epoch_losses.append(loss_sum / loss_count)
    return TrainReport(epoch_losses=epoch_losses, skipped=skipped)
