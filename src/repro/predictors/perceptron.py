"""Perceptron branch predictor (Jiménez & Lin, 2002).

A table of perceptrons is selected by PC; the selected weight vector is
dotted with the ±1-encoded global history (plus a bias weight). Training
runs on a mispredict or whenever the output magnitude is below the
threshold θ = ⌊1.93·h + 14⌋.

Its ability to use much longer histories than counter tables is what makes
it attractive as a critic: future bits can be appended to the BOR without
sacrificing all the history bits (paper §6, "Predictors simulated").

Weights are 8-bit saturating signed integers, the budget assumed by the
paper's Table 3 (budget ≈ perceptrons × (h+1) bytes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.predictors.base import DirectionPredictor
from repro.predictors.registry import register_predictor


class PerceptronPredictor(DirectionPredictor):
    """Global-history perceptron predictor with numpy-backed weights."""

    name = "perceptron"

    WEIGHT_MIN = -128
    WEIGHT_MAX = 127

    def __init__(self, n_perceptrons: int, history_length: int) -> None:
        super().__init__()
        if n_perceptrons < 1:
            raise ValueError("need at least one perceptron")
        if history_length < 1:
            raise ValueError("perceptron needs at least one history bit")
        self.n_perceptrons = n_perceptrons
        self.history_length = history_length
        self.threshold = int(1.93 * history_length + 14)
        # Column 0 is the bias weight; columns 1..h correspond to history
        # bits 0..h-1 (bit 0 = most recent outcome).
        self.weights = np.zeros((n_perceptrons, history_length + 1), dtype=np.int16)
        self._nbytes = (history_length + 15) // 8

    def _row(self, pc: int) -> int:
        return (pc >> 2) % self.n_perceptrons

    def _inputs(self, history: int) -> np.ndarray:
        """±1 input vector of length h+1 (element 0 is the bias input)."""
        raw = (history & ((1 << self.history_length) - 1)).to_bytes(self._nbytes, "little")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        x = np.empty(self.history_length + 1, dtype=np.int16)
        x[0] = 1
        x[1:] = bits[: self.history_length].astype(np.int16) * 2 - 1
        return x

    def output(self, pc: int, history: int) -> int:
        """Raw perceptron output (sign = prediction, magnitude = confidence)."""
        x = self._inputs(history)
        return int(np.dot(self.weights[self._row(pc)].astype(np.int32), x))

    def predict(self, pc: int, history: int) -> bool:
        return self.output(pc, history) >= 0

    def predict_packed(self, pc: int, history: int) -> tuple[bool, np.ndarray]:
        """Packed fast path: the ±1 input vector is pure in the history."""
        x = self._inputs(history)
        y = int(np.dot(self.weights[self._row(pc)].astype(np.int32), x))
        return y >= 0, x

    def update_packed(
        self, pc: int, history: int, taken: bool, predicted: bool, x: np.ndarray
    ) -> None:
        if self.stats_enabled:
            self.stats.record(predicted == taken)
        row = self._row(pc)
        # The output is recomputed against current weights — aliasing
        # branches may have trained this row since prediction time.
        y = int(np.dot(self.weights[row].astype(np.int32), x))
        if (y >= 0) != taken or abs(y) <= self.threshold:
            t = 1 if taken else -1
            updated = self.weights[row] + t * x
            np.clip(updated, self.WEIGHT_MIN, self.WEIGHT_MAX, out=updated)
            self.weights[row] = updated

    def update(self, pc: int, history: int, taken: bool, predicted: bool) -> None:
        self.update_packed(pc, history, taken, predicted, self._inputs(history))

    def storage_bits(self) -> int:
        # 8-bit weights, (h+1) per perceptron; the global history register
        # itself is charged to the engine, as in the paper's budgets.
        return self.n_perceptrons * (self.history_length + 1) * 8

    def reset(self) -> None:
        super().reset()
        self.weights[:] = 0


# -- bit-sliced perceptron ops ------------------------------------------------
#
# Every perceptron the batched kernel (``repro.sim.batched``) and the
# timing model drive -- prophet, the filtered critic's inner perceptron,
# an unfiltered perceptron critic -- goes through one bundle of
# plain-int operations instead of small numpy calls. A weight row is ``(w0, s, p0, ..., p7)``: the bias weight, the sum of the h
# history weights, and the bit planes of ``u = w + 128`` (``pk`` is an
# h-bit int holding bit k of every history weight's u; lane j is
# history bit j). Over the masked history ``b`` the ±1 dot
#
#     w0 + sum(w, j in b) - sum(w, j not in b)
#       = w0 - s + 2 * (sum(2**k * popcount(pk & b)) - 128 * popcount(b))
#
# needs no input vector. A training step is a bit-sliced ripple: +1 on
# the lanes whose input agrees with the outcome, -1 on the others,
# minus the lanes at 255 (w = 127) or 0 (w = -128), which saturate;
# ``s`` moves by the net count. This is exact: u stays in [0, 255], so
# eight planes hold every weight in [WEIGHT_MIN, WEIGHT_MAX] and every
# dot is the integer the numpy predictor (the differential tests'
# oracle) computes. Setup stays O(rows): an all-zero table loads as one
# shared row, and write-back converts only the trained rows through
# numpy's packbits/unpackbits.


class PerceptronOps:
    """Bit-sliced integer op bundle over one :class:`PerceptronPredictor`
    (see the section comment).

    Both ops take ``w = pc >> 2`` and select the row ``w % n_perceptrons``.
    ``rows`` mirrors ``weights`` for the duration of a replay;
    :meth:`write_back` stores the trained rows into the int16 array (a
    replay loop does that in its ``finally``). ``predict(w, history)`` is
    the predictor's bit; ``train(w, history, taken)`` is
    ``update_packed`` minus the stats (the dot is recomputed against
    current weights) and returns the dot. A weight outside [WEIGHT_MIN,
    WEIGHT_MAX], which eight planes cannot hold, raises ``ValueError``.
    """

    __slots__ = ("_perceptron", "_loaded", "rows", "predict", "train")

    def __init__(self, perceptron) -> None:
        weights = perceptron.weights
        w_min, w_max = perceptron.WEIGHT_MIN, perceptron.WEIGHT_MAX
        if weights.min() < w_min or weights.max() > w_max:
            raise ValueError(
                f"{perceptron.name} weights must lie in [{w_min}, {w_max}]"
            )
        self._perceptron = perceptron
        n = perceptron.n_perceptrons
        h = perceptron.history_length
        hmask = (1 << h) - 1
        if weights.any():
            self.rows = rows = _perceptron_rows(weights)
        else:
            # All-zero table: u = 128 in every lane, i.e. only plane 7.
            self.rows = rows = [(0, 0, 0, 0, 0, 0, 0, 0, 0, hmask)] * n
        self._loaded = list(rows)
        thresh = perceptron.threshold

        def predict(w, history):
            w0, s, p0, p1, p2, p3, p4, p5, p6, p7 = rows[w % n]
            b = history & hmask
            return w0 - s + 2 * (
                (p0 & b).bit_count() + 2 * (p1 & b).bit_count()
                + 4 * (p2 & b).bit_count() + 8 * (p3 & b).bit_count()
                + 16 * (p4 & b).bit_count() + 32 * (p5 & b).bit_count()
                + 64 * (p6 & b).bit_count()
                + 128 * ((p7 & b).bit_count() - b.bit_count())
            ) >= 0

        def train(w, history, taken):
            r = w % n
            w0, s, p0, p1, p2, p3, p4, p5, p6, p7 = rows[r]
            b = history & hmask
            # predict's dot, inlined: the planes are needed below.
            y = w0 - s + 2 * (
                (p0 & b).bit_count() + 2 * (p1 & b).bit_count()
                + 4 * (p2 & b).bit_count() + 8 * (p3 & b).bit_count()
                + 16 * (p4 & b).bit_count() + 32 * (p5 & b).bit_count()
                + 64 * (p6 & b).bit_count()
                + 128 * ((p7 & b).bit_count() - b.bit_count())
            )
            if (y >= 0) != taken or -thresh <= y <= thresh:
                if taken:
                    c, d = b, hmask ^ b
                    w0 += w0 < w_max
                else:
                    c, d = hmask ^ b, b
                    w0 -= w0 > w_min
                # +1 on c, -1 on d, minus the lanes already saturated.
                c &= ~(p0 & p1 & p2 & p3 & p4 & p5 & p6 & p7)
                d &= p0 | p1 | p2 | p3 | p4 | p5 | p6 | p7
                s += c.bit_count() - d.bit_count()
                p0, c, d = p0 ^ c ^ d, c & p0, d & ~p0
                p1, c, d = p1 ^ c ^ d, c & p1, d & ~p1
                p2, c, d = p2 ^ c ^ d, c & p2, d & ~p2
                p3, c, d = p3 ^ c ^ d, c & p3, d & ~p3
                p4, c, d = p4 ^ c ^ d, c & p4, d & ~p4
                p5, c, d = p5 ^ c ^ d, c & p5, d & ~p5
                p6, c, d = p6 ^ c ^ d, c & p6, d & ~p6
                rows[r] = (w0, s, p0, p1, p2, p3, p4, p5, p6, p7 ^ c ^ d)
            return y

        self.predict = predict
        self.train = train

    def write_back(self) -> None:
        """Store the rows trained since loading into ``weights``."""
        rows = self.rows
        trained = [
            i for i, (row, loaded) in enumerate(zip(rows, self._loaded))
            if row is not loaded
        ]
        if not trained:
            return
        w0, _, *planes = zip(*[rows[i] for i in trained])
        weights = self._perceptron.weights
        h = weights.shape[1] - 1
        n_words = (h + 63) // 64
        if n_words == 1:
            words = np.array(planes, dtype="<u8")[..., None]
        else:
            words = np.array(
                [[[(p >> k) & 0xFFFF_FFFF_FFFF_FFFF for k in range(0, 64 * n_words, 64)]
                  for p in plane] for plane in planes],
                dtype="<u8",
            )
        # (8, m, words) planes -> (8, m, h) bits -> w per lane. Packing
        # and unpacking run flat: along a short axis they are slower.
        bits = np.unpackbits(words.view(np.uint8), axis=None, bitorder="little")
        bits = bits.reshape(8, len(trained), 64 * n_words)[..., :h]
        weights[trained, 0] = w0
        weights[trained, 1:] = np.einsum("k,kmh->mh", _PLANE_VALUES, bits) - 128


_PLANE_SHIFTS = np.arange(8, dtype=np.uint8)[:, None, None]
_PLANE_VALUES = np.array([1 << k for k in range(8)], dtype=np.int16)


def _perceptron_rows(weights) -> list:
    """Bit-sliced ``(w0, s, p0, ..., p7)`` rows of an int16 weight table
    whose weights lie in [-128, 127]."""
    n, h = weights.shape[0], weights.shape[1] - 1
    n_words = (h + 63) // 64
    u = (weights[:, 1:] + 128).astype(np.uint8)
    # (n, h) -> (8, n, h) bits, lane-padded to whole 64-bit words and
    # packed flat (see write_back).
    bits = np.zeros((8, n, 64 * n_words), dtype=np.uint8)
    bits[..., :h] = (u >> _PLANE_SHIFTS) & 1
    words = np.packbits(bits, axis=None, bitorder="little").view("<u8").reshape(8, n, -1)
    planes = words[..., 0].tolist()
    for k in range(1, n_words):
        planes = [
            [p | (q << (64 * k)) for p, q in zip(plane, high)]
            for plane, high in zip(planes, words[..., k].tolist())
        ]
    return list(zip(
        weights[:, 0].tolist(), weights[:, 1:].sum(axis=1).tolist(), *planes
    ))



@dataclass(frozen=True)
class PerceptronParams:
    """Geometry schema for :class:`PerceptronPredictor` (defaults: Table-3 8KB)."""

    n_perceptrons: int = 282
    history_length: int = 28

    def build(self) -> PerceptronPredictor:
        return PerceptronPredictor(self.n_perceptrons, self.history_length)


register_predictor(
    "perceptron",
    PerceptronParams,
    PerceptronParams.build,
    critic_capable=True,
    summary="global-history perceptron (Jimenez & Lin, 2001)",
)
