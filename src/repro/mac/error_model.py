"""Trace-driven frame-error models for the MAC evaluation.

The paper's MAC simulator replays frame-decoding outcomes measured on the
USRP testbed (§7.2.1). Our equivalent: the PHY layer of this package is run
offline over the simulated channel to fit a per-OFDM-symbol decode-failure
curve, and the MAC simulator draws subframe outcomes from that curve.

Two curves matter (Fig. 13):

* **standard channel estimation** — symbol-error probability *grows with
  the symbol's index in the frame* (BER bias): e(n) = e₀·(1 + γ·n).
* **RTE** — flat: e(n) = e_r.

A subframe spanning symbols [s, s+L) succeeds iff every symbol decodes:
P_success = ∏ (1 − e(n)). Aggregation schemes without RTE therefore pay a
steep reliability price on long frames — the paper's central mechanism.

Draws: :class:`SubframeDraws` is the only way the MAC engine samples
outcomes. It holds the stream contract — one uniform per subframe, in
subframe order, from a stream that feeds nothing else, compared against
the model's :meth:`~BerCurveErrorModel.subframe_success_probability` —
and pre-draws those uniforms in blocks. A model is anything with that one
scalar method; :class:`BerCurveErrorModel` memoises it per
``(start, n, rte)``, since runs revisit the same subframe geometries
constantly, and the memo returns the exact float the un-memoised
computation produced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.rng import RngStream

__all__ = [
    "BerCurveErrorModel",
    "FixedFerModel",
    "SubframeDraws",
    "fit_ber_curve",
    "DEFAULT_ERROR_MODEL",
]

#: Uniforms a :class:`SubframeDraws` buffer pre-draws per refill.
DRAW_BLOCK = 1024


@dataclass(frozen=True)
class BerCurveErrorModel:
    """Per-symbol decode-failure curves for standard CE vs RTE.

    Attributes:
        base_symbol_error: e₀ — failure probability of the first symbol
            (identical for both schemes: RTE cannot beat the preamble
            estimate at the head of the frame).
        bias_growth: γ — relative growth per symbol index under standard
            channel estimation (Fig. 3/13's BER bias).
        rte_symbol_error: Flat per-symbol failure probability under RTE.
        max_symbol_error: Cap on any per-symbol probability.
    """

    # Defaults calibrated against this package's PHY running the Fig. 3/13
    # experiment: symbol-decode failures grow roughly linearly with symbol
    # index under standard CE (e(113) ≈ 50× e(0) extrapolates the measured
    # trend to the multi-KB aggregates of §7.2), and stay flat under RTE.
    base_symbol_error: float = 2e-4
    bias_growth: float = 0.5
    rte_symbol_error: float = 2e-4
    max_symbol_error: float = 0.5

    def __post_init__(self):
        if not 0 <= self.base_symbol_error <= 1:
            raise ValueError("base_symbol_error must be a probability")
        if self.bias_growth < 0:
            raise ValueError("bias_growth must be non-negative")
        # Memo of exact probabilities, (start, n, rte) -> float. Not a
        # dataclass field: invisible to __eq__/__hash__/repr.
        object.__setattr__(self, "_p_cache", {})

    def symbol_error(self, index, rte: bool):
        """Decode-failure probability of the symbol at ``index``.

        ``index`` may be a scalar or an ``np.ndarray`` of indices (the
        array path returns an array of the same shape).
        """
        if rte:
            value = np.full_like(np.asarray(index, dtype=float), self.rte_symbol_error)
        else:
            value = self.base_symbol_error * (1.0 + self.bias_growth * np.asarray(index, dtype=float))
        return np.minimum(value, self.max_symbol_error)

    def _success_probability_exact(self, start_symbol: int, n_symbols: int, rte: bool) -> float:
        """The original scalar computation — the bit-exactness oracle."""
        if n_symbols <= 0:
            raise ValueError("subframe must span at least one symbol")
        indices = np.arange(start_symbol, start_symbol + n_symbols)
        errors = self.symbol_error(indices, rte)
        return float(np.exp(np.log1p(-errors).sum()))

    def subframe_success_probability(self, start_symbol: int, n_symbols: int, rte: bool) -> float:
        """P(all symbols in [start, start+n) decode), memoised exactly."""
        key = (int(start_symbol), int(n_symbols), bool(rte))
        p = self._p_cache.get(key)
        if p is None:
            p = self._success_probability_exact(*key)
            self._p_cache[key] = p
        return p


@dataclass(frozen=True)
class FixedFerModel:
    """Constant frame-error rate regardless of position/length — for tests."""

    fer: float = 0.0

    def subframe_success_probability(self, start_symbol: int, n_symbols: int, rte: bool) -> float:
        """Always ``1 − fer`` regardless of position or length."""
        return 1.0 - self.fer


class SubframeDraws:
    """Decode outcomes of a run's subframes, drawn from one RNG stream.

    Each subframe consumes exactly one uniform, in subframe order, and
    decodes iff that uniform is below the model's exact
    ``subframe_success_probability``. The uniforms are pre-drawn in blocks
    of :data:`DRAW_BLOCK`: a block ``uniform(size=k)`` reads the same
    stream values as ``k`` scalar ``uniform()`` calls, so outcomes do not
    depend on where the block boundaries fall. ``rng`` must feed nothing
    else (the engine passes its ``errors`` child stream), which makes the
    unread tail of the last block invisible.
    """

    def __init__(self, model, rng: RngStream):
        self._model = model
        self._rng = rng
        self._buffer: list = []
        self._pos = 0

    def _take(self, n: int) -> list:
        # Fast path: serve straight out of the current block (Python
        # floats via tolist — cheaper than boxing np.float64 per element).
        end = self._pos + n
        if end <= len(self._buffer):
            out = self._buffer[self._pos:end]
            self._pos = end
            return out
        out = []
        while len(out) < n:
            if self._pos >= len(self._buffer):
                self._buffer = np.atleast_1d(
                    self._rng.uniform(size=DRAW_BLOCK)).tolist()
                self._pos = 0
            take = min(n - len(out), len(self._buffer) - self._pos)
            out.extend(self._buffer[self._pos:self._pos + take])
            self._pos += take
        return out

    def draw_subframes(self, subframes) -> list:
        """Outcomes (True = decoded) of one transmission's subframes, in order."""
        prob = self._model.subframe_success_probability
        return [
            u < prob(sf.start_symbol, sf.n_symbols, sf.rte)
            for u, sf in zip(self._take(len(subframes)), subframes)
        ]


def fit_ber_curve(symbol_error_by_index: np.ndarray, rte_error_by_index: np.ndarray) -> BerCurveErrorModel:
    """Fit a :class:`BerCurveErrorModel` to measured per-symbol error curves.

    Args:
        symbol_error_by_index: Standard-CE per-symbol decode-failure rates
            (index 0 = first payload symbol), e.g. from running the PHY of
            this package over its channel model.
        rte_error_by_index: Same under RTE.

    Fits e₀ and γ by least squares on the standard curve and takes the mean
    of the RTE curve.
    """
    standard = np.asarray(symbol_error_by_index, dtype=float)
    rte = np.asarray(rte_error_by_index, dtype=float)
    if standard.size < 2:
        raise ValueError("need at least two points to fit the bias")
    n = np.arange(standard.size)
    # e(n) = e0 + e0·γ·n — linear regression.
    coeffs = np.polyfit(n, standard, 1)
    slope, intercept = float(coeffs[0]), float(coeffs[1])
    e0 = max(intercept, 1e-9)
    gamma = max(slope / e0, 0.0)
    return BerCurveErrorModel(
        base_symbol_error=e0,
        bias_growth=gamma,
        rte_symbol_error=float(max(rte.mean(), 1e-9)),
    )


DEFAULT_ERROR_MODEL = BerCurveErrorModel()
