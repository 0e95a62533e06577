"""Frequency-domain CSI to time-domain channel impulse response.

The core of NomLoc's PDP mechanism (Sec. IV-A): IFFT the measured CSI onto
the 64-tap grid of the 20 MHz channel, giving the power delay profile.  The
maximum tap power approximates the power of the direct path (PDP) because
the direct path plus its near reflections dominate one early tap, while
NLOS penetration crushes it relative to the LOS case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..obs import span
from .csi import CSIMeasurement

__all__ = [
    "DelayProfile",
    "csi_to_cir",
    "csi_to_cir_batch",
    "delay_profile",
    "delay_profile_batch",
    "tap_powers_batch",
]


@dataclass(frozen=True)
class DelayProfile:
    """Discrete power delay profile of one CSI snapshot.

    Attributes
    ----------
    delays_s:
        Tap delays, starting at 0, spaced by the OFDM tap resolution.
    amplitudes:
        Tap amplitudes ``|h[n]|`` (sqrt-mW units, like the CSI itself).
    """

    delays_s: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.delays_s, dtype=float)
        a = np.asarray(self.amplitudes, dtype=float)
        if d.shape != a.shape:
            raise ValueError("delays and amplitudes must align")
        object.__setattr__(self, "delays_s", d)
        object.__setattr__(self, "amplitudes", a)

    @property
    def powers(self) -> np.ndarray:
        """Per-tap powers ``|h[n]|^2`` in mW."""
        return self.amplitudes**2

    def max_power(self) -> float:
        """Maximum tap power — the paper's PDP estimator."""
        return float(self.powers.max())

    def first_tap_power(self) -> float:
        """Power of the earliest tap (misleading under NLOS; kept for
        comparison against the max-power estimator)."""
        return float(self.powers[0])

    def truncated(self, max_delay_s: float) -> "DelayProfile":
        """Profile restricted to taps at or before ``max_delay_s``."""
        mask = self.delays_s <= max_delay_s + 1e-15
        return DelayProfile(self.delays_s[mask], self.amplitudes[mask])


def csi_to_cir(measurement: CSIMeasurement) -> np.ndarray:
    """IFFT the CSI snapshot onto the full FFT tap grid.

    The active subcarriers are placed at their FFT bin positions (negative
    indices wrap, DC and guard bins stay zero) and a standard inverse FFT
    produces ``n_fft`` complex taps spaced ``1 / bandwidth`` apart.
    """
    cfg = measurement.config
    grid = np.zeros(cfg.n_fft, dtype=complex)
    for value, idx in zip(measurement.csi, cfg.active_subcarriers):
        grid[idx % cfg.n_fft] = value
    # Scale so a flat channel of unit gain yields a unit first tap,
    # independent of how many subcarriers were measured.
    taps = np.fft.ifft(grid) * (cfg.n_fft / len(cfg.active_subcarriers))
    return taps


def delay_profile(measurement: CSIMeasurement) -> DelayProfile:
    """Power delay profile (Fig. 3 of the paper) of one CSI snapshot."""
    with span("cir.delay_profile", taps=measurement.config.n_fft):
        cfg = measurement.config
        taps = csi_to_cir(measurement)
        delays = np.arange(cfg.n_fft) * cfg.tap_resolution_s
        return DelayProfile(delays, np.abs(taps))


# ----------------------------------------------------------------------
# Batched extraction: one stacked IFFT for a whole packet batch.  Every
# function below is bit-identical to mapping its scalar counterpart over
# the batch (NumPy's pocketfft computes 2-D row transforms with the same
# 1-D kernel) — enforced in ``tests/channel`` and the hotpath benchmark.
# ----------------------------------------------------------------------

def _stack_batch(
    measurements: Iterable[CSIMeasurement],
) -> tuple[list[CSIMeasurement], np.ndarray]:
    """Validate a batch shares one OFDM config and stack its CSI rows."""
    ms = list(measurements)
    if not ms:
        raise ValueError("need at least one CSI measurement")
    cfg = ms[0].config
    for m in ms[1:]:
        if m.config != cfg:
            raise ValueError(
                "all measurements in a batch must share one OFDM config"
            )
    return ms, np.stack([m.csi for m in ms])


def csi_to_cir_batch(
    measurements: Sequence[CSIMeasurement],
) -> np.ndarray:
    """Stacked IFFT: one ``(packets, n_fft)`` matrix of complex taps.

    Row ``i`` equals ``csi_to_cir(measurements[i])`` bit-for-bit; the
    batch pays one 2-D IFFT instead of ``packets`` 1-D ones.  All
    measurements must share one OFDM config.
    """
    ms, matrix = _stack_batch(measurements)
    cfg = ms[0].config
    grid = np.zeros((len(ms), cfg.n_fft), dtype=complex)
    cols = [idx % cfg.n_fft for idx in cfg.active_subcarriers]
    grid[:, cols] = matrix
    return np.fft.ifft(grid, axis=1) * (
        cfg.n_fft / len(cfg.active_subcarriers)
    )


def tap_powers_batch(
    measurements: Sequence[CSIMeasurement],
) -> np.ndarray:
    """Per-tap powers ``|h[n]|^2`` of a batch, as a ``(packets, n_fft)``
    matrix — the input of the batched PDP estimators."""
    ms = list(measurements)
    if not ms:
        raise ValueError("need at least one CSI measurement")
    # Same span name as the scalar extractor, so per-stage profiles keep
    # covering CIR extraction regardless of which path served it.
    with span("cir.delay_profile", taps=ms[0].config.n_fft, batch=len(ms)):
        return np.abs(csi_to_cir_batch(ms)) ** 2


def delay_profile_batch(
    measurements: Sequence[CSIMeasurement],
) -> list[DelayProfile]:
    """Power delay profiles of a whole packet batch via one stacked IFFT.

    Element ``i`` equals ``delay_profile(measurements[i])`` bit-for-bit.
    """
    ms = list(measurements)
    if not ms:
        return []
    cfg = ms[0].config
    with span("cir.delay_profile", taps=cfg.n_fft, batch=len(ms)):
        amplitudes = np.abs(csi_to_cir_batch(ms))
        delays = np.arange(cfg.n_fft) * cfg.tap_resolution_s
        return [DelayProfile(delays, row) for row in amplitudes]
