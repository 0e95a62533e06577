"""802.11n CSI synthesis over traced multipath.

The frequency-domain channel state information on subcarrier ``i`` is

    H(f_i) = sum_k g_k * a_k * exp(-j 2 pi (f_c + f_i) tau_k) + n_i

where ``a_k`` is the large-scale amplitude of path ``k`` (path loss +
excess loss), ``g_k`` the per-packet Rician fading gain, ``tau_k`` the
path delay, and ``n_i`` receiver noise.  The layout mirrors a 20 MHz
802.11n channel: a 64-point FFT grid with 56 occupied subcarriers
(indices -28..-1, 1..28), of which an Intel-5300-style report exposes 30.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from ..obs import span
from .fading import FadingModel
from .multipath import PathComponent
from .noise import NoiseModel
from .propagation import PropagationModel, db_to_linear_amplitude

__all__ = ["OFDMConfig", "CSIMeasurement", "CSISynthesizer", "INTEL5300_SUBCARRIERS"]

#: Subcarrier indices reported by the Intel 5300 CSI tool in 20 MHz HT mode.
INTEL5300_SUBCARRIERS: tuple[int, ...] = (
    -28, -26, -24, -22, -20, -18, -16, -14, -12, -10, -8, -6, -4, -2, -1,
    1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 28,
)


@dataclass(frozen=True)
class OFDMConfig:
    """20 MHz 802.11n OFDM parameters.

    Attributes
    ----------
    n_fft:
        FFT size; CIR taps come out at ``1 / bandwidth_hz`` spacing.
    bandwidth_hz:
        Sampled channel bandwidth.
    carrier_hz:
        RF carrier (2.412 GHz = channel 1).
    active_subcarriers:
        Occupied subcarrier indices relative to the carrier (DC excluded).
    """

    n_fft: int = 64
    bandwidth_hz: float = 20e6
    carrier_hz: float = 2.412e9
    active_subcarriers: tuple[int, ...] = field(
        default_factory=lambda: tuple(
            i for i in range(-28, 29) if i != 0
        )
    )

    def __post_init__(self) -> None:
        if self.n_fft <= 0 or self.bandwidth_hz <= 0 or self.carrier_hz <= 0:
            raise ValueError("OFDM parameters must be positive")
        half = self.n_fft // 2
        for idx in self.active_subcarriers:
            if not -half <= idx <= half - 1:
                raise ValueError(f"subcarrier index {idx} outside FFT grid")

    @property
    def subcarrier_spacing_hz(self) -> float:
        """Frequency gap between adjacent subcarriers."""
        return self.bandwidth_hz / self.n_fft

    @property
    def tap_resolution_s(self) -> float:
        """Time resolution of one CIR tap (50 ns at 20 MHz)."""
        return 1.0 / self.bandwidth_hz

    def subcarrier_frequencies_hz(self) -> np.ndarray:
        """Baseband offsets of the active subcarriers."""
        return (
            np.array(self.active_subcarriers, dtype=float)
            * self.subcarrier_spacing_hz
        )


@dataclass(frozen=True)
class CSIMeasurement:
    """One CSI snapshot from a single packet on one TX-RX link.

    Attributes
    ----------
    csi:
        Complex channel gains on the active subcarriers, in sqrt(mW) units
        (``|csi|^2`` is a per-subcarrier received power in mW).
    config:
        OFDM layout the snapshot was measured under.
    rssi_dbm:
        The coarse per-packet RSSI the NIC firmware reports alongside the
        CSI: total power corrupted by AGC jitter and dB quantization
        (``None`` when the synthesizer did not model it).  This is the
        "coarse received signal strength" the paper contrasts CSI with.
    """

    csi: np.ndarray
    config: OFDMConfig
    rssi_dbm: float | None = None

    def __post_init__(self) -> None:
        csi = np.asarray(self.csi, dtype=complex)
        if csi.shape != (len(self.config.active_subcarriers),):
            raise ValueError(
                "CSI length must match the number of active subcarriers"
            )
        object.__setattr__(self, "csi", csi)

    def total_power_mw(self) -> float:
        """Aggregate received power across subcarriers (wideband power)."""
        return float(np.sum(np.abs(self.csi) ** 2))

    def rssi_mw(self) -> float:
        """The firmware RSSI in mW; falls back to wideband power."""
        if self.rssi_dbm is None:
            return self.total_power_mw()
        return 10.0 ** (self.rssi_dbm / 10.0)

    def subsample_intel5300(self) -> "CSIMeasurement":
        """Restrict to the 30 subcarriers the Intel 5300 driver exports."""
        picks, sub_cfg = _intel5300_subsampling(self.config)
        return CSIMeasurement(self.csi[list(picks)], sub_cfg)


@lru_cache(maxsize=None)
def _intel5300_subsampling(
    config: OFDMConfig,
) -> tuple[tuple[int, ...], OFDMConfig]:
    """``(pick indices, subsampled config)`` for one OFDM layout.

    Subsampling happens once per packet on the measurement fast path, so
    the index lookup is cached per (hashable, frozen) config instead of
    rebuilding an ``{subcarrier: index}`` dict on every call.
    """
    index_of = {sc: i for i, sc in enumerate(config.active_subcarriers)}
    try:
        picks = tuple(index_of[sc] for sc in INTEL5300_SUBCARRIERS)
    except KeyError as exc:
        raise ValueError(
            f"subcarrier {exc.args[0]} not present in this measurement"
        ) from None
    sub_cfg = OFDMConfig(
        n_fft=config.n_fft,
        bandwidth_hz=config.bandwidth_hz,
        carrier_hz=config.carrier_hz,
        active_subcarriers=INTEL5300_SUBCARRIERS,
    )
    return picks, sub_cfg


@dataclass(frozen=True)
class CSISynthesizer:
    """Generates per-packet CSI snapshots from a traced path set.

    Attributes
    ----------
    tx_power_dbm:
        Transmit power (TL-WR941ND class routers transmit around 20 dBm;
        we default slightly lower for client devices).
    propagation:
        Large-scale path loss model.
    fading:
        Small-scale per-packet fading model.
    noise:
        Receiver noise model (``None`` disables noise).
    ofdm:
        Subcarrier layout.
    rssi_jitter_db:
        Std of the per-packet AGC/gain error on the reported RSSI (coarse
        RSS is unstable packet-to-packet; CSI magnitudes are not).
    rssi_quantization_db:
        Step size the firmware rounds RSSI to (1 dB on typical NICs).
    """

    tx_power_dbm: float = 15.0
    propagation: PropagationModel = field(default_factory=PropagationModel)
    fading: FadingModel = field(default_factory=FadingModel)
    noise: NoiseModel | None = field(default_factory=NoiseModel)
    ofdm: OFDMConfig = field(default_factory=OFDMConfig)
    rssi_jitter_db: float = 2.0
    rssi_quantization_db: float = 1.0

    def path_amplitude(self, component: PathComponent) -> float:
        """Mean linear amplitude of one component, in sqrt(mW)."""
        rx_dbm = component.received_power_dbm(self.tx_power_dbm, self.propagation)
        return db_to_linear_amplitude(rx_dbm)

    def synthesize(
        self,
        paths: Sequence[PathComponent],
        rng: np.random.Generator,
        with_fading: bool = True,
    ) -> CSIMeasurement:
        """Produce one packet's CSI snapshot over the given path set."""
        if not paths:
            raise ValueError("need at least one path component")
        freqs = self.ofdm.carrier_hz + self.ofdm.subcarrier_frequencies_hz()
        csi = np.zeros(len(freqs), dtype=complex)
        for component in paths:
            amplitude = self.path_amplitude(component)
            gain = (
                self.fading.sample_gain(component, rng) if with_fading else 1.0
            )
            csi += (
                amplitude
                * gain
                * np.exp(-2j * np.pi * freqs * component.delay_s)
            )
        if self.noise is not None:
            csi += self.noise.sample_subcarrier_noise(len(freqs), rng)
        rssi = self._report_rssi(csi, rng)
        return CSIMeasurement(csi, self.ofdm, rssi)

    def _report_rssi(self, csi: np.ndarray, rng: np.random.Generator) -> float:
        """The firmware's coarse RSSI: jittered, quantized total power."""
        power_mw = float(np.sum(np.abs(csi) ** 2))
        power_mw = max(power_mw, 1e-30)
        dbm = 10.0 * np.log10(power_mw)
        if self.rssi_jitter_db > 0:
            dbm += float(rng.normal(0.0, self.rssi_jitter_db))
        if self.rssi_quantization_db > 0:
            dbm = (
                round(dbm / self.rssi_quantization_db)
                * self.rssi_quantization_db
            )
        return float(dbm)

    def synthesize_batch(
        self,
        paths: Sequence[PathComponent],
        num_packets: int,
        rng: np.random.Generator,
        with_fading: bool = True,
    ) -> list[CSIMeasurement]:
        """Independent CSI snapshots for ``num_packets`` packets.

        Vectorized over the whole ``(packets, paths, subcarriers)`` batch:
        the per-path phase ramps are computed once instead of per packet,
        and fading/noise/RSSI math runs as matrix operations.  The RNG is
        consumed in exactly the per-packet call order of the scalar
        :meth:`synthesize` loop (fading draws, then noise, then RSSI
        jitter, packet by packet), so the outputs are bit-identical to
        ``num_packets`` sequential :meth:`synthesize` calls — enforced
        against the per-packet oracle in ``tests/oracles`` by
        ``benchmarks/bench_hotpath.py`` and ``tests/channel``.
        """
        if num_packets < 0:
            raise ValueError("num_packets must be non-negative")
        with span("csi.synthesize", packets=num_packets, paths=len(paths)):
            if num_packets == 0:
                return []
            if not paths:
                raise ValueError("need at least one path component")
            return self._synthesize_batch_vectorized(
                paths, num_packets, rng, with_fading
            )

    # ------------------------------------------------------------------
    # Vectorized fast path
    # ------------------------------------------------------------------
    def _synthesize_batch_vectorized(
        self,
        paths: Sequence[PathComponent],
        num_packets: int,
        rng: np.random.Generator,
        with_fading: bool,
    ) -> list[CSIMeasurement]:
        """One NumPy pass over the packet batch.

        RNG draw-order contract (must match the scalar loop exactly): for
        each packet, (1) two standard normals per path — real then
        imaginary fading component, in path order, drawn as one
        ``standard_normal(2 * paths)`` array, which consumes the PCG64
        stream identically to the scalar calls; (2) the noise model's
        draws; (3) one RSSI jitter normal.  Only the draws stay in the
        per-packet loop — all arithmetic on them is batched.
        """
        freqs = self.ofdm.carrier_hz + self.ofdm.subcarrier_frequencies_hz()
        num_sc = len(freqs)
        num_paths = len(paths)
        amplitudes = [self.path_amplitude(c) for c in paths]
        if with_fading:
            k_factors = [self.fading.k_for(c) for c in paths]
            specular = np.array(
                [math.sqrt(k / (k + 1.0)) for k in k_factors]
            )
            sigma = np.array(
                [math.sqrt(1.0 / (2.0 * (k + 1.0))) for k in k_factors]
            )
            gains = np.empty((num_packets, num_paths), dtype=complex)
        else:
            gains = None
        noise_rows = (
            np.empty((num_packets, num_sc), dtype=complex)
            if self.noise is not None
            else None
        )
        jitters = (
            np.empty(num_packets) if self.rssi_jitter_db > 0 else None
        )
        for p in range(num_packets):
            if gains is not None:
                draws = rng.standard_normal(2 * num_paths)
                gains.real[p] = specular + sigma * draws[0::2]
                gains.imag[p] = sigma * draws[1::2]
            if noise_rows is not None:
                noise_rows[p] = self.noise.sample_subcarrier_noise(
                    num_sc, rng
                )
            if jitters is not None:
                jitters[p] = rng.normal(0.0, self.rssi_jitter_db)

        csi = np.zeros((num_packets, num_sc), dtype=complex)
        for idx, component in enumerate(paths):
            phase = np.exp(-2j * np.pi * freqs * component.delay_s)
            if gains is not None:
                coeff = amplitudes[idx] * gains[:, idx]
                csi += coeff[:, np.newaxis] * phase
            else:
                csi += amplitudes[idx] * phase
        if noise_rows is not None:
            csi += noise_rows
        rssi = self._report_rssi_batch(csi, jitters)
        return [
            CSIMeasurement(csi[p], self.ofdm, rssi[p])
            for p in range(num_packets)
        ]

    def _report_rssi_batch(
        self, csi: np.ndarray, jitters: np.ndarray | None
    ) -> list[float]:
        """Vectorized :meth:`_report_rssi` over a ``(packets, sc)`` batch.

        ``np.round`` matches the scalar path's ``round`` (both
        round-half-even), and per-row sums reduce in the same order as
        the scalar 1-D sums, so reported values are bit-identical.
        """
        power_mw = np.sum(np.abs(csi) ** 2, axis=1)
        power_mw = np.maximum(power_mw, 1e-30)
        dbm = 10.0 * np.log10(power_mw)
        if jitters is not None:
            dbm = dbm + jitters
        if self.rssi_quantization_db > 0:
            dbm = (
                np.round(dbm / self.rssi_quantization_db)
                * self.rssi_quantization_db
            )
        return [float(v) for v in dbm]
