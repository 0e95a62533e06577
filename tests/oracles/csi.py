"""Per-packet CSI synthesis, the reference for ``synthesize_batch``."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.channel import CSIMeasurement, CSISynthesizer, PathComponent


def synthesize_batch_scalar(
    synthesizer: CSISynthesizer,
    paths: Sequence[PathComponent],
    num_packets: int,
    rng: np.random.Generator,
    with_fading: bool = True,
) -> list[CSIMeasurement]:
    """``num_packets`` sequential :meth:`CSISynthesizer.synthesize` calls."""
    return [
        synthesizer.synthesize(paths, rng, with_fading)
        for _ in range(num_packets)
    ]
