"""Crawler clock-skew handling (Section 3.1).

The paper's crawl records each snapshot with the *content server's* GMT
time, which is not synchronised across servers.  The measurement
methodology removes the skew: a reference PlanetLab node ``n_i`` polls
each server ``s_j`` and estimates the server's offset as

    eps(n_i, s_j) = t_sj - t_ni - RTT / 2

then subtracts ``eps`` from every timestamp of ``s_j``.  The estimate is
imperfect (RTT asymmetry), leaving a small residual error -- which we
reproduce, because it is part of why trace inconsistency measurements
have sub-second noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sim.rng import RandomStream

__all__ = ["ClockModel", "SkewEstimate"]


@dataclass(frozen=True)
class SkewEstimate:
    """One server's estimated clock offset."""

    true_skew_s: float
    estimated_skew_s: float

    @property
    def residual_s(self) -> float:
        """Error remaining after correction."""
        return self.true_skew_s - self.estimated_skew_s


class ClockModel:
    """Samples server clock skews and simulates the RTT/2 correction."""

    def __init__(
        self,
        stream: RandomStream,
        skew_sigma_s: float = 2.0,
        rtt_asymmetry_sigma_s: float = 0.05,
    ) -> None:
        if skew_sigma_s < 0 or rtt_asymmetry_sigma_s < 0:
            raise ValueError("sigmas must be >= 0")
        self.stream = stream
        self.skew_sigma_s = skew_sigma_s
        self.rtt_asymmetry_sigma_s = rtt_asymmetry_sigma_s

    def sample(self) -> SkewEstimate:
        """Skew of one server plus the crawler's estimate of it.

        The estimate differs from the truth by the forward/return path
        asymmetry the RTT/2 assumption cannot see.
        """
        true_skew = self.stream.gauss(0.0, self.skew_sigma_s)
        asymmetry = self.stream.gauss(0.0, self.rtt_asymmetry_sigma_s)
        return SkewEstimate(true_skew_s=true_skew, estimated_skew_s=true_skew + asymmetry)

    @staticmethod
    def skew_timestamps(times: np.ndarray, estimate: SkewEstimate) -> np.ndarray:
        """What the server's clock would have stamped (truth + skew)."""
        return np.asarray(times, dtype=float) + estimate.true_skew_s

    @staticmethod
    def correct_timestamps(skewed_times: np.ndarray, estimate: SkewEstimate) -> np.ndarray:
        """Apply the paper's correction: subtract the estimated offset.

        Leaves the residual ``true - estimated`` in every timestamp.
        """
        return np.asarray(skewed_times, dtype=float) - estimate.estimated_skew_s
