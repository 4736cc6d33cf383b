"""Section 3 reproduction: trace synthesis, crawling, and analysis.

The arrival workloads load with the package: the testbed and the
scenarios draw their update schedules from them.  The synthesizer and
every estimator import numpy, so they load on first use (PEP 562
``__getattr__``).
"""

from typing import Any

from .workload import BurstSilenceWorkload, LiveGameWorkload, PoissonWorkload


def __getattr__(name: str) -> Any:
    # The import system probes a package with hasattr() for ``from .
    # import submodule`` (as below), so only the names in ``__all__``
    # import anything.
    if name in __all__:
        from . import (
            analysis,
            causes,
            clustering,
            crawler,
            records,
            synthesize,
            tree_inference,
            ttl_inference,
            user_view,
            validation,
        )

        for module in (
            analysis,
            causes,
            clustering,
            crawler,
            records,
            synthesize,
            tree_inference,
            ttl_inference,
            user_view,
            validation,
        ):
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__all__ = [
    # records
    "CdnTrace",
    "DayTrace",
    "PollSeries",
    "ServerInfo",
    # synthesis
    "SynthesisConfig",
    "TraceSynthesizer",
    "synthesize_trace",
    "UserTrace",
    "UserDaySeries",
    "ClockModel",
    "SkewEstimate",
    # workloads
    "LiveGameWorkload",
    "PoissonWorkload",
    "BurstSilenceWorkload",
    # analysis
    "alpha_times",
    "episode_lengths",
    "day_inconsistencies",
    "all_inconsistencies",
    "server_mean_inconsistencies",
    "server_max_inconsistency",
    "consistency_ratio",
    "provider_inconsistencies",
    "inconsistent_server_fraction",
    # clustering
    "geo_clusters",
    "isp_clusters",
    "distance_bands",
    # ttl inference
    "TtlInference",
    "infer_ttl",
    "deviation_curve",
    "refinement_deviation",
    "theory_rmse",
    # user view
    "redirected_fractions",
    "daily_inconsistent_server_fractions",
    "observation_flags",
    "continuous_times",
    "all_continuous_times",
    "inconsistency_vs_poll_interval",
    # causes
    "provider_inconsistency_sample",
    "provider_response_times",
    "DistanceAnalysis",
    "consistency_vs_distance",
    "IspClusterResult",
    "isp_inconsistency_analysis",
    "observed_absence_lengths",
    "absence_impact",
    "inconsistency_around_absences",
    # tree inference
    "AbsenceDetectionReport",
    "absence_detection",
    "alpha_bias",
    "ttl_recovery_error",
    "TreeEvidence",
    "tree_existence_analysis",
    "cluster_daily_means",
    "cluster_mean_spread",
    "rank_trajectories",
    "normalized_rank_churn",
    "max_inconsistency_fractions",
]
