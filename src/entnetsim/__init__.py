"""entnetsim: planner, simulator and QKD post-processing for a fully
connected wavelength/space-multiplexed entanglement distribution network."""

from .plan import (ItuChannel, ChannelPair, NetworkPlan, build_plan,
                   naive_channel_count, resource_for_link,
                   verify_full_connectivity)
from .photonics import (DetectorConfig, DispersionConfig, SourceConfig,
                        db_to_transmittance)
from .sim import LossBudget, SystemConfig, derive_stream_seed, run_scenario
from .analysis import (compute_car, cross_correlate, link_matrix,
                       match_coincidences)
from .doqkd import (FrameConfig, QkdConfig, analyze_link, basis_sift,
                    bin_encode, estimate_qber, monitor_broadening,
                    mutual_information, secure_key_rate, sift_frames)

__version__ = "0.1.0"

# The kernels have one implementation. This name is kept only because the
# benchmark (perfbench/worker.py) reads it.
kernel_backend = "python"

__all__ = [
    "ItuChannel", "ChannelPair", "NetworkPlan", "build_plan",
    "naive_channel_count", "resource_for_link", "verify_full_connectivity",
    "DetectorConfig", "DispersionConfig", "SourceConfig",
    "db_to_transmittance",
    "LossBudget", "SystemConfig", "derive_stream_seed", "run_scenario",
    "compute_car", "cross_correlate", "link_matrix", "match_coincidences",
    "FrameConfig", "QkdConfig", "analyze_link", "basis_sift", "bin_encode",
    "estimate_qber", "monitor_broadening", "mutual_information",
    "secure_key_rate", "sift_frames",
    "kernel_backend", "__version__",
]
