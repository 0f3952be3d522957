"""Near-field channel synthesis and two-step spectral channel estimation for UPAs."""

from .channel import (
    ChannelMatrix,
    array_response,
    channel_coefficient,
    channel_exact_integral,
    channel_matrix,
    farfield_response,
    polar_response,
)
from .geometry import (
    ArrayGeometry,
    PolarLocation,
    UeLocation,
    cart_to_polar,
    near_field_bounds,
    polar_to_cart,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    parse_config,
    parse_config_text,
    place_ues,
    run_experiment,
    scenario_fig1,
)
from .metrics import beamforming_gain, match_estimates, nmse
from .music import (
    GridAxis,
    GridSpec,
    PeakSet,
    SpectrumGrid,
    find_peaks,
    spectrum_1d_distance,
    spectrum_2d_angular,
    spectrum_3d,
    two_step_estimate,
)
from .refine import (
    IllConditionedError,
    estimate_correctors,
    ls_baseline,
    reconstruct_channels,
    rls_baseline,
)
from .signal import SnapshotBlock, gen_pilots, received_block, stream
from .subspace import (
    NoiseSubspace,
    extract_subarrays,
    hermitian_eig,
    noise_subspace,
    sample_covariance,
    smoothed_covariance,
)

__version__ = "0.1.0"
