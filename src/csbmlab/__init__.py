"""csbmlab: a simulation laboratory for two-community featured graphs.

The package samples graphs whose edges follow a two-block stochastic block
model and whose scalar node features follow a symmetric Gaussian mixture,
runs parameter-free multi-layer aggregation networks with sign-based
attention over them, evaluates the exact closed-form law of one
aggregation step, traces a node-similarity measure through deep networks,
and packages the standard synthetic experiments behind a CLI with
deterministic CSV/SVG output.
"""

from .attention import (AttentionSpec, CoefficientRow, SignSym, Uniform, XorNet,
                        attention_coefficients, psi_sign, psi_xor)
from .csbm import (CsbmParams, EventReport, FeaturedGraph, NeighborhoodStats,
                   check_concentration_events, dump_graph, load_graph,
                   neighborhood_stats, sample_csbm, with_feature_params)
from .errors import (ConfigError, CsbmLabError, IsolatedNodeError,
                     NumericalConsistencyError, ParameterError, PlotDataError,
                     ScheduleError)
from .moments import (McMoments, MomentInputs, MomentPair, SequenceDiagnostics,
                      TailScalars, asymptotic_moments, closed_form_mean,
                      closed_form_moments, closed_form_var, corollary_case,
                      inverse_denominator_moment, log_normal_upper_tail,
                      monte_carlo_moments, normal_upper_tail, sequence_diagnostics,
                      snr_gain, snr_gain_factor, tail_scalars, truncated_moments)
from .network import (ClassificationResult, ForwardTrace, GATSTAR_RAMP_INTENSITIES,
                      LayerSchedule, forward_layer, gatstar_schedule, run_network)
from .oversmoothing import (AxiomReport, DecayFit, SimilarityTrace,
                            check_similarity_axioms, fit_decay, gamma,
                            predicted_decay_factor, trace_gamma)

__version__ = "0.2.0"
