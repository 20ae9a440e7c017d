"""Workbench for universal decoding relative to a class of decoding metrics.

The package implements the exact class-mass decoding score, its parse-based
surrogate, two-user and feedback extensions, and exhaustive/Monte-Carlo
audits of the competitive error bounds that justify them.
"""

from . import channels, decoders, ensembles, families, lz, simulator, typeclasses
from .channels import bsc, dmc, mac_xor, mod_additive_fixed, mod_additive_iid
from .decoders import (
    DecodeResult,
    MetricIndex,
    ScoreValue,
    decode,
    lz_universal_score,
    mac_decode,
    mac_universal_score,
    metric_score,
    ml_score,
    universal_score,
)
from .ensembles import (
    CodingEnsemble,
    feedback_tree_ensemble,
    iid_ensemble,
    linear_dithered_ensemble,
    sample_codebook,
    uniform_ensemble,
    uniform_over_type_ensemble,
)
from .errors import (
    ConfigError,
    InputError,
    InstanceTooLargeError,
    UdecError,
    UnsupportedCombinationError,
)
from .families import additive_family, finite_state_family, mac_xor_additive_family
from .lz import conditional_lz_length, joint_parse
from .simulator import (
    DecoderSpec,
    ErrorEstimate,
    EventFamilySpec,
    exact_bound_audit,
    mac_run_experiment,
    monte_carlo_audit,
    pairwise_error_exact,
    run_experiment,
    shulman_check,
    surrogate_condition_check,
    wilson_interval,
)
from .typeclasses import (
    InfoMeasures,
    JointType,
    Sequence,
    class_key,
    conditional_class_size,
    count_classes,
    empirical_joint_type,
    empirical_measures,
    seq,
)

__version__ = "0.1.0"
