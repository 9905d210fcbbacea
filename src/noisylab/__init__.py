"""noisylab: instance-level label-noise analysis with verified probability bounds.

The package models instances by how often they appear in a training set
(long-tail frequency priors), quantifies each appearance count's importance
weight for generalization, and compares three treatments of noisy labels —
loss correction, label smoothing, peer loss — three ways at once: closed-form
bounds, exact binomial probabilities, and seeded Monte-Carlo simulation.

These imports are the one list of public names: no module but cli defines
__all__.  A name is exported here only while a CLI command, the acceptance
gate, a README claim, an oracle test or perfbench's tracer reads it, or
another export returns it or holds it in a field; tests/test_imports.py
checks this.
"""
from .bounds import (
    BoundKind,
    BoundValue,
    binom_tail,
    lc_failure_lower,
    lc_success_lower,
    peer_failure_lower,
    peer_success_lower,
)
from .freqmodel import (
    McEstimate,
    PriorSpec,
    TauEstimate,
    build_prior,
    large_interval,
    tau_exact,
    tau_lower_large,
    tau_lower_small,
    tau_monte_carlo,
    weight_estimate,
)
from .memorize import (
    LabelDist,
    empirical_distribution,
    memorization_error,
)
from .mcsim import (
    BoundCheck,
    BoundReport,
    InstanceScenario,
    Treatment,
    TrialTally,
    bound_report,
    run_trials,
    sweep,
)
from .noise import (
    BinaryNoiseRates,
    InstanceNoiseSynth,
    combine_rate,
    truncated_normal,
)
from .treatments import (
    Comparison,
    CorrectedLabel,
    PeerDecision,
    PeerLossDecomposition,
    compare_ls_lc,
    corrected_label,
    lc_empirical_loss,
    lc_loss_vector,
    peer_expected_loss,
    peer_predict,
    peer_vertex_check,
    smoothed_label,
)

__version__ = "0.1.0"
