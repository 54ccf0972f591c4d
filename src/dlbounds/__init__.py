"""Sparse representation errors, Babel functions, and sample-complexity
bound calculators for dictionary learning, plus the empirical harnesses
that check the two against each other.

Layout: core types and file formats (`core`), Babel/coherence measures
(`coherence`), sparse coders (`coders`), bound calculators (`bounds`),
kernelized counterparts (`kernels`), a small learner and synthetic
sources (`learn`), experiment harnesses (`experiments`), and the CLI
(`cli`, console script `dlbounds`).
"""

__version__ = "0.1.0"

from .core import (
    CoeffVector,
    Dictionary,
    GuardExceededError,
    HardK,
    InapplicableError,
    L1Ball,
    SearchFailureError,
    Signal,
    SignalBatch,
    SparsityConstraint,
    load_dictionary,
    load_matrix,
    load_signal,
    me_norm,
    sample_uniform_sphere,
    save_dictionary,
    save_matrix,
    save_signal,
    substream,
    uniform_sphere_matrix,
    validate_dictionary,
)
from .coherence import BabelValue, babel, babel_bruteforce, babel_from_gram, coherence
from .coders import (
    CodingResult,
    exact_ksparse,
    exact_ksparse_batch,
    greedy_ksparse,
    greedy_ksparse_batch,
    l1_solve,
    l1_solve_batch,
    repr_error,
)
from .bounds import (
    BoundInputs,
    BoundReport,
    coeff_l1_bound,
    ksparse_generalization_bound,
    l1_generalization_bound,
    log_cover_ksparse,
    log_cover_l1,
    log_integral_check,
    optimize_fast_params,
)
from .kernels import (
    KernelDictionary,
    KernelFn,
    feature_babel,
    gaussian_kernel,
    gram_matrix,
    holder_feature_check,
    kernel_cover_log,
    kernel_from_name,
    kernel_gen_bound,
    kernel_greedy_ksparse,
    kernel_repr_error,
    linear_kernel,
    polynomial_kernel,
    validate_kernel,
)
from .learn import (
    LearnerConfig,
    LearnResult,
    SignalSource,
    dictionary_source,
    learn_dictionary,
    near_orthogonal_dictionary,
    sphere_source,
    synth_sample,
)
from .experiments import (
    GapPoint,
    McBabelResult,
    NonLipschitzDemo,
    TrialRecord,
    babel_tail_bound,
    gap_trend_nonincreasing,
    gengap_run,
    lipschitz_probe,
    mc_babel,
    nonlipschitz_demo,
    perturbed_pair,
    records_to_csv,
)
