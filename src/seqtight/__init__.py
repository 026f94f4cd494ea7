"""Termination analysis for autoregressive sequence models.

A sequence model that picks each next symbol conditionally can leak
probability mass onto never-ending runs; this package decides when that
happens.  Stochastic finite-state models get an exact answer (graph
reachability plus one small linear solve); general models get hazard
series, analytic certificates, and seeded Monte Carlo estimates.
"""

import os as _os
import sys as _sys

# several OpenBLAS threads round a solve differently from one, so output bytes
# would depend on the thread count; a count the caller set is kept
if "numpy" not in _sys.modules:
    _os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    _os.environ.setdefault("OMP_NUM_THREADS", "1")

from .core import (Alphabet, Asm, FunctionAsm, OutOfRange, Str, UnknownSymbol,
                   prefix_probability, string_probability)
from .linalg import (Singular, SpectralEstimate, neumann_partial_sum, solve_linear,
                     spectral_radius_estimate)
from .verdicts import Certificate, TightnessVerdict
from .sfssm import (BadInit, BadRow, EmptyCorpus, NegativeEntry, NoUsefulStates, Sfssm,
                    TerminationShortfall, accessible, build_sfssm, coaccessible, decide_tight,
                    mle_ngram, prefix_probability_fsa, solve_tightness, string_probability_fsa,
                    termination_probability, trim, useful_states)
from .asm_zoo import (DeadPrefix, ParityAsm, RnnAsm, SfssmAsm, make_nontight_relu_rnn,
                      make_tight_softplus_rnn, softmax)
from .bounds import EosBoundFamily
from .tightness import (Analysis, BoundViolated, BudgetExceeded, DualityReport, EosHazardSeries,
                        InvalidWeight, TerminationEstimate, analyze,
                        certify_nontight_upper_bound, certify_tight_lower_bound,
                        eos_hazard_enumerate, eos_hazard_fsa, fit_geometric_tail,
                        monte_carlo_termination, product_sum_duality_check, suggests_tight,
                        termination_cdf)
from .modelfile import (BUILTINS, NotUtf8, ParseError, as_asm, load_model, model_digest,
                        parse_corpus, parse_model, write_model)

sfssm_as_asm = SfssmAsm  # the adapter's old name, which the acceptance tests still import

__version__ = "0.1.0"
