"""Robin-inequality verification on t-free integers via Dedekind psi ratios.

An integer is t-free when no t-th prime power divides it.  On such integers
sigma(n) <= psi_t(n), psi_t(n)/n is maximized by primorials, and explicit
bounds on the primorial ratio push the Robin threshold past every t-free
integer above a computable crossover.  This package carries out each of those
steps in verifiable, desk-scale form.
"""

from __future__ import annotations

from .bounds import (
    CRITERION_FLOOR,
    EULER_GAMMA,
    EXP_GAMMA,
    CriterionReport,
    SuiteResult,
    ZetaValue,
    admissible_t,
    criterion,
    find_crossover_index,
    log_substitution_suite,
    mertens_bound_suite,
    primorial_magnitude,
    psi_ratio_bound_suite,
    ratio_curve,
    zeta,
    zeta_tail_bound_suite,
)
from .errors import CoverageError, ResourceError
from .multiplicative import (
    BridgeReport,
    Factorization,
    factorize,
    is_t_free,
    psi_over_n,
    psi_t,
    sigma,
    verify_sigma_le_psi,
)
from .primes import PrimeTable, build_table, compensated_prefix
from .primorial import champion_scan, cursor_advance, psi_ratio_logs
from .robin import (
    RobinVerdict,
    TfreeTheoremReport,
    robin_scan,
    verify_tfree_robin,
)

__version__ = "0.1.0"
