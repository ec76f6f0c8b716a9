"""Every numeric parameter of every constructor and entry point refuses bad values.

One table: each row names a site, the fragment its message must contain
to name the parameter, a call that puts the value in that parameter and
the bad values it must refuse with InvalidParameterError.
"""

import math
import sys

import numpy as np
import pytest

from passive_gd.bench import MonteCarloSpec, run_monte_carlo
from passive_gd.errors import InvalidParameterError
from passive_gd.functions import (
    SectorFunction,
    builtin_function,
    quadratic,
    sector_membership_scan,
)
from passive_gd.interconnect import (
    delta_bar_operator,
    evaluate_delta_bar,
    loop_equivalence_report,
    run_transformed,
)
from passive_gd.lti import gd_passivity_certificate
from passive_gd.optim import (
    ArmijoParams,
    ArmijoS,
    FixedAlpha,
    FixedS,
    GradNorm,
    MaxIter,
    PairedGrad,
    gd_run,
    gsgd_run,
)
from passive_gd.passivity import (
    Classification,
    PassivityIndices,
    certify_step_size,
    empirical_passivity_margin,
    nabla_indices,
    transformed_indices,
)
from passive_gd.signals import Signal, random_unit_energy
from passive_gd.verify import run_suite

NAN, INF = math.nan, math.inf
# A positive number refuses these; a count refuses them and 1.5 and True.
POSITIVE = (NAN, INF, -INF, 0.0, -1.0)
COUNT = POSITIVE + (1.5, True)
NON_FINITE = (NAN, INF, -INF)
# A horizon that is not a number is not compared with its minimum.
NOT_A_NUMBER = ("2", None)
# 1/DBL_MAX rounds to the last of these, whose reciprocal still overflows;
# the next double up is the least L with a finite one.
_LEAST_REFUSED_L = 1.0 / sys.float_info.max
RECIPROCAL_OVERFLOWS = (5e-324, 1e-310, _LEAST_REFUSED_L)

F = quadratic(1.0)


def _spec(**kw):
    args = dict(n_samples=10, x0_low=-1.0, x0_high=1.0, seed=0, tol=1e-12, methods=())
    return MonteCarloSpec(**{**args, **kw})


def _sector_function(m=0.5, L=1.0):
    SectorFunction(1, m, L, np.zeros(1), lambda x: 0.0, lambda x: 0.0 * x)


def _margin(T):
    ident = PassivityIndices(0.5, 0.5, Classification.VSP)
    empirical_passivity_margin(lambda u: u, ident, [Signal(np.ones((3, 1)))], T)


def _certificates(alpha=0.1, d=0.05):
    # The bad value sits in the middle of an array of good ones.
    gd_passivity_certificate(np.array([0.1, alpha, 0.2]), np.array([0.05, d, 0.1]))


SITES = [
    # optim
    ("FixedAlpha.alpha", "alpha", FixedAlpha, POSITIVE),
    ("FixedS.s", "|s|", FixedS, (NAN, INF, -INF, 0.0)),
    ("ArmijoParams.trial", "trial", lambda v: ArmijoParams(trial=v), POSITIVE),
    ("ArmijoS.cap", "cap", lambda v: ArmijoS(cap=v), POSITIVE),
    ("GradNorm.tol", "tolerance", GradNorm, POSITIVE),
    ("PairedGrad.tol", "tolerance", PairedGrad, POSITIVE),
    ("MaxIter.cap", "iteration cap", MaxIter, COUNT),
    ("gd_run.x0", "x0", lambda v: gd_run(F, [v], FixedAlpha(0.1), [MaxIter(5)]),
     NON_FINITE),
    ("gsgd_run.x0", "x0", lambda v: gsgd_run(F, [v], FixedS(0.1), [MaxIter(5)]),
     NON_FINITE),
    # bench
    ("MonteCarloSpec.n_samples", "n_samples", lambda v: _spec(n_samples=v), COUNT),
    ("MonteCarloSpec.seed", "seed", lambda v: _spec(seed=v), COUNT),
    ("MonteCarloSpec.x0_low", "initial-condition range",
     lambda v: _spec(x0_low=v, x0_high=-1.0), POSITIVE),
    ("MonteCarloSpec.x0_high", "initial-condition range",
     lambda v: _spec(x0_low=0.0, x0_high=v), POSITIVE),
    ("MonteCarloSpec.x0_low", "initial-condition range",
     lambda v: _spec(x0_low=v, x0_high=1e308), (-1e308,)),
    ("MonteCarloSpec.tol", "tolerance", lambda v: _spec(tol=v), POSITIVE),
    ("MonteCarloSpec.max_iter", "max_iter", lambda v: _spec(max_iter=v), COUNT),
    ("run_monte_carlo.threads", "threads", lambda v: run_monte_carlo(F, _spec(), v),
     COUNT + (0, -3)),
    # functions
    ("SectorFunction.m", "m=", lambda v: _sector_function(m=v), POSITIVE),
    ("SectorFunction.L", "L=", lambda v: _sector_function(L=v), POSITIVE),
    # Against 1/L = inf every feedthrough would read ISP.
    ("SectorFunction.L", "L must have a finite reciprocal, got L=",
     lambda v: _sector_function(m=v, L=v), RECIPROCAL_OVERFLOWS),
    ("quadratic.l", "curvature", quadratic, POSITIVE),
    ("builtin_function.quadratic.m", "m=", lambda v: builtin_function("quadratic", v, 100.0),
     POSITIVE),
    ("builtin_function.quadratic.L", "L=", lambda v: builtin_function("quadratic", 1.0, v),
     POSITIVE),
    ("sector_membership_scan.lo", "sample range",
     lambda v: sector_membership_scan(F, v, -1.0, 10, 0), POSITIVE),
    ("sector_membership_scan.hi", "sample range",
     lambda v: sector_membership_scan(F, 0.0, v, 10, 0), POSITIVE),
    ("sector_membership_scan.lo", "sample range",
     lambda v: sector_membership_scan(F, v, 1e308, 10, 0), (-1e308,)),
    ("sector_membership_scan.n_samples", "n_samples",
     lambda v: sector_membership_scan(F, -1.0, 1.0, v, 0), COUNT),
    ("sector_membership_scan.seed", "seed",
     lambda v: sector_membership_scan(F, -1.0, 1.0, 10, v), COUNT),
    # interconnect
    ("evaluate_delta_bar.d", "feedthrough", lambda v: evaluate_delta_bar(F, v, [1.0]),
     POSITIVE),
    ("delta_bar_operator.d", "feedthrough",
     lambda v: delta_bar_operator(F, v), POSITIVE),
    ("run_transformed.alpha", "step size",
     lambda v: run_transformed(F, v, 0.05, [1.0], 3), POSITIVE),
    # d = 0 is the untransformed loop, so only a negative or non-finite d is refused.
    ("run_transformed.d", "feedthrough",
     lambda v: run_transformed(F, 0.1, v, [1.0], 3), (NAN, INF, -INF, -1.0)),
    ("run_transformed.steps", "steps",
     lambda v: run_transformed(F, 0.1, 0.05, [1.0], v), COUNT),
    ("run_transformed.x0", "x0", lambda v: run_transformed(F, 0.1, 0.05, [v], 3),
     NON_FINITE),
    # The untransformed loop is the d = 0 row.
    ("run_transformed(d=0).alpha", "step size",
     lambda v: run_transformed(F, v, 0.0, [1.0], 3), POSITIVE),
    ("run_transformed(d=0).steps", "steps",
     lambda v: run_transformed(F, 0.1, 0.0, [1.0], v), COUNT),
    ("loop_equivalence_report.alpha", "step size",
     lambda v: loop_equivalence_report(F, v, [1.0], 3), POSITIVE),
    ("loop_equivalence_report.steps", "steps",
     lambda v: loop_equivalence_report(F, 0.1, [1.0], v), COUNT),
    ("loop_equivalence_report.x0", "x0",
     lambda v: loop_equivalence_report(F, 0.1, [v], 3), NON_FINITE),
    # lti
    # A subnormal step size would overflow the storage p = 1/alpha to inf.
    ("gd_passivity_certificate.alpha", "step size must have a finite reciprocal, got alpha=",
     lambda v: gd_passivity_certificate(v, 0.05), RECIPROCAL_OVERFLOWS),
    ("gd_passivity_certificate.alpha[1]", "step size must have a finite reciprocal, got alpha=",
     lambda v: _certificates(alpha=v), RECIPROCAL_OVERFLOWS),
    ("gd_passivity_certificate.alpha", "step size",
     lambda v: gd_passivity_certificate(v, 0.05), POSITIVE),
    ("gd_passivity_certificate.d", "feedthrough",
     lambda v: gd_passivity_certificate(0.1, v), POSITIVE),
    ("gd_passivity_certificate.alpha[1]", "step size",
     lambda v: _certificates(alpha=v), (0.0, NAN, INF)),
    ("gd_passivity_certificate.d[1]", "feedthrough",
     lambda v: _certificates(d=v), (0.0, NAN, INF)),
    # passivity
    ("nabla_indices.m", "m=", lambda v: nabla_indices(v, 100.0), POSITIVE),
    ("nabla_indices.L", "L=", lambda v: nabla_indices(0.5, v), POSITIVE),
    ("transformed_indices.m", "m=", lambda v: transformed_indices(v, 100.0, 0.005),
     POSITIVE),
    ("transformed_indices.L", "L=", lambda v: transformed_indices(1.0, v, 0.005),
     POSITIVE),
    ("transformed_indices.L", "L must have a finite reciprocal, got L=",
     lambda v: transformed_indices(v, v, 0.5), RECIPROCAL_OVERFLOWS),
    ("transformed_indices.d", "feedthrough",
     lambda v: transformed_indices(1.0, 100.0, v), POSITIVE),
    ("certify_step_size.m", "m=", lambda v: certify_step_size(v, 100.0, 0.01), POSITIVE),
    ("certify_step_size.L", "L=", lambda v: certify_step_size(0.5, v, 0.01), POSITIVE),
    ("certify_step_size.L", "L must have a finite reciprocal, got L=",
     lambda v: certify_step_size(v, v, 1.0), RECIPROCAL_OVERFLOWS),
    ("certify_step_size.alpha", "step size",
     lambda v: certify_step_size(1.0, 100.0, v), POSITIVE),
    # The certificate's storage 1/alpha would overflow, and alpha/2 of 5e-324 is 0.
    ("certify_step_size.alpha", "step size must have a finite reciprocal, got alpha=",
     lambda v: certify_step_size(1.0, 100.0, v), RECIPROCAL_OVERFLOWS),
    ("empirical_passivity_margin.T", "horizon T", _margin,
     (NAN, INF, 1.5, True) + NOT_A_NUMBER),
    # signals
    ("random_unit_energy.dim", "dim", lambda v: random_unit_energy(v, 5, 3, 0),
     COUNT + (0, -1)),
    ("random_unit_energy.horizon", "horizon", lambda v: random_unit_energy(1, v, 3, 0),
     COUNT + (0, -1)),
    ("random_unit_energy.count", "count", lambda v: random_unit_energy(1, 5, v, 0),
     COUNT + (0, -1)),
    ("random_unit_energy.seed", "seed", lambda v: random_unit_energy(1, 5, 3, v),
     COUNT + (-1,)),
    # verify
    ("run_suite.seed", "seed", lambda v: run_suite("counterexample", v), COUNT),
]

CASES = [
    pytest.param(call, value, fragment, id=f"{site}={value!r}")
    for site, fragment, call, values in SITES
    for value in values
]


@pytest.mark.parametrize("call, value, fragment", CASES)
def test_bad_parameter_raises_an_error_naming_it(call, value, fragment):
    with pytest.raises(InvalidParameterError) as info:
        call(value)
    assert fragment in str(info.value)


def test_unknown_suite_raises_an_invalid_parameter_error():
    with pytest.raises(InvalidParameterError, match="unknown suite 'nonsense'"):
        run_suite("nonsense")


def test_a_negative_scheduling_value_and_a_finite_start_point_are_valid():
    # FixedS refuses only s = 0 and non-finite s; x0 only when not finite;
    # the loop takes d = 0, the untransformed loop, besides d = alpha/2.
    assert gsgd_run(F, [1.0], FixedS(-0.1), [MaxIter(5)]).iterations >= 1
    assert run_transformed(F, 0.1, 0.05, [-0.0], 3).steps == 3
    assert run_transformed(F, 0.1, 0.0, [1.0], 3).steps == 3


_SECTOR_SITES = [
    pytest.param(lambda m, l: _sector_function(m=m, L=l), id="SectorFunction"),
    pytest.param(lambda m, l: certify_step_size(m, l, 1.0), id="certify_step_size"),
    pytest.param(lambda m, l: transformed_indices(m, l, 0.5), id="transformed_indices"),
]


@pytest.mark.parametrize("call", _SECTOR_SITES)
def test_the_sector_rule_keeps_its_message_at_a_subnormal_l(call):
    # Bounds that break 0 < m <= L get that rule's message whatever L is,
    # and the least L with a finite reciprocal is valid.
    for m in (0.0, 2e-310):
        with pytest.raises(InvalidParameterError) as info:
            call(m, 1e-310)
        assert str(info.value) == f"sector bounds must satisfy 0 < m <= L, got m={m}, L=1e-310"
    least = math.nextafter(_LEAST_REFUSED_L, math.inf)
    call(least / 2.0, least)
