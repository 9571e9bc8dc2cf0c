"""Partial-state lenses over partially ordered, partially specified states.

The package is organized around five layers:

* :mod:`pslens.iposet` -- state domains: partial order, identical
  updates, optional least element and merge operator.
* :mod:`pslens.lens` -- lenses (total ``get``, partial ``put``) and the
  primitive lenses and combinators.
* :mod:`pslens.laws` -- executable round-tripping laws with exhaustive
  checking over finite domains, plus the counterexample catalog.
* :mod:`pslens.updates` -- the generic construction of state domains
  from state/update pairs, with its duplicability conditions.
* :mod:`pslens.tasks` -- the to-do multi-view synchronization scenario.
* :mod:`pslens.cli` -- line-oriented front end (REPL and batch).
"""

from .iposet import (
    OMEGA,
    UNDEFINED,
    FiniteIPoset,
    InL,
    InR,
    IPoset,
    IPosetError,
    ValidationReport,
    check_duplicable,
    discrete,
    join,
    lift_omega,
    powerset_iposet,
    product_iposet,
    restrict_iposet,
    sum_iposet,
    verify_iposet,
)
from .lens import (
    PSLens,
    PutFailure,
    Reason,
    compose,
    constant_lens,
    dup_lens,
    identity_lens,
    initiator,
    is_failure,
    product_lens,
    untag_pred,
    untag_s,
)
from .laws import (
    LawId,
    LawReport,
    check_composition_closure,
    check_law,
    check_laws,
    fixture_lenses,
    putput_probe,
    recheck_counterexample,
    run_fixture_suite,
)
from .tasks import (
    Delta,
    FilterDomain,
    TaskRecord,
    apply_dt,
    dt_domain,
    dtdt_domain,
    dtog_domain,
    filter_lens,
    filter_ongoing,
    filter_today,
    init_tasks,
    task_pipeline,
    tasks_domain,
    upsert,
)
from .updates import (
    Pair,
    Proper,
    UpdateSpace,
    apply_su,
    check_condition,
    check_state_elimination,
    check_sufficient,
    gen_iposet,
    merge_su,
    ran,
    su_initiator,
)

__all__ = [name for name in dir() if not name.startswith("_")]
