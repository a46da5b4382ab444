"""Counterexample-guided rule synthesis: repairing Algorithm 1 toward Theorem 2.

The printed pseudocode of Shibata et al. omits several guard behaviours ("we
omit the detail"), which is why ``shibata-visibility2`` gathers only a subset
of the 3652 connected initial configurations.  This package closes the loop
between the model checker and the rule set: the explorer's deadlock
counterexamples seed a search over a declarative guard DSL
(:mod:`repro.synth.dsl`), candidate repairs are scored by targeted replay and
verified by exhaustive re-exploration (:mod:`repro.synth.cegis`), and the
best rule sets found are committed as the registered
``shibata-visibility2-synth`` and ``shibata-visibility2-synth2`` algorithms
(:mod:`repro.synth.ruleset`).

Two repair spaces are available.  The **additive** space (the default) only
adds moves where the base algorithm stays, so every base-won execution is
preserved by construction.  The **amending** space (``allow_amend=True``)
may also *replace* printed moves — including with forced stays — which is
what the residual mid-move disconnections of Theorem 2 require; amending
commits are guarded by the CEGIS won-root regression gate instead of by
construction.

Typical use::

    from repro.synth import learned_ruleset, synthesize
    result = synthesize(
        base_name="shibata-visibility2",
        allow_amend=True,
        seed_ruleset=learned_ruleset(),   # start from the additive repair
    )
    result.final_ok      # roots gathered+safe after the repair (base: 1895)
    result.validated     # True: 0 collision / 0 livelock under adversarial SSYNC
"""
from .cegis import (
    IterationRecord,
    SynthesisResult,
    result_algorithm,
    split_decisions,
    synthesize,
)
from .dsl import ATOM_KINDS, RULE_MODES, GuardRule, RuleSet, transform_view
from .ruleset import (
    LEARNED_AMEND_RULESET_PATH,
    LEARNED_RULESET_PATH,
    OverrideAlgorithm,
    learned_algorithm,
    learned_amend_algorithm,
    learned_amend_ruleset,
    learned_ruleset,
    load_ruleset,
    overrides_to_ruleset,
    ruleset_algorithm,
    ruleset_layers,
    ruleset_to_overrides,
    save_ruleset,
)
from .search import (
    amend_candidates,
    candidate_moves,
    repair_chain,
    simulate_outcome,
    simulate_to_quiescence,
)

__all__ = [
    "ATOM_KINDS",
    "RULE_MODES",
    "GuardRule",
    "IterationRecord",
    "LEARNED_AMEND_RULESET_PATH",
    "LEARNED_RULESET_PATH",
    "OverrideAlgorithm",
    "RuleSet",
    "SynthesisResult",
    "amend_candidates",
    "candidate_moves",
    "learned_algorithm",
    "learned_amend_algorithm",
    "learned_amend_ruleset",
    "learned_ruleset",
    "load_ruleset",
    "overrides_to_ruleset",
    "repair_chain",
    "result_algorithm",
    "ruleset_algorithm",
    "ruleset_layers",
    "ruleset_to_overrides",
    "save_ruleset",
    "simulate_outcome",
    "simulate_to_quiescence",
    "split_decisions",
    "synthesize",
    "transform_view",
]
