"""Static verification: certificates, an independent checker, a linter.

Theorem 1 is enforced at run time by
:func:`repro.routing.verification.verify_routing`, but that check shares
its traversal code (:mod:`repro.routing.channel_graph`) with the
builders it polices — a bug there could self-certify a cyclic routing
function, exactly the failure mode the paper's Section 4.3
transcription error warns about.  This package closes the loop with the
*certifying algorithms* discipline:

``certificates``
    :func:`certify_routing` emits a serializable, digest-stamped
    :class:`CertificateBundle` — an explicit topological order of the
    turn-restricted channel dependency graph (deadlock freedom, the
    Dally-Seitz condition), one witness path per ordered switch pair
    (connectivity), and distance-decrease witnesses (progress).
``check``
    An independent re-checker that validates a certificate (or an
    existence report) against only the raw topology adjacency and turn
    prohibitions.  It imports nothing from :mod:`repro.routing` or
    :mod:`repro.core`, so a bug in the construction stack cannot
    certify itself.
``existence``
    The prior question: does *any* deadlock-free connected routing
    exist under a prohibited-turn set?  A stdlib-only decision
    procedure (:func:`decide_existence`) returning a digest-stamped
    :class:`ExistenceReport` — a constructive witness or a minimal
    infeasibility core, both re-verifiable through ``check``.
``audit``
    The turn-optimality auditor: per topology, how much of DOWN/UP's
    18-turn prohibition is vacuous or redundant under the Theorem-1
    certification criterion (:func:`audit_topology`).
``preflight``
    Enumerates every degraded state a
    :class:`~repro.faults.schedule.FaultSchedule` can induce and
    certifies the rebuilt routing for each *before* any simulation
    cycles are burnt.
``lint``
    An AST-based invariant linter with repo-specific rules (engine
    clock only, RNG through :mod:`repro.util.rng`, routing tables
    written only by builders, builders wrapped in ``verify_routing``),
    run in CI as the ``static-analysis`` job.  Import it as
    :mod:`repro.statics.lint`; the package does not load it, so
    ``python -m repro.statics.lint`` runs without runpy's
    already-imported warning.
"""

from repro.statics.certificates import (
    CERT_FORMAT,
    CertificateBundle,
    ConnectivityCertificate,
    DeadlockFreedomCertificate,
    ProgressCertificate,
    certify_routing,
    compute_digest,
)
from repro.statics.check import (
    CertificateError,
    CheckFailure,
    CheckReport,
    check_certificate,
    check_existence_report,
    recheck,
    recheck_existence,
)
from repro.statics.existence import (
    EXISTENCE_FORMAT,
    ExistenceReport,
    ExistenceWitness,
    InfeasibilityCore,
    TurnSystem,
    decide_existence,
    full_relation_acyclic,
)
from repro.statics.audit import (
    TurnAuditReport,
    audit_existence,
    audit_topology,
)
from repro.statics.preflight import (
    FaultState,
    PreflightEntry,
    induced_fault_states,
    preflight_schedule,
)

__all__ = [
    "CERT_FORMAT",
    "CertificateBundle",
    "ConnectivityCertificate",
    "DeadlockFreedomCertificate",
    "ProgressCertificate",
    "certify_routing",
    "compute_digest",
    "CertificateError",
    "CheckFailure",
    "CheckReport",
    "check_certificate",
    "check_existence_report",
    "recheck",
    "recheck_existence",
    "EXISTENCE_FORMAT",
    "ExistenceReport",
    "ExistenceWitness",
    "InfeasibilityCore",
    "TurnSystem",
    "decide_existence",
    "full_relation_acyclic",
    "TurnAuditReport",
    "audit_existence",
    "audit_topology",
    "FaultState",
    "PreflightEntry",
    "induced_fault_states",
    "preflight_schedule",
]
