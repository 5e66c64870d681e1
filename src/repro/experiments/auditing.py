"""Campaign/CLI wiring for turn-optimality audits.

:func:`run_topology_audits` drives :func:`repro.statics.audit.audit_topology`
over named zoo topologies with the same durability machinery as every
other experiment stage: per-audit results flow through the
content-addressed artifact cache (keyed by the input closure: topology
digest + prohibited-turn set + auditor version) and the append-only
result ledger, so audits are cached, resumable and distributable like
any other work unit.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.core.direction_graph import DOWN_UP_PROHIBITED_TURNS
from repro.statics.audit import TurnAuditReport, audit_topology, turn_name
from repro.topology.zoo import zoo_names, zoo_topology
from repro.util.fsio import atomic_write_text

#: bump when the audit semantics change — old cache/ledger entries are
#: then keyed away instead of silently served
AUDITOR_VERSION = "audit-v1"

#: zoo instances audited by default (CLI with no ``--zoo``, campaign stage)
DEFAULT_AUDIT_ZOO = tuple(zoo_names())


def audit_unit_key(name: str, topology_digest: str) -> Dict[str, object]:
    """The input-closure cache/ledger key of one audit unit."""
    return {
        "zoo": name,
        "topology": topology_digest,
        "prohibited": sorted(
            turn_name(t) for t in DOWN_UP_PROHIBITED_TURNS
        ),
        "builder": AUDITOR_VERSION,
    }


def run_topology_audits(
    names: Sequence[str],
    out_dir: Optional[Union[str, Path]] = None,
    artifact_cache: Optional[Union[str, Path]] = None,
    ledger_path: Optional[Union[str, Path]] = None,
    resume: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> List[TurnAuditReport]:
    """Audit each named zoo topology; return the reports in input order.

    ``artifact_cache`` (a cache root directory) serves repeated audits
    content-addressed; ``ledger_path`` makes the run resumable (records
    keyed by the same input-closure digest — a completed audit is
    decoded from the ledger without touching the builder).  ``out_dir``
    gets ``audit.csv`` + ``audit.txt`` artefacts.
    """
    from repro.analysis.turn_slack import render_turn_slack_table, turn_slack_csv
    from repro.experiments.artifacts import artifact_digest, set_process_cache
    from repro.experiments.ledger import ResultLedger
    from repro.topology.serialization import topology_digest

    say = progress or (lambda _msg: None)
    cache = set_process_cache(artifact_cache) if artifact_cache is not None else None
    ledger = (
        ResultLedger(ledger_path, resume=resume)
        if ledger_path is not None
        else None
    )
    reports: List[TurnAuditReport] = []
    try:
        for name in names:
            topology = zoo_topology(name)
            key = audit_unit_key(name, topology_digest(topology))
            digest = artifact_digest("audit", key)
            done = ledger.completed.get(digest) if ledger is not None else None
            if done is not None:
                report = TurnAuditReport.from_payload(done)
                say(f"audit {name}: served from ledger")
            else:
                if cache is not None:
                    report = cache.get_or_build(
                        "audit",
                        key,
                        lambda: audit_topology(topology, name=name),
                        lambda r: r.to_json(),  # type: ignore[attr-defined]
                        TurnAuditReport.from_json,
                    )
                else:
                    report = audit_topology(topology, name=name)
                if ledger is not None:
                    ledger.append_ok(
                        digest, key=(name,), attempt=1, result=report.payload()
                    )
                say(f"audit {name}: {report.summary()}")
            reports.append(report)
    finally:
        if ledger is not None:
            ledger.close()
        if cache is not None:
            cache.flush_counters()

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        atomic_write_text(out / "audit.csv", turn_slack_csv(reports))
        atomic_write_text(
            out / "audit.txt", render_turn_slack_table(reports) + "\n"
        )
    return reports
