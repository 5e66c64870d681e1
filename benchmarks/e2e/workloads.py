"""The five end-to-end workloads of the benchmark.

Each workload is a closed loop of one caller: :meth:`Workload.unit` is
one user-visible operation, and the next starts when it returns.
Inside a unit, simulated traffic is the simulator's own open-loop
injection at the preset's offered loads; latency counts from packet
generation (source-queue wait included) and statistics start after
``warmup_clocks``.  Every input derives from the seed.

:meth:`Workload.setup` runs before timing (it is what ``setup_s``
measures, together with process start and imports);
:meth:`Workload.inspect` runs after timing and returns the unit's
artefact digests and any correctness problems.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import statistics
from pathlib import Path
from typing import Dict, List, Tuple

from repro.experiments.artifacts import ArtifactCache, process_cache, set_process_cache
from repro.experiments.campaign import run_campaign
from repro.experiments.configs import get_preset
from repro.experiments.figure8 import run_figure8
from repro.experiments.harness import build_routings, make_topology
from repro.experiments.ledger import read_records
from repro.experiments.live_resilience import run_live_fault_campaign
from repro.experiments.parallel import figure8_units, run_unit
from repro.experiments.tables import run_static_tables, run_tables
from repro.faults import FaultSchedule
from repro.statics import certify_routing, recheck
from repro.util.rng import derive_seed

CONSTRUCTION = (
    "topology.generate",
    "core.tree",
    "core.cg",
    "core.turn_model",
    "core.release",
    "routing.build",
    "routing.table",
    "routing.verify",
)
ORCHESTRATION = (
    "experiments.artifacts",
    "experiments.ledger",
    "experiments.unit",
    "experiments.parallel",
    "experiments.stage",
    "util.fsio",
    "metrics.utilization",
)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_lines(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


@dataclasses.dataclass
class Inspection:
    """What one unit produced: artefact digests and correctness problems."""

    digests: Dict[str, str]
    problems: List[str]


class Workload:
    """One named workload at one seed; *smoke* shrinks it to seconds."""

    name = ""
    #: spans a traced pass must see at least once
    expected: Tuple[str, ...] = ()

    def __init__(self, seed: int, smoke: bool, work: Path) -> None:
        self.seed = seed
        self.work = Path(work)

    def setup(self) -> None:
        """Untimed preparation shared by every unit."""

    def unit(self, out: Path) -> object:
        raise NotImplementedError

    def inspect(self, out: Path, result: object) -> Inspection:
        raise NotImplementedError

    def _warm(self, preset, ports_list, methods) -> Path:
        """Build the routings a unit needs into a process-bound cache."""
        cache = self.work / "artifact_cache"
        set_process_cache(cache)
        for ports in ports_list:
            topology = make_topology(preset, ports, 0, cache=process_cache())
            build_routings(topology, preset, 0, methods=methods, cache=process_cache())
        process_cache().flush_counters()
        return cache


def _failures(failures) -> List[str]:
    return [f"unit failed: {f.as_dict()}" for f in failures]


class CampaignQuick(Workload):
    name = "campaign-quick"
    expected = CONSTRUCTION + ORCHESTRATION + (
        "analysis.static_load",
        "simulator.init",
        "simulator.run",
        "experiments.campaign",
    )

    def __init__(self, seed: int, smoke: bool, work: Path) -> None:
        super().__init__(seed, smoke, work)
        preset = get_preset("quick").scaled(
            seed=seed, samples=1, warmup_clocks=300, measure_clocks=700
        )
        if smoke:
            preset = preset.scaled(
                n_switches=16, ports=(4,), rates=(0.05, 0.2),
                warmup_clocks=100, measure_clocks=200,
            )
        self.preset = preset

    def unit(self, out: Path):
        return run_campaign(self.preset, out, workers=1)

    def inspect(self, out: Path, stages) -> Inspection:
        names = [f"figure8_{p}port.csv" for p in self.preset.ports] + [
            "tables_simulated.csv",
            "tables_static.csv",
            "audit.csv",
        ]
        problems = _failures([f for st in stages for f in st.failures])
        problems += [f"missing artefact {n}" for n in names if not (out / n).exists()]
        digests = {n: sha256_file(out / n) for n in names if (out / n).exists()}
        return Inspection(digests, problems)


class TablesPaperlite(Workload):
    name = "tables-paperlite"
    expected = ORCHESTRATION + ("simulator.init", "simulator.run")
    methods = ("M1",)

    def __init__(self, seed: int, smoke: bool, work: Path) -> None:
        super().__init__(seed, smoke, work)
        preset = get_preset("paperlite").scaled(
            seed=seed, samples=1, engine="fast",
            warmup_clocks=2000, measure_clocks=4000,
        )
        if smoke:
            preset = preset.scaled(n_switches=32, warmup_clocks=200, measure_clocks=400)
        self.preset = preset

    def setup(self) -> None:
        self.cache = self._warm(self.preset, self.preset.ports, self.methods)

    def unit(self, out: Path):
        return run_tables(
            self.preset, methods=self.methods, out_dir=out,
            ledger_path=out / "ledger_tables.jsonl", artifact_cache=self.cache,
        )

    def inspect(self, out: Path, result) -> Inspection:
        return Inspection(
            {"tables_simulated.csv": sha256_file(out / "tables_simulated.csv")},
            _failures(result.failures),
        )


class Fig8Replica(Workload):
    name = "fig8-replica"
    expected = ORCHESTRATION + ("simulator.init", "simulator.replica")
    methods = ("M1",)
    ports = 4

    def __init__(self, seed: int, smoke: bool, work: Path) -> None:
        super().__init__(seed, smoke, work)
        preset = get_preset("midscale").scaled(
            seed=seed, samples=1, engine="batch", replicas=8,
            warmup_clocks=500, measure_clocks=1000,
        )
        if smoke:
            preset = preset.scaled(
                n_switches=16, replicas=4, warmup_clocks=100, measure_clocks=200
            )
        self.preset = preset

    def setup(self) -> None:
        self.cache = self._warm(self.preset, (self.ports,), self.methods)

    def unit(self, out: Path):
        return run_figure8(
            self.preset, ports=self.ports, methods=self.methods, out_dir=out,
            ledger_path=out / "ledger_figure8.jsonl", artifact_cache=self.cache,
        )

    def points(self, out: Path) -> Dict[str, Tuple[float, float, str]]:
        """``json key -> (accepted, latency, fingerprint)`` from a unit's ledger."""
        return {
            json.dumps(r["key"]): (
                r["result"]["accepted"],
                r["result"]["latency"],
                r["result"].get("fingerprint", ""),
            )
            for r in read_records(out / "ledger_figure8.jsonl")
            if r.get("status") == "ok"
        }

    def inspect(self, out: Path, result) -> Inspection:
        fingerprints = sorted(f"{k} {v[2]}" for k, v in self.points(out).items())
        problems = _failures(result.failures)
        if any(not line.split(" ")[-1] for line in fingerprints):
            problems.append("a batch result carries no statistical fingerprint")
        return Inspection(
            {
                "figure8_4port.csv": sha256_file(out / "figure8_4port.csv"),
                "fingerprints": sha256_lines(fingerprints),
            },
            problems,
        )

    def fast_reference(self) -> Dict[str, List[float]]:
        """Bit-exact ``fast`` engine results on the same replica seeds."""
        preset = self.preset.scaled(engine="fast")
        return {
            json.dumps(list(u.key())): [res["accepted"], res["latency"]]
            for u in figure8_units(preset, self.ports, self.methods)
            for res in [run_unit(u)]
        }

    @staticmethod
    def latency_error(
        points: Dict[str, Tuple[float, float, str]],
        reference: Dict[str, List[float]],
    ) -> float:
        """Median relative latency error against the reference, over the
        points where the reference accepts at least 95% of offered load."""
        errors = []
        for key, (_accepted, latency, _fp) in points.items():
            ref_accepted, ref_latency = reference[key]
            offered = json.loads(key)[4]
            if ref_accepted >= 0.95 * offered and math.isfinite(ref_latency + latency):
                errors.append(abs(latency - ref_latency) / ref_latency)
        return statistics.median(errors) if errors else math.nan


class ConstructPaper(Workload):
    name = "construct-paper"
    expected = CONSTRUCTION + (
        "statics.certify",
        "statics.recheck",
        "analysis.static_load",
        "experiments.artifacts",
        "experiments.stage",
        "util.fsio",
    )
    methods = ("M1",)

    def __init__(self, seed: int, smoke: bool, work: Path) -> None:
        super().__init__(seed, smoke, work)
        preset = get_preset("paper").scaled(seed=seed, samples=1)
        if smoke:
            preset = preset.scaled(n_switches=32)
        self.preset = preset

    def unit(self, out: Path):
        cache = out / "artifact_cache"
        run_static_tables(
            self.preset, methods=self.methods, out_dir=out, artifact_cache=cache
        )
        # a fresh instance without the in-memory LRU: every routing below
        # is decoded from the bytes the static stage just wrote
        reader = ArtifactCache(cache, max_memory_entries=0)
        digests = []
        for ports in self.preset.ports:
            topology = make_topology(self.preset, ports, 0, cache=reader)
            routings = build_routings(
                topology, self.preset, 0, methods=self.methods,
                algorithms=("down-up",), cache=reader,
            )
            for (alg, _method), (routing, _tree) in routings.items():
                bundle = certify_routing(routing, algorithm=alg)
                recheck(bundle)  # raises on a failed independent check
                digests.append(bundle.digest)
        return reader.counters, digests

    def inspect(self, out: Path, result) -> Inspection:
        counters, cert_digests = result
        problems = []
        if counters.misses:
            problems.append(f"{counters.misses} routing(s) rebuilt instead of read back")
        return Inspection(
            {
                "tables_static.csv": sha256_file(out / "tables_static.csv"),
                "certificates": sha256_lines(cert_digests),
            },
            problems,
        )


class FaultsPaperlite(Workload):
    name = "faults-paperlite"
    expected = (
        "core.tree",
        "core.turn_model",
        "routing.build",
        "routing.verify",
        "statics.certify",
        "statics.recheck",
        "simulator.init",
        "simulator.run",
        "faults.rebuild",
        "experiments.artifacts",
        "experiments.stage",
    )
    algorithms = ("l-turn", "down-up")
    policies = ("drop", "drain")
    ports = 4
    rate = 0.02

    def __init__(self, seed: int, smoke: bool, work: Path) -> None:
        super().__init__(seed, smoke, work)
        preset = get_preset("paperlite").scaled(
            seed=seed, warmup_clocks=600, measure_clocks=1200
        )
        if smoke:
            preset = preset.scaled(n_switches=32, warmup_clocks=200, measure_clocks=600)
        self.preset = preset

    def setup(self) -> None:
        self.topology = make_topology(self.preset, self.ports, 0)
        self.config = self.preset.sim_config(self.seed).with_rate(self.rate)
        self.schedule = self._schedule()
        self.cache = self.work / "artifact_cache"
        # one fault-free clock per algorithm publishes the initial builds
        warm = dataclasses.replace(self.config, warmup_clocks=0, measure_clocks=1)
        run_live_fault_campaign(
            self.topology, FaultSchedule(self.topology, []), warm,
            algorithms=self.algorithms, seed=self.seed, artifact_cache=self.cache,
        )

    def _schedule(self) -> FaultSchedule:
        """Seed-drawn victims at evenly spaced clocks.

        The victims and their order come from the first valid
        ``FaultSchedule.random`` draw in the seed's sequence (a draw can
        put a flap's UP edge on a switch that died meanwhile, which its
        own validation rejects).  The clocks are then spread over the
        measurement window: faults closer than ``drain_clocks`` share one
        rebuild, and every seed should cost the same number of rebuilds.
        """
        cfg = self.config
        window = (cfg.warmup_clocks, cfg.warmup_clocks + cfg.measure_clocks // 2)
        for attempt in range(64):
            try:
                drawn = FaultSchedule.random(
                    self.topology, permanent_links=0, link_flaps=1,
                    switch_failures=1, window=window,
                    rng=derive_seed(self.seed, 0xFA17, attempt),
                )
                break
            except ValueError:
                continue
        else:
            raise RuntimeError("no valid fault schedule in 64 draws")
        step = cfg.measure_clocks // (len(drawn.events) + 1)
        return FaultSchedule(
            self.topology,
            [
                dataclasses.replace(e, cycle=cfg.warmup_clocks + (i + 1) * step)
                for i, e in enumerate(drawn.events)
            ],
        )

    def unit(self, out: Path):
        return [
            run_live_fault_campaign(
                self.topology, self.schedule, self.config,
                algorithms=self.algorithms, policy=policy, seed=self.seed,
                artifact_cache=self.cache,
            )
            for policy in self.policies
        ]

    def inspect(self, out: Path, result) -> Inspection:
        problems, runs, certs = [], [], []
        for policy, rows in zip(self.policies, result):
            for row in rows:
                stats = row.stats
                runs.append(f"{policy} {row.algorithm} {stats.canonical_digest()}")
                if not stats.reconfigurations:
                    problems.append(f"{policy}/{row.algorithm}: no reconfiguration")
                for rec in stats.reconfigurations:
                    if not (rec.verified and rec.certificate_checked):
                        problems.append(f"{policy}/{row.algorithm}: unverified {rec}")
                    certs.append(rec.certificate_digest)
                if not stats.delivered_packets:
                    problems.append(f"{policy}/{row.algorithm}: nothing delivered")
        return Inspection(
            {"runs": sha256_lines(runs), "certificates": sha256_lines(certs)},
            problems,
        )


WORKLOADS = {
    w.name: w
    for w in (CampaignQuick, TablesPaperlite, Fig8Replica, ConstructPaper, FaultsPaperlite)
}


def make(name: str, seed: int, smoke: bool, work: Path) -> Workload:
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
    return WORKLOADS[name](seed, smoke, work)
