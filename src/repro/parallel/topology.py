"""Hardware topology probing: the cores and NUMA domains of one machine.

* :class:`MachineTopology` — cores and NUMA domains, probed from Linux
  sysfs (``/sys/devices/system/node``) and clamped to the process
  affinity mask.  When sysfs is unavailable (non-Linux, restricted
  containers) the probe **falls back to a flat model**: a single NUMA
  domain holding every schedulable core.

The domains are reported (benchmark machine blocks, work traces) but
nothing is scheduled or sized by them: every worker pulls from one shared
queue (docs/ALGORITHMS.md section 12 names the measurement a domain-aware
dispatch would have to show first), and the split kernel's chunk size is
the constant :data:`repro.scoring.kernel.CHUNK_ELEMENTS` (section 11 names
the measurement a machine-derived size would have to show).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path


def available_cpus() -> tuple[int, ...]:
    """The CPU ids this process may run on (the affinity mask).

    Containerized CI typically grants fewer cores than ``os.cpu_count``
    reports for the host; every topology decision starts from the mask so
    the executor never plans for cores it cannot schedule onto.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return tuple(sorted(getaffinity(0)))
        except OSError:  # pragma: no cover - exotic kernels
            pass
    return tuple(range(os.cpu_count() or 1))


@dataclass(frozen=True)
class MachineTopology:
    """Cores and NUMA domains of one machine.

    ``numa_domains`` lists the schedulable CPU ids per NUMA node (only
    nodes that own at least one schedulable CPU appear).
    """

    numa_domains: tuple[tuple[int, ...], ...]
    source: str = "flat"

    def __post_init__(self) -> None:
        if not self.numa_domains or not any(self.numa_domains):
            raise ValueError("topology needs at least one non-empty domain")
        if self.source not in ("sysfs", "flat"):
            raise ValueError("source must be 'sysfs' or 'flat'")

    @property
    def n_domains(self) -> int:
        return len(self.numa_domains)

    @property
    def n_cores(self) -> int:
        return sum(len(d) for d in self.numa_domains)

    def describe(self) -> dict:
        """A JSON-serializable summary (recorded into work traces)."""
        return {
            "source": self.source,
            "n_cores": self.n_cores,
            "n_domains": self.n_domains,
            "domain_sizes": [len(d) for d in self.numa_domains],
        }


def flat_topology(n_cores: int | None = None) -> MachineTopology:
    """The documented fallback: one domain, every core.

    Deterministic for a fixed affinity mask — probing twice yields equal
    topologies.
    """
    cpus = tuple(range(n_cores)) if n_cores is not None else available_cpus()
    return MachineTopology(numa_domains=(cpus,), source="flat")


def _parse_cpulist(text: str) -> tuple[int, ...]:
    """Parse sysfs cpulist syntax: ``"0-3,8,10-11"`` -> cpu ids."""
    cpus: list[int] = []
    for part in text.strip().split(","):
        if not part:
            continue
        if "-" in part:
            lo, hi = part.split("-", 1)
            cpus.extend(range(int(lo), int(hi) + 1))
        else:
            cpus.append(int(part))
    return tuple(cpus)


def probe_topology(sysfs_root: str | os.PathLike = "/sys") -> MachineTopology:
    """Probe NUMA domains from sysfs, or fall back flat.

    Node CPU lists are intersected with the affinity mask; nodes left
    empty by the intersection are dropped (a container pinned to one
    socket sees a single domain even on a two-socket host).  Any missing
    or unparseable sysfs entry degrades to :func:`flat_topology` rather
    than guessing — the fallback is behaviour-preserving by construction.
    """
    sysfs = Path(sysfs_root)
    allowed = set(available_cpus())
    try:
        node_dirs = sorted(
            (sysfs / "devices" / "system" / "node").glob("node[0-9]*"),
            key=lambda p: int(p.name[4:]),
        )
        domains = []
        for node in node_dirs:
            cpus = tuple(
                c for c in _parse_cpulist((node / "cpulist").read_text())
                if c in allowed
            )
            if cpus:
                domains.append(cpus)
        if not domains:
            return flat_topology()
        return MachineTopology(numa_domains=tuple(domains), source="sysfs")
    except (OSError, ValueError):
        return flat_topology()


def resolve_topology(spec: str) -> MachineTopology:
    """``"auto"`` probes the machine, ``"flat"`` forces the fallback model."""
    if spec == "auto":
        return probe_topology()
    if spec == "flat":
        return flat_topology()
    raise ValueError(f"topology must be 'auto' or 'flat', got {spec!r}")
