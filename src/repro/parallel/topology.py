"""Hardware topology probing and kernel chunk sizing.

The split-scoring kernel chunks its evaluation temporaries; how large a
chunk should be depends on the cache hierarchy, not on the algorithm.
This module reads the machine and turns it into that one number:

* :class:`MachineTopology` — cores, NUMA domains and L2/L3 capacities,
  probed from Linux sysfs (``/sys/devices/system/node`` and
  ``/sys/devices/system/cpu/cpu*/cache``) and clamped to the process
  affinity mask.  When sysfs is unavailable (non-Linux, restricted
  containers) the probe **falls back to a flat model**: a single NUMA
  domain holding every schedulable core with unknown cache sizes, which
  keeps the fixed 2^18-element kernel chunk.
* :func:`chunk_elements_for` — sizes the lazy split kernel's
  ``max_chunk_elements`` from the probed L2/L3 capacity.

The NUMA domains are reported (benchmark machine blocks, work traces) but
nothing is scheduled by them: every worker pulls from one shared queue
(docs/ALGORITHMS.md section 12 names the measurement a domain-aware
dispatch would have to show first).
**Chunk size never changes results** — every score is computed
row-independently and summed per row, so the size of a temporary is
invisible to the learned network.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path

#: fixed kernel chunk size used when cache capacities are unknown
#: (mirrors :data:`repro.scoring.kernel.DEFAULT_CHUNK_ELEMENTS`)
FLAT_CHUNK_ELEMENTS = 1 << 18

#: clamp range for the probed kernel chunk size: never below 16 Ki
#: elements (chunking overhead dominates) nor above 1 Mi elements
#: (8 MiB temporaries defeat the kernel's memory contract)
MIN_CHUNK_ELEMENTS = 1 << 14
MAX_CHUNK_ELEMENTS = 1 << 20


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
    """Cores, NUMA domains and cache capacities of one machine.

    ``numa_domains`` lists the schedulable CPU ids per NUMA node (only
    nodes that own at least one schedulable CPU appear).  ``l2_bytes`` /
    ``l3_bytes`` are per-core-visible capacities of the unified caches;
    ``0`` means unknown (the flat fallback), in which case every consumer
    keeps its pre-topology default.
    """

    numa_domains: tuple[tuple[int, ...], ...]
    l2_bytes: int = 0
    l3_bytes: int = 0
    source: str = "flat"

    def __post_init__(self) -> None:
        if not self.numa_domains or not any(self.numa_domains):
            raise ValueError("topology needs at least one non-empty domain")
        if self.l2_bytes < 0 or self.l3_bytes < 0:
            raise ValueError("cache sizes must be non-negative")
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
            "l2_bytes": self.l2_bytes,
            "l3_bytes": self.l3_bytes,
        }


def flat_topology(n_cores: int | None = None) -> MachineTopology:
    """The documented fallback: one domain, every core, unknown caches.

    Deterministic for a fixed affinity mask — probing twice yields equal
    topologies — and it keeps the fixed 2^18-element kernel chunk.
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


def _parse_cache_size(text: str) -> int:
    """Parse sysfs cache size syntax: ``"2048K"`` / ``"32M"`` -> bytes."""
    match = re.fullmatch(r"(\d+)\s*([KMG]?)", text.strip(), re.IGNORECASE)
    if match is None:
        raise ValueError(f"unparseable cache size {text!r}")
    value = int(match.group(1))
    unit = match.group(2).upper()
    return value * {"": 1, "K": 1 << 10, "M": 1 << 20, "G": 1 << 30}[unit]


def _probe_caches(sysfs: Path, cpu: int) -> tuple[int, int]:
    """Per-level unified/data cache capacities visible from one CPU."""
    sizes: dict[int, int] = {}
    cache_dir = sysfs / "devices" / "system" / "cpu" / f"cpu{cpu}" / "cache"
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = int((index / "level").read_text())
            ctype = (index / "type").read_text().strip()
            size = _parse_cache_size((index / "size").read_text())
        except (OSError, ValueError):
            continue
        if ctype not in ("Unified", "Data"):
            continue
        sizes[level] = max(sizes.get(level, 0), size)
    return sizes.get(2, 0), sizes.get(3, 0)


def probe_topology(sysfs_root: str | os.PathLike = "/sys") -> MachineTopology:
    """Probe NUMA domains and caches from sysfs, or fall back flat.

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
        l2, l3 = _probe_caches(sysfs, domains[0][0])
        return MachineTopology(
            numa_domains=tuple(domains), l2_bytes=l2, l3_bytes=l3, source="sysfs"
        )
    except (OSError, ValueError):
        return flat_topology()


def resolve_topology(spec: str) -> MachineTopology:
    """``"auto"`` probes the machine, ``"flat"`` forces the fallback model."""
    if spec == "auto":
        return probe_topology()
    if spec == "flat":
        return flat_topology()
    raise ValueError(f"topology must be 'auto' or 'flat', got {spec!r}")


def chunk_elements_for(topology: MachineTopology) -> int:
    """The lazy split kernel's chunk size for this machine.

    One evaluation chunk is ``chunk_rows * n_obs`` float64 elements that
    are written once and immediately row-summed; keeping the chunk inside
    half the L2 (the other half holds the value slice and score table)
    keeps the hot loop out of L3 traffic.  The shared L3 caps the sum of
    all cores' chunks.  Unknown caches (the flat fallback) keep the fixed
    pre-topology default, and the result is clamped to
    ``[MIN_CHUNK_ELEMENTS, MAX_CHUNK_ELEMENTS]`` and rounded down to a
    power of two for stable, comparable measurements.
    """
    l2, l3 = topology.l2_bytes, topology.l3_bytes
    if l2 <= 0:
        return FLAT_CHUNK_ELEMENTS
    budget = l2 // 2
    if l3 > 0:
        budget = min(budget, l3 // max(1, topology.n_cores))
    elements = max(1, budget // 8)  # float64
    elements = min(max(elements, MIN_CHUNK_ELEMENTS), MAX_CHUNK_ELEMENTS)
    return 1 << (elements.bit_length() - 1)
