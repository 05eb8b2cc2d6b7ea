"""Hardware topology probing and worker placement.

The paper's scaling results (Section 5, up to 4096 cores) rest on keeping
every core's working set local and busy.  The persistent executor
historically ignored machine topology on both axes: workers landed on
whatever core the OS picked, and the split-scoring kernel chunked its
evaluation temporaries to a fixed 2^18 elements whatever the cache
hierarchy looked like.  This module closes both gaps:

* :class:`MachineTopology` — cores, NUMA domains and L2/L3 capacities,
  probed from Linux sysfs (``/sys/devices/system/node`` and
  ``/sys/devices/system/cpu/cpu*/cache``) and clamped to the process
  affinity mask.  When sysfs is unavailable (non-Linux, restricted
  containers) the probe **falls back to a flat model**: a single NUMA
  domain holding every schedulable core with unknown cache sizes — which
  reproduces the pre-topology behaviour exactly (no pinning, the fixed
  2^18-element kernel chunk).
* :class:`Placement` — the per-worker plan derived from a topology:
  which NUMA domain each executor worker belongs to, the CPU set it is
  pinned to (``os.sched_setaffinity``), and the contiguous block of any
  flat work range its domain "owns" so shared-memory pages and static
  split chunks line up with the workers touching them.
* :func:`chunk_elements_for` — sizes the lazy split kernel's
  ``max_chunk_elements`` from the probed L2/L3 capacity instead of the
  fixed default.

**Topology never changes results.**  Placement decides *where* work runs
and *in what size* the kernel chunks its temporaries; every score is
computed row-independently from named, index-addressed random streams, so
pinning, page placement and chunk sizing are invisible to the learned
network (the golden and equivalence suites enforce this bit-for-bit, and
``tests/test_topology.py`` pins the flat-vs-auto identity directly).
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

    ``domain_l2_bytes`` / ``domain_l3_bytes`` optionally carry *per-domain*
    cache capacities (one entry per NUMA domain) for heterogeneous
    machines — big.LITTLE or multi-die parts where each domain sees its
    own L2/L3.  ``None`` means homogeneous: every domain falls back to
    the machine-wide ``l2_bytes`` / ``l3_bytes``.
    """

    numa_domains: tuple[tuple[int, ...], ...]
    l2_bytes: int = 0
    l3_bytes: int = 0
    source: str = "flat"
    domain_l2_bytes: tuple[int, ...] | None = None
    domain_l3_bytes: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not self.numa_domains or not any(self.numa_domains):
            raise ValueError("topology needs at least one non-empty domain")
        if self.l2_bytes < 0 or self.l3_bytes < 0:
            raise ValueError("cache sizes must be non-negative")
        if self.source not in ("sysfs", "flat"):
            raise ValueError("source must be 'sysfs' or 'flat'")
        for per_domain in (self.domain_l2_bytes, self.domain_l3_bytes):
            if per_domain is None:
                continue
            if len(per_domain) != len(self.numa_domains):
                raise ValueError("per-domain cache list must match domain count")
            if any(size < 0 for size in per_domain):
                raise ValueError("cache sizes must be non-negative")

    @property
    def n_domains(self) -> int:
        return len(self.numa_domains)

    @property
    def n_cores(self) -> int:
        return sum(len(d) for d in self.numa_domains)

    def domain_caches(self, domain: int) -> tuple[int, int]:
        """``(l2_bytes, l3_bytes)`` visible from one NUMA domain's cores.

        Falls back to the machine-wide capacities when no per-domain
        probe results are recorded (the homogeneous common case).
        """
        l2 = (
            self.domain_l2_bytes[domain]
            if self.domain_l2_bytes is not None
            else self.l2_bytes
        )
        l3 = (
            self.domain_l3_bytes[domain]
            if self.domain_l3_bytes is not None
            else self.l3_bytes
        )
        return l2, l3

    def describe(self) -> dict:
        """A JSON-serializable summary (recorded into work traces)."""
        return {
            "source": self.source,
            "n_cores": self.n_cores,
            "n_domains": self.n_domains,
            "domain_sizes": [len(d) for d in self.numa_domains],
            "l2_bytes": self.l2_bytes,
            "l3_bytes": self.l3_bytes,
            "domain_l2_bytes": (
                list(self.domain_l2_bytes)
                if self.domain_l2_bytes is not None
                else None
            ),
            "domain_l3_bytes": (
                list(self.domain_l3_bytes)
                if self.domain_l3_bytes is not None
                else None
            ),
        }


def flat_topology(n_cores: int | None = None) -> MachineTopology:
    """The documented fallback: one domain, every core, unknown caches.

    Deterministic for a fixed affinity mask — probing twice yields equal
    topologies — and behaviour-preserving: no worker pinning, no
    domain-interleaved page writes, the fixed 2^18-element kernel chunk.
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
        # Probe caches from each domain's first CPU: on heterogeneous
        # (big.LITTLE / multi-die) parts the domains see different L2/L3.
        per_domain = [_probe_caches(sysfs, cpus[0]) for cpus in domains]
        l2, l3 = per_domain[0]
        return MachineTopology(
            numa_domains=tuple(domains),
            l2_bytes=l2,
            l3_bytes=l3,
            source="sysfs",
            domain_l2_bytes=tuple(c[0] for c in per_domain),
            domain_l3_bytes=tuple(c[1] for c in per_domain),
        )
    except (OSError, ValueError):
        return flat_topology()


def resolve_topology(spec) -> MachineTopology:
    """A :class:`MachineTopology` from a config override.

    ``"auto"`` probes the machine, ``"flat"`` forces the fallback model,
    and an explicit :class:`MachineTopology` passes through unchanged.
    """
    if isinstance(spec, MachineTopology):
        return spec
    if spec == "auto":
        return probe_topology()
    if spec == "flat":
        return flat_topology()
    raise ValueError(f"topology must be 'auto', 'flat' or a MachineTopology, got {spec!r}")


def chunk_elements_for(topology: MachineTopology, domain: int | None = None) -> int:
    """The lazy split kernel's chunk size for this machine (or one domain).

    One evaluation chunk is ``chunk_rows * n_obs`` float64 elements that
    are written once and immediately row-summed; keeping the chunk inside
    half the L2 (the other half holds the value slice and score table)
    keeps the hot loop out of L3 traffic.  The shared L3 caps the sum of
    all cores' chunks.  Unknown caches (the flat fallback) keep the fixed
    pre-topology default, and the result is clamped to
    ``[MIN_CHUNK_ELEMENTS, MAX_CHUNK_ELEMENTS]`` and rounded down to a
    power of two for stable, comparable measurements.

    With ``domain`` given, the budget comes from that NUMA domain's own
    cache capacities and the L3 share is divided among *that domain's*
    cores only — each socket's L3 is shared by its own cores, not the
    whole machine.  On a single-domain topology (flat fallback included)
    the per-domain result is identical to the machine-wide one, so flat
    machines keep the exact pre-change chunk size.
    """
    if domain is None or topology.n_domains <= 1:
        l2, l3 = topology.l2_bytes, topology.l3_bytes
        sharers = topology.n_cores
    else:
        l2, l3 = topology.domain_caches(domain)
        sharers = len(topology.numa_domains[domain])
    if l2 <= 0:
        return FLAT_CHUNK_ELEMENTS
    budget = l2 // 2
    if l3 > 0:
        budget = min(budget, l3 // max(1, sharers))
    elements = max(1, budget // 8)  # float64
    elements = min(max(elements, MIN_CHUNK_ELEMENTS), MAX_CHUNK_ELEMENTS)
    return 1 << (elements.bit_length() - 1)


@dataclass(frozen=True)
class Placement:
    """The worker->domain plan of one executor.

    ``worker_domains[w]`` is the index (into ``topology.numa_domains``) of
    the NUMA domain worker ``w`` is pinned to; workers are distributed
    over domains in contiguous blocks proportional to each domain's core
    count, so every worker appears in the plan exactly once and
    same-domain workers own adjacent blocks of any statically partitioned
    flat work range.
    """

    topology: MachineTopology
    worker_domains: tuple[int, ...]

    @property
    def n_workers(self) -> int:
        return len(self.worker_domains)

    @property
    def is_flat(self) -> bool:
        return self.topology.n_domains <= 1

    def worker_cpus(self, worker_index: int) -> tuple[int, ...]:
        """The CPU set worker ``worker_index`` is pinned to (its domain).

        Replacement workers spawned after a crash carry indices past
        ``n_workers``; they wrap onto the original plan.
        """
        domain = self.worker_domains[worker_index % self.n_workers]
        return self.topology.numa_domains[domain]

    def domain_of(self, worker_index: int) -> int:
        return self.worker_domains[worker_index % self.n_workers]

    def domain_blocks(self, total: int) -> list[tuple[int, int]]:
        """Contiguous ``[lo, hi)`` block of a flat range per NUMA domain.

        Blocks are proportional to each domain's worker count, so the
        rows/splits a domain's workers process sit in one contiguous
        region — the region whose shared-memory pages
        :class:`repro.parallel.transport.SharedMatrix` first-touches from
        that domain.
        """
        from repro.parallel.costmodel import block_bounds

        counts = [0] * self.topology.n_domains
        for domain in self.worker_domains:
            counts[domain] += 1
        bounds = block_bounds(total, max(1, sum(counts)))
        # Proportional split along worker boundaries: domain d owns the
        # union of its workers' equal-count blocks, which are contiguous
        # because workers are assigned to domains in contiguous runs.
        blocks: list[tuple[int, int]] = []
        worker = 0
        for count in counts:
            if count == 0:
                pos = bounds[worker - 1][1] if worker else 0
                blocks.append((pos, pos))
            else:
                blocks.append((bounds[worker][0], bounds[worker + count - 1][1]))
                worker += count
        return blocks

    def chunk_bounds(self, total: int, chunks_per_worker: int = 1) -> list[tuple[int, int]]:
        """Per-worker (or finer) ``[lo, hi)`` bounds nested in domain blocks.

        The placement-aware counterpart of
        :func:`repro.parallel.costmodel.block_bounds`: each domain's block
        is subdivided equally among its workers, so worker ``w``'s static
        split chunk lies inside the region its domain first-touched.  With
        a single domain this degenerates to plain ``block_bounds``.
        """
        from repro.parallel.costmodel import block_bounds

        counts = [0] * self.topology.n_domains
        for domain in self.worker_domains:
            counts[domain] += 1
        out: list[tuple[int, int]] = []
        for (lo, hi), count in zip(self.domain_blocks(total), counts):
            if count == 0 or lo >= hi:
                continue
            for a, b in block_bounds(hi - lo, count * chunks_per_worker):
                out.append((lo + a, lo + b))
        return out

    def domain_chunk_elements(self) -> tuple[int, ...]:
        """Kernel chunk size per NUMA domain (see :func:`chunk_elements_for`).

        Shipped to workers through the executor's initializer so each
        pinned worker sizes its :class:`repro.scoring.kernel.LazySplitKernel`
        temporaries for *its own* domain's caches.
        """
        return tuple(
            chunk_elements_for(self.topology, domain)
            for domain in range(self.topology.n_domains)
        )

    def chunk_elements(self, worker_index: int) -> int:
        """The kernel chunk size of one worker (its domain's)."""
        return chunk_elements_for(self.topology, self.domain_of(worker_index))

    def spread_domains(self, n_items: int) -> list[int]:
        """Home domains for ``n_items`` queue items with no natural home.

        Cycles through the worker->domain plan so each domain's affine
        queue receives items in proportion to its worker count — the
        balanced default for workloads (e.g. the G GaneSH chains) whose
        items touch the whole matrix rather than a contiguous row block.
        """
        return [self.domain_of(i) for i in range(n_items)]

    def describe(self) -> dict:
        return {
            "topology": self.topology.describe(),
            "worker_domains": list(self.worker_domains),
            "domain_chunk_elements": list(self.domain_chunk_elements()),
        }


def plan_placement(topology: MachineTopology, n_workers: int) -> Placement:
    """Assign ``n_workers`` executor workers to NUMA domains.

    Workers are laid out in contiguous runs over the domains, each run
    sized proportionally to the domain's core count (the balanced-block
    split of :func:`repro.parallel.costmodel.block_bounds` applied to
    worker indices).  Every worker is assigned exactly one domain.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be at least 1")
    domains = topology.numa_domains
    if len(domains) == 1:
        return Placement(topology=topology, worker_domains=(0,) * n_workers)
    total_cores = topology.n_cores
    # Largest-remainder apportionment of workers to domains by core share.
    shares = [len(d) * n_workers / total_cores for d in domains]
    counts = [int(s) for s in shares]
    remainders = sorted(
        range(len(domains)), key=lambda i: (shares[i] - counts[i], len(domains[i])),
        reverse=True,
    )
    short = n_workers - sum(counts)
    for i in remainders[:short]:
        counts[i] += 1
    # Every domain with zero workers stays empty unless workers outnumber
    # assignments (can't happen after apportionment: sum == n_workers).
    worker_domains: list[int] = []
    for domain_index, count in enumerate(counts):
        worker_domains.extend([domain_index] * count)
    return Placement(topology=topology, worker_domains=tuple(worker_domains))


def pin_to(cpus: tuple[int, ...]) -> bool:
    """Best-effort affinity pin of the calling process; False if refused.

    Pinning is a pure locality hint — a kernel or platform that refuses
    (no ``sched_setaffinity``, masked CPUs revoked by the cgroup) leaves
    the worker unpinned and the output unchanged.
    """
    setaffinity = getattr(os, "sched_setaffinity", None)
    if setaffinity is None or not cpus:
        return False
    try:
        setaffinity(0, set(cpus))
        return True
    except OSError:
        return False
