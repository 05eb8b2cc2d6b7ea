"""Structured results of a scenario-matrix run.

The report is the harness's contract with CI and with humans: every
(scenario x backend-combination) cell records the network fingerprint it
produced, whether it matched the sequential reference, the wall time, and
any crash — and the scenario rolls those up with the reference run's
ground-truth recovery metrics and tolerance-band verdict.  ``to_json``
emits the whole matrix as one document (the ``repro validate`` output);
``summarize`` renders the terminal table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class ComboResult:
    """One backend combination's outcome on one scenario."""

    n_workers: int
    kernel_backend: str
    rng_backend: str
    #: shard nodes (>1 = the combo ran on the multi-node tier)
    n_nodes: int = 1
    fingerprint: str | None = None
    #: matched the sequential reference for the same RNG backend
    identical: bool = False
    seconds: float = 0.0
    error: str | None = None

    @property
    def label(self) -> str:
        label = f"w={self.n_workers}/{self.kernel_backend}/{self.rng_backend}"
        if self.n_nodes > 1:
            label = f"n={self.n_nodes}/" + label
        return label

    def to_dict(self) -> dict:
        return {
            "n_workers": self.n_workers,
            "kernel_backend": self.kernel_backend,
            "rng_backend": self.rng_backend,
            "n_nodes": self.n_nodes,
            "fingerprint": self.fingerprint,
            "identical": self.identical,
            "seconds": round(self.seconds, 4),
            "error": self.error,
        }


@dataclass
class ScenarioResult:
    """One scenario's outcome across the whole backend grid."""

    name: str
    description: str
    shape: tuple[int, int]
    seed: int
    #: reference fingerprint per RNG backend (the oracle each combo must hit)
    reference: dict[str, str] = field(default_factory=dict)
    combos: list[ComboResult] = field(default_factory=list)
    #: recovery metrics of the reference run (empty for truth-free scenarios)
    metrics: dict[str, float] = field(default_factory=dict)
    #: tolerance-band violations of the reference metrics
    band_violations: list[str] = field(default_factory=list)

    @property
    def divergent(self) -> list[ComboResult]:
        return [c for c in self.combos if c.error is None and not c.identical]

    @property
    def crashed(self) -> list[ComboResult]:
        return [c for c in self.combos if c.error is not None]

    @property
    def ok(self) -> bool:
        return not self.divergent and not self.crashed and not self.band_violations

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "shape": list(self.shape),
            "seed": self.seed,
            "ok": self.ok,
            "reference_fingerprints": self.reference,
            "metrics": {k: round(v, 6) for k, v in self.metrics.items()},
            "band_violations": self.band_violations,
            "combos": [c.to_dict() for c in self.combos],
        }


@dataclass
class MatrixReport:
    """The full scenario-matrix run."""

    smoke: bool
    seed: int
    scenarios: list[ScenarioResult] = field(default_factory=list)
    #: the backend grid that was exercised (for report readers)
    grid: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.scenarios)

    @property
    def n_combos(self) -> int:
        return sum(len(s.combos) for s in self.scenarios)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "smoke": self.smoke,
            "seed": self.seed,
            "grid": self.grid,
            "n_scenarios": len(self.scenarios),
            "n_combos": self.n_combos,
            "scenarios": [s.to_dict() for s in self.scenarios],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def summarize(self) -> str:
        """The terminal table: one row per scenario."""
        lines = [
            f"{'scenario':<18} {'shape':>8} {'combos':>7} {'identical':>10} "
            f"{'ARI':>6} {'verdict':>8}"
        ]
        for s in self.scenarios:
            n_identical = sum(1 for c in s.combos if c.identical)
            ari = s.metrics.get("module_ari")
            ari_text = "-" if ari is None else f"{ari:.2f}"
            verdict = "ok" if s.ok else "FAIL"
            lines.append(
                f"{s.name:<18} {s.shape[0]}x{s.shape[1]:<5} "
                f"{len(s.combos):>7} {n_identical:>9}/{len(s.combos)} "
                f"{ari_text:>6} {verdict:>8}"
            )
            for combo in s.divergent:
                lines.append(f"    DIVERGED {combo.label}: {combo.fingerprint}")
            for combo in s.crashed:
                lines.append(f"    CRASHED  {combo.label}: {combo.error}")
            for violation in s.band_violations:
                lines.append(f"    BAND     {violation}")
        mode = "smoke" if self.smoke else "full"
        lines.append(
            f"{len(self.scenarios)} scenario(s), {self.n_combos} backend "
            f"combination(s), {mode} grid: "
            + ("all bit-identical within RNG backend"
               if self.ok else "FAILURES above")
        )
        return "\n".join(lines)
