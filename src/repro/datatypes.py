"""Core data types shared across the learner, parallel engine and benches."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np


class ExpressionMatrix:
    """An ``n x m`` matrix of observations for ``n`` variables.

    Rows are variables (genes), columns are observations (conditions), the
    layout used by Lemon-Tree and the paper.  Values may be any continuous
    measurements; gene-expression matrices are the motivating case.
    """

    def __init__(
        self,
        values: np.ndarray,
        var_names: Sequence[str] | None = None,
        obs_names: Sequence[str] | None = None,
        allow_missing: bool = False,
    ) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("expression matrix must be 2-D (variables x observations)")
        if allow_missing:
            # NaN marks a missing measurement; infinities are never data.
            if np.isinf(values).any():
                raise ValueError("expression matrix contains infinite values")
        elif not np.isfinite(values).all():
            raise ValueError(
                "expression matrix contains non-finite values (pass "
                "allow_missing=True to carry NaN missing-data markers)"
            )
        self.values = values
        n, m = values.shape
        self.var_names = (
            list(var_names) if var_names is not None else [f"G{i}" for i in range(n)]
        )
        self.obs_names = (
            list(obs_names) if obs_names is not None else [f"O{j}" for j in range(m)]
        )
        if len(self.var_names) != n:
            raise ValueError("var_names length does not match row count")
        if len(self.obs_names) != m:
            raise ValueError("obs_names length does not match column count")

    @property
    def has_missing(self) -> bool:
        """True when the matrix carries NaN missing-data markers."""
        return bool(np.isnan(self.values).any())

    def missing_mask(self) -> np.ndarray:
        """Boolean mask of missing (NaN) entries."""
        return np.isnan(self.values)

    def impute_missing(self, strategy: str = "row_mean") -> "ExpressionMatrix":
        """A complete matrix with missing entries filled in.

        ``row_mean`` replaces each NaN with its variable's observed mean
        (the variable's grand expression level — the neutral value under
        the row-pooled normal-gamma model); ``zero`` fills with 0.0.  A
        variable with no observed value at all imputes to 0.0.  The result
        never contains NaN, so it is accepted by every scoring path.
        """
        if strategy not in ("row_mean", "zero"):
            raise ValueError("strategy must be 'row_mean' or 'zero'")
        mask = np.isnan(self.values)
        if not mask.any():
            return ExpressionMatrix(
                self.values.copy(), self.var_names, self.obs_names
            )
        filled = self.values.copy()
        if strategy == "row_mean":
            observed = np.where(mask, 0.0, filled)
            counts = (~mask).sum(axis=1)
            means = np.divide(
                observed.sum(axis=1),
                counts,
                out=np.zeros(self.n_vars, dtype=np.float64),
                where=counts > 0,
            )
            fill = np.broadcast_to(means[:, None], filled.shape)
        else:
            fill = np.zeros_like(filled)
        filled[mask] = fill[mask]
        return ExpressionMatrix(filled, self.var_names, self.obs_names)

    @property
    def n_vars(self) -> int:
        return self.values.shape[0]

    @property
    def n_obs(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def subsample(self, n_vars: int | None = None, n_obs: int | None = None) -> "ExpressionMatrix":
        """The first ``n_vars`` variables x first ``n_obs`` observations.

        This mirrors the paper's construction of smaller data sets from the
        complete yeast matrix ("the first n variables and the first m
        observations", Section 5.2.2).
        """
        n = self.n_vars if n_vars is None else int(n_vars)
        m = self.n_obs if n_obs is None else int(n_obs)
        if not (0 < n <= self.n_vars and 0 < m <= self.n_obs):
            raise ValueError(f"subsample {n}x{m} out of range for {self.shape}")
        return ExpressionMatrix(
            self.values[:n, :m].copy(),
            self.var_names[:n],
            self.obs_names[:m],
            allow_missing=True,
        )

    def standardized(self) -> "ExpressionMatrix":
        """Row-standardize (zero mean, unit variance per variable)."""
        if self.has_missing:
            raise ValueError(
                "cannot standardize a matrix with missing values; call "
                "impute_missing() first"
            )
        mean = self.values.mean(axis=1, keepdims=True)
        std = self.values.std(axis=1, keepdims=True)
        std[std == 0] = 1.0
        return ExpressionMatrix(
            (self.values - mean) / std, self.var_names, self.obs_names
        )

    def __repr__(self) -> str:
        return f"ExpressionMatrix({self.n_vars} vars x {self.n_obs} obs)"


@dataclass(frozen=True)
class Split:
    """A parent split assigned to a regression-tree node."""

    parent: int  # variable index of the candidate parent
    value: float  # split value
    node_id: int  # internal node the split is assigned to
    posterior: float  # normalized posterior probability at the node
    n_obs: int  # observations at the node (the parent-score weight)


@dataclass
class TreeNode:
    """A node of a binary regression tree over observations."""

    node_id: int
    observations: np.ndarray  # sorted observation indices at this node
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    #: splits selected by posterior-weighted sampling (internal nodes only)
    weighted_splits: list[Split] = field(default_factory=list)
    #: splits selected uniformly at random (internal nodes only)
    uniform_splits: list[Split] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def internal_nodes(self) -> Iterator["TreeNode"]:
        """Yield internal nodes in deterministic (pre-order) order."""
        if self.is_leaf:
            return
        yield self
        assert self.left is not None and self.right is not None
        yield from self.left.internal_nodes()
        yield from self.right.internal_nodes()

    def leaves(self) -> Iterator["TreeNode"]:
        if self.is_leaf:
            yield self
            return
        assert self.left is not None and self.right is not None
        yield from self.left.leaves()
        yield from self.right.leaves()

    def depth(self) -> int:
        if self.is_leaf:
            return 1
        assert self.left is not None and self.right is not None
        return 1 + max(self.left.depth(), self.right.depth())


@dataclass
class RegressionTree:
    """One sampled regression tree for a module."""

    module_id: int
    root: TreeNode

    def internal_nodes(self) -> list[TreeNode]:
        return list(self.root.internal_nodes())

    def n_leaves(self) -> int:
        return sum(1 for _ in self.root.leaves())


@dataclass
class Module:
    """A module: a set of variables sharing parents and CPD."""

    module_id: int
    members: list[int]
    trees: list[RegressionTree] = field(default_factory=list)
    #: parent variable -> score, from posterior-weighted split selection
    weighted_parents: dict[int, float] = field(default_factory=dict)
    #: parent variable -> score, from uniform split selection (the paper's
    #: random control used to assess parent significance)
    uniform_parents: dict[int, float] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.members)


class ModuleNetwork:
    """A learned module network.

    Holds the module assignment function, per-module regression trees and
    parent scores.  As in the paper, acyclicity is *not* enforced;
    :meth:`module_graph` exposes the (possibly cyclic) module digraph and
    :meth:`feedback_edges` reports edges participating in cycles.
    """

    def __init__(
        self,
        modules: list[Module],
        var_names: Sequence[str],
        n_obs: int,
    ) -> None:
        self.modules = modules
        self.var_names = list(var_names)
        self.n_obs = int(n_obs)
        self._assignment: dict[int, int] = {}
        for module in modules:
            for var in module.members:
                if var in self._assignment:
                    raise ValueError(f"variable {var} assigned to two modules")
                self._assignment[var] = module.module_id

    @property
    def n_modules(self) -> int:
        return len(self.modules)

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    def assignment(self, var: int) -> int | None:
        """The module id of ``var`` (None if unassigned)."""
        return self._assignment.get(var)

    def assignment_labels(self) -> np.ndarray:
        """Module id per variable; -1 for unassigned variables."""
        labels = np.full(self.n_vars, -1, dtype=np.int64)
        for var, mod in self._assignment.items():
            labels[var] = mod
        return labels

    def module_graph(self):
        """The module digraph: edge ``M_j -> M_k`` iff some member of
        ``M_j`` is a parent of ``M_k`` (Section 2.1)."""
        import networkx as nx

        graph = nx.DiGraph()
        for module in self.modules:
            graph.add_node(module.module_id, size=module.size)
        for module in self.modules:
            for parent in module.weighted_parents:
                src = self._assignment.get(parent)
                if src is not None:
                    graph.add_edge(src, module.module_id)
        return graph

    def feedback_edges(self) -> list[tuple[int, int]]:
        """Edges whose removal would make the module graph acyclic."""
        import networkx as nx

        graph = self.module_graph()
        edges: list[tuple[int, int]] = []
        while True:
            try:
                cycle = nx.find_cycle(graph)
            except nx.NetworkXNoCycle:
                return edges
            edge = cycle[0][:2]
            edges.append(edge)
            graph.remove_edge(*edge)

    # -- equality (used by consistency tests) ----------------------------
    def signature(self) -> tuple:
        """A hashable summary capturing assignment, trees, splits, parents."""
        parts = []
        for module in sorted(self.modules, key=lambda mod: mod.module_id):
            tree_sigs = []
            for tree in module.trees:
                node_sigs = []
                for node in tree.internal_nodes():
                    node_sigs.append(
                        (
                            tuple(node.observations.tolist()),
                            tuple(
                                (s.parent, round(s.value, 9), round(s.posterior, 9))
                                for s in node.weighted_splits
                            ),
                            tuple(
                                (s.parent, round(s.value, 9), round(s.posterior, 9))
                                for s in node.uniform_splits
                            ),
                        )
                    )
                tree_sigs.append(tuple(node_sigs))
            parts.append(
                (
                    module.module_id,
                    tuple(module.members),
                    tuple(tree_sigs),
                    tuple(
                        sorted(
                            (p, round(v, 9)) for p, v in module.weighted_parents.items()
                        )
                    ),
                    tuple(
                        sorted(
                            (p, round(v, 9)) for p, v in module.uniform_parents.items()
                        )
                    ),
                )
            )
        return tuple(parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModuleNetwork):
            return NotImplemented
        return self.signature() == other.signature()

    def __hash__(self) -> int:  # pragma: no cover - rarely hashed
        return hash(self.signature())

    def __repr__(self) -> str:
        return (
            f"ModuleNetwork({self.n_modules} modules, {self.n_vars} vars, "
            f"{self.n_obs} obs)"
        )


@dataclass(frozen=True)
class TaskTimes:
    """Wall-time (or simulated-time) breakdown by Lemon-Tree task."""

    ganesh: float
    consensus: float
    modules: float

    @property
    def total(self) -> float:
        return self.ganesh + self.consensus + self.modules

    def fractions(self) -> Mapping[str, float]:
        total = self.total or 1.0
        return {
            "ganesh": self.ganesh / total,
            "consensus": self.consensus / total,
            "modules": self.modules / total,
        }
