"""Tests for core data types."""

import numpy as np
import pytest

from repro.datatypes import (
    ExpressionMatrix,
    Module,
    ModuleNetwork,
    RegressionTree,
    Split,
    TaskTimes,
    TreeNode,
)
from tests.reference import compact_labels


class TestExpressionMatrix:
    def test_basic_properties(self):
        matrix = ExpressionMatrix(np.zeros((3, 5)))
        assert matrix.n_vars == 3
        assert matrix.n_obs == 5
        assert matrix.shape == (3, 5)
        assert matrix.var_names == ["G0", "G1", "G2"]

    def test_custom_names(self):
        matrix = ExpressionMatrix(np.zeros((2, 2)), ["a", "b"], ["x", "y"])
        assert matrix.var_names == ["a", "b"]

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            ExpressionMatrix(np.zeros(5))

    def test_rejects_nan(self):
        values = np.zeros((2, 2))
        values[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ExpressionMatrix(values)

    def test_rejects_name_mismatch(self):
        with pytest.raises(ValueError):
            ExpressionMatrix(np.zeros((2, 2)), var_names=["only-one"])
        with pytest.raises(ValueError):
            ExpressionMatrix(np.zeros((2, 2)), obs_names=["a", "b", "c"])

    def test_subsample_takes_prefix(self):
        values = np.arange(12, dtype=float).reshape(3, 4)
        sub = ExpressionMatrix(values).subsample(2, 3)
        np.testing.assert_array_equal(sub.values, values[:2, :3])
        assert sub.var_names == ["G0", "G1"]

    def test_subsample_validates(self):
        matrix = ExpressionMatrix(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            matrix.subsample(4, 2)
        with pytest.raises(ValueError):
            matrix.subsample(2, 0)

    def test_subsample_is_copy(self):
        matrix = ExpressionMatrix(np.zeros((3, 4)))
        sub = matrix.subsample(2, 2)
        sub.values[0, 0] = 99.0
        assert matrix.values[0, 0] == 0.0

    def test_standardized(self):
        rng = np.random.default_rng(1)
        matrix = ExpressionMatrix(rng.normal(3.0, 2.0, size=(4, 50)))
        std = matrix.standardized()
        np.testing.assert_allclose(std.values.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(std.values.std(axis=1), 1.0, atol=1e-12)

    def test_standardized_constant_row(self):
        matrix = ExpressionMatrix(np.ones((2, 4)))
        std = matrix.standardized()
        assert np.isfinite(std.values).all()


class TestTreeNode:
    def _tree(self):
        la = TreeNode(0, np.array([0, 1]))
        lb = TreeNode(1, np.array([2]))
        lc = TreeNode(2, np.array([3, 4]))
        inner = TreeNode(3, np.array([0, 1, 2]), left=la, right=lb)
        root = TreeNode(4, np.array([0, 1, 2, 3, 4]), left=inner, right=lc)
        return root

    def test_is_leaf(self):
        root = self._tree()
        assert not root.is_leaf
        assert root.right.is_leaf

    def test_internal_nodes_preorder(self):
        ids = [n.node_id for n in self._tree().internal_nodes()]
        assert ids == [4, 3]

    def test_leaves(self):
        ids = [n.node_id for n in self._tree().leaves()]
        assert ids == [0, 1, 2]

    def test_depth(self):
        assert self._tree().depth() == 3
        assert TreeNode(0, np.array([0])).depth() == 1

    def test_regression_tree_helpers(self):
        tree = RegressionTree(module_id=0, root=self._tree())
        assert tree.n_leaves() == 3
        assert len(tree.internal_nodes()) == 2


def _network():
    m0 = Module(module_id=0, members=[0, 1], weighted_parents={2: 0.9})
    m1 = Module(module_id=1, members=[2, 3], weighted_parents={0: 0.5, 3: 0.2})
    return ModuleNetwork([m0, m1], ["a", "b", "c", "d"], n_obs=7)


class TestModuleNetwork:
    def test_assignment(self):
        net = _network()
        assert net.assignment(0) == 0
        assert net.assignment(2) == 1
        assert net.n_modules == 2 and net.n_vars == 4

    def test_assignment_labels(self):
        net = _network()
        np.testing.assert_array_equal(net.assignment_labels(), [0, 0, 1, 1])

    def test_unassigned_variable(self):
        net = ModuleNetwork([Module(0, [0])], ["a", "b"], n_obs=3)
        assert net.assignment(1) is None
        assert net.assignment_labels()[1] == -1

    def test_rejects_double_assignment(self):
        with pytest.raises(ValueError):
            ModuleNetwork([Module(0, [0]), Module(1, [0])], ["a"], n_obs=1)

    def test_module_graph_edges(self):
        graph = _network().module_graph()
        # parent 2 of M0 lives in M1 -> edge M1 -> M0; parents 0, 3 of M1
        # live in M0 and M1 -> edges M0 -> M1 and the self-loop M1 -> M1.
        assert graph.has_edge(1, 0)
        assert graph.has_edge(0, 1)

    def test_feedback_edges_found(self):
        edges = _network().feedback_edges()
        assert edges  # the 0 <-> 1 cycle must be broken

    def test_acyclic_network_has_no_feedback(self):
        m0 = Module(module_id=0, members=[0], weighted_parents={})
        m1 = Module(module_id=1, members=[1], weighted_parents={0: 1.0})
        net = ModuleNetwork([m0, m1], ["a", "b"], n_obs=2)
        assert net.feedback_edges() == []

    def test_equality_and_signature(self):
        assert _network() == _network()
        assert _network().signature() == _network().signature()

    def test_inequality(self):
        other = _network()
        other.modules[0].weighted_parents[2] = 0.1
        assert _network() != other

    def test_eq_against_other_type(self):
        assert _network() != "not a network"


class TestTaskTimes:
    def test_total_and_fractions(self):
        times = TaskTimes(ganesh=1.0, consensus=0.5, modules=2.5)
        assert times.total == 4.0
        fractions = times.fractions()
        assert fractions["modules"] == pytest.approx(0.625)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_zero_total(self):
        times = TaskTimes(0.0, 0.0, 0.0)
        assert times.fractions()["ganesh"] == 0.0


class TestCompactLabels:
    def test_first_appearance(self):
        np.testing.assert_array_equal(compact_labels([9, 4, 9, 1]), [0, 1, 0, 2])

    def test_empty(self):
        assert compact_labels([]).size == 0


class TestSplit:
    def test_frozen(self):
        split = Split(parent=1, value=0.5, node_id=2, posterior=0.3, n_obs=4)
        with pytest.raises(AttributeError):
            split.parent = 2
