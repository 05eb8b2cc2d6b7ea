"""Serialization of learned module networks (JSON and XML).

The paper's implementation writes the final MoNet structure in XML from
rank 0 (Section 5.3); JSON is provided as the round-trippable format used
by the tests and examples.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from repro.datatypes import Module, ModuleNetwork, RegressionTree, Split, TreeNode


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def _node_to_dict(node: TreeNode) -> dict[str, Any]:
    out: dict[str, Any] = {
        "node_id": node.node_id,
        "observations": [int(o) for o in node.observations],
        "weighted_splits": [_split_to_dict(s) for s in node.weighted_splits],
        "uniform_splits": [_split_to_dict(s) for s in node.uniform_splits],
    }
    if node.left is not None and node.right is not None:
        out["left"] = _node_to_dict(node.left)
        out["right"] = _node_to_dict(node.right)
    return out


def _split_to_dict(split: Split) -> dict[str, Any]:
    return {
        "parent": split.parent,
        "value": split.value,
        "node_id": split.node_id,
        "posterior": split.posterior,
        "n_obs": split.n_obs,
    }


def _node_from_dict(payload: dict[str, Any]) -> TreeNode:
    node = TreeNode(
        node_id=int(payload["node_id"]),
        observations=np.asarray(payload["observations"], dtype=np.int64),
    )
    if "left" in payload:
        node.left = _node_from_dict(payload["left"])
        node.right = _node_from_dict(payload["right"])
    node.weighted_splits = [_split_from_dict(s) for s in payload["weighted_splits"]]
    node.uniform_splits = [_split_from_dict(s) for s in payload["uniform_splits"]]
    return node


def _split_from_dict(payload: dict[str, Any]) -> Split:
    return Split(
        parent=int(payload["parent"]),
        value=float(payload["value"]),
        node_id=int(payload["node_id"]),
        posterior=float(payload["posterior"]),
        n_obs=int(payload["n_obs"]),
    )


def _module_to_dict(module: Module) -> dict[str, Any]:
    """One module as the network document and the module checkpoint files
    (:mod:`repro.core.checkpoints`) both hold it.  Parents keep the
    module's order, so a module loaded from a checkpoint iterates them as
    the run that stored it did; the document sorts its keys itself."""
    return {
        "module_id": module.module_id,
        "members": [int(v) for v in module.members],
        "trees": [_node_to_dict(tree.root) for tree in module.trees],
        "weighted_parents": {str(k): v for k, v in module.weighted_parents.items()},
        "uniform_parents": {str(k): v for k, v in module.uniform_parents.items()},
    }


def _module_from_dict(payload: dict[str, Any]) -> Module:
    module_id = int(payload["module_id"])
    return Module(
        module_id=module_id,
        members=[int(v) for v in payload["members"]],
        trees=[
            RegressionTree(module_id=module_id, root=_node_from_dict(tree))
            for tree in payload["trees"]
        ],
        weighted_parents={int(k): float(v) for k, v in payload["weighted_parents"].items()},
        uniform_parents={int(k): float(v) for k, v in payload["uniform_parents"].items()},
    )


def network_to_json(network: ModuleNetwork) -> str:
    """Serialize a network to a JSON document (round-trippable)."""
    payload = {
        "var_names": network.var_names,
        "n_obs": network.n_obs,
        "modules": [_module_to_dict(module) for module in network.modules],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def network_from_json(document: str) -> ModuleNetwork:
    """Reconstruct a network from :func:`network_to_json` output."""
    payload = json.loads(document)
    modules = [_module_from_dict(mod) for mod in payload["modules"]]
    return ModuleNetwork(modules, payload["var_names"], int(payload["n_obs"]))


# ---------------------------------------------------------------------------
# XML (Lemon-Tree-style module network document)
# ---------------------------------------------------------------------------


def network_to_xml(network: ModuleNetwork) -> str:
    """Serialize to a Lemon-Tree-style XML document."""
    import xml.etree.ElementTree as ET  # only a caller that writes XML loads it

    def append_node(parent_el: ET.Element, node: TreeNode) -> None:
        node_el = ET.SubElement(
            parent_el,
            "Node",
            attrib={
                "id": str(node.node_id),
                "leaf": "true" if node.is_leaf else "false",
                "observations": ",".join(str(int(o)) for o in node.observations),
            },
        )
        for kind, splits in (
            ("weighted", node.weighted_splits),
            ("uniform", node.uniform_splits),
        ):
            for split in splits:
                ET.SubElement(
                    node_el,
                    "Split",
                    attrib={
                        "parent": str(split.parent),
                        "value": f"{split.value:.9f}",
                        "posterior": f"{split.posterior:.9f}",
                        "selection": kind,
                    },
                )
        if node.left is not None and node.right is not None:
            append_node(node_el, node.left)
            append_node(node_el, node.right)

    root = ET.Element(
        "ModuleNetwork",
        attrib={
            "variables": str(network.n_vars),
            "observations": str(network.n_obs),
            "modules": str(network.n_modules),
        },
    )
    for module in network.modules:
        mod_el = ET.SubElement(
            root, "Module", attrib={"id": str(module.module_id)}
        )
        members_el = ET.SubElement(mod_el, "Members")
        for var in module.members:
            ET.SubElement(
                members_el,
                "Variable",
                attrib={"index": str(var), "name": network.var_names[var]},
            )
        parents_el = ET.SubElement(mod_el, "Parents")
        for parent, score in sorted(module.weighted_parents.items()):
            ET.SubElement(
                parents_el,
                "Parent",
                attrib={
                    "index": str(parent),
                    "name": network.var_names[parent],
                    "score": f"{score:.9f}",
                    "selection": "weighted",
                },
            )
        for parent, score in sorted(module.uniform_parents.items()):
            ET.SubElement(
                parents_el,
                "Parent",
                attrib={
                    "index": str(parent),
                    "name": network.var_names[parent],
                    "score": f"{score:.9f}",
                    "selection": "uniform",
                },
            )
        trees_el = ET.SubElement(mod_el, "RegressionTrees")
        for tree in module.trees:
            tree_el = ET.SubElement(trees_el, "Tree")
            append_node(tree_el, tree.root)
    ET.indent(root)
    return ET.tostring(root, encoding="unicode")
