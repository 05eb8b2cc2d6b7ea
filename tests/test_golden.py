"""Golden-output regression test.

A reproduction repository's core promise is that results do not drift:
the committed golden network (learned with a fixed seed, configuration and
synthetic data set) must be regenerated bit-for-bit by the current code.
Any intentional algorithm change must consciously regenerate
``tests/data/golden_network.json``:

    python -c "
    from repro.core.config import LearnerConfig
    from repro.core.learner import LemonTreeLearner
    from repro.core.output import network_to_json
    from repro.data.synthetic import make_module_dataset
    matrix = make_module_dataset(20, 12, n_modules=3, seed=2024).matrix
    net = LemonTreeLearner(LearnerConfig(max_sampling_steps=5)).learn(matrix, seed=99).network
    open('tests/data/golden_network.json', 'w').write(network_to_json(net))
    "
"""

from pathlib import Path

import pytest

from repro.core.config import LearnerConfig
from repro.core.learner import LemonTreeLearner
from repro.core.output import network_from_json, network_to_json
from repro.data.synthetic import make_module_dataset

GOLDEN = Path(__file__).parent / "data" / "golden_network.json"


@pytest.fixture(scope="module")
def regenerated():
    matrix = make_module_dataset(20, 12, n_modules=3, seed=2024).matrix
    config = LearnerConfig(max_sampling_steps=5)
    return LemonTreeLearner(config).learn(matrix, seed=99).network


class TestGolden:
    def test_network_matches_golden(self, regenerated):
        golden = network_from_json(GOLDEN.read_text())
        assert regenerated == golden, (
            "learned network drifted from the committed golden output — "
            "if the change is intentional, regenerate tests/data/"
            "golden_network.json (see this file's docstring)"
        )

    def test_serialization_matches_golden_bytes(self, regenerated):
        """Even the serialized form is stable (field order, rounding)."""
        assert network_to_json(regenerated) == GOLDEN.read_text()

    def test_golden_is_well_formed(self):
        golden = network_from_json(GOLDEN.read_text())
        assert golden.n_vars == 20
        assert golden.n_obs == 12
        assert golden.n_modules >= 1


# -- golden work trace -------------------------------------------------------
#
# The Fig. 5/6 strong-scaling projections replay ``WorkTrace.steps`` of a
# traced one-worker ``learn()``.  These digests were computed at the commit
# *before* the learner's private serial loops were replaced by the
# one-worker executor (PR 14), so whichever path produces the trace, the
# projections cannot move.  G = 1 is the single-chain case the learner used
# to keep off the executor; G = 3 merges per-run step records.

GOLDEN_TRACE_DIGESTS = {
    1: (160, "34283d718e4f1e69d207456c4f21998c8162f0aa947ac5f2e8e8a6c242ae6d9e"),
    3: (438, "bf1c62f91d27b4367f1f5f29c9ef1626be4c8c7d1ba0529c1bd84a498b1c5423"),
}


def _steps_digest(trace) -> str:
    import hashlib

    import numpy as np

    digest = hashlib.sha256()
    for step in trace.steps:
        digest.update(
            repr(
                (step.phase, step.run, int(step.n_collectives), int(step.words))
            ).encode()
        )
        digest.update(np.ascontiguousarray(step.costs, dtype=np.float64).tobytes())
    return digest.hexdigest()


class TestGoldenTrace:
    @pytest.mark.parametrize("n_ganesh_runs", sorted(GOLDEN_TRACE_DIGESTS))
    def test_one_worker_trace_steps_match_golden(self, n_ganesh_runs):
        from repro.core.config import ParallelConfig
        from repro.parallel.trace import WorkTrace

        matrix = make_module_dataset(24, 12, n_modules=3, seed=42).matrix
        config = LearnerConfig(
            n_ganesh_runs=n_ganesh_runs,
            n_update_steps=2,
            max_sampling_steps=5,
            parallel=ParallelConfig(n_workers=1),
        )
        trace = WorkTrace()
        LemonTreeLearner(config).learn(matrix, seed=11, trace=trace)
        n_steps, digest = GOLDEN_TRACE_DIGESTS[n_ganesh_runs]
        assert len(trace.steps) == n_steps
        assert _steps_digest(trace) == digest
