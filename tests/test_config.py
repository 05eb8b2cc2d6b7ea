"""Tests for learner configuration."""

import pytest

from repro.core.config import LearnerConfig, parents_from_names


class TestValidation:
    def test_defaults_valid(self):
        LearnerConfig()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_ganesh_runs", 0),
            ("n_update_steps", 0),
            ("tree_update_steps", 0),
            ("tree_burn_in", -1),
            ("n_splits_per_node", 0),
            ("max_sampling_steps", 0),
            ("consensus_threshold", 1.5),
            ("consensus_threshold", -0.1),
            ("rng_backend", "bad"),
            ("beta_grid", (1.0,)),
            ("beta_grid", (1.0, float("nan"))),
            ("beta_grid", (-1.0, 2.0)),
            ("beta_grid", (0.0, 1.0)),
            ("sampling_stop_repeats", 0),
        ],
    )
    def test_rejects_invalid(self, field, value):
        with pytest.raises(ValueError):
            LearnerConfig(**{field: value})

    def test_frozen(self):
        config = LearnerConfig()
        with pytest.raises(AttributeError):
            config.n_ganesh_runs = 5


class TestCandidateParents:
    def test_default_is_all_variables(self):
        assert LearnerConfig().resolve_candidate_parents(4) == (0, 1, 2, 3)

    def test_explicit_subset(self):
        config = LearnerConfig(candidate_parents=(1, 3))
        assert config.resolve_candidate_parents(5) == (1, 3)

    def test_out_of_range_rejected(self):
        config = LearnerConfig(candidate_parents=(7,))
        with pytest.raises(ValueError):
            config.resolve_candidate_parents(5)

    def test_parents_from_names(self):
        assert parents_from_names(["b", "a"], ["a", "b", "c"]) == (1, 0)

    def test_parents_from_names_missing(self):
        with pytest.raises(KeyError):
            parents_from_names(["zz"], ["a", "b"])


class TestWithUpdates:
    def test_returns_modified_copy(self):
        base = LearnerConfig()
        changed = base.with_updates(n_ganesh_runs=3)
        assert changed.n_ganesh_runs == 3
        assert base.n_ganesh_runs == 1

    def test_validates_changes(self):
        with pytest.raises(ValueError):
            LearnerConfig().with_updates(max_sampling_steps=-1)
