"""The one JSON record format of the typed per-seed artifacts
(`latent_model.json`, `groups.json`, `surrogate.json`, `priorities.json`),
and the typed, read-only records and bundles a run hands on."""

import json
import re
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from latent_align.evaluation import MetricsReport
from latent_align.factorization import LatentModel
from latent_align.grouping import GroupAssignment
from latent_align.pipeline import PipelineArtifacts
from latent_align.surrogate import PriorityWeights, SurrogateModel

# record on the fixture run, one scalar field of it, and a value of another
# type for that field, which the record must write as the annotated type
CASES = [
    ("latent", "fit_loss", lambda v: 0, float),
    ("groups", "target", np.int64, int),
    ("surrogate", "l2", lambda v: 0, float),
    ("priorities", "eps_omega", lambda v: 1, float),
]


@pytest.mark.parametrize("attr, name, retype, kind", CASES, ids=[c[0] for c in CASES])
def test_record_round_trip(fixture_arts, attr, name, retype, kind):
    record = getattr(fixture_arts, attr)
    doc = record.to_dict()
    assert type(record).from_dict(json.loads(json.dumps(doc))).to_dict() == doc

    for key in doc:
        with pytest.raises(KeyError, match=key):
            type(record).from_dict({k: v for k, v in doc.items() if k != key})

    value = retype(getattr(record, name))
    written = json.loads(json.dumps(replace(record, **{name: value}).to_dict()))[name]
    assert type(written) is kind and written == value


def test_loss_history_is_not_written(fixture_arts):
    latent = fixture_arts.latent
    assert latent.loss_history
    assert "loss_history" not in latent.to_dict()
    assert type(latent).from_dict(latent.to_dict()).loss_history == ()


# record on the fixture run, one scalar field of it, and a value read from
# JSON that a cast would have taken but the field's type does not allow
REJECTED = [
    ("latent", "hit_cap", "false"),
    ("latent", "k", 6.7),
    ("groups", "target", "1"),
    ("surrogate", "tau_y", True),
    ("priorities", "eps_omega", float("nan")),
]


@pytest.mark.parametrize("attr, name, value", REJECTED, ids=[f"{c[1]}-{c[2]}" for c in REJECTED])
def test_from_dict_checks_instead_of_casting(fixture_arts, attr, name, value):
    record = getattr(fixture_arts, attr)
    annotation = next(f.type for f in fields(record) if f.name == name)
    doc = json.loads(json.dumps(record.to_dict()))
    doc[name] = value
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be {annotation}, got {value!r}')}$"):
        type(record).from_dict(doc)


# each frozen class, the attribute of the fixture run that holds one (None for the run itself)
FROZEN = [
    (LatentModel, "latent"),
    (GroupAssignment, "groups"),
    (SurrogateModel, "surrogate"),
    (PriorityWeights, "priorities"),
    (MetricsReport, "metrics"),
    (PipelineArtifacts, None),
]


@pytest.mark.parametrize(
    "attr, name",
    [(attr, f.name) for cls, attr in FROZEN for f in fields(cls)],
    ids=[f"{cls.__name__}.{f.name}" for cls, _ in FROZEN for f in fields(cls)],
)
def test_assigning_a_field_raises(fixture_arts, attr, name):
    obj = fixture_arts if attr is None else getattr(fixture_arts, attr)
    value = getattr(obj, name)
    with pytest.raises(FrozenInstanceError):
        setattr(obj, name, value)
    assert getattr(obj, name) is value


def test_a_problem_keeps_the_groups_it_was_solved_for(fixture_arts):
    # a new target would pair the old target's pre discrepancy with other rows
    groups = fixture_arts.problem.groups
    target = groups.target
    with pytest.raises(FrozenInstanceError):
        groups.target = 0
    assert groups.target == target
