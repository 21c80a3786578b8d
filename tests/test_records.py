"""The one JSON record format of the typed per-seed artifacts
(`latent_model.json`, `groups.json`, `surrogate.json`, `priorities.json`)."""

import json
from dataclasses import replace

import numpy as np
import pytest

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
