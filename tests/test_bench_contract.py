"""The benchmark under bench/ wraps polymkl attributes by name (`targets` in
bench/measure.py). A traced run fails with KeyError when one of them is
gone, so every name it wraps must still exist on its owner. And its
correctness gate (`check_repeat`) must pass on every stored answer in
bench/reference.json, so that a drift in the learner's numbers beyond the
benchmark's tolerance fails here, not only in a benchmark run."""

import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_wrapped_attribute_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import measure

    targets = measure.targets(trace=True, peak=True)
    assert targets
    for target in targets:
        assert callable(vars(target.owner)[target.attr]), target.name


REFERENCE = json.loads((BENCH / "reference.json").read_text())


@pytest.mark.parametrize(
    "workload,seed", [(name, seed) for name, seeds in REFERENCE.items() for seed in seeds]
)
def test_every_stored_answer_passes_the_gate(workload, seed, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import measure

    spec = measure.WORKLOADS[workload]
    _run_s, _rec, paths = measure.run_repeat(spec, int(seed), str(tmp_path / "run"), trace=False)
    art = measure.read_artifacts(paths)
    data = measure.prepared_data(spec, int(seed))
    assert measure.check_repeat(art, None, REFERENCE[workload][seed], data) == []
