"""The benchmark under bench/ wraps polymkl attributes by name (`targets` in
bench/measure.py). A traced run fails with KeyError when one of them is
gone, so every name it wraps must still exist on its owner."""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_wrapped_attribute_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import measure

    targets = measure.targets(trace=True, peak=True)
    assert targets
    for target in targets:
        assert callable(vars(target.owner)[target.attr]), target.name
