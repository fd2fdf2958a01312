"""The benchmark tracer still finds every package function it wraps."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_instrument_then_uninstall(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    from webfoam import operators

    build = operators.theta_module.__wrapped__  # the theta build, uncached
    tracer = spans.Tracer()
    try:
        # raises when a name the tracer patches has gone from the package
        spans.instrument(tracer)
        patched = list(tracer._patches)
        build()
        tracer.fold()
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        home = owner.__dict__ if isinstance(owner, type) else vars(owner)
        assert home[attr] is original, attr
    # the constructor checks every relation of the theta model in one call
    assert tracer.spans["operators.check_vertex_relations"][0] == 1
