"""The benchmark's tracer wraps clfpde's layer boundaries by their module-level names."""

import sys
from pathlib import Path

from clfpde import artifact, lyapunov, pipeline, semilinear, sim
from clfpde.semilinear import NonlinearitySpec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OWNERS = (artifact, lyapunov, pipeline, semilinear, sim, NonlinearitySpec)


def changed(owner, before):
    return [name for name, value in vars(owner).items()
            if name in before and value is not before[name]]


def test_spans_install_finds_every_name_and_is_undone():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(PERFBENCH))
    before = [dict(vars(owner)) for owner in OWNERS]
    try:
        spans.install(spans.Tracer())     # AttributeError on a name that is gone
        patched = {(owner.__name__, name)
                   for owner, old in zip(OWNERS, before) for name in changed(owner, old)}
    finally:
        for owner, old in zip(OWNERS, before):
            for name in changed(owner, old):
                setattr(owner, name, old[name])
    assert {(m.__name__, "coupling_table") for m in (lyapunov, pipeline, sim, semilinear)} \
        | {("clfpde.pipeline", "simulate_linear"), ("clfpde.pipeline", "simulate_semilinear"),
           ("NonlinearitySpec", "evaluate")} <= patched
    assert all(not changed(owner, old) for owner, old in zip(OWNERS, before))
    assert callable(lyapunov.guaranteed_decay_rate)      # perfbench/worker.py calls it
