"""Fig. 4.8 — pizza store false evaluations: AS vs AV vs CC."""

from repro.bench.figures_ch45 import fig4_8_false_evaluations
from repro.multi import manager
from repro.problems.pizza_store import run_pizza_store
from repro.runtime.config import get_config


def test_fig4_8(benchmark, record):
    fig = fig4_8_false_evaluations()
    record("fig4_8_false_eval", fig.render())
    benchmark(lambda: run_pizza_store("av", 2, 8))


def test_as_false_evals_collapse_under_dependency_tracking():
    """The relay's dependency buckets skip a multisynch global wait's
    records whose read sets are disjoint from the exiting section's dirty
    set (docs/performance.md, Fig 4.8 note in EXPERIMENTS.md).  On the AS
    variant — the strategy that re-evaluates global conditions on *every*
    exit — that filter must collapse false evaluations, not just shave
    them."""
    cfg = get_config()
    prior = cfg.track_dependencies
    try:
        cfg.track_dependencies = True
        tracked = run_pizza_store("as", 8, 32).metrics
        manager.global_condition_metrics.reset()
        cfg.track_dependencies = False
        untracked = run_pizza_store("as", 8, 32).metrics
    finally:
        cfg.track_dependencies = prior
    assert untracked["false_evals"] > 0, "AS workload produced no contention"
    assert tracked["false_evals"] * 2 < untracked["false_evals"], (
        f"dependency tracking did not reduce AS false evaluations: "
        f"{tracked['false_evals']} tracked vs {untracked['false_evals']} untracked"
    )
    assert tracked["relay_dirty_skips"] > 0, "exit-hook dirty filter never fired"
