"""perfbench's tracer patches `dln` names from outside the package; a traced
round of a workload must find every one of them and leave them as it found
them."""

import importlib.util
from pathlib import Path

import dln
import dln.experiments
from dln.data import gen_ratings_standin
from dln.experiments import default_config

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_fire_and_restore(tmp_path):
    tracing = _load_tracing()

    class RecordingTracer(tracing.Tracer):
        def __init__(self):
            super().__init__()
            self.registered = []

        def patch(self, owner, attr, name, work=None):
            self.registered.append((owner, attr, name, getattr(owner, attr)))
            super().patch(owner, attr, name, work)

    ratings = tmp_path / "u.data"
    gen_ratings_standin(ratings, n_users=30, n_items=40, n_ratings=600, rank=3)
    small = dict(r_hat=3, T=10, log_every=5, seeds=(0,), altmin_iters=3)
    configs = [
        default_config("sense", d=8, r=2, m=100, out_dir=str(tmp_path / "sense"), **small),
        default_config("complete", d=12, r=2, p=0.6, model="all",
                       out_dir=str(tmp_path / "complete"), **small),
        default_config("movielens", movielens_path=str(ratings), model="all",
                       out_dir=str(tmp_path / "movielens"), **small),
    ]
    tracer = RecordingTracer()
    try:  # a name missing from dln fails install_layers half way
        tracing.install_layers(tracer, dln)
        for cfg in configs:
            assert dln.experiments.run(cfg).ok
    finally:
        tracer.restore()
    for owner, attr, _, original in tracer.registered:
        assert getattr(owner, attr) is original, attr
    occurred = {span[tracing.NAME] for span in tracer.spans}
    missing = {name for _, _, name, _ in tracer.registered} - occurred
    assert not missing
