"""Spans at the boundaries of `dln`'s modules, recorded from outside the package.

A :class:`Tracer` replaces public functions with timing wrappers where their
callers look them up (``dln.experiments.train_wide``, ``dln.trainer.chain_gradients``,
the operator classes' methods, ``numpy.linalg.svd`` ...). Each call appends a
span ``[name, start, end, parent, work, cpu_start, cpu_end]`` to an in-memory
list: wall-clock and process-CPU times, the index of the enclosing span or -1,
and the bytes an operator call streams (0 elsewhere). :meth:`Tracer.restore`
puts the originals back.

End-to-end figures use the CPU clock: on a machine shared with other tenants
the wall clock also counts the time they take from this process's core (see
README.md). Per-layer figures use the wall clock, as the trainer's own step
timer does.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy

NAME, START, END, PARENT, WORK, CPU0, CPU1 = range(7)

# training entry points as `dln.experiments` names them: span name, model
TRAINERS = {
    "train_wide": ("trainer.train_wide", "wide"),
    "train_compressed": ("trainer.train_compressed", "compressed"),
    "altmin_complete": ("baselines.altmin_complete", "altmin"),
}
MODEL_OF = dict(TRAINERS.values())


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, work):
        spans, stack = self.spans, self._stack
        wall, cpu = time.perf_counter, time.process_time

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    work(*args) if work else 0, 0.0, 0.0]
            spans.append(span)
            stack.append(idx)
            span[CPU0], span[START] = cpu(), wall()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END], span[CPU1] = wall(), cpu()
                stack.pop()

        return traced

    def patch(self, owner, attr: str, name: str, work=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, work))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def install_probe(tracer: Tracer, experiments) -> None:
    """The few spans end-to-end metrics need: each run and each trainer call."""
    tracer.patch(experiments, "run", "experiments.run")
    for fn, (span, _) in TRAINERS.items():
        tracer.patch(experiments, fn, span)


def install_layers(tracer: Tracer, dln) -> None:
    """Every layer boundary the per-layer metrics are computed from."""
    E = dln.experiments
    install_probe(tracer, E)
    for fn in ("init_wide", "init_compressed"):
        tracer.patch(E, fn, f"models.{fn}")
    for fn in ("load_movielens", "split_ratings", "gen_lowrank", "gen_gaussian_ops", "gen_mcar_mask"):
        tracer.patch(E, fn, f"data.{fn}")
    tracer.patch(dln.trainer, "chain_gradients", "models.chain_gradients")
    ops = dln.operators
    streamed = {
        ops.Identity: lambda op, *_: 8 * op.d * op.d,
        ops.GaussianSensing: lambda op, *_: op.matrices.nbytes,
        ops.CompletionMask: lambda op, *_: 8 * op.m,
    }
    for cls, work in streamed.items():
        tracer.patch(cls, "apply", "operators.apply", work)
        tracer.patch(cls, "adjoint", "operators.adjoint", work)
        tracer.patch(cls, "surrogate", "operators.surrogate")
    tracer.patch(dln.models, "truncated_svd", "linalg.truncated_svd")
    tracer.patch(dln.baselines, "truncated_svd", "linalg.truncated_svd")
    for fn in ("altmin_init", "half_sweep_left", "half_sweep_right"):
        tracer.patch(dln.baselines, fn, f"baselines.{fn}")
    for fn in ("holdout_rmse", "holdout_relative_error"):
        tracer.patch(dln.diagnostics, fn, f"diagnostics.{fn}")
    tracer.patch(numpy.linalg, "svd", "numpy.linalg.svd")


def round_summary(spans: list[list], logs: dict) -> dict:
    """End-to-end figures of one round (one or more ``run`` calls): under
    ``"cpu"`` with the metric names, under ``"wall"`` for the record.

    ``logs`` maps ``"<model>/seed_<k>"`` to the round's trajectory logs.
    """
    iters: dict[str, int] = defaultdict(int)
    for key, log in logs.items():
        iters[key.split("/")[0]] += log.final().t
    # the model the compressed net is measured against: the wide net, or the
    # ALS baseline where the wide net is not run
    base = "wide" if "wide" in iters else "altmin"
    out = {}
    for clock, t0, t1, names in (
        ("cpu", CPU0, CPU1,
         ("run_cpu_s", "setup_s", "compressed.iters_per_cpu_s", "baseline.iters_per_cpu_s")),
        ("wall", START, END,
         ("wall_s", "wall_setup_s", "compressed.iters_per_s", "baseline.iters_per_s")),
    ):
        run = setup = 0.0
        busy: dict[str, float] = defaultdict(float)
        for i, s in enumerate(spans):
            if s[NAME] == "experiments.run":
                first = next(t for t in spans[i + 1:] if t[NAME] in MODEL_OF)
                run += s[t1] - s[t0]
                setup += first[t0] - s[t0]
            elif s[NAME] in MODEL_OF:
                busy[MODEL_OF[s[NAME]]] += s[t1] - s[t0]
        figures = (run, setup, iters["compressed"] / busy["compressed"], iters[base] / busy[base])
        out[clock] = dict(zip(names, figures))
    return out


def layer_metrics(spans: list[list], logs: dict) -> dict:
    """Per-layer figures of one traced round; see the README's layer table."""
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]

    def parent_name(i):
        p = spans[i][PARENT]
        return spans[p][NAME] if p >= 0 else ""

    def total(*names):
        return sum(d for s, d in zip(spans, dur) if s[NAME] in names)

    def calls(*names):
        return sum(1 for s in spans if s[NAME] in names)

    def under(name, parents):
        return [i for i, s in enumerate(spans) if s[NAME] == name and parent_name(i) in parents]

    m: dict[str, float] = {}
    step = defaultdict(float)
    iters = 0
    for key, log in logs.items():
        model = key.split("/")[0]
        step[model] += log.train_seconds()
        if model != "altmin":
            iters += log.final().t
    for model in ("wide", "compressed"):
        trainer = f"trainer.train_{model}"
        grads = under("models.chain_gradients", {trainer})
        m[f"{model}.models.chain_gradients_s"] = sum(dur[i] - child[i] for i in grads)
        train_s = total(trainer)
        m[f"{model}.trainer.train_s"] = train_s
        m[f"{model}.trainer.step_s"] = step[model]
        m[f"{model}.trainer.record_s"] = train_s - step[model]
        m[f"{model}.trainer.update_s"] = step[model] - sum(dur[i] for i in grads)
    m["models.chain_gradients_calls"] = calls("models.chain_gradients")
    m["models.init_s"] = total("models.init_wide", "models.init_compressed")

    op_s = total("operators.apply", "operators.adjoint")
    op_bytes = sum(s[WORK] for s in spans if s[NAME] in ("operators.apply", "operators.adjoint"))
    m["operators.apply_calls"] = calls("operators.apply")
    m["operators.adjoint_calls"] = calls("operators.adjoint")
    m["operators.apply_s"] = total("operators.apply")
    m["operators.adjoint_s"] = total("operators.adjoint")
    m["operators.apply_calls_per_iter"] = calls("operators.apply") / iters
    m["operators.computed_gb_per_s"] = op_bytes / op_s / 1e9
    m["operators.surrogate_s"] = total("operators.surrogate")

    m["linalg.svd_calls"] = calls("numpy.linalg.svd")
    # a numpy SVD called straight from a trainer span is one of its recorders'
    m["linalg.record_svd_s"] = sum(dur[i] for i in under("numpy.linalg.svd", set(MODEL_OF)))
    m["linalg.truncated_svd_s"] = total("linalg.truncated_svd")

    sweeps = ("baselines.half_sweep_left", "baselines.half_sweep_right")
    m["baselines.half_sweep_calls"] = calls(*sweeps)
    m["baselines.half_sweep_s"] = total(*sweeps)
    # altmin's wall minus its initialisation and its own sweep clock
    m["baselines.record_s"] = (total("baselines.altmin_complete")
                               - total("baselines.altmin_init") - step["altmin"])

    holdout = ("diagnostics.holdout_rmse", "diagnostics.holdout_relative_error")
    m["diagnostics.holdout_calls"] = calls(*holdout)
    m["diagnostics.holdout_s"] = total(*holdout)

    m["data.load_s"] = total("data.load_movielens")
    m["data.split_s"] = total("data.split_ratings")
    m["data.generate_s"] = total("data.gen_lowrank", "data.gen_gaussian_ops", "data.gen_mcar_mask")

    runs = [i for i, s in enumerate(spans) if s[NAME] == "experiments.run"]
    m["experiments.other_s"] = sum(dur[i] - child[i] for i in runs)
    return m
