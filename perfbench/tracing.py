"""Spans around the calls into each stdsh layer, recorded from outside.

The tracer patches public names where their callers look them up:
from-imported functions on the importing module (``trainer.encode``,
``experiment.act``), module functions on their own module when callers
go through it (``env.observe``, ``autodiff.backward``), and methods on
their class (``SimWorld.step``, ``MetricsLog.window``). Nothing inside
``src/`` changes. Spans (name, start, end, parent, operation id) stay in
memory and are written out once, when the run ends.

Times are inclusive; ``self_s`` subtracts the direct children, so the
self times of all spans under one root add up to the root's duration.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from math import isfinite

# (module, attribute owner inside the module or None, attribute, span name)
PATCHES = (
    ("stdsh.sim.world", "SimWorld", "step", "sim.step"),
    ("stdsh.env", None, "observe", "env.observe"),
    ("stdsh.env", "FeatureWindow", "after_step", "env.snapshot"),
    ("stdsh.env", "CorridorEnv", "reward_between", "env.reward"),
    ("stdsh.env", "CorridorEnv", "node_features", None),
    ("stdsh.metrics", "MetricsLog", "window", "metrics.window"),
    ("stdsh.experiment", None, "write_metrics_csv", "metrics.csv"),
    ("stdsh.experiment", None, "write_heatmap_csv", "metrics.csv"),
    ("stdsh.trainer", None, "build_st_hypergraph", "hypergraph.build"),
    ("stdsh.trainer", None, "encode", "encoder.encode"),
    ("stdsh.autodiff", None, "backward", "autodiff.backward"),
    ("stdsh.trainer", None, "act", "nets.act"),
    ("stdsh.experiment", None, "act", "nets.act"),
    ("stdsh.optim", "Adam", "step", "optim.adam"),
    ("stdsh.trainer", None, "clip_grad_norm", "optim.clip"),
    ("stdsh.trainer", None, "collect_rollout", "trainer.rollout"),
    ("stdsh.trainer", None, "evaluate_values", "trainer.values"),
    ("stdsh.trainer", None, "ppo_update", "trainer.ppo"),
    ("stdsh.trainer", None, "critic_update", "trainer.critic"),
    ("stdsh.experiment", None, "fixed_time_fswf", "baselines.fswf_plan"),
    ("stdsh.trainer", None, "save_checkpoint", "checkpoint.save"),
    ("stdsh.experiment", None, "load_checkpoint", "checkpoint.load"),
)

# Span names the benchmark opens itself, around one operation or set-up.
OWN_SPANS = ("op", "setup")
SPAN_NAMES = OWN_SPANS + tuple(dict.fromkeys(p[3] for p in PATCHES if p[3]))


class Tracer:
    """Span recorder; `install` patches the stdsh names, `uninstall` restores."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, op_id]
        self.stack: list[int] = []
        self.op_id = -1
        self.counters = {"active_vehicles": 0, "node_features": 0,
                         "csv_bytes": 0, "ckpt_bytes": 0, "tape_ops": 0,
                         "decisions": 0}
        self.missing: list[str] = []
        self._restore: list[tuple] = []

    # ---------------------------------------------------------------- spans

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str, new_op: bool = False):
        if new_op:
            self.op_id += 1
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, out)
            return out
        return traced

    # ------------------------------------------------------------- patching

    def install(self) -> None:
        import importlib
        c = self.counters

        def on_step(args, _):
            c["active_vehicles"] += len(getattr(args[0], "active", ()))

        def on_csv(args, _):
            c["csv_bytes"] += os.path.getsize(args[1])

        def on_save(args, _):
            c["ckpt_bytes"] += os.path.getsize(args[1])

        def on_rollout(_, batch):
            c["decisions"] += len(batch)

        def count_node_features(fn):
            def counted(*args, **kwargs):
                c["node_features"] += 1
                return fn(*args, **kwargs)
            return counted

        def backward_with_ops(fn):
            ad = importlib.import_module("stdsh.autodiff")
            traced = self._wrap("autodiff.backward", fn)

            def backward(loss):
                tape = getattr(ad, "_tape", None)
                if tape is not None:
                    c["tape_ops"] += len(tape())
                return traced(loss)
            return backward

        def snapshot_only(fn):
            # after_step runs every second but snapshots only on the cadence
            # grid; a call that left the buffer alone is not a snapshot.
            def after_step(window, world):
                buf = getattr(window, "buf", None)
                last = buf[-1] if buf else None
                idx = self._open("env.snapshot")
                try:
                    out = fn(window, world)
                finally:
                    self._close(idx)
                if buf is not None and window.buf[-1] is last \
                        and idx == len(self.spans) - 1:
                    self.spans.pop()
                return out
            return after_step

        special = {
            "sim.step": lambda fn: self._wrap("sim.step", fn, on_step),
            "metrics.csv": lambda fn: self._wrap("metrics.csv", fn, on_csv),
            "checkpoint.save": lambda fn: self._wrap("checkpoint.save", fn, on_save),
            "trainer.rollout": lambda fn: self._wrap("trainer.rollout", fn, on_rollout),
            "autodiff.backward": backward_with_ops,
            "env.snapshot": snapshot_only,
        }
        for modname, owner_name, attr, name in PATCHES:
            target = importlib.import_module(modname)
            if owner_name is not None:
                target = getattr(target, owner_name, None)
            fn = getattr(target, attr, None) if target is not None else None
            label = f"{modname}.{owner_name + '.' if owner_name else ''}{attr}"
            if fn is None:
                self.missing.append(label)
                continue
            if name is None:
                wrapped = count_node_features(fn)
            elif name in special:
                wrapped = special[name](fn)
            else:
                wrapped = self._wrap(name, fn)
            self._restore.append((target, attr, fn))
            setattr(target, attr, wrapped)

    def uninstall(self) -> None:
        for target, attr, fn in reversed(self._restore):
            setattr(target, attr, fn)
        self._restore.clear()

    # -------------------------------------------------------------- summary

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - child[k] for k, s in enumerate(self.spans)]

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit); 0 for idle layers."""
        calls = dict.fromkeys(SPAN_NAMES, 0)
        total = dict.fromkeys(SPAN_NAMES, 0.0)
        own = dict.fromkeys(SPAN_NAMES, 0.0)
        backward_by = {"trainer.critic": 0.0, "trainer.ppo": 0.0}
        for span, self_s in zip(self.spans, self.self_times()):
            name, start, end, parent, _ = span
            calls[name] += 1
            total[name] += end - start
            own[name] += self_s
            if name == "autodiff.backward":
                p = parent
                while p >= 0 and self.spans[p][0] not in backward_by:
                    p = self.spans[p][3]
                if p >= 0:
                    backward_by[self.spans[p][0]] += end - start
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.s"] = (total[name], "s")
            out[f"{name}.self_s"] = (own[name], "s")
        c = self.counters
        steps = calls["sim.step"]
        snaps = calls["env.snapshot"]
        out["sim.active_vehicles.mean"] = (
            c["active_vehicles"] / steps if steps else 0.0, "count")
        out["env.snapshot.read_ratio"] = (
            c["node_features"] / snaps if snaps else 0.0, "ratio")
        out["metrics.csv.bytes"] = (c["csv_bytes"], "B")
        out["autodiff.ops"] = (c["tape_ops"], "count")
        out["autodiff.backward.s.critic"] = (backward_by["trainer.critic"], "s")
        out["autodiff.backward.s.actor"] = (backward_by["trainer.ppo"], "s")
        out["trainer.decisions"] = (c["decisions"], "count")
        out["checkpoint.bytes"] = (c["ckpt_bytes"], "B")
        for key, (value, _) in out.items():
            if not isfinite(value):
                raise ValueError(f"non-finite per-layer metric {key}: {value}")
        return out

    def write(self, path) -> None:
        """One JSON line per span, with its self time; written once."""
        with open(path, "w") as fh:
            for span, self_s in zip(self.spans, self.self_times()):
                name, start, end, parent, op_id = span
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id,
                                     "self_s": self_s}) + "\n")
