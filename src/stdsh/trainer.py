"""Centralized-critic PPO over the corridor: rollouts, returns, updates.

Training is on-policy and trigger-gated. During a rollout each agent acts
only when its green expires; the reward for a decision is computed over
the seconds until that agent's next decision (or the horizon). All agents
share one actor. The critic regresses Monte-Carlo returns; with the
hypergraph enabled its input is the graph embedding rebuilt from the
stored feature windows at update time, so the encoder trains end-to-end
through the critic loss and through nothing else. With the hypergraph
disabled the critic sees the mean of the current scaled observations.

Ratios in the clipped surrogate are taken against log-probs recomputed in
one batched forward at the start of the update; collection keeps none.
Identical inputs through an identical batched graph make the first
epoch's ratios exactly one when the batch fits in a single minibatch.

Only the value pass reads the critic, so train_run takes each episode's
critic update in one place, after the actor update and the next rollout:
where this process's CPUs fit two processes' BLAS threads it collects the
update from a child forked before the value pass, and otherwise it runs
the update there. Before either update, train_run draws every epoch order
of PPO and then of the critic, so an update that aborts early leaves
orders unused but moves no later draw, and the two paths write the same
files.
"""

from __future__ import annotations

import csv
import ctypes
import os
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import env as envmod
from .checkpoint import load_params, save_params
from .encoder import encode_window, init_encoder
from .env import N_ACTIONS, CorridorEnv, action_mask, drive, feature_scales, obs_width
from .nets import CriticNet, PolicyNet, act
from .optim import Adam, clip_grad_norm
from .sim.world import load_scenario


# train_run stops after this many aborted updates in a row (off TrainConfig's fingerprint)
MAX_ABORTS_IN_A_ROW = 3

# TrainConfig's integer sizes: each must be >= 1, and checkpoints store them as floats
SIZES = ("ppo_epochs", "minibatch_size", "horizon_s", "hidden", "d_model",
         "heads", "window_depth", "window_cadence_s")


@dataclass
class TrainConfig:
    gamma: float = 0.98
    time_discount: bool = False  # gamma is per second, not per decision
    clip_eps: float = 0.2
    entropy_coef: float = 0.01
    entropy_coef_final: float | None = None   # linear anneal target, None = constant
    ppo_epochs: int = 4
    minibatch_size: int = 256
    grad_clip: float = 0.5
    lr: float = 3e-4
    horizon_s: int = 1800
    normalize_advantages: bool = True
    return_scale: float = 1.0    # critic regresses return_scale * R

    hidden: int = 256
    d_model: int = 64
    heads: int = 4
    attn_tau: float = 1.0
    window_depth: int = 5
    window_cadence_s: int = 5
    use_hypergraph: bool = True
    use_dsha: bool = True
    use_spatial: bool = True
    use_temporal: bool = True

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        for size in SIZES:
            if getattr(self, size) < 1:
                raise ValueError(f"{size} must be >= 1, got {getattr(self, size)}")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError(f"gamma must be in (0,1), got {self.gamma}")
        if self.clip_eps <= 0:
            raise ValueError("clip_eps must be > 0")
        if self.entropy_coef < 0 or self.grad_clip <= 0 or self.lr <= 0:
            raise ValueError("entropy_coef >= 0, grad_clip > 0, lr > 0 required")
        if self.entropy_coef_final is not None and self.entropy_coef_final < 0:
            raise ValueError("entropy_coef_final must be >= 0")
        if self.return_scale <= 0:
            raise ValueError("return_scale must be > 0")
        if self.use_hypergraph and not (self.use_spatial or self.use_temporal):
            raise ValueError("at least one hyperedge family must stay enabled")
        if self.d_model % self.heads != 0:
            raise ValueError("d_model must divide evenly across heads")

    def entropy_coef_at(self, episode: int, episodes: int) -> float:
        """Entropy weight for an episode, linear from coef to coef_final."""
        if self.entropy_coef_final is None or episodes <= 1:
            return self.entropy_coef
        frac = episode / (episodes - 1)
        return (1.0 - frac) * self.entropy_coef + frac * self.entropy_coef_final


@dataclass
class TransitionBatch:
    agent: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    t: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    obs: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    mask: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=bool))
    action: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    reward: np.ndarray = field(default_factory=lambda: np.zeros(0))
    dt: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    ret: np.ndarray = field(default_factory=lambda: np.zeros(0))
    done: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    # flat critic: (B, width) mean scaled observations; hypergraph critic:
    # (B,) window starts, rows of the (S, n, d) episode table `snapshots`
    critic_input: np.ndarray | None = None
    snapshots: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.action)


def returns(rewards, gamma: float, dts=None):
    """Discounted suffix sums: R_t = r_t + gamma * R_{t+1}.

    With `dts` (seconds spanned by each decision window) gamma is a
    per-second rate: each window's average reward is weighted by its
    discounted duration and the tail is discounted by elapsed time,

        R_k = r_k * (1 - gamma^dt_k) / (1 - gamma) + gamma^dt_k * R_{k+1},

    which equals the per-second discounted sum when the rate is constant
    within windows. Decisions here span a phase change plus the chosen
    green (13..50 s); discounting per decision instead would price a long
    green's tail congestion at the same single step as a short one's.
    """
    if dts is not None:
        if len(dts) != len(rewards):
            raise ValueError(f"dts length {len(dts)} != rewards {len(rewards)}")
        if any(dt < 1 for dt in dts):
            raise ValueError("window lengths must be >= 1 second")
    out = [0.0] * len(rewards)
    acc = 0.0
    for k in range(len(rewards) - 1, -1, -1):
        r = float(rewards[k])
        if not np.isfinite(r):
            raise ValueError(f"non-finite reward at index {k}")
        if dts is None:
            acc = r + gamma * acc
        else:
            decay = gamma ** float(dts[k])
            acc = r * (1.0 - decay) / (1.0 - gamma) + decay * acc
        out[k] = acc
    return out


def advantages(ret, values, normalize: bool = True) -> np.ndarray:
    ret = np.asarray(ret, dtype=float)
    values = np.asarray(values, dtype=float)
    if ret.shape != values.shape:
        raise ValueError(f"length mismatch: {ret.shape} vs {values.shape}")
    adv = ret - values
    if normalize and len(adv) >= 2:
        std = adv.std()
        adv = adv - adv.mean()
        if std > 0:
            adv = adv / std
    return adv


# ----------------------------------------------------------------- train state

class TrainState:
    """Shared actor, centralized critic, optional encoder, and optimizers."""

    def __init__(self, cfg: TrainConfig, in_width: int, n_agents: int,
                 seed: int, input_scale=None):
        self.cfg = cfg
        self.n_agents = n_agents
        self.rng = np.random.default_rng(seed)
        self.policy = PolicyNet(in_width, N_ACTIONS, self.rng,
                                hidden=cfg.hidden, input_scale=input_scale)
        if cfg.use_hypergraph:
            pad = (-in_width) % cfg.heads
            self.encoder = init_encoder(in_width + pad, cfg.heads, cfg.d_model,
                                        tau=cfg.attn_tau, rng=self.rng)
            critic_in = cfg.d_model
        else:
            self.encoder = None
            critic_in = in_width
        self.critic = CriticNet(critic_in, self.rng, hidden=cfg.hidden)
        self.opt_actor = Adam(self.policy.params(), lr=cfg.lr)
        critic_params = dict(self.critic.params())
        if self.encoder is not None:
            critic_params.update(self.encoder.tensors())
        self.opt_critic = Adam(critic_params, lr=cfg.lr)

    def critic_values(self, batch: TransitionBatch, rows):
        """(len(rows), 1) values and their backward: dv -> the gradients of
        the critic and, with the hypergraph on, of the encoder, by name in
        opt_critic's order."""
        cfg = self.cfg
        if not cfg.use_hypergraph:
            v, backward = self.critic.forward(batch.critic_input[rows])
            return v, lambda dv: backward(dv)[0]
        windows = batch.critic_input[rows, None] + np.arange(cfg.window_depth)
        g, encoder_backward = encode_window(batch.snapshots, windows, self.encoder,
                                            spatial=cfg.use_spatial,
                                            temporal=cfg.use_temporal,
                                            uniform=not cfg.use_dsha)
        v, critic_backward = self.critic.forward(g)

        def backward(dv):
            grads, dg = critic_backward(dv)
            return {**grads, **encoder_backward(dg())}

        return v, backward


# -------------------------------------------------------------------- rollout

def collect_rollout(env: CorridorEnv, state: TrainState, seconds: int) -> TransitionBatch:
    """Trigger-gated on-policy collection over `seconds` of world time."""
    cfg = state.cfg
    rows: list[dict] = []
    pending: dict[int, dict] = {}

    def close(i: int, done: bool) -> None:
        p = pending.pop(i)
        p["reward"] = env.reward_between(i, p["t"], env.world.t)
        p["dt"] = env.world.t - p["t"]
        p["done"] = done
        rows.append(p)

    def decide(world, due: list[int]) -> list[int]:
        # on the snapshot grid the window has just observed this state;
        # envmod.observe is looked up at call time, so a patched one (the
        # benchmark tracer's span) sees every call
        on_grid = cfg.use_hypergraph and world.t % env.window.cadence_s == 0
        obs = env.window.buf[-1] if on_grid else envmod.observe(world)
        if cfg.use_hypergraph:
            critic_input = env.window.start()
        else:
            critic_input = (obs * state.policy.input_scale).mean(axis=0)
        actions = []
        for i in due:
            if i in pending:
                close(i, done=False)
            mask = action_mask(world.controllers[i].phase)
            a = act(state.policy, obs[i], mask, state.rng)
            pending[i] = {"agent": i, "t": world.t, "obs": obs[i], "mask": mask,
                          "action": a, "critic_input": critic_input}
            actions.append(a)
        return actions

    # only the hypergraph critic reads the snapshot window
    after_step = env.window.after_step if cfg.use_hypergraph else None
    drive(env.world, seconds, decide, after_step=after_step)
    for i in sorted(pending):           # horizon: open decisions close here
        close(i, done=True)
    batch = _build_batch(rows, cfg.gamma, cfg.time_discount)
    if cfg.use_hypergraph:
        batch.snapshots = envmod.prepare_node_features(
            env.window.table(), env.n_lanes, cfg.heads)
    return batch


def _build_batch(rows: list[dict], gamma: float,
                 time_discount: bool = False) -> TransitionBatch:
    if not rows:
        return TransitionBatch()
    batch = TransitionBatch(
        agent=np.array([r["agent"] for r in rows], dtype=int),
        t=np.array([r["t"] for r in rows], dtype=int),
        obs=np.stack([r["obs"] for r in rows]),
        mask=np.stack([r["mask"] for r in rows]),
        action=np.array([r["action"] for r in rows], dtype=int),
        reward=np.array([r["reward"] for r in rows]),
        dt=np.array([r["dt"] for r in rows], dtype=int),
        done=np.array([r["done"] for r in rows], dtype=bool),
        critic_input=np.stack([r["critic_input"] for r in rows]),
    )
    ret = np.zeros(len(rows))
    for agent in np.unique(batch.agent):
        idx = np.flatnonzero(batch.agent == agent)     # chronological
        dts = batch.dt[idx] if time_discount else None
        ret[idx] = returns(batch.reward[idx], gamma, dts=dts)
    batch.ret = ret
    return batch


def evaluate_values(state: TrainState, batch: TransitionBatch) -> np.ndarray:
    return state.critic_values(batch, np.arange(len(batch)))[0][:, 0].copy()


# -------------------------------------------------------------------- updates

def epoch_orders(rng: np.random.Generator, size: int, epochs: int) -> list:
    """Each epoch's minibatch order: arange(size) shuffled once more per
    epoch, all `epochs` of them drawn now. The updates take them as
    `orders` (default: drawn on entry) and draw nothing else, so an update
    that aborts early moves no later draw."""
    idx, out = np.arange(size), []
    for _ in range(epochs):
        rng.shuffle(idx)
        out.append(idx.copy())
    return out


def ppo_update(state: TrainState, batch: TransitionBatch,
               adv: np.ndarray, entropy_coef: float | None = None,
               orders=None) -> dict:
    """Clipped-surrogate actor update; returns per-update statistics."""
    cfg = state.cfg
    if entropy_coef is None:
        entropy_coef = cfg.entropy_coef
    B = len(batch)
    if B == 0:
        raise ValueError("empty batch")
    policy = state.policy
    logp_all, _ = ad.masked_log_softmax(policy.forward(batch.obs)[0], batch.mask)
    old = logp_all[np.arange(B), batch.action]
    stats = {"aborted": False, "ratio_min": np.inf, "ratio_max": -np.inf,
             "surrogate_first": None, "entropy": 0.0, "actor_loss": 0.0,
             "grad_norm": 0.0}
    ent_sum = 0.0
    loss_sum = 0.0
    steps = 0
    for epoch, idx in enumerate(orders or epoch_orders(state.rng, B, cfg.ppo_epochs)):
        for s in range(0, B, cfg.minibatch_size):
            rows = idx[s:s + cfg.minibatch_size]
            logits, policy_backward = policy.forward(batch.obs[rows])
            loss, ratio, surrogate, ent, backward = ad.ppo_loss(
                logits, batch.mask[rows], batch.action[rows], old[rows], adv[rows],
                cfg.clip_eps, entropy_coef)
            if epoch == 0:
                stats["ratio_min"] = min(stats["ratio_min"], ratio.min())
                stats["ratio_max"] = max(stats["ratio_max"], ratio.max())
            if stats["surrogate_first"] is None:
                stats["surrogate_first"] = float(surrogate)
            if not np.isfinite(loss):
                stats["aborted"] = True
                return stats
            ent_sum += float(ent)
            loss_sum += float(loss)
            steps += 1
            grads = policy_backward(backward())[0]
            # a NaN input row can leave the loss finite and its gradients not
            norm = clip_grad_norm(grads, cfg.grad_clip)
            if not np.isfinite(norm):
                stats["aborted"] = True
                return stats
            stats["grad_norm"] = norm
            state.opt_actor.step(grads)
    stats["entropy"] = ent_sum / steps
    stats["actor_loss"] = loss_sum / steps
    return stats


def critic_update(state: TrainState, batch: TransitionBatch,
                  orders=None) -> dict:
    """Half-MSE return regression; trains the encoder when hypergraph is on."""
    cfg = state.cfg
    B = len(batch)
    if B == 0:
        raise ValueError("empty batch")
    stats = {"aborted": False, "critic_loss": 0.0, "grad_norm": 0.0}
    loss_sum = 0.0
    steps = 0
    for idx in orders or epoch_orders(state.rng, B, cfg.ppo_epochs):
        for s in range(0, B, cfg.minibatch_size):
            rows = idx[s:s + cfg.minibatch_size]
            v, values_backward = state.critic_values(batch, rows)
            loss, backward = ad.half_mse(v, batch.ret[rows][:, None] * cfg.return_scale)
            if not np.isfinite(loss):
                stats["aborted"] = True
                return stats
            loss_sum += float(loss)
            steps += 1
            grads = values_backward(backward())
            norm = clip_grad_norm(grads, cfg.grad_clip)
            if not np.isfinite(norm):
                stats["aborted"] = True
                return stats
            stats["grad_norm"] = norm
            state.opt_critic.step(grads)
    stats["critic_loss"] = loss_sum / steps
    return stats


# ----------------------------------------------------------------- train loop

def corridor_train_config(**overrides) -> TrainConfig:
    """Training recipe for the corridor scenarios.

    Discounting runs per second of world time rather than per decision, so
    a 45 s green is charged for the whole queueing tail it causes instead
    of hiding it behind one step; 0.99 per second keeps the credit horizon
    near 100 s, about two cycles. The annealed entropy keeps the low-demand
    phases explored long enough for their payoff to show, and the critic
    regresses scaled returns so its targets sit within reach of clipped
    Adam steps.
    """
    base = dict(gamma=0.99, time_discount=True, lr=1e-3, entropy_coef=0.01,
                entropy_coef_final=0.002, return_scale=2e-4)
    base.update(overrides)
    return TrainConfig(**base)


def world_seed(base_seed: int, episode: int) -> int:
    return base_seed * 1000 + episode


def make_train_state(cfg: TrainConfig, scenario, seed: int) -> TrainState:
    net = load_scenario(scenario, seed=0).net
    n_lanes = len(net.lanes_of(0))
    return TrainState(cfg, obs_width(n_lanes), net.n, seed,
                      input_scale=feature_scales(n_lanes))


class TrainingStopped(RuntimeError):
    """Training gave up after MAX_ABORTS_IN_A_ROW aborted updates."""


def _blas_threads() -> int | None:
    """Threads per call of the OpenBLAS numpy loaded; None if none is found."""
    with open("/proc/self/maps") as fh:
        libs = {ln.split(maxsplit=5)[5].strip() for ln in fh
                if "openblas" in ln.lower() and ".so" in ln}
    for lib in map(ctypes.CDLL, sorted(libs)):
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                return getattr(lib, name)()


class _CriticChild:
    """critic_update(state, batch, orders) of one episode in a forked child."""

    def __init__(self, state: TrainState, batch, orders, episode: int):
        import multiprocessing      # 8 ms of start-up that evaluation never needs
        self.state, self.episode = state, episode
        self.conn, sender = multiprocessing.Pipe(duplex=False)
        self.proc = multiprocessing.get_context("fork").Process(
            target=self._run, args=(sender, batch, orders), daemon=True)
        self.proc.start()
        sender.close()

    def _run(self, conn, batch, orders) -> None:
        # os._exit: nothing inherited (the log's buffer, stdio) is flushed twice
        try:
            stats, opt = critic_update(self.state, batch, orders), self.state.opt_critic
            conn.send((stats, [*opt.params.values(), *opt._m, *opt._v], opt.t))
        except BaseException as exc:    # re-raised by result(); unpicklable: EOF
            conn.send(exc)
        finally:
            os._exit(0)

    def result(self) -> dict:
        """Wait for the child; install its critic, encoder and Adam state."""
        try:
            msg = self.conn.recv()
        except EOFError:
            self.proc.join()
            raise RuntimeError(f"episode {self.episode}: the critic update's child "
                               f"exited with {self.proc.exitcode} before its result") from None
        if isinstance(msg, BaseException):
            raise msg
        opt = self.state.opt_critic
        for dst, src in zip([*opt.params.values(), *opt._m, *opt._v], msg[1]):
            dst[...] = src
        opt.t = msg[2]
        return msg[0]

    def close(self) -> None:
        self.proc.terminate()       # a no-op once the child has sent its result
        self.proc.join()
        self.conn.close()


def train_run(scenario, seed: int, episodes: int, cfg: TrainConfig, out_dir) -> dict:
    """Full training loop; writes the per-update CSV training_log.csv and
    the checkpoint model.ckpt under `out_dir`."""
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    state = make_train_state(cfg, scenario, seed)
    log_path = out_dir / "training_log.csv"
    ckpt_path = out_dir / "model.ckpt"
    history, aborted = [], []
    # no affinity call (not Linux): run in turn, as on one CPU
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    fork = cpus > 1 and cpus >= 2 * (_blas_threads() or cpus)
    t0 = time.perf_counter()

    def rollout(ep: int) -> TransitionBatch:
        batch = collect_rollout(CorridorEnv(scenario, world_seed(seed, ep), cfg.window_depth,
                                            cfg.window_cadence_s), state, cfg.horizon_s)
        if len(batch) == 0:
            raise RuntimeError(f"episode {ep}: no decisions collected")
        return batch

    with open(log_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["update", "mean_reward", "actor_loss", "critic_loss",
                    "entropy", "grad_norm", "aborted"])
        batch = rollout(0)
        for ep in range(episodes):
            ppo_orders = epoch_orders(state.rng, len(batch), cfg.ppo_epochs)
            critic_orders = epoch_orders(state.rng, len(batch), cfg.ppo_epochs)
            child = _CriticChild(state, batch, critic_orders, ep) if fork else None
            upcoming = None
            try:
                # value head lives in return_scale units; normalization keeps
                # the actor's gradient invariant to the choice of scale
                values = evaluate_values(state, batch)
                adv = advantages(batch.ret * cfg.return_scale, values,
                                 cfg.normalize_advantages)
                astats = ppo_update(state, batch, adv, orders=ppo_orders,
                                    entropy_coef=cfg.entropy_coef_at(ep, episodes))
                if ep + 1 < episodes:
                    try:
                        upcoming = rollout(ep + 1)
                    except Exception as exc:    # raised after this episode's row
                        upcoming = exc
                # the rollout reads only the policy and state.rng, and a critic
                # update given its orders draws nothing
                cstats = (child.result() if child is not None
                          else critic_update(state, batch, critic_orders))
            finally:
                if child is not None:
                    child.close()
            row = {"update": ep,
                   "mean_reward": float(batch.reward.mean()),
                   "actor_loss": astats["actor_loss"],
                   "critic_loss": cstats["critic_loss"],
                   "entropy": astats["entropy"],
                   "grad_norm": astats["grad_norm"],
                   "aborted": astats["aborted"] or cstats["aborted"]}
            history.append(row)
            w.writerow([row["update"], row["mean_reward"], row["actor_loss"],
                        row["critic_loss"], row["entropy"], row["grad_norm"],
                        int(row["aborted"])])
            aborted = aborted + [ep] if row["aborted"] else []
            if len(aborted) == MAX_ABORTS_IN_A_ROW:
                raise TrainingStopped(f"updates of episodes {aborted} all aborted on a "
                                      "non-finite loss or gradient; stopping training")
            if isinstance(upcoming, Exception):
                raise upcoming
            batch = upcoming
    save_checkpoint(state, ckpt_path)
    return {"checkpoint": ckpt_path, "log": log_path, "history": history,
            "wall_s": time.perf_counter() - t0, "state": state}


# ---------------------------------------------------------------- checkpoints

# a checkpoint's meta.* entries, in the order it stores them after the
# arrays: every TrainConfig field and the agent count
_META = ("use_hypergraph", "use_dsha", "use_spatial", "use_temporal",
         "gamma", "clip_eps", "entropy_coef", "ppo_epochs", "minibatch_size",
         "grad_clip", "lr", "horizon_s", "hidden", "d_model", "heads",
         "attn_tau", "window_depth", "window_cadence_s", "return_scale",
         "entropy_coef_final", "time_discount", "n_agents", "normalize_advantages")


def save_checkpoint(state: TrainState, path) -> None:
    """Write the optimizers' arrays (policy, input scale, critic, encoder)
    and then _META, each value as a float and None as NaN."""
    named = {**state.opt_actor.params, "pi.input_scale": state.policy.input_scale,
             **state.opt_critic.params}
    values = {**vars(state.cfg), "n_agents": state.n_agents}
    for name in _META:
        named[f"meta.{name}"] = np.array(np.nan if values[name] is None
                                         else float(values[name]))
    save_params(path, named)


def load_checkpoint(path) -> TrainState:
    try:
        return _restore(load_params(path))
    except KeyError as exc:
        raise ValueError(f"checkpoint {path} has no entry {exc.args[0]!r}") from None


def _restore(named: dict[str, np.ndarray]) -> TrainState:
    """The TrainState that save_checkpoint wrote, built from its config;
    every array must have the shape that config gives it, and the
    checkpoint may hold no entry that config does not ask for."""
    meta = {name: float(named[f"meta.{name}"]) for name in _META}
    kwargs = {}
    for f in fields(TrainConfig):
        val = meta[f.name]
        if isinstance(f.default, bool):
            val = bool(val)
        elif f.name in SIZES:
            if not val.is_integer():
                raise ValueError(f"checkpoint entry 'meta.{f.name}' must be a whole "
                                 f"number, got {val}")
            val = int(val)
        elif f.default is None and np.isnan(val):
            val = None
        kwargs[f.name] = val
    state = TrainState(TrainConfig(**kwargs), named["pi.W1"].shape[0],
                       int(meta["n_agents"]), seed=0,
                       input_scale=named["pi.input_scale"])
    arrays = {**state.opt_actor.params, **state.opt_critic.params}
    for name, arr in arrays.items():
        if named[name].shape != arr.shape:
            raise ValueError(f"checkpoint entry {name!r} has shape {named[name].shape}, "
                             f"its config needs {arr.shape}")
        arr[...] = named[name]
    unknown = sorted(set(named) - {*arrays, "pi.input_scale", *(f"meta.{m}" for m in _META)})
    if unknown:
        raise ValueError(f"checkpoint entries {unknown} are not in its config")
    return state
