"""Centralized-critic PPO over the corridor: rollouts, returns, updates.

Training is on-policy and trigger-gated. During a rollout each agent acts
only when its green expires; at the horizon the rollout prices every
decision from the episode's metrics log, over the seconds until that
agent's next decision (or the horizon). All agents share one actor. The
critic regresses Monte-Carlo returns; with the hypergraph enabled its
input is the graph embedding rebuilt from the stored feature windows at
update time, so the encoder trains end-to-end through the critic loss and
through nothing else. With the hypergraph disabled the critic sees the
mean of the current scaled observations.

Ratios in the clipped surrogate are taken against log-probs recomputed in
one batched forward at the start of the update; collection keeps none.
Identical inputs through an identical batched graph make the first
epoch's ratios exactly one when the batch fits in a single minibatch.

train_run runs OpenBLAS on one thread, so its bytes do not depend on the
caller's thread count. Only the value pass reads the critic, so train_run
takes each episode's critic update in one place, after the actor update
and the next rollout: where this process may use two CPUs it collects the
update from one worker forked after the first rollout, which keeps the
critic, the encoder and their Adam state, and otherwise (one CPU, or no
OpenBLAS found) it runs the update there. Before either update, train_run
draws every epoch order of PPO and then of the critic, so an update that
aborts early leaves orders unused but moves no later draw, and the two
paths write the same files.
"""

from __future__ import annotations

import contextlib
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
from .env import N_ACTIONS, action_mask, drive, feature_scales, obs_width
from .metrics import MetricsLog
from .nets import CriticNet, PolicyNet, act
from .optim import Adam, clip_grad_norm
from .sim import Network, SimWorld, load_scenario, resolve_config


# train_run stops after this many aborted updates in a row (off TrainConfig's fingerprint)
MAX_ABORTS_IN_A_ROW = 3

# PPO's surrogate clip range and the global gradient-norm cap of both updates
CLIP_EPS, GRAD_CLIP = 0.2, 0.5
ENTROPY_COEF_FINAL = 0.002      # TrainConfig.entropy_coef anneals linearly to this


@dataclass
class TrainConfig:
    """Training recipe; the defaults are the corridor recipe.

    Discounting runs per second of world time rather than per decision, so
    a 45 s green is charged for the whole queueing tail it causes instead
    of hiding it behind one step; 0.99 per second keeps the credit horizon
    near 100 s, about two cycles. The annealed entropy keeps the low-demand
    phases explored long enough for their payoff to show, and the critic
    regresses scaled returns so its targets sit within reach of clipped
    Adam steps. The entropy target ENTROPY_COEF_FINAL, PPO's clip range
    CLIP_EPS and gradient clip GRAD_CLIP, its advantage normalization and
    the critic's window are constants, not fields.
    """

    # the field order is a checkpoint's byte layout (one meta entry per field);
    # _restore reads each entry back as its default's type, an int as a size
    use_hypergraph: bool = True
    use_dsha: bool = True
    use_spatial: bool = True
    use_temporal: bool = True
    gamma: float = 0.99
    entropy_coef: float = 0.01
    ppo_epochs: int = 4
    minibatch_size: int = 256
    lr: float = 1e-3
    horizon_s: int = 1800
    hidden: int = 256
    d_model: int = 64
    heads: int = 4
    return_scale: float = 2e-4   # critic regresses return_scale * R

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not np.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
            if type(f.default) is int and value < 1:     # a size
                raise ValueError(f"{f.name} must be >= 1, got {value}")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError(f"gamma must be in (0,1), got {self.gamma}")
        if self.entropy_coef < 0 or self.lr <= 0:
            raise ValueError("entropy_coef >= 0 and lr > 0 required")
        if self.return_scale <= 0:
            raise ValueError("return_scale must be > 0")
        if self.use_hypergraph and not (self.use_spatial or self.use_temporal):
            raise ValueError("at least one hyperedge family must stay enabled")
        if self.d_model % self.heads != 0:
            raise ValueError("d_model must divide evenly across heads")

    def entropy_coef_at(self, episode: int, episodes: int) -> float:
        """Entropy weight for an episode, linear from coef to ENTROPY_COEF_FINAL."""
        frac = episode / max(episodes - 1, 1)
        return (1.0 - frac) * self.entropy_coef + frac * ENTROPY_COEF_FINAL


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
    # flat critic: (B, width) mean scaled observations; hypergraph critic:
    # (B,) window starts, rows of the (S, n, d) episode table `snapshots`
    critic_input: np.ndarray | None = None
    snapshots: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.action)


def returns(rewards, gamma: float, dts):
    """Discounted suffix sums at the per-second rate gamma.

    `dts` holds the seconds spanned by each decision window: each window's
    average reward is weighted by its discounted duration and the tail is
    discounted by elapsed time,

        R_k = r_k * (1 - gamma^dt_k) / (1 - gamma) + gamma^dt_k * R_{k+1},

    which equals the per-second discounted sum when the rate is constant
    within windows. Decisions here span a phase change plus the chosen
    green (13..50 s); discounting per decision instead would price a long
    green's tail congestion at the same single step as a short one's.
    """
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
        decay = gamma ** float(dts[k])
        acc = r * (1.0 - decay) / (1.0 - gamma) + decay * acc
        out[k] = acc
    return out


def advantages(ret, values) -> np.ndarray:
    """ret - values, normalized to zero mean and unit std when it has >= 2 rows."""
    ret = np.asarray(ret, dtype=float)
    values = np.asarray(values, dtype=float)
    if ret.shape != values.shape:
        raise ValueError(f"length mismatch: {ret.shape} vs {values.shape}")
    adv = ret - values
    if len(adv) >= 2:
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
            self.encoder = init_encoder(in_width + pad, cfg.heads, cfg.d_model, rng=self.rng)
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

    def critic_values(self, batch: TransitionBatch, rows, grad: bool = True):
        """(len(rows), 1) values and their backward: dv -> the gradients of
        the critic and, with the hypergraph on, of the encoder, by name in
        opt_critic's order. With grad=False the backward is None and the
        encoder keeps nothing for it."""
        cfg = self.cfg
        if not cfg.use_hypergraph:
            v, backward = self.critic.forward(batch.critic_input[rows])
            return v, (lambda dv: backward(dv)[0]) if grad else None
        windows = batch.critic_input[rows, None] + np.arange(envmod.WINDOW_DEPTH)
        g, encoder_backward = encode_window(batch.snapshots, windows, self.encoder,
                                            spatial=cfg.use_spatial,
                                            temporal=cfg.use_temporal,
                                            uniform=not cfg.use_dsha, grad=grad)
        v, critic_backward = self.critic.forward(g)
        if not grad:
            return v, None

        def backward(dv):
            grads, dg = critic_backward(dv)
            return {**grads, **encoder_backward(dg())}

        return v, backward


# -------------------------------------------------------------------- rollout

def collect_rollout(world: SimWorld, state: TrainState, seconds: int) -> TransitionBatch:
    """Trigger-gated on-policy collection over `seconds` of world time,
    from a world that has not stepped yet."""
    cfg = state.cfg
    rows: list[tuple] = []      # (agent, t, obs, mask, action, critic_input)
    # only the hypergraph critic reads the snapshot window
    window = envmod.FeatureWindow(world) if cfg.use_hypergraph else None

    def decide(world, due: list[int]) -> list[int]:
        # on the snapshot grid the window has just observed this state;
        # envmod.observe is looked up at call time, so a patched one (the
        # benchmark tracer's span) sees every call
        on_grid = window is not None and world.t % envmod.WINDOW_CADENCE_S == 0
        obs = window.buf[-1] if on_grid else envmod.observe(world)
        critic_input = window.start() if window is not None else \
            (obs * state.policy.input_scale).mean(axis=0)
        actions = []
        for i in due:
            mask = action_mask(world.controllers[i].phase)
            actions.append(act(state.policy, obs[i], mask, state.rng))
            rows.append((i, world.t, obs[i], mask, actions[-1], critic_input))
        return actions

    drive(world, seconds, decide, after_step=None if window is None else window.after_step)
    batch = _build_batch(rows, world.log, cfg.gamma)
    if window is not None:
        batch.snapshots = envmod.prepare_node_features(
            window.table(), len(world.net.lanes_of(0)), cfg.heads)
    return batch


def _build_batch(rows: list[tuple], log: MetricsLog, gamma: float) -> TransitionBatch:
    """Price the decisions `rows` (decision order) over `log`: a window runs to
    its agent's next decision or the log's end. Each array is built column by
    column in close order, (stop, agent); other builds raised peak RSS."""
    if not rows:
        return TransitionBatch()
    stop, upcoming = [0] * len(rows), {}
    for k in range(len(rows) - 1, -1, -1):
        stop[k] = upcoming.get(rows[k][0], len(log))
        upcoming[rows[k][0]] = rows[k][1]
    order = sorted(range(len(rows)), key=lambda k: (stop[k], rows[k][0]))
    agent, t = np.array([rows[k][0] for k in order]), np.array([rows[k][1] for k in order])
    obs, mask = np.stack([rows[k][2] for k in order]), np.stack([rows[k][3] for k in order])
    action = np.array([rows[k][4] for k in order])
    stop = np.array([stop[k] for k in order])
    reward = envmod.compute_rewards(log, agent, t, stop)
    batch = TransitionBatch(agent=agent, t=t, obs=obs, mask=mask, action=action,
                            reward=reward, dt=stop - t,
                            critic_input=np.stack([rows[k][5] for k in order]))
    batch.ret = np.zeros(len(rows))
    for i in np.unique(agent):
        idx = np.flatnonzero(agent == i)     # chronological
        batch.ret[idx] = returns(batch.reward[idx], gamma, batch.dt[idx])
    return batch


def evaluate_values(state: TrainState, batch: TransitionBatch) -> np.ndarray:
    return state.critic_values(batch, np.arange(len(batch)), grad=False)[0][:, 0].copy()


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
                CLIP_EPS, entropy_coef)
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
            norm = clip_grad_norm(grads, GRAD_CLIP)
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
    B = len(batch.ret)
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
            norm = clip_grad_norm(grads, GRAD_CLIP)
            if not np.isfinite(norm):
                stats["aborted"] = True
                return stats
            stats["grad_norm"] = norm
            state.opt_critic.step(grads)
    stats["critic_loss"] = loss_sum / steps
    return stats


# ----------------------------------------------------------------- train loop

corridor_train_config = TrainConfig     # kept for callers written against this name


def world_seed(base_seed: int, episode: int) -> int:
    return base_seed * 1000 + episode


def make_train_state(cfg: TrainConfig, scenario, seed: int) -> TrainState:
    net = Network(resolve_config(scenario))
    n_lanes = len(net.lanes_of(0))
    return TrainState(cfg, obs_width(n_lanes), net.n, seed,
                      input_scale=feature_scales(n_lanes))


class TrainingStopped(RuntimeError):
    """Training gave up after MAX_ABORTS_IN_A_ROW aborted updates."""


def _openblas_function(*names):
    """The first of `names` that the OpenBLAS numpy loaded exports; None if none is found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split(maxsplit=5)[5].strip() for ln in fh
                    if "openblas" in ln.lower() and ".so" in ln}
        libs = [ctypes.CDLL(path) for path in sorted(libs)]
    except OSError:                 # no /proc/self/maps (not Linux), or no library
        return None
    for lib in libs:
        for name in names:
            if hasattr(lib, name):
                return getattr(lib, name)


@contextlib.contextmanager
def _one_blas_thread():
    """Run OpenBLAS on one thread inside, then give the caller's count back;
    yields whether it could (without OpenBLAS it changes nothing)."""
    get, put = (_openblas_function(f"scipy_openblas_{op}_num_threads64_",
                                   f"openblas_{op}_num_threads64_", f"openblas_{op}_num_threads")
                for op in ("get", "set"))
    if get is None or put is None:
        yield False
        return
    threads = get()
    put(1)
    try:
        yield True
    finally:
        put(threads)


class _CriticWorker:
    """critic_update(state, batch, orders) of every episode in one forked
    process, which keeps the critic, the encoder and their Adam state."""

    def __init__(self, state: TrainState):
        import multiprocessing      # 8 ms of start-up that evaluation never needs
        self.state, self.episode = state, 0
        self.conn, conn = multiprocessing.Pipe()
        self.proc = multiprocessing.get_context("fork").Process(
            target=self._serve, args=(conn,), daemon=True)
        self.proc.start()
        conn.close()

    def _serve(self, conn) -> None:
        # os._exit: nothing inherited (the log's buffer, stdio) is flushed twice
        self.conn.close()
        opt = self.state.opt_critic
        try:
            mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
            if mallopt is not None:     # glibc keeps what it frees (README, Training)
                mallopt(-3, 32 << 20)       # M_MMAP_THRESHOLD, its 64-bit ceiling
                mallopt(-1, 2**31 - 1)      # M_TRIM_THRESHOLD, INT_MAX
            for batch, orders in iter(conn.recv, None):
                t0 = time.perf_counter()
                stats = critic_update(self.state, batch, orders)
                conn.send(([*opt.params.values()], stats, time.perf_counter() - t0))
            conn.send(([*opt._m, *opt._v], opt.t))
        except BaseException as exc:    # re-raised by result(); unpicklable: EOF
            conn.send(exc)
        finally:
            os._exit(0)

    def submit(self, batch: TransitionBatch, orders, episode: int) -> None:
        """Send the worker what critic_update reads of `batch`, and its orders."""
        self.episode = episode
        self.conn.send((TransitionBatch(ret=batch.ret, critic_input=batch.critic_input,
                                        snapshots=batch.snapshots), orders))

    def result(self, arrays=None) -> tuple:
        """Copy the next message's arrays to `arrays` (default: critic's); return the rest."""
        try:
            msg = self.conn.recv()
        except EOFError:
            self.proc.join()
            raise RuntimeError(f"episode {self.episode}: the critic worker exited "
                               f"with {self.proc.exitcode} before its result") from None
        if isinstance(msg, BaseException):
            raise msg
        for dst, src in zip(arrays or self.state.opt_critic.params.values(), msg[0]):
            dst[...] = src
        return msg[1:]

    def finish(self) -> None:
        """Stop the worker; install the Adam moments and step count it sends."""
        opt = self.state.opt_critic
        self.conn.send(None)
        opt.t, = self.result([*opt._m, *opt._v])

    def close(self) -> None:
        """Stop the worker on any path with the sentinel; terminate only if it hangs."""
        with contextlib.suppress(EOFError, OSError):     # it may be gone already
            self.conn.send(None)
            while self.conn.poll(10):
                self.conn.recv()
        self.proc.join(10)
        self.proc.terminate()       # a no-op once it has exited
        self.proc.join()
        self.conn.close()


def train_run(scenario, seed: int, episodes: int, cfg: TrainConfig, out_dir) -> dict:
    """Full training loop; writes the per-update CSV training_log.csv and
    the checkpoint model.ckpt under `out_dir`."""
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    scenario = resolve_config(scenario)
    if scenario.initial_green_s >= cfg.horizon_s:
        raise ValueError(f"initial_green_s {scenario.initial_green_s} must be below "
                         f"horizon_s {cfg.horizon_s}: no signal would decide")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    state = make_train_state(cfg, scenario, seed)
    log_path = out_dir / "training_log.csv"
    ckpt_path = out_dir / "model.ckpt"
    history, aborted, critic_s, critic_wait_s = [], [], [], []
    # no affinity call (not Linux): run in turn, as on one CPU
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    t0 = time.perf_counter()

    with _one_blas_thread() as pinned, open(log_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["update", "mean_reward", "actor_loss", "critic_loss",
                    "entropy", "grad_norm", "aborted"])
        batch = collect_rollout(load_scenario(scenario, world_seed(seed, 0)), state, cfg.horizon_s)
        # one BLAS thread per process: two CPUs fit the worker beside this one
        worker = _CriticWorker(state) if pinned and cpus > 1 else None
        try:
            for ep in range(episodes):
                ppo_orders = epoch_orders(state.rng, len(batch), cfg.ppo_epochs)
                critic_orders = epoch_orders(state.rng, len(batch), cfg.ppo_epochs)
                if worker is not None:
                    worker.submit(batch, critic_orders, ep)
                # value head lives in return_scale units; normalization keeps
                # the actor's gradient invariant to the choice of scale
                values = evaluate_values(state, batch)
                adv = advantages(batch.ret * cfg.return_scale, values)
                astats = ppo_update(state, batch, adv, orders=ppo_orders,
                                    entropy_coef=cfg.entropy_coef_at(ep, episodes))
                upcoming = None
                if ep + 1 < episodes:
                    try:
                        upcoming = collect_rollout(load_scenario(
                            scenario, world_seed(seed, ep + 1)), state, cfg.horizon_s)
                    except Exception as exc:    # raised after this episode's row
                        upcoming = exc
                # the rollout reads only the policy and state.rng, and a critic
                # update given its orders draws nothing
                t = time.perf_counter()
                cstats, seconds = (worker.result() if worker is not None else
                                   (critic_update(state, batch, critic_orders), None))
                critic_wait_s.append(time.perf_counter() - t)
                critic_s.append(critic_wait_s[-1] if seconds is None else seconds)
                row = {"update": ep, "mean_reward": float(batch.reward.mean()),
                       "actor_loss": astats["actor_loss"], "critic_loss": cstats["critic_loss"],
                       "entropy": astats["entropy"], "grad_norm": astats["grad_norm"],
                       "aborted": astats["aborted"] or cstats["aborted"]}
                history.append(row)
                w.writerow([*list(row.values())[:-1], int(row["aborted"])])
                aborted = aborted + [ep] if row["aborted"] else []
                if len(aborted) == MAX_ABORTS_IN_A_ROW:
                    raise TrainingStopped(f"updates of episodes {aborted} all aborted on "
                                          "a non-finite loss or gradient; stopping training")
                if isinstance(upcoming, Exception):
                    raise upcoming
                batch = upcoming
            if worker is not None:
                worker.finish()
        finally:
            if worker is not None:
                worker.close()
    save_checkpoint(state, ckpt_path)
    # critic_s: each critic update's seconds where it ran; critic_wait_s: this process's wait
    return {"checkpoint": ckpt_path, "log": log_path, "history": history,
            "wall_s": time.perf_counter() - t0, "state": state,
            "critic_s": critic_s, "critic_wait_s": critic_wait_s}


# ---------------------------------------------------------------- checkpoints

def save_checkpoint(state: TrainState, path) -> None:
    """Write the optimizers' arrays (policy, input scale, critic, encoder),
    then meta.<name> for each TrainConfig field in declaration order and
    meta.n_agents, each value as a float."""
    named = {**state.opt_actor.params, "pi.input_scale": state.policy.input_scale,
             **state.opt_critic.params}
    for name, value in {**vars(state.cfg), "n_agents": state.n_agents}.items():
        named[f"meta.{name}"] = np.array(float(value))
    save_params(path, named)


def load_checkpoint(path) -> TrainState:
    named = load_params(path)       # its errors name the file already
    try:
        return _restore(named)
    except (KeyError, ValueError) as exc:
        why = f" has no entry {exc.args[0]!r}" if isinstance(exc, KeyError) else f": {exc}"
        raise ValueError(f"checkpoint {path}{why}") from None


def _restore(named: dict[str, np.ndarray]) -> TrainState:
    """The TrainState that save_checkpoint wrote. Each meta entry is a 0-d
    array read as its field default's type (n_agents: int): a bool must be 0
    or 1, an int a whole number >= 1. pi.W1 must be 2-D, and every array
    must have the shape that config gives it; the checkpoint may hold no
    entry that config does not ask for."""
    kinds = {**{f.name: type(f.default) for f in fields(TrainConfig)}, "n_agents": int}
    meta = {}
    for name, kind in kinds.items():
        key = f"meta.{name}"
        if named[key].ndim != 0:
            raise ValueError(f"entry {key!r} has shape {named[key].shape}, must be 0-d")
        val = float(named[key])
        if kind is bool and val not in (0.0, 1.0):
            raise ValueError(f"entry {key!r} must be 0 or 1, got {val}")
        if kind is int and not (val.is_integer() and val >= 1):
            raise ValueError(f"entry {key!r} must be a whole number >= 1, got {val}")
        meta[name] = kind(val)
    n_agents = meta.pop("n_agents")
    if named["pi.W1"].ndim != 2:
        raise ValueError(f"entry 'pi.W1' has shape {named['pi.W1'].shape}, must be 2-D")
    state = TrainState(TrainConfig(**meta), named["pi.W1"].shape[0], n_agents,
                       seed=0, input_scale=named["pi.input_scale"])
    arrays = {**state.opt_actor.params, **state.opt_critic.params}
    for name, arr in arrays.items():
        if named[name].shape != arr.shape:
            raise ValueError(f"entry {name!r} has shape {named[name].shape}, "
                             f"its config needs {arr.shape}")
        arr[...] = named[name]
    unknown = sorted(set(named) - {*arrays, "pi.input_scale", *(f"meta.{m}" for m in kinds)})
    if unknown:
        raise ValueError(f"entries {unknown} are not in its config")
    return state
