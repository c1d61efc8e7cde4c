"""The benchmark's three closed-loop workloads and their correctness gate.

Each workload has the same life cycle: ``setup(seed, traced)`` builds
the inputs from the workload seed and brings the serving shape to a
primed state, ``run(state, seconds, recorder, counts)`` serves requests
one at a time per client (each client waits for its reply) and gates
every reply, and ``close(state)`` releases what set-up started.

``run`` serves for ``seconds`` of request time, and at least
``prefix`` requests per client; given ``counts`` it serves exactly that
many requests per client instead (the untraced replay of a traced
pass).  The first ``prefix`` replies per client form the output digest
and the quality sample (|M| / OPT, with OPT from the exact max-flow
baseline), so the digest of one seed is the same however many requests
fit in the window.

Requests are served in epochs of a few requests, with the reference
probe (``probe_ms``) timed before and after each epoch while nothing
else runs.  Each reply carries the epoch's ``scale``, ``PROBE_REF_MS``
over the mean of those two probe times, so that a timing multiplied by
it reads at the reference host speed (see ``probe_ms``).
"""

from __future__ import annotations

import hashlib
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Optional

import numpy as np

from repro.api import Engine, SolverConfig
from repro.api.report import AllocationReport
from repro.baselines.exact import optimum_value
from repro.dynamic import SCENARIOS
from repro.graphs import io as graphs_io
from repro.graphs.capacities import validate_integral_allocation
from repro.graphs.generators import sized_instance, slow_spread_instance
from repro.serve.service import ServiceClient
from repro.serve.session import SolveRequest

OUT_DIR = Path("perfbench") / "out"


def derive(seed: int, *keys: int) -> int:
    """A request seed: a pure function of the workload seed and keys."""
    entropy = [seed % (1 << 64), *keys]  # SeedSequence takes non-negative ints only
    state = np.random.SeedSequence(entropy).generate_state(2, dtype=np.uint32)
    return int(state[0]) << 31 | int(state[1]) >> 1


# The probe's time at the reference host speed (about its fastest
# reading on a 2-core x86_64 host).
PROBE_REF_MS = 8.0
_PROBE_RNG = np.random.default_rng(0)
_PROBE_DATA = _PROBE_RNG.random(1 << 16)
_PROBE_INDEX = _PROBE_RNG.integers(0, 1 << 16, 1 << 18)


def _probe_once() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(100_000):
        s += i
    for _ in range(8):
        _PROBE_DATA[_PROBE_INDEX].sum()
    return (time.perf_counter() - t0) * 1e3


def probe_ms() -> float:
    """Time a fixed reference loop (interpreted Python plus an
    L2-resident numpy gather), in ms: the median of three timings on
    each CPU this process may use, averaged over the CPUs.

    A shared host's speed drifts by a third and more over minutes, and
    every timing of the program drifts with it.  The probe is fixed
    code, so its time measures the host's current speed alone; timings
    scaled by ``PROBE_REF_MS / probe`` cancel the drift but keep every
    change to the program.  The CPUs of one host drift apart, and the
    program's threads (the server's, for the service) move between
    them, hence one reading per CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    per_cpu = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})  # this thread only
            per_cpu.append(sorted(_probe_once() for _ in range(3))[1])
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(per_cpu) / len(per_cpu)


def scale_between(before: float, after: float) -> float:
    return PROBE_REF_MS / ((before + after) / 2)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of another process (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


@dataclass
class Reply:
    """One served request after the gate."""

    rid: str
    latency_ms: float
    size: int = 0
    mask: Optional[bytes] = None  # packed edge mask, for the digest
    failure: Optional[str] = None
    ratio: Optional[float] = None  # |M| / OPT, quality sample only
    scale: float = 1.0  # to the reference host speed (see probe_ms)


@dataclass
class Pass:
    """One measured pass of a workload."""

    replies: list[Reply]  # digest order: client 0's replies, then client 1's
    prefix: list[Reply]  # the first ``prefix`` replies of every client
    window_s: float
    ref_window_s: float  # the window at the reference host speed
    counts: list[int]
    peak_rss_mb: float
    probes_ms: list[float]
    extra: dict[str, Any] = field(default_factory=dict)


def mask_bytes(mask: np.ndarray) -> bytes:
    mask = np.asarray(mask, dtype=bool)
    return len(mask).to_bytes(8, "little") + np.packbits(mask).tobytes()


def digest(replies: list[Reply]) -> str:
    h = hashlib.sha256()
    for r in replies:
        h.update(r.mask if r.mask is not None else b"failed")
    return h.hexdigest()


def gate(reply: Reply, graph, capacities, report: AllocationReport, text: str) -> Reply:
    """The per-reply correctness gate.

    The λ-free certificate must be satisfied, the edge mask must be a
    feasible integral allocation (Definition 5) of the request's
    instance, and the report must round-trip through its JSON schema.
    """
    if not report.certified:
        reply.failure = "certificate not satisfied"
        return reply
    mask = report.edge_mask
    if mask is None:
        reply.failure = "report has no edge mask"
        return reply
    try:
        validate_integral_allocation(graph, capacities, mask)
    except ValueError as exc:
        reply.failure = f"infeasible: {exc}"
        return reply
    again = AllocationReport.from_json(text)
    if again.to_json() != text or again.size != int(mask.sum()):
        reply.failure = "report does not round-trip through to_json/from_json"
        return reply
    reply.size = int(mask.sum())
    reply.mask = mask_bytes(mask)
    return reply


def _marked(recorder, rid: str):
    return recorder.request(rid) if recorder is not None else nullcontext()


def _failed(rid: str, latency_ms: float, exc: BaseException) -> Reply:
    return Reply(rid, latency_ms, failure=f"{type(exc).__name__}: {exc}")


class _InProcess:
    """A single in-process client; the clock stops while a reply is
    gated, so the window holds request time only."""

    prefix = 1
    epoch = 1  # requests between two probes
    # Read the peak RSS once this many requests are served (None: at
    # the end of the window), so a faster program that fits more
    # requests in the window does not read as a bigger one.
    rss_at: Optional[int] = None

    def run(self, state, seconds: float, recorder=None, counts=None) -> Pass:
        replies: list[Reply] = []
        window = ref_window = 0.0
        rss = None
        i = 0
        probes = [probe_ms()]

        def more() -> bool:
            return (i < counts[0]) if counts else (window < seconds or i < self.prefix)

        while more():
            first, epoch_s = len(replies), 0.0
            while more() and len(replies) - first < self.epoch:
                rid = f"r{i}"
                args = self.inputs(state, i)
                with _marked(recorder, rid):
                    t0 = time.perf_counter()
                    try:
                        out = self.request(state, args)
                    except Exception as exc:  # a failed request is counted, not raised
                        out = exc
                    t1 = time.perf_counter()
                window += t1 - t0
                epoch_s += t1 - t0
                latency_ms = (t1 - t0) * 1e3
                if isinstance(out, Exception):
                    replies.append(_failed(rid, latency_ms, out))
                else:
                    replies.append(self.check(state, i, rid, latency_ms, out))
                i += 1
                if i == self.rss_at:
                    rss = peak_rss_mb()
            probes.append(probe_ms())
            scale = scale_between(probes[-2], probes[-1])
            for reply in replies[first:]:
                reply.scale = scale
            ref_window += epoch_s * scale
        return Pass(
            replies=replies,
            prefix=replies[: self.prefix],
            window_s=window,
            ref_window_s=ref_window,
            counts=[i],
            peak_rss_mb=peak_rss_mb() if rss is None else rss,
            probes_ms=probes,
            extra=self.extra(state),
        )

    def inputs(self, state, i: int):
        return i

    def extra(self, state) -> dict[str, Any]:
        return {}

    def close(self, state) -> None:
        pass

    def process_spans(self, state) -> list:
        """Spans recorded in other processes (none: all in process)."""
        return []


class ColdSolve(_InProcess):
    """The ``cli solve`` path on the Theorem-9 stress graph.

    Every request decodes the pre-encoded instance JSON (a fresh graph
    object, so no cached kernel workspace carries over), solves it with
    the default engine (boost on) under its own seed, and encodes the
    report.
    """

    name = "cold_solve"
    prefix = 4

    def setup(self, seed: int, traced: bool = False):
        instance = slow_spread_instance(32, width=40)
        text = graphs_io.instance_to_json(instance)
        engine = Engine()
        engine.solve(graphs_io.instance_from_json(text), seed=derive(seed, 0)).to_json()
        return SimpleNamespace(seed=seed, text=text, engine=engine, opt=None)

    def request(self, state, i: int):
        instance = graphs_io.instance_from_json(state.text)
        report = state.engine.solve(instance, seed=derive(state.seed, 1, i))
        return instance, report, report.to_json()

    def check(self, state, i, rid, latency_ms, out) -> Reply:
        instance, report, text = out
        reply = gate(Reply(rid, latency_ms), instance.graph, instance.capacities, report, text)
        if i < self.prefix and reply.failure is None:
            if state.opt is None:
                state.opt = optimum_value(instance)
            reply.ratio = reply.size / state.opt
        return reply


class DynamicChurn(_InProcess):
    """The ``cli dynamic --no-boost`` path: one warm
    :class:`~repro.dynamic.DynamicSession` stepped through the
    correlated flash-crowd scenario on the stress graph.

    The scenario is generated in cycles of ``CYCLE`` steps, each from
    the instance the previous cycle left, so a run of any length keeps
    the same mix of structural rebuilds and capacity patches.
    """

    name = "dynamic_churn"
    prefix = 16
    epoch = 8
    rss_at = 150
    CYCLE = 48

    def setup(self, seed: int, traced: bool = False):
        instance = slow_spread_instance(32, width=40)
        dynamic = Engine(SolverConfig(boost=False)).open_dynamic(instance)
        dynamic.resolve(SolveRequest(seed=derive(seed, 0)))
        return SimpleNamespace(seed=seed, dynamic=dynamic, deltas=[], cycles=0)

    def inputs(self, state, i: int):
        if i >= len(state.deltas):
            state.deltas.extend(
                SCENARIOS["correlated_flash_crowd"](
                    state.dynamic.instance, self.CYCLE, seed=derive(state.seed, 2, state.cycles)
                )
            )
            state.cycles += 1
        return state.deltas[i], SolveRequest(seed=derive(state.seed, 1, i))

    def request(self, state, args):
        delta, request = args
        return state.dynamic.step(delta, request)[1]

    def check(self, state, i, rid, latency_ms, result) -> Reply:
        report = AllocationReport.from_pipeline(result)
        instance = result.instance
        reply = gate(
            Reply(rid, latency_ms), instance.graph, instance.capacities,
            report, report.to_json(),
        )
        if i < self.prefix and reply.failure is None:
            reply.ratio = reply.size / optimum_value(instance)
        return reply

    def extra(self, state) -> dict[str, Any]:
        stats = state.dynamic.stats
        rebuilds = stats.structural_rebuilds
        return {
            "dynamic_stats": stats.as_dict(),
            "layouts_reused_ratio": stats.layouts_reused / (2 * rebuilds) if rebuilds else 0.0,
        }


class ServiceWarm:
    """The durable serving path: ``cli serve --checkpoint-every-solve``
    as a subprocess, two client connections on threads, each owning its
    own resident heavy-tailed instance.

    Requests rotate capacity updates over the instance's largest
    servers, with an ε tweak on every third; every request carries an
    explicit seed and a tag (its request id), so requests are never
    coalesced and results do not depend on arrival order.
    """

    name = "service_warm"
    prefix = 6  # a multiple of EPOCH
    CLIENTS = 2
    EPOCH = 2  # requests per connection between two probes
    SIZE = 4000
    HOT_SERVERS = 4
    READY_TIMEOUT_S = 120.0

    def setup(self, seed: int, traced: bool = False):
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        key = f"{os.getpid()}-{time.monotonic_ns()}"
        store = OUT_DIR / f"store-{key}"
        sock = OUT_DIR / f"{key}.sock"
        spans_path = OUT_DIR / f"server-spans-{key}.json" if traced else None
        # The graphs are fixed and the workload seed drives the requests,
        # so runs on different seeds serve the same graphs.
        instances = [sized_instance("heavy_tailed", self.SIZE, seed=k) for k in range(self.CLIENTS)]
        serve = ["serve", "--store-dir", str(store), "--socket", str(sock),
                 "--checkpoint-every-solve"]
        if traced:
            cmd = [sys.executable, "perfbench/serve_traced.py", str(spans_path), *serve]
        else:
            cmd = [sys.executable, "-m", "repro.cli", *serve]
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
        state = SimpleNamespace(
            seed=seed, proc=proc, store=store, spans_path=spans_path,
            instances=instances, clients=[], hashes=[],
        )
        try:
            self._await_ready(proc)
            for k, instance in enumerate(instances):
                client = ServiceClient(sock)
                state.clients.append(client)
                opened = client.open(instance)
                state.hashes.append(opened["instance_hash"])
                primed = client.solve(opened["instance_hash"], seed=derive(seed, 0, k))
                if not primed.get("ok"):
                    raise RuntimeError(f"priming solve failed: {primed}")
        except BaseException:
            self.close(state)
            raise
        state.hot = [
            np.argsort(-inst.capacities, kind="stable")[: self.HOT_SERVERS]
            for inst in instances
        ]
        return state

    def _await_ready(self, proc: subprocess.Popen) -> None:
        result: list[bytes] = []
        reader = threading.Thread(target=lambda: result.append(proc.stdout.readline()))
        reader.start()
        reader.join(self.READY_TIMEOUT_S)
        if not result or not result[0].strip():
            raise RuntimeError("the service did not print its ready line")

    def request(self, state, k: int, i: int) -> dict[str, Any]:
        v = int(state.hot[k][i % self.HOT_SERVERS])
        cap = int(state.instances[k].capacities[v]) + 1 + i % 3
        req: dict[str, Any] = {
            "seed": derive(state.seed, 1, k, i),
            "capacity_updates": {str(v): cap},
            "tag": f"c{k}-{i}",
        }
        if i % 3 == 2:
            req["epsilon"] = 0.18
        return req

    def run(self, state, seconds: float, recorder=None, counts=None) -> Pass:
        """Serve epochs of ``EPOCH`` requests per connection; between
        epochs both connections and the server are idle while the
        probe runs."""
        served: list[list[tuple]] = [[] for _ in range(self.CLIENTS)]
        gone = [False] * self.CLIENTS
        barrier = threading.Barrier(self.CLIENTS + 1)
        stop = threading.Event()

        def client_loop(k: int) -> None:
            client, h = state.clients[k], state.hashes[k]
            try:
                while True:
                    barrier.wait()
                    if stop.is_set():
                        return
                    for _ in range(self.EPOCH):
                        req = self.request(state, k, len(served[k]))
                        t0 = time.perf_counter()
                        try:
                            out = client.call({"op": "solve", "instance_hash": h, "request": req})
                        except (OSError, ValueError) as exc:
                            out = exc
                        served[k].append((req, out, (time.perf_counter() - t0) * 1e3))
                        if isinstance(out, Exception):
                            gone[k] = True  # the connection is gone; the failure is counted
                            break
                    barrier.wait()
            except BaseException:
                barrier.abort()
                raise

        threads = [threading.Thread(target=client_loop, args=(k,)) for k in range(self.CLIENTS)]
        for t in threads:
            t.start()
        window = ref_window = 0.0
        probes = [probe_ms()]
        scales = []
        epochs = 0
        try:
            while not any(gone) and (
                (epochs * self.EPOCH < min(counts)) if counts
                else (window < seconds or epochs * self.EPOCH < self.prefix)
            ):
                barrier.wait()
                t0 = time.perf_counter()
                barrier.wait()
                epoch_s = time.perf_counter() - t0
                probes.append(probe_ms())
                scales.append(scale_between(probes[-2], probes[-1]))
                window += epoch_s
                ref_window += epoch_s * scales[-1]
                epochs += 1
        except BaseException:
            barrier.abort()
            raise
        finally:
            stop.set()
            if not barrier.broken:
                barrier.wait()  # releases the connections to see ``stop``
            for t in threads:
                t.join()
        rss = vm_hwm_mb(state.proc.pid)

        replies: list[Reply] = []
        prefix: list[Reply] = []
        for k in range(self.CLIENTS):
            for i, (req, out, latency_ms) in enumerate(served[k]):
                reply = self._check(state, k, i, req, out, latency_ms)
                reply.scale = scales[min(i // self.EPOCH, len(scales) - 1)]
                replies.append(reply)
                if i < self.prefix:
                    prefix.append(reply)
        return Pass(
            replies=replies, prefix=prefix, window_s=window, ref_window_s=ref_window,
            counts=[len(s) for s in served], peak_rss_mb=rss, probes_ms=probes,
        )

    def _check(self, state, k, i, req, out, latency_ms) -> Reply:
        rid = req["tag"]
        if isinstance(out, Exception):
            return _failed(rid, latency_ms, out)
        if not out.get("ok"):
            return Reply(rid, latency_ms, failure=f"service error: {out.get('error')}")
        base = state.instances[k]
        caps = base.capacities.copy()
        for v, c in req["capacity_updates"].items():
            caps[int(v)] = c
        try:
            report = AllocationReport.from_dict(out["report"])
        except (KeyError, ValueError, TypeError) as exc:
            return _failed(rid, latency_ms, exc)
        reply = gate(Reply(rid, latency_ms), base.graph, caps, report, report.to_json())
        if i < self.prefix and reply.failure is None:
            reply.ratio = reply.size / optimum_value(base.with_capacities(caps))
        return reply

    def close(self, state) -> None:
        """Shut the service down, wait for it, and remove its store."""
        proc = state.proc
        try:
            if state.clients and proc.poll() is None:
                try:
                    state.clients[0].shutdown()
                except OSError:
                    pass
            for client in state.clients:
                client.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            shutil.rmtree(state.store, ignore_errors=True)

    def process_spans(self, state) -> list:
        """The spans the traced server wrote at shutdown (after close)."""
        from spans import load_spans

        spans = load_spans(state.spans_path)
        state.spans_path.unlink()
        return spans


WORKLOADS = {w.name: w for w in (ColdSolve(), DynamicChurn(), ServiceWarm())}
