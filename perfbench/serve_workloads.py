"""``serve_mixed`` and ``serve_compiled``: embeddings through the gateway.

Both serve one fp32 fixture checkpoint (built per seed, outside every
timed region) behind a threaded ``ServingGateway``.  ``serve_mixed``
loads it as is, with two weighted tenants, the cache on and half of the
requests drawn from a hot set that fits in the cache.  ``serve_compiled``
first turns it into an int8 artifact with ``compile_checkpoint`` (part
of set-up) and sends only unique windows from one tenant with the cache
off.

An untraced run interleaves closed-loop saturation bursts (throughput)
with open-loop Poisson chunks at the workload's reference rate
(latency).  A traced run makes one untraced and one traced burst, one
traced reference phase, and then climbs the rate ladder until a rung
misses the latency limit (highest sustainable rate).  Every served
embedding is checked against a direct fp32 ``model.encode`` of the same
windows: bit-equal on ``serve_mixed``, within the declared int8
tolerance on ``serve_compiled``.
"""

from __future__ import annotations

import pathlib
import threading
from dataclasses import dataclass

import numpy as np

from . import stats
from .common import SETTINGS, HostSpeed, SetupClock, peak_rss_mb
from .loadgen import poisson_schedule, run_closed_loop, run_open_loop
from .tracer import Tracer, covered
from .verify import Verifier

import repro.compile as compile_mod
import repro.serve.batching as batching_mod
import repro.serve.gateway as gateway_mod
from repro.checkpoint import CheckpointConfig
from repro.compile import CompiledModel, CompileOptions
from repro.core.config import PretrainConfig, TimeDRLConfig
from repro.core.model import TimeDRL
from repro.data import materialize_data_spec, synthetic_windows_spec
from repro.serve import (BatchingEngine, EmbeddingCache, GatewayConfig,
                         ModelRegistry, ServingGateway, TenantConfig)
from repro.train import TrainOptions, TrainSession

__all__ = ["run_serve_workload"]

CFG = SETTINGS["serve"]
SEQ_LEN, CHANNELS = SETTINGS["seq_len"], SETTINGS["channels"]
SHED_REASONS = ("quota", "overload", "deadline", "circuit", "closed")
# Host-speed probe units on each side of a phase (~20 ms).
PROBE_UNITS = 64


@dataclass
class Payload:
    key: int
    x: np.ndarray
    tenant: str


class Traffic:
    """Seeded request stream of 1–8 windows each.

    Windows come from the repository's synthetic window distribution (a
    pool generated from the seed) plus fresh Gaussian noise, so every
    non-hot window is unique.  A ``hot_share`` of requests repeats one of
    a fixed set of requests instead.
    """

    def __init__(self, wcfg: dict, seed: int):
        self.rng = np.random.default_rng(seed)
        self.pool = _synthetic(CFG["pool_windows"], seed)
        self.tenants = [name for name, _ in wcfg["tenants"]]
        self.hot_share = wcfg["hot_share"]
        self.hot = [self._windows() for _ in range(wcfg["hot_requests"])]
        self.next_key = 0

    def _windows(self) -> np.ndarray:
        low, high = CFG["windows_per_request"]
        n = int(self.rng.integers(low, high + 1))
        rows = self.rng.integers(0, len(self.pool), size=n)
        noise = self.rng.standard_normal(
            (n, SEQ_LEN, CHANNELS), dtype=np.float32)
        return self.pool[rows] + np.float32(CFG["noise"]) * noise

    def next(self) -> Payload:
        if self.hot and self.rng.random() < self.hot_share:
            x = self.hot[int(self.rng.integers(len(self.hot)))]
        else:
            x = self._windows()
        tenant = self.tenants[int(self.rng.integers(len(self.tenants)))]
        self.next_key += 1
        return Payload(self.next_key, x, tenant)

    def take(self, count: int) -> list[Payload]:
        return [self.next() for _ in range(count)]


def _synthetic(windows: int, seed: int) -> np.ndarray:
    spec = synthetic_windows_spec(windows, seq_len=SEQ_LEN,
                                  channels=CHANNELS, seed=seed)
    return np.asarray(materialize_data_spec(spec), dtype=np.float32)


def _build_fixture(work, seed: int):
    """A small pre-trained fp32 checkpoint; not part of any timing."""
    config = TimeDRLConfig(seq_len=SEQ_LEN, input_channels=CHANNELS,
                           seed=seed)
    windows = _synthetic(CFG["fixture_windows"], seed + 1)
    directory = work / "fixture"
    session = TrainSession(config)
    session.pretrain(windows, TrainOptions(
        pretrain=PretrainConfig(epochs=1, batch_size=32, seed=seed),
        checkpoint=CheckpointConfig(directory=str(directory))))
    return directory, session.model


def _setup_clock(name, wcfg, fixture, work, seed,
                 speed: HostSpeed) -> SetupClock:
    """(Compile +) registry load + gateway start; each set-up returns
    ``(gateway, compile report or None, artifact path or None)``, and a
    sampled one is closed and its artifact deleted."""
    tenants = tuple(TenantConfig(name=tenant, weight=weight)
                    for tenant, weight in wcfg["tenants"])
    config = GatewayConfig(tenants=tenants, cache_size=wcfg["cache_size"],
                           max_queue_windows=CFG["max_queue_windows"])

    def setup(repeat):
        artifact = report = None
        if name == "serve_compiled":
            artifact, _, report = compile_mod.compile_checkpoint(
                fixture, CompileOptions(precision="int8"),
                output=work / f"compiled{repeat}.npz", seed=seed)
        registry = ModelRegistry()
        registry.load(artifact or fixture, alias="serving")
        gateway = ServingGateway(registry, "serving", config).start()
        return gateway, report, artifact

    def teardown(started):
        gateway, _, artifact = started
        gateway.close()
        if artifact is not None:
            pathlib.Path(artifact).unlink(missing_ok=True)

    return SetupClock(setup, teardown, speed)


def _submitter(gateway, current: threading.local):
    def submit(payload: Payload):
        current.key = payload.key
        return gateway.submit(payload.x, tenant=payload.tenant)
    return submit


def _saturate(submit, traffic: Traffic, count: int):
    """Closed loop over ``count`` pre-generated requests.  A fixed count,
    not a fixed time, keeps the results held for checking (and so the
    peak RSS) the same from run to run."""
    payloads = traffic.take(count)
    phase = run_closed_loop(submit, payloads,
                            in_flight=CFG["saturation_in_flight"])
    return phase, payloads


def _open_phase(submit, traffic: Traffic, rate: float, count: int):
    payloads = traffic.take(count)
    offsets = poisson_schedule(rate, count, traffic.rng)
    return run_open_loop(submit, payloads, offsets, rate=rate), payloads


def _sustainable(phase, limit_ms: float) -> bool:
    latencies = phase.latencies_ms()
    if not latencies or phase.failed > CFG["max_failed_frac"] * phase.sent:
        return False
    backlog_limit = max(8.0, phase.rate * limit_ms / 1e3)
    return (stats.percentile(latencies, 99.0) <= limit_ms
            and phase.backlog_end <= backlog_limit)


def _ladder(submit, traffic, settle) -> list:
    """Climb the rate ladder until a rung misses the latency limit."""
    rungs = []
    for rate in CFG["ladder_rps"]:
        count = max(int(rate * CFG["rung_seconds"]),
                    CFG["rung_min_requests"])
        phase = settle(_open_phase(submit, traffic, rate, count))[0]
        rungs.append(phase)
        if not _sustainable(phase, CFG["latency_limit_ms"]):
            break
    return rungs


def _rung_metrics(rates, rungs) -> dict:
    """Per-rung load-generator counts; rung 0 is the reference phase."""
    metrics = {}
    best = 0.0
    for index, rate in enumerate(rates):
        prefix = f"loadgen.rung{index}"
        if index < len(rungs):
            phase = rungs[index]
            late = phase.late_ms()
            metrics[f"{prefix}.late_ms_p99"] = (
                stats.percentile(late, 99.0), "ms")
            metrics[f"{prefix}.sent"] = (float(phase.sent), "count")
            metrics[f"{prefix}.ok"] = (float(phase.ok), "count")
            metrics[f"{prefix}.failed"] = (float(phase.failed), "count")
            if _sustainable(phase, CFG["latency_limit_ms"]):
                best = max(best, float(rate))
    metrics["loadgen.max_rate_rps"] = (best, "req/s")
    return metrics


class ServeTrace:
    """Wrappers for the traced run plus the per-request span assembly."""

    def __init__(self, current: threading.local, model_cls):
        self.tracer = Tracer()
        self.cache_hits = 0
        self.cache_lookups = 0
        pending: dict[int, int] = {}
        tracer = self.tracer

        def admitted(span, args, result):
            if result.x is not None:
                pending[id(result.x)] = span.key

        def looked_up(span, args, result):
            self.cache_lookups += 1
            self.cache_hits += result is not None

        tracer.wrap(ServingGateway, "submit", "serve.admit",
                    key_of=lambda args, kwargs: getattr(current, "key", None),
                    on_result=admitted)
        tracer.wrap(BatchingEngine, "submit", "serve.engine_submit",
                    key_of=lambda args, kwargs: pending.pop(id(args[1]), None))
        tracer.wrap(model_cls, "encode", "serve.forward",
                    size_of=lambda args, result: args[1].shape[0])
        tracer.wrap(EmbeddingCache, "get", "serve.cache_get",
                    on_result=looked_up)
        for module in (batching_mod, gateway_mod):
            tracer.wrap(module, "input_digest", "serve.digest")

    def uninstall(self):
        self.tracer.uninstall()

    def requests(self, phase, keys) -> list[dict]:
        """Per-request waits, assembled from the spans of one phase."""
        spans = self.tracer.spans
        admit = {s.key: s for s in spans if s.name == "serve.admit"}
        engine = {s.key: s for s in spans if s.name == "serve.engine_submit"
                  and s.key is not None}
        forwards = sorted((s for s in spans if s.name == "serve.forward"),
                          key=lambda s: s.start)
        starts = np.array([s.start for s in forwards])
        rows = []
        for outcome in phase.outcomes:
            if not outcome.ok:
                continue
            key = keys[outcome.index]
            a, e = admit.get(key), engine.get(key)
            children = [(outcome.due, outcome.sent)]
            row = {"due": outcome.due, "done": outcome.done}
            if a is not None:
                children.append((a.start, a.end))
                row["admit_us"] = a.duration * 1e6
            if a is not None and e is not None:
                children.append((a.end, e.start))
                children.append((e.start, e.end))
                row["fairq_ms"] = (e.start - a.end) * 1e3
                # The forward carrying the request is the first one that
                # starts after its engine submit returned.
                index = int(np.searchsorted(starts, e.end))
                carried = (forwards[index] if index < len(forwards)
                           and forwards[index].start < outcome.done else None)
                wait_end = carried.start if carried else outcome.done
                children.append((e.end, wait_end))
                row["engine_ms"] = (wait_end - e.end) * 1e3
                if carried is not None:
                    children.append((carried.start, carried.end))
            duration = outcome.done - outcome.due
            row["coverage"] = (covered(outcome.due, outcome.done, children)
                               / duration if duration > 0 else 1.0)
            rows.append(row)
        return rows


def _pcts(values, unit, name) -> dict:
    values = [v for v in values if v is not None]
    if not values:
        return {f"{name}_p50": (0.0, unit), f"{name}_p99": (0.0, unit)}
    return {f"{name}_p50": (stats.percentile(values, 50.0), unit),
            f"{name}_p99": (stats.percentile(values, 99.0), unit)}


def _traced_metrics(trace: ServeTrace, gateway, reference, report,
                    setup_tracer, overhead_pct, window) -> dict:
    """Per-layer metrics of the traced reference phase; ``window`` holds
    its span-index range and cache counters at both ends."""
    phase, _, keys = reference
    rows = trace.requests(phase, keys)
    spans = trace.tracer.spans[window["spans"][0]:window["spans"][1]]
    hits, lookups = (b - a for a, b in zip(window["counted"][0],
                                           window["counted"][1]))
    forwards = [s for s in spans if s.name == "serve.forward"]
    windows = sum(s.size for s in forwards)
    digests = [s.duration * 1e6 for s in spans if s.name == "serve.digest"]
    shed = gateway.report()["shed"]
    metrics = {
        **_pcts([r.get("admit_us") for r in rows], "us", "serve.admit_us"),
        **_pcts([r.get("fairq_ms") for r in rows], "ms",
                "serve.fairq_wait_ms"),
        **_pcts([r.get("engine_ms") for r in rows], "ms",
                "serve.engine_wait_ms"),
        "serve.batches": (float(len(forwards)), "count"),
        "serve.batch_windows_mean": (
            windows / len(forwards) if forwards else 0.0, "windows"),
        "serve.forward_us_per_window": (
            sum(s.duration for s in forwards) * 1e6 / windows
            if windows else 0.0, "us"),
        "serve.cache_hit_ratio": (hits / lookups if lookups else 0.0,
                                  "ratio"),
        "serve.digest_us_p50": (
            stats.percentile(digests, 50.0) if digests else 0.0, "us"),
        "trace.overhead_pct": (overhead_pct, "%"),
        "trace.coverage": (
            float(np.mean([r["coverage"] for r in rows])), "ratio"),
    }
    for reason in SHED_REASONS:
        metrics[f"serve.shed_{reason}"] = (float(shed[reason]), "count")
    compile_spans = setup_tracer.by_name("compile.compile")
    if report is not None:
        fallback = sum(not layer["quantized"] for layer in report["layers"])
        metrics.update({
            "compile.compile_s": (
                stats.median([s.duration for s in compile_spans]), "s"),
            "compile.artifact_kb": (report["artifact_bytes"] / 1024.0, "KB"),
            "compile.fp32_fallback_layers": (float(fallback), "count"),
        })
    return metrics


def _window_mark(trace: ServeTrace, gateway, opened=None) -> dict:
    """Span index and cache counters at a phase boundary; on the closing
    mark, checks the wrapper's counts against ``EmbeddingCache.stats()``."""
    counted = (trace.cache_hits, trace.cache_lookups)
    cache = gateway.cache.stats() if gateway.cache else None
    reported = (cache.hits, cache.hits + cache.misses) if cache else (0, 0)
    mark = {"span": len(trace.tracer.spans), "counted": counted,
            "reported": reported}
    if opened is None:
        return mark
    deltas = [tuple(b - a for a, b in zip(opened[k], mark[k]))
              for k in ("counted", "reported")]
    if deltas[0] != deltas[1]:
        raise RuntimeError(f"cache lookups traced {deltas[0]} disagree "
                           f"with EmbeddingCache.stats() {deltas[1]}")
    return {"spans": (opened["span"], mark["span"]),
            "counted": (opened["counted"], mark["counted"])}


class Settled:
    """Running totals over phases.  Each phase is verified and its served
    values dropped as soon as it ends (outside every timed region), so
    the benchmark's own bookkeeping neither grows the heap the server
    runs in nor inflates its peak RSS."""

    def __init__(self, verifier: Verifier):
        self.verifier = verifier
        self.attempted = self.failed = self.mismatches = 0

    def __call__(self, measured):
        phase, payloads = measured
        self.attempted += phase.sent
        self.failed += phase.failed
        self.mismatches += self.verifier.check(phase, payloads)
        windows = [payload.x.shape[0] for payload in payloads]
        keys = [payload.key for payload in payloads]
        return phase, windows, keys


def _rate(measured) -> float:
    """Windows served per second over one closed-loop phase."""
    phase, windows, _ = measured
    return (sum(windows[o.index] for o in phase.outcomes if o.ok)
            / phase.seconds)


def _sizes(seconds: float) -> tuple[int, int]:
    """Requests per saturation burst and per reference chunk; phase sizes
    follow ``--seconds`` at fixed request rates, so a run does the same
    work however fast the host is.  The chunks together hold at least
    ``rung_min_requests``, enough for a p99."""
    rounds = CFG["rounds"]
    return (int(CFG["saturation_requests_per_s"] * seconds) // rounds,
            max(-(-CFG["rung_min_requests"] // rounds),
                int(CFG["reference_rps"] * 0.6 * seconds) // rounds))


def _measure(submit, traffic, settle, seconds, setup: SetupClock,
             speed: HostSpeed):
    """Untraced rounds of one closed-loop saturation burst (throughput)
    and one open-loop reference chunk (latency), with set-up sampled
    between rounds.

    Host-speed probes run right before and right after every phase,
    and the phase's times are scaled by their mean (:class:`HostSpeed`).
    Many short phases, each scaled by the speed next to it, follow the
    host's drift more closely than a few long ones.  Returns the scaled
    rate of every burst, the scaled latency of every reference request,
    and both unscaled.
    """
    burst, chunk = _sizes(seconds)
    rates, latencies, raw = [], [], {"rates": [], "latencies": []}
    for _ in range(CFG["rounds"]):
        measured, scale = speed.around(
            lambda: _saturate(submit, traffic, burst), PROBE_UNITS)
        raw["rates"].append(_rate(settle(measured)))
        rates.append(raw["rates"][-1] / scale)
        measured, scale = speed.around(
            lambda: _open_phase(submit, traffic, CFG["reference_rps"],
                                chunk), PROBE_UNITS)
        served = settle(measured)[0].latencies_ms()
        raw["latencies"] += served
        latencies += [value * scale for value in served]
        setup.sample(CFG["setup_repeats"])
    return rates, latencies, raw


def _measure_traced(submit, traffic, settle, seconds, current, gateway,
                    model_cls):
    """Traced phases: one untraced and one traced saturation burst (for
    the overhead), the traced reference phase, then the rate ladder.
    Each burst is a quarter of an untraced run's saturation requests."""
    burst = int(CFG["saturation_requests_per_s"] * seconds) // 4
    plain = _rate(settle(_saturate(submit, traffic, burst)))
    serve_trace = ServeTrace(current, model_cls)
    try:
        traced = _rate(settle(_saturate(submit, traffic, burst)))
        window = _window_mark(serve_trace, gateway)
        count = max(CFG["rung_min_requests"],
                    int(CFG["reference_rps"] * 0.6 * seconds))
        reference = settle(_open_phase(submit, traffic, CFG["reference_rps"],
                                       count))
        window = _window_mark(serve_trace, gateway, window)
        # The reference phase is the ladder's first rung.
        rungs = [reference[0]]
        if _sustainable(reference[0], CFG["latency_limit_ms"]):
            rungs += _ladder(submit, traffic, settle)
    finally:
        serve_trace.uninstall()
    overhead_pct = (plain / traced - 1.0) * 100.0
    return serve_trace, reference, rungs, window, overhead_pct


def run_serve_workload(name: str, seed: int, seconds: float, trace: bool,
                       work) -> dict:
    wcfg = CFG["workloads"][name]
    fixture, fp32_model = _build_fixture(work, seed)
    fp32_model.eval()
    speed = HostSpeed()
    setup = _setup_clock(name, wcfg, fixture, work, seed, speed)
    setup_tracer = Tracer()
    if trace:
        setup_tracer.wrap(compile_mod, "compile_checkpoint", "compile.compile")
    try:
        setup.sample(CFG["setup_repeats"] - 1)
        gateway, report, _ = setup.once()
    finally:
        setup_tracer.uninstall()
    traffic = Traffic(wcfg, seed)
    current = threading.local()
    submit = _submitter(gateway, current)
    # Bit-equal for fp32 serving; the documented int8 serving tolerance
    # gates the compiled artifact, and the compile report's own, tighter
    # claim is counted against as well.
    if report is None:
        verifier = Verifier(fp32_model, 0.0)
    else:
        verifier = Verifier(fp32_model, CFG["compile_max_abs_diff"],
                            declared=_declared_diff(report))
    settle = Settled(verifier)
    # Phase sizes follow --seconds at fixed request rates, so a run does
    # the same work however fast the host is.
    try:
        # Warm-up: fills the hot set into the cache and runs lazy set-up.
        settle(_saturate(submit, traffic, CFG["warmup_requests"]))
        if trace:
            model_cls = CompiledModel if report is not None else TimeDRL
            serve_trace, reference, rungs, window, overhead = _measure_traced(
                submit, traffic, settle, seconds, current, gateway,
                model_cls)
        else:
            rates, latencies, raw = _measure(
                submit, traffic, settle, seconds, setup, speed)
    finally:
        gateway.close()
    if trace:
        metrics = _traced_metrics(serve_trace, gateway, reference, report,
                                  setup_tracer, overhead, window)
        ladder = _rung_metrics([CFG["reference_rps"], *CFG["ladder_rps"]],
                               rungs)
        metrics.update(ladder)
        info = {"rungs": ladder}
        spans = serve_trace.tracer.spans
    else:
        if stats.tail_percentile(len(latencies), candidates=(99.0,)) is None:
            raise RuntimeError(f"{len(latencies)} reference requests cannot "
                               "support a p99")
        metrics = {
            "setup_s": (stats.median(setup.times), "s"),
            "throughput_windows_per_s": (stats.median(rates), "windows/s"),
            "latency_p50_ms": (stats.percentile(latencies, 50.0), "ms"),
            "latency_tail_ms": (stats.percentile(latencies, 99.0), "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        info = {"burst_windows_per_s": rates,
                "reference_latencies": len(latencies),
                "raw_windows_per_s": raw["rates"],
                "raw_latency_p50_ms": stats.percentile(raw["latencies"], 50.0)}
        spans = []
    info["setup_s"] = setup.times
    info["setup_raw_s"] = setup.raw
    metrics["check.embed_max_abs_diff"] = (verifier.max_abs_diff, "abs")
    metrics["check.over_declared"] = (float(verifier.over_declared), "count")
    problems, notes = [], []
    if report is not None and _declared_diff(report) > CFG[
            "compile_max_abs_diff"]:
        problems.append("compile report exceeds the declared max_abs_diff")
    if verifier.over_declared:
        # A known under-declaration in repro.compile: the report's figure
        # is a maximum over its calibration windows only.
        notes.append(f"{verifier.over_declared} of {verifier.checked} served "
                     "requests exceed the compile report's max_abs_diff "
                     f"{_declared_diff(report):.4g}")
    if settle.mismatches:
        problems.append(f"{settle.mismatches} served embeddings differ from "
                        "the direct fp32 encode beyond tolerance")
    if verifier.checked == 0:
        problems.append("no request was served")
    return {"correct": not problems, "problems": problems, "notes": notes,
            "attempted": settle.attempted,
            "failed": settle.failed + settle.mismatches,
            "metrics": metrics,
            "spans": spans + setup_tracer.spans, "info": info}


def _declared_diff(report) -> float:
    """The compile report's claimed max |served - fp32| over both levels."""
    return max(report["max_abs_diff"][level]
               for level in ("timestamp", "instance"))
