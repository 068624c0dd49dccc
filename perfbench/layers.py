"""The layer table: which public calls the traced run wraps, and the
per-layer metrics computed from their spans.

Each entry names a call by its defining module; the tracer replaces it
on its class, or in its module and in every ``repro`` module that
imported it by name, so that every caller sees the wrapper.  A few
calls are methods whose names start with ``_`` (cache verify/store);
they are the only place that work has a name of its own.
"""

from __future__ import annotations

import inspect
from collections import defaultdict

from . import host
from .stats import covered, percentile, self_times, tail_percentile

#: Spans that contain whole ops rather than a layer's own work;
#: ``trace.unaccounted_frac`` counts time covered by no other span.
CONTAINERS = frozenset({"api.run", "runner.run"})

NN_LAYERS = ("Conv2D", "ReLU", "AveragePooling2D", "Dense")


class MemberReads:
    """Counts ``NpzFile`` member reads (one decompression each)."""

    def __init__(self) -> None:
        self.count = 0

    def install(self, tracer) -> None:
        """Count every ``NpzFile.__getitem__`` until ``tracer`` uninstalls."""
        from numpy.lib.npyio import NpzFile

        original = NpzFile.__getitem__
        counter = self

        def counted(npz, key):
            counter.count += 1
            return original(npz, key)

        tracer.replace(NpzFile, "__getitem__", counted)


def _reads_before(reads: MemberReads):
    return lambda args, kwargs: reads.count


def _reads_after(reads: MemberReads):
    return lambda state, args, kwargs, result: {
        "reads": reads.count - state
    }


def _stats_before(args, kwargs):
    return dict(vars(args[0].stats))


def _stats_delta(state, args, kwargs, result):
    now = vars(args[0].stats)
    return {key: now[key] - state[key] for key in now}


def _rows(state, args, kwargs, result):
    return {"rows": len(result)}


def _arg_rows(index: int):
    return lambda state, args, kwargs, result: {"rows": len(args[index])}


def _pending(args, kwargs):
    return {"batch": args[0].pending}


def _keep(state, args, kwargs, result):
    return state


def _fit_samples(fit):
    signature = inspect.signature(fit)

    def after(state, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        return {"samples": len(bound.arguments["x"])
                * bound.arguments["epochs"]}

    return after


def _simulated(state, args, kwargs, result):
    return {"rounds": result.num_slots,
            "degraded": result.metrics.degraded_rounds}


def _outcome(state, args, kwargs, result):
    return {"retried": result.retried}


def _idle(state, args, kwargs, result):
    return {"idle": int(result is None)}


def _blas_threads(args, kwargs):
    return {"blas_threads": host.blas_threads() or 0}


def install(tracer) -> None:
    """Wrap every layer's public calls with ``tracer``."""
    from repro.nn.model import Sequential

    reads = MemberReads()
    reads.install(tracer)
    wraps = [
        ("repro.dataset.io:load_measurement_set", "io.load",
         {"before": _reads_before(reads), "after": _reads_after(reads)}),
        ("repro.dataset.io:save_measurement_set", "io.save", {}),
        ("repro.campaign.cache:DatasetCache._verify_set", "cache.verify",
         {}),
        ("repro.campaign.cache:DatasetCache._atomic_save", "cache.store",
         {}),
        ("repro.campaign.cache:DatasetCache.load_or_generate",
         "cache.load_or_generate",
         {"before": _stats_before, "after": _stats_delta}),
        ("repro.dataset.generator:generate_measurement_set",
         "generator.set", {}),
        ("repro.dataset.generator:build_components",
         "generator.build_components", {}),
        ("repro.channel.environment:IndoorEnvironment.cir_batch",
         "channel.cir", {}),
        ("repro.channel.environment:IndoorEnvironment.cir_multi_batch",
         "channel.cir", {}),
        ("repro.vision.camera:DepthCamera.render_batch", "vision.render",
         {}),
        ("repro.vision.camera:DepthCamera.render_multi_batch",
         "vision.render", {}),
        ("repro.phy.batch:BatchPhyEngine.synthesize_received",
         "phy.synthesize", {"after": _rows}),
        ("repro.dataset.generator:synthesize_received_batch",
         "phy.synthesize", {"after": _rows}),
        ("repro.phy.receiver:Receiver.decode_with_estimate", "phy.decode",
         {}),
        ("repro.phy.receiver:Receiver.decode_standard", "phy.decode", {}),
        ("repro.phy.receiver:Receiver.decode_batch", "phy.decode_batch",
         {"after": _arg_rows(1)}),
        ("repro.experiments.runner:EvaluationRunner.decode_packet",
         "experiments.decode_packet", {}),
        ("repro.experiments.snr_sweep:evaluate_snr_point",
         "experiments.evaluate", {}),
        ("repro.core.training:TrainedVVD.predict_cir", "core.predict_cir",
         {"after": _arg_rows(1)}),
        ("repro.nn.model:Sequential.predict", "nn.predict",
         {"after": _arg_rows(1)}),
        *[
            (f"repro.nn.layers:{layer}.forward", f"nn.{layer}.forward", {})
            for layer in NN_LAYERS
        ],
        ("repro.nn.model:Sequential.backward", "nn.backward", {}),
        ("repro.nn.model:Sequential.fit", "nn.fit",
         {"after": _fit_samples(Sequential.fit)}),
        ("repro.core.training:train_vvd", "core.train_vvd", {}),
        ("repro.core.checkpoint:load_trained_vvd", "models.load", {}),
        ("repro.campaign.models:ModelCheckpointRegistry.save",
         "models.save", {}),
        ("repro.campaign.models:ModelCheckpointRegistry.load_or_train",
         "models.load_or_train",
         {"before": _stats_before, "after": _stats_delta}),
        ("repro.stream.service:PredictionService.flush", "service.flush",
         {"before": _pending, "after": _keep}),
        ("repro.stream.simulator:StreamSimulator.run", "simulator.run",
         {"after": _simulated}),
        ("repro.campaign.runner:Campaign.run", "runner.run", {}),
        ("repro.campaign.grid:run_grid_point_task", "grid.point",
         {"before": _blas_threads, "after": _keep, "dump_in_child": True}),
        ("repro.campaign.manifest:CampaignManifest.mark", "manifest.mark",
         {}),
        ("repro.campaign.results:ResultsStore.put", "results.put", {}),
        ("repro.api.facade:prepare", "api.prepare", {}),
        ("repro.api.facade:CampaignHandle.run", "api.run",
         {"after": _outcome}),
        ("repro.serve.queue:JobQueue.claim_next", "serve.claim",
         {"after": _idle}),
    ]
    for path, name, hooks in wraps:
        tracer.wrap_path(path, name, **hooks)


#: Every per-layer metric, in report order: name -> unit.
PER_LAYER = {
    "repro.import_s": "s",
    "repro.scipy_signal_loaded": "count",
    "dataset.io.load_ms_per_set": "ms",
    "dataset.io.member_reads_per_set": "count",
    "dataset.io.save_ms_per_set": "ms",
    "campaign.cache.verify_ms_per_set": "ms",
    "campaign.cache.store_ms_per_set": "ms",
    "campaign.cache.sets_loaded": "count",
    "campaign.cache.sets_generated": "count",
    "dataset.generator.ms_per_set": "ms",
    "dataset.generator.build_components_calls": "count",
    "channel.cir_ms_per_set": "ms",
    "vision.render_ms_per_set": "ms",
    "phy.synthesize_ms_per_packet": "ms",
    "phy.decode_calls": "count",
    "phy.decode_batch_calls": "count",
    "phy.decode_ms_per_packet": "ms",
    "experiments.decode_packet_ms": "ms",
    "experiments.evaluate_ms_per_point": "ms",
    "nn.infer_ms_per_frame": "ms",
    **{f"nn.{layer}.forward_ms": "ms" for layer in NN_LAYERS},
    "core.predict_cir_ms": "ms",
    "nn.fit_ms_per_model": "ms",
    "nn.backward_ms_per_model": "ms",
    "nn.train_frames_per_s": "1/s",
    "core.train_vvd_ms": "ms",
    "campaign.models.load_ms": "ms",
    "campaign.models.save_ms": "ms",
    "campaign.models.loaded": "count",
    "campaign.models.trained": "count",
    "stream.service.flushes": "count",
    "stream.service.batch_mean": "frames",
    "stream.service.flush_p50_ms": "ms",
    "stream.simulator.self_ms_per_op": "ms",
    "stream.simulator.round_ms": "ms",
    "stream.simulator.degraded_rounds": "count",
    "stream.rss_growth_mb_per_op": "MB",
    "campaign.runner.self_ms_per_op": "ms",
    "campaign.runner.workers_forked": "count",
    "campaign.runner.utilization": "ratio",
    "campaign.runner.retries": "count",
    "campaign.grid.point_p50_ms": "ms",
    "campaign.grid.worker_blas_threads": "count",
    "campaign.manifest.marks_per_op": "count",
    "campaign.manifest.mark_ms": "ms",
    "campaign.results.put_ms": "ms",
    "api.prepare_ms": "ms",
    "serve.post_p50_ms": "ms",
    "serve.status_p50_ms": "ms",
    "serve.results_p50_ms": "ms",
    "serve.polls_per_op": "count",
    "serve.queue_wait_p50_ms": "ms",
    "serve.run_p50_ms": "ms",
    "serve.claim_ms": "ms",
    "serve.idle_claims_per_op": "count",
    "serve.op_p90_ms": "ms",
    "serve.records": "count",
    "trace.overhead_frac": "ratio",
    "trace.unaccounted_frac": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when there is nothing to divide."""
    return numerator / denominator if denominator else 0.0


def _ms(spans) -> float:
    """Total milliseconds of ``spans``."""
    return 1000 * sum(span.duration for span in spans)


def _p50(values: list[float]) -> float:
    return percentile(values, 50) if values else 0.0


class Profile:
    """Spans of the traced ops, indexed for the per-layer metrics."""

    def __init__(self, spans, windows) -> None:
        self.self_time = self_times(spans)
        self.by_id = {span.span_id: span for span in spans}
        self.spans = [
            span for span in spans
            if any(low <= span.start < high for low, high in windows)
        ]
        self.by_name = defaultdict(list)
        for span in self.spans:
            self.by_name[span.name].append(span)

    def within(self, span, name: str) -> bool:
        """Whether a span named ``name`` encloses ``span``."""
        parent = self.by_id.get(span.parent)
        while parent is not None:
            if parent.name == name:
                return True
            parent = self.by_id.get(parent.parent)
        return False

    def outer(self, name: str) -> list:
        """Spans of ``name`` not nested in another span of ``name``."""
        return [s for s in self.by_name[name] if not self.within(s, name)]

    def count(self, name: str) -> int:
        return len(self.by_name[name])

    def total_ms(self, name: str) -> float:
        return _ms(self.outer(name))

    def mean_ms(self, name: str) -> float:
        spans = self.outer(name)
        return _ratio(_ms(spans), len(spans))

    def self_ms(self, name: str) -> float:
        return 1000 * sum(self.self_time[s.span_id]
                          for s in self.by_name[name])

    def attr_sum(self, name: str, key: str, spans=None) -> float:
        spans = self.by_name[name] if spans is None else spans
        return sum((s.attrs or {}).get(key, 0) for s in spans)

    def unaccounted(self, windows) -> float:
        """Mean share of each window covered by no layer span."""
        intervals = [(s.start, s.end) for s in self.spans
                     if s.name not in CONTAINERS]
        shares = [
            1.0 - _ratio(covered(intervals, low, high), high - low)
            for low, high in windows
        ]
        return _ratio(sum(shares), len(shares))


def compute(spans, facts: dict) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric over the spans of the traced ops.

    ``facts`` carries what the harness measured itself: ``op_windows``
    (the traced ops' intervals), ``ops``, ``main_pid``, ``jobs``,
    ``import_s``, ``scipy_signal_loaded``, ``overhead_frac``,
    ``rss_growth_mb`` and, for ``serve-jobs``, the client's samples.
    A layer the workload does not exercise reads 0.
    """
    windows = facts["op_windows"]
    ops = facts["ops"]
    p = Profile(spans, windows)
    sets_generated = p.attr_sum("cache.load_or_generate", "sets_generated")
    synth = p.outer("phy.synthesize")
    decode_packets = (p.count("phy.decode")
                      + p.attr_sum("phy.decode_batch", "rows"))
    inference = {
        name: [s for s in p.by_name[name] if not p.within(s, "nn.fit")]
        for name in ["nn.predict", *(f"nn.{l}.forward" for l in NN_LAYERS)]
    }
    flushes = [s for s in p.by_name["service.flush"]
               if (s.attrs or {}).get("batch")]
    points = p.by_name["grid.point"]
    serve = facts.get("serve", {})
    sessions = serve.get("op_ms", [])
    return {
        "repro.import_s": facts["import_s"],
        "repro.scipy_signal_loaded": facts["scipy_signal_loaded"],
        "dataset.io.load_ms_per_set": p.mean_ms("io.load"),
        "dataset.io.member_reads_per_set": _ratio(
            p.attr_sum("io.load", "reads"), p.count("io.load")),
        "dataset.io.save_ms_per_set": p.mean_ms("io.save"),
        "campaign.cache.verify_ms_per_set": p.mean_ms("cache.verify"),
        "campaign.cache.store_ms_per_set": p.mean_ms("cache.store"),
        "campaign.cache.sets_loaded": p.attr_sum("cache.load_or_generate",
                                                 "sets_loaded"),
        "campaign.cache.sets_generated": sets_generated,
        "dataset.generator.ms_per_set": p.mean_ms("generator.set"),
        "dataset.generator.build_components_calls": p.count(
            "generator.build_components"),
        "channel.cir_ms_per_set": _ratio(p.total_ms("channel.cir"),
                                         sets_generated),
        "vision.render_ms_per_set": _ratio(p.total_ms("vision.render"),
                                           sets_generated),
        "phy.synthesize_ms_per_packet": _ratio(
            _ms(synth),
            p.attr_sum("phy.synthesize", "rows", synth)),
        "phy.decode_calls": p.count("phy.decode"),
        "phy.decode_batch_calls": p.count("phy.decode_batch"),
        "phy.decode_ms_per_packet": _ratio(
            p.total_ms("phy.decode") + p.total_ms("phy.decode_batch"),
            decode_packets),
        "experiments.decode_packet_ms": p.mean_ms("experiments.decode_packet"),
        "experiments.evaluate_ms_per_point": p.mean_ms(
            "experiments.evaluate"),
        "nn.infer_ms_per_frame": _ratio(
            _ms(inference["nn.predict"]),
            p.attr_sum("nn.predict", "rows", inference["nn.predict"])),
        **{
            f"nn.{layer}.forward_ms": _ratio(
                _ms(inference[f"nn.{layer}.forward"]), ops)
            for layer in NN_LAYERS
        },
        "core.predict_cir_ms": p.mean_ms("core.predict_cir"),
        "nn.fit_ms_per_model": p.mean_ms("nn.fit"),
        "nn.backward_ms_per_model": _ratio(p.total_ms("nn.backward"),
                                           p.count("nn.fit")),
        "nn.train_frames_per_s": _ratio(
            p.attr_sum("nn.fit", "samples"), p.total_ms("nn.fit") / 1000),
        "core.train_vvd_ms": p.mean_ms("core.train_vvd"),
        "campaign.models.load_ms": p.mean_ms("models.load"),
        "campaign.models.save_ms": p.mean_ms("models.save"),
        "campaign.models.loaded": p.attr_sum("models.load_or_train",
                                             "models_loaded"),
        "campaign.models.trained": p.attr_sum("models.load_or_train",
                                              "models_trained"),
        "stream.service.flushes": len(flushes),
        "stream.service.batch_mean": _ratio(
            sum(s.attrs["batch"] for s in flushes), len(flushes)),
        "stream.service.flush_p50_ms": _p50(
            [1000 * s.duration for s in flushes]),
        "stream.simulator.self_ms_per_op": _ratio(
            p.self_ms("simulator.run"), ops),
        "stream.simulator.round_ms": _ratio(
            p.total_ms("simulator.run"),
            p.attr_sum("simulator.run", "rounds")),
        "stream.simulator.degraded_rounds": p.attr_sum(
            "simulator.run", "degraded"),
        "stream.rss_growth_mb_per_op": facts.get("rss_growth_mb", 0.0),
        "campaign.runner.self_ms_per_op": _ratio(p.self_ms("runner.run"),
                                                 ops),
        "campaign.runner.workers_forked": len(
            {s.pid for s in p.spans} - {facts["main_pid"]}),
        "campaign.runner.utilization": _ratio(
            _ms(points), p.total_ms("runner.run") * facts.get("jobs", 1)),
        "campaign.runner.retries": p.attr_sum("api.run", "retried"),
        "campaign.grid.point_p50_ms": _p50(
            [1000 * s.duration for s in points]),
        "campaign.grid.worker_blas_threads": max(
            [(s.attrs or {}).get("blas_threads", 0) for s in points],
            default=0),
        "campaign.manifest.marks_per_op": _ratio(
            p.count("manifest.mark"), ops),
        "campaign.manifest.mark_ms": p.mean_ms("manifest.mark"),
        "campaign.results.put_ms": p.mean_ms("results.put"),
        "api.prepare_ms": p.mean_ms("api.prepare"),
        "serve.post_p50_ms": _p50(serve.get("post_ms", [])),
        "serve.status_p50_ms": _p50(serve.get("status_ms", [])),
        "serve.results_p50_ms": _p50(serve.get("results_ms", [])),
        "serve.polls_per_op": _ratio(len(serve.get("status_ms", [])),
                                     len(sessions)),
        "serve.queue_wait_p50_ms": _p50(serve.get("queue_wait_ms", [])),
        "serve.run_p50_ms": _p50(serve.get("run_ms", [])),
        "serve.claim_ms": p.mean_ms("serve.claim"),
        "serve.idle_claims_per_op": _ratio(
            p.attr_sum("serve.claim", "idle"), len(sessions)),
        "serve.op_p90_ms": tail_percentile(sessions, 90) or 0.0,
        "serve.records": serve.get("records", 0),
        "trace.overhead_frac": facts["overhead_frac"],
        "trace.unaccounted_frac": p.unaccounted(windows),
    }
