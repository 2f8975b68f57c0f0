"""What the benchmark is: fixed set-up, workloads and metric tables.

Everything here is frozen at the commit that introduced the benchmark;
``BENCHMARK.json`` mirrors these tables and ``test_bench_smoke.py`` checks
that the two agree.  A PR that claims a gain may not edit this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: The llama2-7b-sim shape with room for long prompts.
MODEL_CONFIG = dict(name="bench-7b-sim", family="test", d_model=64,
                    num_layers=3, num_heads=4, max_seq_len=640)
MODEL_SEED = 0

#: One policy for every workload: a server does not know its traffic.
POLICY = dict(max_batch_size=16, max_context=640, block_size=16,
              prefill_chunk_size=32, step_token_budget=64,
              enable_prefix_cache=True, speculation="ngram", speculation_k=4)

#: The decision workload's shared LLM (untrained, seeded) and adapters.
DECISION_LLM = dict(name="llama2-7b-sim", lora_rank=8, pretrained=False, seed=0)
ABR_BITRATES = 6
VP_PREDICTION_STEPS = 20
VP_SALIENCY_SIZE = 32
DECISION_WINDOWS = (6, 8, 10)
#: Distinct payload rounds generated per run; the driver cycles through them.
DECISION_ROUND_POOL = 8

#: Registered preambles of templated_shared8: ``PrefixCache``'s default
#: ``max_entries``, so none is ever evicted.
TEMPLATED_PREAMBLES = 8

#: 40 characters, all inside the tokenizer's vocabulary.
ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789 .,:"

#: Requests of the workload completed before the clock starts.
WARMUP_REQUESTS = 16
#: Sampled requests replayed through ``repro.llm.generation.generate``.
REPLAY_REQUESTS = 8
#: Requests (by index) whose output token ids feed ``output_digest``.
DIGEST_REQUESTS = 24

#: The open loop offers arrivals for ``--seconds`` on the reference clock, but
#: for at most this many times ``--seconds`` of wall time: a machine slower
#: than two thirds of reference speed gets a shorter run, not a longer one.
OPEN_LOOP_WALL_CAP = 1.5

#: SLO of the ungated ``driver.slo_attainment``.
SLO_TTFT_S = 0.100
SLO_GAP_S = 0.050

#: Seconds between two machine-speed probes, how many of the latest probes
#: the current speed estimate is the median of, and the probe duration that
#: defines reference speed (the sandbox's quiet-state median).
PROBE_EVERY_S = 0.1
PROBE_SMOOTHING = 7
PROBE_NOMINAL_S = 0.0015

#: glibc malloc settings for every measured child: the heap top is never
#: trimmed and large arrays never get their own mmap, so the kernel's
#: page-fault cost — the largest source of run-to-run variance in the
#: sandbox — is paid once while the heap grows, not on every engine step.
CHILD_MALLOC_ENV = {
    "MALLOC_TOP_PAD_": str(256 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
}


@dataclass(frozen=True)
class Workload:
    name: str
    index: int  # second word of the input seed: default_rng([seed, index])
    loop: str   # "closed" | "lockstep" | "open"
    why: str    # one line, at most 200 characters (BENCHMARK.json)
    rate_per_s: float = 0.0
    #: Client class whose requests feed ``ttft_p50_ms`` / ``itl_p50_ms``
    #: (None: every request).
    ttft_class: Optional[str] = None
    itl_class: Optional[str] = None


WORKLOADS: Tuple[Workload, ...] = (
    Workload("decode_closed16", 0, "closed", why=(
        "Full 16-row decode batch at short context, sampled and unshared: "
        "the model forward does the work; prefix cache and useful "
        "speculation do none, so speculation's cost shows.")),
    Workload("longctx_closed10", 1, "closed", ttft_class="long",
             itl_class="short", why=(
        "Two 384-511-token prompts prefill in chunks among 8 decoders: "
        "paged KV gather/admit/extend, session prefill paths and the "
        "step token budget do the work.")),
    Workload("templated_shared8", 2, "closed", why=(
        "Greedy templated prompts behind registered 96-char preambles: "
        "prefix-cache hits and accepted n-gram drafts do the work that "
        "decode_closed16 bypasses.")),
    Workload("decisions_lockstep32", 3, "lockstep", why=(
        "The paper's traffic: 32 vp/abr/cjs decisions per lockstep round, "
        "one adapter inference each, no token loop; bypasses paged KV, "
        "sessions and speculation (no-change control).")),
    Workload("poisson_open40", 4, "open", rate_per_s=40.0, why=(
        "Open loop, 40 req/s arrivals timed from due time: small "
        "fluctuating batches, so queue wait, admission and small-batch "
        "step time set latency; closed loops cannot build a queue.")),
)
WORKLOAD_BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str          # "lower" | "higher"
    bound: float = 0.0   # end-to-end only: share of the parent's median
    note: str = ""       # definition (end-to-end) / what it should move


#: Every workload reports every end-to-end metric (the driver's contract).
#: A decision counts as one output token: its result is its first and only
#: output, and consecutive results to one client are its "inter-token" gaps.
#: Times and rates are read off the reference clock (README, "The clock").
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25,
           "child start -> clock start: imports, model/adapters, input "
           "load, prefix registration, warm-up, scaled by the speed probes "
           "that ran during it; median of 3 fresh children"),
    Metric("tokens_per_s", "tok/s", "higher", 0.25,
           "outputs committed inside the timed window / window: output "
           "tokens, or decisions answered on decisions_lockstep32"),
    Metric("request_latency_p50_ms", "ms", "lower", 0.25,
           "submit (open loop: due time) -> finished, over requests that "
           "start and finish inside the window; decisions_lockstep32: first "
           "submit of a round -> last result read"),
    Metric("ttft_p50_ms", "ms", "lower", 0.25,
           "submit (open loop: due time) -> first committed token; "
           "longctx_closed10: long class only; decisions_lockstep32: a "
           "decision's submit -> its result"),
    Metric("itl_p50_ms", "ms", "lower", 0.25,
           "gap between consecutive deliveries to one request (tokens "
           "committed by the same engine step are one delivery); "
           "longctx_closed10: short class only; decisions_lockstep32: gap "
           "between consecutive results to one client"),
    Metric("peak_rss_mb", "MB", "lower", 0.25,
           "ru_maxrss of the measured child when the clock stops, before the "
           "output checks run"),
)


def _layer(name: str, unit: str, better: str, moves: str) -> Metric:
    return Metric(name, unit, better, note=moves)


_ENGINE = "itl_p50_ms; poisson_open40, decode_closed16"
_SCHED = "ttft_p50_ms on poisson_open40; itl_p99_ms on longctx_closed10"
_SESSION = "tokens_per_s, ttft_p50_ms; longctx_closed10, templated_shared8"
_SPEC = "tokens_per_s; templated_shared8 (cost only on decode_closed16)"
_PREFIX = "ttft_p50_ms; templated_shared8 (hits = 0 elsewhere)"
_PAGED = "tokens_per_s, itl_p50_ms; longctx_closed10 most, decisions none"
_MODEL = "tokens_per_s, itl_p50_ms; decode_closed16 most"
_RUNTIME = "tokens_per_s, request_latency_p50_ms; decisions_lockstep32 only"
_TELEM = "itl_p50_ms; all workloads (small)"
_PROC = "tokens_per_s, peak_rss_mb; longctx_closed10 (allocation churn)"
_DRIVER = "instrument health and ungated tails"

PER_LAYER: Tuple[Metric, ...] = (
    _layer("engine.busy_share", "share", "lower", _ENGINE),
    _layer("engine.steps", "count", "lower", _ENGINE),
    _layer("engine.step_ms_p50", "ms", "lower", _ENGINE),
    _layer("engine.step_ms_p99", "ms", "lower", _ENGINE),
    _layer("engine.step_self_us_p50", "us", "lower", _ENGINE),
    _layer("engine.step_self_share", "share", "lower", _ENGINE),
    _layer("engine.submit_us_p50", "us", "lower", _ENGINE),
    _layer("engine.idle_steps", "count", "lower", _ENGINE),
    _layer("scheduler.queue_wait_ms_p50", "ms", "lower", _SCHED),
    _layer("scheduler.queue_wait_ms_p95", "ms", "lower", _SCHED),
    _layer("scheduler.max_queue_depth", "count", "lower", _SCHED),
    _layer("scheduler.batch_occupancy_mean", "count", "higher", _SCHED),
    _layer("scheduler.admissions_self_us_p50", "us", "lower", _SCHED),
    _layer("scheduler.deferred_admissions", "count", "lower", _SCHED),
    _layer("scheduler.prefill_budget_used_share", "share", "higher", _SCHED),
    _layer("session.step_self_us_p50", "us", "lower", _SESSION),
    _layer("session.prefill_step_calls", "count", "lower", _SESSION),
    _layer("session.prefill_chunk_calls", "count", "lower", _SESSION),
    _layer("session.prefill_chunk_group_calls", "count", "lower", _SESSION),
    _layer("session.prefill_ms_total", "ms", "lower", _SESSION),
    _layer("session.decode_rows_per_step_mean", "count", "higher", _SESSION),
    _layer("session.tokens_per_forward", "count", "higher", _SESSION),
    _layer("speculative.tokens_drafted", "count", "higher", _SPEC),
    _layer("speculative.tokens_accepted", "count", "higher", _SPEC),
    _layer("speculative.acceptance_rate", "share", "higher", _SPEC),
    _layer("speculative.wasted_verify_share", "share", "lower", _SPEC),
    _layer("speculative.propose_us_p50", "us", "lower", _SPEC),
    _layer("speculative.rollbacks", "count", "lower", _SPEC),
    _layer("prefix.hits", "count", "higher", _PREFIX),
    _layer("prefix.misses", "count", "lower", _PREFIX),
    _layer("prefix.tokens_reused_share", "share", "higher", _PREFIX),
    _layer("prefix.match_us_p50", "us", "lower", _PREFIX),
    _layer("paged_cache.prepare_us_per_step_p50", "us", "lower", _PAGED),
    _layer("paged_cache.gather_ms_per_step_p50", "ms", "lower", _PAGED),
    _layer("paged_cache.gather_bytes_per_token", "B", "lower", _PAGED),
    _layer("paged_cache.commit_us_p50", "us", "lower", _PAGED),
    _layer("paged_cache.admit_ms_total", "ms", "lower", _PAGED),
    _layer("paged_cache.truncate_calls", "count", "lower", _PAGED),
    _layer("paged_cache.blocks_in_use_peak", "count", "lower", _PAGED),
    _layer("paged_cache.block_occupancy_mean", "share", "higher", _PAGED),
    _layer("model.forward_share", "share", "lower", _MODEL),
    _layer("model.forward_calls", "count", "lower", _MODEL),
    _layer("model.decode_forward_ms_p50", "ms", "lower", _MODEL),
    _layer("model.verify_forward_ms_p50", "ms", "lower", _MODEL),
    _layer("model.prefill_forward_ms_p50", "ms", "lower", _MODEL),
    _layer("model.lm_head_rows_per_sampled_row", "count", "lower", _MODEL),
    _layer("transformer.block_self_us_p50", "us", "lower", _MODEL),
    _layer("attention.step_self_us_p50", "us", "lower", _MODEL),
    _layer("layers.linear_ms_per_step", "ms", "lower", _MODEL),
    _layer("layers.layernorm_ms_per_step", "ms", "lower", _MODEL),
    _layer("generation.sample_token_us_p50", "us", "lower", _MODEL),
    _layer("runtimes.execute_batch_ms_p50", "ms", "lower", _RUNTIME),
    _layer("runtimes.groups_per_round_mean", "count", "lower", _RUNTIME),
    _layer("runtimes.batch_size_mean", "count", "higher", _RUNTIME),
    _layer("runtimes.flush_self_us_p50", "us", "lower", _RUNTIME),
    _layer("adapter.forward_ms_p50", "ms", "lower", _RUNTIME),
    _layer("telemetry.step_overhead_us_p50", "us", "lower", _TELEM),
    _layer("telemetry.records", "count", "lower", _TELEM),
    _layer("proc.user_cpu_s", "s", "lower", _PROC),
    _layer("proc.sys_cpu_s", "s", "lower", _PROC),
    _layer("proc.sys_cpu_share", "share", "lower", _PROC),
    _layer("proc.minor_faults_per_token", "count", "lower", _PROC),
    _layer("proc.gc_collections", "count", "lower", _PROC),
    _layer("driver.sent", "count", "higher", _DRIVER),
    _layer("driver.succeeded", "count", "higher", _DRIVER),
    _layer("driver.failed", "count", "lower", _DRIVER),
    _layer("driver.failed_share", "share", "lower", _DRIVER),
    _layer("driver.late_p99_ms", "ms", "lower", _DRIVER),
    _layer("driver.backlog_at_last_arrival", "count", "lower", _DRIVER),
    _layer("driver.ttft_p95_ms", "ms", "lower", _DRIVER),
    _layer("driver.itl_p99_ms", "ms", "lower", _DRIVER),
    _layer("driver.slo_attainment", "share", "higher", _DRIVER),
    _layer("driver.prompt_tokens_per_s", "tok/s", "higher", _DRIVER),
    _layer("driver.probe_ms_p50", "ms", "lower", _DRIVER),
    _layer("trace.overhead_ratio", "ratio", "lower", _DRIVER),
)

END_TO_END_NAMES: List[str] = [m.name for m in END_TO_END]
PER_LAYER_NAMES: List[str] = [m.name for m in PER_LAYER]
