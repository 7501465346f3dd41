"""Metric arithmetic for the benchmark: raw harness output -> named metrics.

Everything here is a pure function of the raw JSON document that
perfbench_harness writes, so tests/test_metrics.py can check it without a
build. Names and units must match BENCHMARK.json.
"""

import math
import statistics

# Latency percentiles: the highest of these with at least ten samples
# beyond it (so p99 needs 1000 samples, p90 needs 100).
TAIL_LEVELS = (0.999, 0.99, 0.9, 0.5)
MIN_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("calls_per_s", "1/s"),
    ("items_per_s", "1/s"),
)

HEURISTIC_KINDS = ("h1", "h3", "euclid", "euclid_norm", "cosine", "levenshtein")

PER_LAYER = (
    ("search.self_ns_per_state", "ns"),
    ("search.states_examined", "count"),
    ("core.expand.ns_per_call", "ns"),
    ("core.expand.share", "ratio"),
    ("core.expand.successors_per_call", "count"),
    ("core.expand.cache_hit_ratio", "ratio"),
    ("core.candidates.ns_per_state", "ns"),
    ("core.expand.glue_ns_per_state", "ns"),
    ("core.expand.yield", "ratio"),
    ("core.discover.overhead_us", "us"),
    ("core.verify.us", "us"),
    ("core.checkpoint.write_us", "us"),
    ("core.checkpoint.writes_per_job", "count"),
    ("heuristics.estimate.ns_per_call", "ns"),
    ("heuristics.share", "ratio"),
    ("heuristics.cache_hit_ratio", "ratio"),
) + tuple(("heuristics.%s.ns_per_eval" % k, "ns") for k in HEURISTIC_KINDS) + (
    ("relational.fingerprint.ns_per_state", "ns"),
    ("relational.contains.ns_per_call", "ns"),
    ("relational.state_key.ns_per_call", "ns"),
    ("relational.build.ns_per_tuple", "ns"),
    ("fira.apply_op.ns_per_op", "ns"),
    ("fira.apply_op.fail_ratio", "ratio"),
    ("fira.compile.us", "us"),
    ("fira.compiled.ns_per_tuple", "ns"),
    ("fira.interp.ns_per_tuple", "ns"),
    ("fira.fused_op_ratio", "ratio"),
    ("serve.job_ms.p50", "ms"),
    ("serve.job_ms.p99", "ms"),
    ("serve.jobs_per_s", "1/s"),
    ("serve.submit_rtt_ms.p50", "ms"),
    ("serve.submit_rtt_ms.p99", "ms"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p99", "ms"),
    ("serve.run_ms.p50", "ms"),
    ("serve.run_ms.p99", "ms"),
    ("serve.result_lag_ms.p50", "ms"),
    ("serve.requests_per_job", "count"),
    ("serve.queue_depth.max", "count"),
    ("serve.shed_ratio", "ratio"),
    ("serve.rate_at_slo", "1/s"),
    ("serve.generator_lag_ms.p99", "ms"),
    ("bench.trace_overhead_ratio", "ratio"),
)

# Stand-in for an unbounded latency (a shed or unfinished job) in JSON,
# which has no infinity.
UNBOUNDED_MS = 1e9


def percentile(values, p):
    """Nearest-rank percentile: the ceil(p * n)-th smallest value."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered)))
    return ordered[rank - 1]


def tail_level(n):
    """The highest TAIL_LEVELS entry with >= MIN_BEYOND samples beyond it."""
    for p in TAIL_LEVELS:
        if n - max(1, math.ceil(p * n)) >= MIN_BEYOND:
            return p
    return None


def tail(values):
    """The reportable tail percentile of `values`: at tail_level, or the
    maximum when there are too few samples for any level."""
    level = tail_level(len(values))
    return max(values) if level is None else percentile(values, level)


def backlog_grows(outstanding):
    """True when the jobs in flight at each send time climb across a step:
    the mean over the last third exceeds the mean over the middle third by
    more than max(1, 25 %). The first third is skipped as ramp-up."""
    n = len(outstanding)
    if n < 3:
        return False
    middle = outstanding[n // 3: 2 * n // 3]
    last = outstanding[2 * n // 3:]
    m, l = statistics.mean(middle), statistics.mean(last)
    return l > m + max(1.0, 0.25 * m)


def job_latency(job):
    """Due-time latency of one serve job; unbounded if shed or unfinished."""
    if job["accepted"] and job["done_ms"] >= 0 and not job_failure(job, False):
        return job["done_ms"] - job["due_ms"]
    return math.inf


def job_failure(job, nominal):
    """Why a serve job counts as failed, or "" when it does not. A shed
    job fails only at the nominal rate; a budget or deadline stop never
    fails; an accepted job must finish and its script must verify."""
    if job["error"]:
        return job["error"]
    if not job["accepted"]:
        return "shed at the nominal rate" if nominal else ""
    if job["done_ms"] < 0:
        return "accepted but never finished"
    return job["check"]


def rate_at_slo(steps, jobs, slo_ms):
    """The highest measured step rate whose tail latency meets slo_ms and
    whose backlog does not grow; 0 when no step qualifies."""
    best = 0.0
    for i, step in enumerate(steps):
        js = [j for j in jobs if j["step"] == i]
        if not js or step.get("warmup"):
            continue
        lat = tail([job_latency(j) for j in js])
        grows = backlog_grows([j["outstanding"] for j in js])
        if lat <= slo_ms and not grows:
            best = max(best, step["rate"])
    return best


def fail_frac(attempted, failed):
    return failed / attempted if attempted else 1.0


def _finite(x):
    return UNBOUNDED_MS if math.isinf(x) else x


def ratio(a, b):
    return a / b if b else 0.0


def serve_failures(serve):
    """[(what, cause, wrong_output)] for every failed serve job; only a
    returned mapping that does not verify is a wrong output."""
    nominal = next(i for i, s in enumerate(serve["steps"]) if s["nominal"])
    out = []
    for j in serve["jobs"]:
        cause = job_failure(j, j["step"] == nominal)
        if cause:
            out.append((j["kind"], cause, bool(j["check"])))
    return out


def _overload_window(serve):
    """The last (overload) step after its first 40 %, in ms since start:
    by then the queue is full and the workers never idle."""
    last = serve["steps"][-1]
    return (last["start_ms"] + 0.4 * (last["end_ms"] - last["start_ms"]),
            last["end_ms"])


def end_to_end(raw):
    """The END_TO_END metric values of one untraced run."""
    workload = raw["workload"]
    m = {
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_kib"] / 1024.0,
    }
    if workload in ("synth_wide", "deepweb_batch"):
        walls = [statistics.median(p["walls_ms"]) for p in raw["problems"]]
        total_s = sum(walls) / 1e3
        m["p50_ms"] = statistics.median(walls)
        m["tail_ms"] = tail(walls)
        m["calls_per_s"] = len(walls) / total_s
        m["items_per_s"] = sum(p["states"] for p in raw["problems"]) / total_s
    elif workload == "apply_bulk":
        ms = [c["ms"] for c in raw["calls"]]
        total_s = sum(ms) / 1e3
        m["p50_ms"] = statistics.median(ms)
        m["tail_ms"] = tail(ms)
        m["calls_per_s"] = len(ms) / total_s
        m["items_per_s"] = sum(c["tuples"] for c in raw["calls"]) / total_s
    else:
        raise ValueError("unknown workload " + workload)
    return m


def search_split(s):
    """The untraced Discover wall (ns, summed over the traced problems)
    split into exclusive parts. The traced search wall is search self time
    plus the adapter's children; core.discover.overhead is the rest of the
    Discover wall, so the parts sum to it by construction."""
    children = s["expand_ns"] + s["estimate_ns"] + s["goal_ns"]
    return {
        "search.self": s["search_ns"] - children,
        "core.expand": s["expand_ns"],
        "heuristics.estimate": s["estimate_ns"],
        "relational.contains": s["goal_ns"],
        "core.verify": s["verify_ns"],
        "core.discover.overhead":
            s["ref_discover_ns"] - s["search_ns"] - s["verify_ns"],
    }


def per_layer(raw, slo_ms):
    """The PER_LAYER metric values of one traced run; a layer the workload
    does not reach reads 0."""
    m = {name: 0.0 for name, _ in PER_LAYER}
    workload = raw["workload"]
    if workload in ("synth_wide", "deepweb_batch"):
        s = raw["layers"]
        split = search_split(s)
        m["search.self_ns_per_state"] = ratio(split["search.self"], s["states"])
        m["search.states_examined"] = float(s["states"])
        m["core.expand.ns_per_call"] = ratio(s["expand_ns"], s["expand_calls"])
        m["core.expand.share"] = ratio(s["expand_ns"], s["search_ns"])
        m["core.expand.successors_per_call"] = ratio(s["successors"], s["expand_calls"])
        m["core.expand.cache_hit_ratio"] = ratio(
            s["expand_hits"], s["expand_hits"] + s["expand_misses"])
        m["core.candidates.ns_per_state"] = ratio(s["candidates_ns"], s["sampled"])
        m["core.expand.glue_ns_per_state"] = ratio(
            s["expand_uncached_ns"] - s["candidates_ns"] - s["apply_ns"]
            - s["fingerprint_ns"], s["sampled"])
        m["core.expand.yield"] = ratio(s["kept"], s["apply_ops"])
        m["core.discover.overhead_us"] = ratio(
            split["core.discover.overhead"], s["problems"]) / 1e3
        m["core.verify.us"] = ratio(s["verify_ns"], s["verifies"]) / 1e3
        m["heuristics.estimate.ns_per_call"] = ratio(s["estimate_ns"], s["estimates"])
        m["heuristics.share"] = ratio(s["estimate_ns"], s["search_ns"])
        m["heuristics.cache_hit_ratio"] = ratio(
            s["estimate_hits"], s["estimate_hits"] + s["estimate_evals"])
        for kind, v in s["heuristic"].items():
            m["heuristics.%s.ns_per_eval" % kind] = ratio(v["ns"], v["evals"])
        m["relational.fingerprint.ns_per_state"] = ratio(
            s["fingerprint_ns"], s["fingerprints"])
        m["relational.contains.ns_per_call"] = ratio(s["goal_ns"], s["goal_calls"])
        m["relational.state_key.ns_per_call"] = ratio(s["key_ns"], s["keys"])
        m["fira.apply_op.ns_per_op"] = ratio(s["apply_ns"], s["apply_ops"])
        m["fira.apply_op.fail_ratio"] = ratio(s["apply_fails"], s["apply_ops"])
        m["bench.trace_overhead_ratio"] = ratio(s["discover_ns"], s["ref_discover_ns"])
        if "serve" in raw:
            serve_layer(raw["serve"], slo_ms, m)
    elif workload == "apply_bulk":
        s = raw["layers"]
        calls = raw["calls"]
        m["relational.build.ns_per_tuple"] = ratio(s["build_ns"], s["built_tuples"])
        m["fira.compile.us"] = ratio(s["compile_ns"], s["compiles"]) / 1e3
        m["fira.compiled.ns_per_tuple"] = ratio(
            sum(c["ms"] for c in calls) * 1e6, sum(c["tuples"] for c in calls))
        m["fira.interp.ns_per_tuple"] = ratio(s["interp_ns"], s["interp_tuples"])
        m["fira.fused_op_ratio"] = ratio(s["fused_ops"], s["ops"])
        m["bench.trace_overhead_ratio"] = ratio(
            ratio(s["traced_ns"], s["traced_calls"]),
            ratio(s["untraced_ns"], s["untraced_calls"]))
    else:
        raise ValueError("unknown workload " + workload)
    return m


def serve_layer(serve, slo_ms, m):
    """Fills the serve.* and core.checkpoint.* metrics from the open-loop
    run that deepweb_batch's traced run makes."""
    jobs = serve["jobs"]
    steps = serve["steps"]
    nominal = next(i for i, st in enumerate(steps) if st["nominal"])
    lat = [job_latency(j) for j in jobs if j["step"] == nominal]
    m["serve.job_ms.p50"] = _finite(statistics.median(lat))
    m["serve.job_ms.p99"] = _finite(percentile(lat, 0.99))
    lo, hi = _overload_window(serve)
    done = [j for j in jobs if j["accepted"] and lo <= j["done_ms"] < hi]
    m["serve.jobs_per_s"] = len(done) / ((hi - lo) / 1e3)
    nom = [j for j in jobs if j["step"] == nominal and j["accepted"]
           and j["done_ms"] >= 0]
    rtt = [j["ack_ms"] - j["sent_ms"] for j in jobs if j["ack_ms"] >= 0]
    lag = [j["sent_ms"] - j["due_ms"] for j in jobs]
    m["serve.submit_rtt_ms.p50"] = statistics.median(rtt)
    m["serve.submit_rtt_ms.p99"] = percentile(rtt, 0.99)
    if nom:
        q = [j["queue_ms"] for j in nom]
        r = [j["run_ms"] for j in nom]
        m["serve.queue_wait_ms.p50"] = statistics.median(q)
        m["serve.queue_wait_ms.p99"] = percentile(q, 0.99)
        m["serve.run_ms.p50"] = statistics.median(r)
        m["serve.run_ms.p99"] = percentile(r, 0.99)
        m["serve.result_lag_ms.p50"] = statistics.median(
            j["done_ms"] - j["sent_ms"] - j["queue_ms"] - j["run_ms"]
            for j in nom)
    m["serve.requests_per_job"] = ratio(
        sum(j["requests"] for j in jobs), len(jobs))
    m["serve.queue_depth.max"] = float(max(j["queue_depth"] for j in jobs))
    m["serve.shed_ratio"] = ratio(
        sum(1 for j in jobs if not j["accepted"]), len(jobs))
    m["serve.rate_at_slo"] = rate_at_slo(steps, jobs, slo_ms)
    m["serve.generator_lag_ms.p99"] = percentile(lag, 0.99)
    counters = serve["server_metrics"].get("metrics", {}).get("counters", {})
    completed = counters.get("serve.jobs.completed", 0)
    journal_writes = (counters.get("checkpoint.writes", 0)
                      + counters.get("serve.jobs.accepted", 0) + completed)
    m["core.checkpoint.writes_per_job"] = ratio(journal_writes, completed)
    jr = serve["journal"]
    m["core.checkpoint.write_us"] = ratio(jr["write_ns"], jr["writes"]) / 1e3
