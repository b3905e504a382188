"""Turns the raw rounds printed by rdpbench into the benchmark's metrics and
checks the program's outputs (see README.md for the definitions)."""

import math
import statistics

# Workload-specific guarantees (README.md, "Output checks").
EXACTLY_ONCE = {"metro"}    # causal order + Ack priority, no loss, no crash
ALL_REGISTER = {"mega"}     # the registration storm must finish

# Protocol outcome of a round: what a behaviour-neutral change (tracing on,
# a faster kernel) must leave exactly as it was.
OUTCOME_KEYS = (
    "requests_issued", "requests_completed", "requests_lost",
    "results_delivered", "app_duplicates", "kernel_events", "wired_messages",
    "wired_bytes", "wireless_frames", "wireless_bytes", "p50_latency_ms",
    "p99_latency_ms", "mean_handoff_ms", "handoffs", "invariant_violations",
)

MS_PER_NS = 1e-6


def outcome(rnd):
    return {key: rnd[key] for key in OUTCOME_KEYS}


def timed_rounds(raw):
    """Rounds whose outputs are checked and counted as attempted."""
    rounds = list(raw["rounds"])
    if "traced" in raw:
        rounds.append(raw["traced"])
    return rounds


def incomplete(rnd):
    """Requests neither completed nor reported lost when the run ended."""
    return (rnd["requests_issued"] - rnd["requests_completed"]
            - rnd["requests_lost"])


def failed_ops(rnd):
    """Failed operations of a round: auditor violations plus requests that
    never completed."""
    return rnd["invariant_violations"] + incomplete(rnd)


def counts(raw):
    """(attempted, failed): requests issued, and failed operations."""
    rounds = timed_rounds(raw)
    return (sum(r["requests_issued"] for r in rounds),
            sum(failed_ops(r) for r in rounds))


def check_round(workload, params, rnd):
    """Failures of one round's outputs, as readable strings.

    Auditor violations and unfinished requests are not failures of the run:
    they are the failed operations of the known faults (README.md), counted
    by failed_ops(); the checks speak of the operations that did not fail."""
    failures = []
    issued = rnd["requests_issued"]
    if rnd["requests_lost"] != 0:
        failures.append("at-least-once: %d of %d requests lost"
                        % (rnd["requests_lost"], issued))
    expected = params["num_mh"] * params["sim_ms"] / params["request_interval_ms"]
    if abs(issued - expected) > 5 * math.sqrt(expected):
        failures.append("issued %d requests, Poisson expectation %.0f +- 5 sd"
                        % (issued, expected))
    floor_ms = params["uplink_ms"] + params["service_ms"] + params["downlink_ms"]
    if rnd["p50_latency_ms"] < floor_ms:
        failures.append("p50 latency %.3f ms below uplink+service+downlink "
                        "%.3f ms" % (rnd["p50_latency_ms"], floor_ms))
    if workload in EXACTLY_ONCE and (
            rnd["results_delivered"] != rnd["requests_completed"]
            or rnd["app_duplicates"] != 0):
        failures.append("exactly-once: completed %d, delivered %d, "
                        "duplicates %d" % (rnd["requests_completed"],
                                           rnd["results_delivered"],
                                           rnd["app_duplicates"]))
    if workload in ALL_REGISTER and (rnd["mss_joins"] < params["num_mh"]
                                     or rnd["registration_gave_up"] != 0):
        failures.append("registration: %d joins for %d hosts, %d gave up"
                        % (rnd["mss_joins"], params["num_mh"],
                           rnd["registration_gave_up"]))
    return failures


def check(raw):
    """Every failed output check of a run; empty when the run is correct."""
    workload, params = raw["workload"], raw["params"]
    failures = []
    rounds = timed_rounds(raw)
    for i, rnd in enumerate(rounds):
        failures += ["round %d: %s" % (i, f)
                     for f in check_round(workload, params, rnd)]
    first = outcome(rounds[0])
    for i, rnd in enumerate(rounds[1:], start=1):
        if outcome(rnd) != first:
            what = "traced" if rnd is raw.get("traced") else "round %d" % i
            diff = sorted(k for k in first if outcome(rnd)[k] != first[k])
            failures.append("%s outcome differs from round 0 in %s"
                            % (what, ", ".join(diff)))
    return failures


def setup_s(raw):
    return statistics.median(raw["setup_s"])


def run_s(raw, rnd):
    """Wall time of a round beyond the fixed cost of a zero-length run."""
    return rnd["wall_s"] - setup_s(raw)


def end_to_end(raw):
    """{name: (value, unit)} of the end-to-end metrics of an untraced run."""
    rounds = raw["rounds"]
    run = statistics.median(run_s(raw, r) for r in rounds)
    first = rounds[0]
    completed = first["requests_completed"]
    return {
        "setup_s": (setup_s(raw), "s"),
        "run_s": (run, "s"),
        "events_per_s": (first["kernel_events"] / run, "events/s"),
        "requests_per_s": (completed / run, "requests/s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "result_latency_p50_ms": (first["p50_latency_ms"], "sim_ms"),
        "result_latency_p99_ms": (first["p99_latency_ms"], "sim_ms"),
        "handoff_mean_ms": (first["mean_handoff_ms"], "sim_ms"),
        "air_bytes_per_request": (first["wireless_bytes"] / completed, "B"),
        "wired_bytes_per_request": (first["wired_bytes"] / completed, "B"),
    }


def _domain(profile, name, field="self_ns"):
    row = profile["domains"].get(name)
    return row[field] if row else 0


def per_layer(raw):
    """{name: (value, unit)} of the per-layer metrics of a traced run."""
    prof = raw["profile"]
    traced = raw["traced"]
    untraced = raw["rounds"][0]
    events = traced["kernel_events"]
    windows = prof["windows"]
    window_ns = prof["shard_busy_ns"] + prof["shard_stall_ns"]
    hooks_ns = sum(row["self_ns"] for name, row in prof["domains"].items()
                   if name.startswith("hook:"))

    def self_ms(name):
        return _domain(prof, name) * MS_PER_NS

    def allocs(name):
        return _domain(prof, name, "alloc_count")

    untraced_run = run_s(raw, untraced)
    traced_run = run_s(raw, traced)
    return {
        "sim.events": (events, "count"),
        "sim.kernel_self_ms": (self_ms("kernel"), "ms"),
        "sim.timer_slab_self_ms": (self_ms("timer_slab"), "ms"),
        "sim.windows": (windows, "count"),
        "sim.events_per_window": (events / windows if windows else 0, "events"),
        "sim.barrier_wait_ms": (self_ms("barrier_wait"), "ms"),
        "sim.outbox_drain_ms": (self_ms("outbox_drain"), "ms"),
        "sim.shard_busy_frac": (prof["shard_busy_ns"] / window_ns
                                if window_ns else 0, "ratio"),
        "net.wireless_self_ms": (self_ms("net.wireless"), "ms"),
        "net.wireless_frames": (traced["wireless_frames"], "count"),
        "net.wired_self_ms": (self_ms("net.wired"), "ms"),
        "net.wired_messages": (traced["wired_messages"], "count"),
        "causal.self_ms": (self_ms("causal"), "ms"),
        "causal.allocs": (allocs("causal"), "count"),
        "causal.delayed": (traced["causal_delayed"], "count"),
        "arq.self_ms": (self_ms("arq"), "ms"),
        "arq.retransmissions": (traced["arq_retransmits"], "count"),
        "core.handoffs": (traced["handoffs"], "count"),
        "core.proxies_created": (traced["proxies_created"], "count"),
        "core.result_forwards": (traced["result_forwards"], "count"),
        "codec.encode_ms": (self_ms("codec.encode"), "ms"),
        "codec.decode_ms": (self_ms("codec.decode"), "ms"),
        "replication.self_ms": (self_ms("replication"), "ms"),
        "membership.self_ms": (self_ms("membership"), "ms"),
        "replication.promotions": (traced["repl_promotions"], "count"),
        "replication.reissues": (traced["mh_reissues"], "count"),
        "obs.ledger_self_ms": (self_ms("ledger"), "ms"),
        "obs.ledger_allocs": (allocs("ledger"), "count"),
        "obs.hook_fanout_self_ms": (self_ms("hook_fanout"), "ms"),
        "obs.hooks_self_ms": (hooks_ns * MS_PER_NS, "ms"),
        "obs.hook_mh_registered_allocs": (allocs("hook:mh_registered"),
                                          "count"),
        "obs.allocs_per_event": (prof["total_alloc_count"] / events
                                 if events else 0, "allocs/event"),
        "obs.alloc_mb": (prof["total_alloc_bytes"] / 1e6, "MB"),
        "harness.build_s": (raw["build_s"], "s"),
        "harness.start_collect_s": (setup_s(raw) - raw["build_s"]
                              - raw["teardown_s"], "s"),
        "harness.teardown_s": (raw["teardown_s"], "s"),
        "trace.run_s": (traced_run, "s"),
        "trace.overhead_frac": (traced_run / untraced_run - 1
                                if untraced_run > 0 else 0, "ratio"),
    }


def result(raw, trace):
    """The benchmark's last output line, as a dict."""
    failures = check(raw)
    attempted, failed = counts(raw)
    metrics = per_layer(raw) if trace else end_to_end(raw)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, failures
