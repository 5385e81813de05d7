#!/usr/bin/env python3
"""The benchmark's own test.

1. Exact metrics repeat: on every simulator workload, two traced runs with
   the same seed report identical exact per-layer metrics, and the
   end-to-end commit_ratio repeats too.
2. Exact metrics follow the inputs: a different seed changes every exact
   metric that depends on the generated inputs (the analysis graph depends
   only on the protocol and n, so it must stay the same).
3. The emitted metrics are exactly BENCHMARK.json's: end_to_end with
   --trace 0, per_layer with --trace 1.
4. The failure check can fire: crash-churn's fault schedule run on
   2PC-central blocks, so the run must fail its output check.
5. threaded-batch emits the same metrics and fills the runtime layer's.

    python3 perfbench/selftest.py

Exits 0 when all of this holds, 1 otherwise.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    DECLARED = json.load(f)

# Exact metrics that are a function of the seed, per workload. A metric is
# listed where the workload exercises it; elsewhere it is 0 on every seed.
# Virtual-latency percentiles of fault-free runs are set by the largest
# network jitter each round sees, which saturates: commit-dec8's p50 and p99
# and kv-hot's p50 come out the same on every seed, so they are checked
# for repetition only.
INPUT_DEPENDENT = {
    "commit-dec8": ["sim.events_per_txn", "net.msgs_per_txn",
                    "mem.allocs_per_txn", "mem.alloc_bytes_per_txn",
                    "mem.live_bytes_per_txn", "commit_ratio"],
    "kv-hot": ["sim.events_per_txn", "net.msgs_per_txn",
               "protocols.vlatency_p99_us",
               "obs.events_per_txn", "obs.checks_per_txn",
               "db.lock_conflict_ratio", "db.wal_records_per_txn",
               "mem.allocs_per_txn", "mem.alloc_bytes_per_txn",
               "mem.live_bytes_per_txn", "commit_ratio"],
    "crash-churn": ["sim.events_per_txn", "net.msgs_per_txn",
                    "net.dropped_per_txn", "protocols.vlatency_p50_us",
                    "protocols.vlatency_p99_us", "recovery.wal_records",
                    "recovery.dtlog_records", "termination.txn_share",
                    "mem.allocs_per_txn", "mem.alloc_bytes_per_txn",
                    "mem.live_bytes_per_txn", "commit_ratio"],
}
SEED_INDEPENDENT = ["analysis.graph_nodes"]
# Every exact metric; all must repeat for a fixed seed.
EXACT = sorted({m for ms in INPUT_DEPENDENT.values() for m in ms} |
               set(SEED_INDEPENDENT) |
               {"protocols.vlatency_p50_us", "protocols.vlatency_p99_us",
                "sim.max_queue_depth", "net.bytes_per_txn",
                "termination.sessions_per_fault",
                "election.started_per_fault", "election.won_per_fault"})


def run(workload, seed, trace, protocol=None):
    command = RUN + ["--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", str(trace)]
    if protocol:
        command += ["--protocol", protocol]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines


def all_metrics(workload, seed, problems):
    values = {}
    for trace in (0, 1):
        code, lines = run(workload, seed, trace)
        if code != 0:
            raise SystemExit("%s seed %d trace %d failed:\n%s" % (
                workload, seed, trace, "\n".join(lines)))
        metrics = json.loads(lines[-1])["metrics"]
        declared = DECLARED["per_layer" if trace else "end_to_end"]
        want = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in metrics.items()}
        if got != want:
            problems.append("%s --trace %d: metrics %s differ from "
                            "BENCHMARK.json" % (workload, trace, sorted(
                                set(got.items()) ^ set(want.items()))))
        values.update({k: v["value"] for k, v in metrics.items()})
    return values


def main():
    problems = []
    for workload, dependent in INPUT_DEPENDENT.items():
        first = all_metrics(workload, 1, problems)
        again = all_metrics(workload, 1, problems)
        other = all_metrics(workload, 2, problems)
        for name in EXACT:
            if first[name] != again[name]:
                problems.append("%s: %s differs between two runs of seed 1 "
                                "(%r vs %r)" % (workload, name, first[name],
                                                again[name]))
        for name in dependent:
            if first[name] == other[name]:
                problems.append("%s: %s is %r on seeds 1 and 2" % (
                    workload, name, first[name]))
        for name in SEED_INDEPENDENT:
            if first[name] != other[name]:
                problems.append("%s: %s changed with the seed" % (
                    workload, name))
        print("%s: %d exact metrics repeat, %d follow the seed" % (
            workload, len(EXACT), len(dependent)), flush=True)

    threaded = all_metrics("threaded-batch", 1, problems)
    empty = [name for name in threaded
             if name.startswith("runtime.") and not threaded[name] > 0]
    if empty:
        problems.append("threaded-batch: %s not above 0" % ", ".join(empty))
    else:
        print("threaded-batch: runtime metrics filled", flush=True)

    code, lines = run("crash-churn", 1, 0, protocol="2PC-central")
    tripped = code != 0 and any(l.startswith("CHECK FAILED") and "blocked" in l
                                for l in lines)
    if not tripped:
        problems.append("2PC-central under crash-churn's faults did not "
                        "trip the failure check")
    else:
        print("control: 2PC-central trips the failure check", flush=True)

    for p in problems:
        print("FAIL: " + p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
