#!/usr/bin/env python3
"""Builds the RDP simulator benchmark (Release) and runs one workload.

    python3 perfbench/run.py --workload metro|mega|robust --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Prints the host, each metric by name and
unit, any failed output check, and as its last line one JSON object with
the keys correct, attempted, failed and metrics (README.md).
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import summary  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("metro", "mega", "robust")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then (re)builds the benchmark binary; build logs go
    to stderr so stdout stays the benchmark's own report."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "rdpbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "rdpbench")


def host():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return os.cpu_count() or 0, model


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    # A fatal auditor would abort metro and robust on the known faults they
    # count as failed operations (README.md); the benchmark judges
    # violations itself.
    env = {k: v for k, v in os.environ.items() if k != "RDP_AUDIT_FATAL"}
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s ran past %d s" % (args.workload, RUN_TIMEOUT_S))
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        fail("rdpbench exited with code %d" % proc.returncode)
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    out, failures = summary.result(raw, bool(args.trace))

    cores, model = host()
    p = raw["params"]
    print("host: %d cores, %s" % (cores, model))
    kernel = ("%d shards on %d threads" % (p["shards"], p["threads"])
              if p["shards"] else "single kernel")
    print("workload %s: world seed %d (--seed %d is recorded, not used), "
          "%d Mh, %d cells, %s; %d setup samples, %d rounds"
          % (args.workload, p["seed"], raw["seed_arg"], p["num_mh"],
             p["cells"], kernel, len(raw["setup_s"]), len(raw["rounds"])))
    for name, metric in out["metrics"].items():
        print("  %-32s %18.6f %s" % (name, metric["value"], metric["unit"]))
    for failure in failures:
        print("CHECK FAILED: " + failure)
    rules = raw["rounds"][0]["violations_by_rule"]
    print("attempted %d requests; failed %d (auditor violations%s and "
          "unfinished requests)" % (out["attempted"], out["failed"],
                                    " " + json.dumps(rules) if rules else ""))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
