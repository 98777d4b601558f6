#!/usr/bin/env python3
"""Service benchmark for ref_serve: one run of one workload.

    python3 perfbench/run.py --workload flat_epoch --seed 1 \
        --seconds 20 --trace 0

Run from the repository root. The first run builds ref_serve and the
benchmark client (perfbench/cpp, Release) into .bench_build/perfbench.

--trace 0 starts a fresh ref_serve in socket mode (one shard, text
protocol) several times to time set-up, keeps the last one, drives
--seconds of seeded closed-loop traffic through the client, checks the
replies and the final state, and prints the end-to-end metrics.
--trace 1 makes one such run and then replays the same commands
in-process with spans around each layer's public calls, printing the
per-layer metrics instead. Metric names and units come from
BENCHMARK.json. The last stdout line is the JSON result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, ".bench_build", "perfbench")
WORK_ROOT = os.path.join(REPO, ".bench_build", "work")
REF_SERVE = os.path.join(BUILD, "ref", "tools", "ref_serve")
REFBENCH = os.path.join(BUILD, "refbench")

# Set-up is timed this many times per untraced run; the median is
# reported, so one slow server start does not move setup_s.
SETUP_REPEATS = 5
# Every run must end within this many seconds (the first one builds).
RUN_BUDGET_S = 170
BUILD_BUDGET_S = 700


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(REPO, "src", "svc",
                                       "allocation_service.hh")):
        raise BenchError("no ref sources next to perfbench/; run from "
                         "the root of a repository checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr,
                       timeout=BUILD_BUDGET_S)
    subprocess.run(["cmake", "--build", BUILD, "--target", "ref_serve",
                    "refbench", "-j", str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=sys.stderr, timeout=BUILD_BUDGET_S)


class Server:
    """One ref_serve process listening on an ephemeral TCP port."""

    def __init__(self, args, journal):
        command = [REF_SERVE, "--listen", "127.0.0.1:0"] + args
        if journal:
            os.makedirs(journal, exist_ok=True)
            command += ["--journal", journal]
        self.started_ns = time.monotonic_ns()
        self.proc = subprocess.Popen(command, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, text=True)
        self.port = None
        for line in self.proc.stderr:
            if line.startswith("LISTENING "):
                for field in line.split():
                    if field.startswith("addr="):
                        self.port = int(field.rsplit(":", 1)[1])
                break
        if self.port is None:
            self.stop()
            raise BenchError("ref_serve did not announce its port")

    def wait(self, timeout):
        """Wait for a SHUTDOWN to take effect."""
        try:
            self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.stop()
            raise BenchError("ref_serve did not exit after SHUTDOWN")
        if self.proc.returncode != 0:
            raise BenchError("ref_serve exited with %d" %
                             self.proc.returncode)

    def stop(self):
        if self.proc.returncode is not None:
            return
        self.proc.kill()
        self.proc.communicate()


class Run:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.work = os.path.join(WORK_ROOT, "%s-%d" % (args.workload,
                                                        os.getpid()))
        os.makedirs(self.work, exist_ok=True)
        self.servers = []
        self.units = {}
        self.server_args = self.server_flags(False)
        self.durable_args = self.server_flags(True)

    def remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its %d s budget" % RUN_BUDGET_S)
        return left

    def refbench(self, argv, check=True):
        proc = subprocess.run([REFBENCH] + argv, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=self.remaining())
        if check and proc.returncode != 0 and not proc.stdout.strip():
            raise BenchError("refbench %s exited with %d" %
                             (argv[0], proc.returncode))
        return proc.stdout

    def server_flags(self, durable):
        return self.refbench(["server-args", "--workload",
                              self.args.workload, "--durable",
                              "1" if durable else "0"]).split()

    def start_server(self, args, journal=None):
        server = Server(args, journal)
        self.servers.append(server)
        return server

    def drive(self, setup_only, rtt_out=None):
        """Start a server, set it up, and (unless setup_only) run the
        timed window and the checks. Returns (setup_s, result)."""
        server = self.start_server(self.server_args)
        argv = ["drive", "--workload", self.args.workload,
                "--seed", str(self.args.seed),
                "--seconds", str(self.args.seconds),
                "--port", str(server.port),
                "--server-pid", str(server.proc.pid),
                "--setup-only", "1" if setup_only else "0"]
        if rtt_out:
            argv += ["--rtt-out", rtt_out]
        out = self.refbench(argv, check=False).splitlines()
        done = [l for l in out if l.startswith("setup_done_ns=")]
        if not done or not out or not out[-1].startswith("{"):
            server.stop()
            raise BenchError("refbench drive failed")
        setup_s = (int(done[0].split("=")[1]) - server.started_ns) / 1e9
        server.wait(self.remaining())
        return setup_s, json.loads(out[-1])

    def durability_check(self, sent):
        """Replay the run into a journaled server, restart it on the
        journal, and require the same state_hash. Returns (failures,
        the journaled server's STATS)."""
        journal = os.path.join(self.work, "durable", "journal")
        server = self.start_server(self.durable_args, journal)
        out = self.refbench(["replay", "--workload", self.args.workload,
                             "--seed", str(self.args.seed),
                             "--sent", ",".join(map(str, sent)),
                             "--port", str(server.port)],
                            check=False).splitlines()
        if not out or not out[-1].startswith("{"):
            server.stop()
            raise BenchError("refbench replay failed")
        replay = json.loads(out[-1])
        server.wait(self.remaining())
        if not replay["correct"]:
            return replay["failures"], replay["stats"]
        before = replay["stats"]["state_hash"]
        server = self.start_server(self.durable_args, journal)
        after = self.refbench(["stats", "--port", str(server.port)])
        server.wait(self.remaining())
        after = after.strip().split("=")[-1]
        if after != before:
            return (["state_hash %s before restart, %s after" %
                     (before, after)], replay["stats"])
        log("durability: %d commands journaled, state_hash %s survived "
            "a restart" % (replay["commands"], after))
        return [], replay["stats"]

    def execute(self):
        trace = self.args.trace == 1
        repeats = 1 if trace else SETUP_REPEATS
        setups = []
        for _ in range(repeats - 1):
            setup_s, result = self.drive(True)
            if not result["correct"]:
                return self.failure(result, "set-up failed")
            setups.append(setup_s)
        rtt = os.path.join(self.work, "rtt.tsv")
        setup_s, result = self.drive(False, rtt if trace else None)
        setups.append(setup_s)
        failures = list(result.get("failures", []))
        durable_stats = None
        if self.durable_args != self.server_args and result["correct"]:
            more, durable_stats = self.durability_check(result["sent"])
            failures += more
        if failures or not result["correct"]:
            return self.failure(result, "; ".join(failures))

        measured = {name: m["value"] for name, m in
                    result["metrics"].items()}
        samples = {name: m["samples"] for name, m in
                   result["metrics"].items()}
        measured["setup_s"] = statistics.median(setups)
        samples["setup_s"] = len(setups)
        if trace:
            failure, measured, samples = self.traced(result, rtt,
                                                     durable_stats)
            if failure:
                return self.failure(result, "traced replay: " + failure)
        return self.report(result, measured, samples)

    def traced(self, result, rtt, durable_stats):
        spans = os.path.join(WORK_ROOT, "spans-%s-seed%d.tsv" %
                             (self.args.workload, self.args.seed))
        out = self.refbench(["trace", "--workload", self.args.workload,
                             "--seed", str(self.args.seed),
                             "--sent", ",".join(map(str, result["sent"])),
                             "--rtt", rtt,
                             "--work", os.path.join(self.work, "trace"),
                             "--spans-out", spans],
                            check=False).splitlines()
        if not out or not out[-1].startswith("{"):
            raise BenchError("refbench trace failed")
        trace = json.loads(out[-1])
        measured = {n: m["value"] for n, m in trace["metrics"].items()}
        samples = {n: m["samples"] for n, m in trace["metrics"].items()}
        self.units = {n: m["unit"] for n, m in trace["metrics"].items()}
        self.units.update({"net.bytes_per_op": "bytes",
                           "obs.epoch_driver_ms_mean": "ms",
                           "svc.journal.fsyncs_per_record": "count",
                           "svc.journal.snapshots": "count"})
        stats = result["stats"]
        measured["net.bytes_per_op"] = result["bytes_per_op"]
        measured["obs.epoch_driver_ms_mean"] = (
            int(stats["epoch_latency_ns_mean"]) / 1e6)
        samples["net.bytes_per_op"] = result["attempted"]
        samples["obs.epoch_driver_ms_mean"] = int(stats["epochs"])
        if durable_stats:
            records = int(durable_stats["journal_records"])
            measured["svc.journal.fsyncs_per_record"] = (
                int(durable_stats["journal_fsyncs"]) / records)
            measured["svc.journal.snapshots"] = int(
                durable_stats["journal_snapshots"])
            samples["svc.journal.fsyncs_per_record"] = records
            samples["svc.journal.snapshots"] = 1
        log("traced replay: %d commands, %d spans kept in memory, "
            "written to %s; tracing overhead %.1f%% of the untraced "
            "in-process replay" % (trace["commands"], trace["spans"],
                                   os.path.relpath(spans, REPO),
                                   measured["trace.overhead_pct"]))
        return trace["failure"], measured, samples

    def failure(self, result, why):
        log("run failed its output checks: " + why)
        print(json.dumps({"correct": False,
                          "attempted": max(1, result.get("attempted", 1)),
                          "failed": result.get("failed", 0),
                          "metrics": {}}))
        return 1

    def report(self, result, measured, samples):
        with open(os.path.join(REPO, "BENCHMARK.json")) as f:
            spec = json.load(f)
        wanted = spec["per_layer" if self.args.trace else "end_to_end"]
        metrics = {}
        print("%-34s %14s  %-6s %s" % ("metric", "value", "unit",
                                       "samples"))
        for metric in wanted:
            name = metric["name"]
            if name not in measured:
                continue
            metrics[name] = {"value": measured[name],
                             "unit": metric["unit"]}
            print("%-34s %14.6g  %-6s %d" % (name, measured[name],
                                             metric["unit"], samples[name]))
        # Printed, not in the result line. Untraced: error_frac is the
        # JSON's failed/attempted, and the p99s spread too widely
        # between runs on a shared host for any allowed bound. Traced:
        # layers that only this workload reaches, since every result
        # line must hold the same metrics on every workload.
        note = ("this workload's layers only" if self.args.trace else
                "reference only")
        for name in sorted(set(measured) - {m["name"] for m in wanted}):
            unit = (self.units.get(name, "ms") if self.args.trace else
                    "frac" if name == "error_frac" else "ms")
            print("%-34s %14.6g  %-6s %d  (%s)" % (
                name, measured[name], unit, samples[name], note))
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            raise BenchError("no samples for " + ", ".join(missing))
        print(json.dumps({"correct": True,
                          "attempted": result["attempted"],
                          "failed": result["failed"],
                          "metrics": metrics}))
        return 0

    def cleanup(self):
        for server in self.servers:
            server.stop()
        shutil.rmtree(self.work, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build()
        run = Run(args)
    except (BenchError, subprocess.SubprocessError, OSError) as error:
        log("perfbench: %s" % error)
        return 2
    try:
        return run.execute()
    except (BenchError, subprocess.SubprocessError, OSError,
            KeyError, ValueError) as error:
        log("perfbench: %s" % error)
        return 1
    finally:
        run.cleanup()


if __name__ == "__main__":
    sys.exit(main())
