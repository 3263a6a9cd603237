#!/usr/bin/env python3
"""Distributed sweep contract, end to end through bench/sweep_server.

Usage: sweep_contract.py <bench_bin_dir> <work_dir>

Runs one 4-workload fig10 slice four ways, each into its own bench
cache under <work_dir>, and reruns the serial one into its warm cache:

  serial  plain in-process run;
  serve   --serve 3, straggler threshold cranked down so the anomaly
          screen must fire;
  kill    --serve 3 with worker1 SIGKILLed, by the pid in its journal's
          epoch record, as soon as its journal shows a claim record;
  join    --serve 2 with a --join worker attached as soon as the
          coordinator's journal shows its first spawn mark.

Journal triggers, not sleeps: a small sweep finishes in well under a
second, so a timed kill or join fires after the sweep has ended and
tests nothing.

Asserts that stdout and the DICE_SWEEP_MERGED document are
byte-identical across all four runs and a warm rerun of the serial
one; that the cold serial run generates each of the 4 streams once
and the warm rerun, served by the result cache, none; that every
stream is generated at least once, and at most once per participant,
across the serve run's processes; that the serve run's results
directory holds only cell documents, leases/, events/*.jsonl,
timeline.json and sweep_summary.json, with one epoch record in each
journal, and that its workers published cells; that the kill run
requeued work and its summary counts exactly the timeline's requeue
instants; that the joiner published cells; and the summary, timeline
and tool checks of the serve run (exact cross-participant histogram
merge, one lane per participant, spans nested on every thread lane,
a deterministic standalone re-merge, sweep_top).

partial_overlaps() is importable: CI's telemetry smoke uses it too.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = "mcf,lbm,mix1,bc_twi"
TIMEOUT_S = 300


def fail(msg):
    print("FAIL: " + msg, file=sys.stderr)
    sys.exit(1)


def check(cond, msg):
    if not cond:
        fail(msg)


def read_records(path):
    """Complete journal records of @p path so far (a line still being
    written, or torn by a kill, is skipped)."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().split("\n")[:-1]
    except FileNotFoundError:
        return []
    records = []
    for line in lines:
        try:
            records.append(json.loads(line))
        except ValueError:
            pass
    return records


def wait_for_record(path, ev, proc, name=None):
    """First @p ev record (a mark named @p name) in journal @p path,
    with the journal's epoch pid, once it appears."""
    deadline = time.monotonic() + TIMEOUT_S
    while time.monotonic() < deadline:
        records = read_records(path)
        pids = [r["pid"] for r in records if r.get("ev") == "epoch"]
        for r in records:
            if r.get("ev") == ev and (name is None or r.get("name") == name):
                return pids[-1], r
        check(proc.poll() is None,
              "sweep ended before %s showed a %s record" % (path, ev))
        time.sleep(0.002)
    fail("timed out waiting for a %s record in %s" % (ev, path))


class Sweeps:
    def __init__(self, bench, work):
        self.bench = bench
        self.work = work
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("DICE_")}
        self.env.update(DICE_BENCH_REFS="2000", DICE_LOG_LEVEL="quiet")

    def results(self, name):
        return os.path.join(self.work, "cache_" + name, "results")

    def start(self, name, flags, **env):
        """Start run @p name; stdout/stderr go to <name>.out/.err."""
        run_env = dict(self.env)
        run_env.update(
            DICE_BENCH_CACHE_DIR=os.path.join(self.work, "cache_" + name),
            DICE_SWEEP_MERGED=os.path.join(self.work, name + ".merged"))
        run_env.update(env)
        cmd = [os.path.join(self.bench, "sweep_server")] + flags + [
            "--sweep", "fig10", "--workloads", WORKLOADS]
        with open(os.path.join(self.work, name + ".out"), "wb") as out, \
                open(os.path.join(self.work, name + ".err"), "wb") as err:
            return subprocess.Popen(cmd, env=run_env, stdout=out,
                                    stderr=err)

    def finish(self, name, proc):
        check(proc.wait(timeout=TIMEOUT_S) == 0,
              "%s run exited %s" % (name, proc.returncode))

    def run(self, name, flags, **env):
        self.finish(name, self.start(name, flags, **env))

    def read(self, name, suffix):
        with open(os.path.join(self.work, name + suffix), "rb") as f:
            return f.read()

    def summary(self, name):
        with open(os.path.join(self.results(name),
                               "sweep_summary.json")) as f:
            return json.load(f)

    def timeline(self, name):
        with open(os.path.join(self.results(name), "timeline.json")) as f:
            return json.load(f)

    def tool(self, *args):
        return subprocess.run([os.path.join(self.bench, args[0])] +
                              list(args[1:]), env=self.env, check=True,
                              stdout=subprocess.PIPE,
                              timeout=TIMEOUT_S).stdout


def partial_overlaps(events):
    """Spans ("X" events) that partially overlap the open span of their
    (pid, tid) lane. On a well-formed lane every span either nests
    inside the open span or starts after it ends; Perfetto cannot
    draw anything else as a stack."""
    lanes = {}
    for e in events:
        if e["ph"] == "X":
            lanes.setdefault((e["pid"], e["tid"]), []).append(e)
    bad = []
    for spans in lanes.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for e in spans:
            while stack and e["ts"] >= stack[-1]["ts"] + stack[-1]["dur"]:
                stack.pop()
            if stack and (e["ts"] + e["dur"] >
                          stack[-1]["ts"] + stack[-1]["dur"]):
                bad.append(e)
            stack.append(e)
    return bad


def check_serve(s):
    """The serve run: results layout, summary, timeline, and tools."""
    results = s.results("serve")
    entries = set(os.listdir(results))
    docs = {e for e in entries if e.endswith(".cell.json")}
    check(len(docs) == 20, "expected 20 cell documents, got %d" % len(docs))
    check(entries - docs == {"leases", "events", "timeline.json",
                             "sweep_summary.json"},
          "unexpected results entries: %s" % sorted(entries - docs))
    check(os.listdir(os.path.join(results, "leases")) == [],
          "leases left behind")
    journals = os.listdir(os.path.join(results, "events"))
    check(sorted(journals) == ["coordinator.jsonl", "worker0.jsonl",
                               "worker1.jsonl", "worker2.jsonl"],
          "unexpected journals: %s" % journals)
    # Each journal is one process's: the coordinator's, or a worker
    # that drained the one batch and exited.
    for j in journals:
        records = read_records(os.path.join(results, "events", j))
        epochs = sum(1 for r in records if r.get("ev") == "epoch")
        check(epochs == 1, "%s holds %d epoch records" % (j, epochs))

    # The coordinator escalates anomaly warnings to stderr.
    check(b"straggler" in s.read("serve", ".err"),
          "no straggler warning on stderr")

    t = s.timeline("serve")
    check(t["displayTimeUnit"] == "ms", "timeline time unit")
    evs = t["traceEvents"]
    lanes = {e["pid"]: e["args"]["name"] for e in evs
             if e["name"] == "process_name"}
    check(len(lanes) == 4, "lanes: %s" % lanes)  # coordinator + 3 workers
    for e in evs:
        check(e["ph"] in ("M", "X", "i"), "event phase: %s" % e)
        if e["ph"] != "M":
            check(e["ts"] >= 0 and e["pid"] in lanes, "event: %s" % e)
        if e["ph"] == "X":
            check(e["dur"] >= 0 and e["cat"] == "phase", "span: %s" % e)
    check(any(e["ph"] == "X" for e in evs), "no phase spans in timeline")
    overlaps = partial_overlaps(evs)
    check(not overlaps, "%d spans partially overlap their lane, e.g. %s"
          % (len(overlaps), overlaps[:1]))

    sm = s.summary("serve")
    lat = sm["phase_latency_us"]
    # Exact merge: the cross-participant cell histogram saw every cell
    # of the batch exactly once.
    check(lat["cell_us"]["count"] == sm["cells"] == 20,
          "cell_us count %d, cells %d" % (lat["cell_us"]["count"],
                                          sm["cells"]))
    per_worker = sum(w["cell_us"]["count"] for w in sm["per_worker"])
    check(per_worker == sm["workers"]["cells"],
          "per-worker cell counts %d != workers.cells %d"
          % (per_worker, sm["workers"]["cells"]))
    for name, h in lat.items():
        if h["count"] > 0:
            check(h["p50_us"] <= h["p90_us"] <= h["p99_us"] <= h["max_us"],
                  "percentiles out of order: %s %s" % (name, h))
    check(any("straggler" in w for w in sm["warnings"]),
          "no straggler warning: %s" % sm["warnings"])
    check(sm["slowest_cell"]["us"] > 0, "no slowest cell")
    check(sm["scheduler"] == "queue", "scheduler %s" % sm["scheduler"])
    check(sm["workers"]["cells"] > 0, "the workers published nothing")
    for w in sm["per_worker"]:
        check(0.0 <= w["utilization"] <= 1.0, "utilization: %s" % w)
    # Each process keeps its own arena: every stream is generated at
    # least once, and at most once per participant (coordinator plus
    # 3 workers, 4 streams).
    check(4 <= sm["total_generations"] <= 16,
          "%d stream generations, expected 4..16"
          % sm["total_generations"])

    # The read-only tools work against the finished directory, and
    # the standalone re-merge is deterministic.
    top = s.tool("sweep_top", results, "--once").decode()
    for worker in ("worker0", "worker1", "worker2"):
        check(worker in top, "sweep_top lacks %s:\n%s" % (worker, top))
    remerged = os.path.join(s.work, "remerged.json")
    s.tool("sweep_timeline", results, remerged)
    with open(remerged, "rb") as a, \
            open(os.path.join(results, "timeline.json"), "rb") as b:
        check(a.read() == b.read(), "re-merged timeline differs")


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench, work = sys.argv[1], sys.argv[2]
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    s = Sweeps(bench, work)

    s.run("serial", [])
    check(s.read("serial", ".err") == b"arena: generations=4\n",
          "cold serial stderr: %r" % s.read("serial", ".err"))
    # Warm rerun into the serial cache: the result cache serves every
    # cell, so no stream is generated and the bytes do not move.
    s.run("warm", [],
          DICE_BENCH_CACHE_DIR=os.path.join(work, "cache_serial"))
    check(s.read("warm", ".err") == b"arena: generations=0\n",
          "warm serial stderr: %r" % s.read("warm", ".err"))
    s.run("serve", ["--serve", "3"], DICE_LOG_LEVEL="warn",
          DICE_SWEEP_STRAGGLER_K="0.01")

    # Kill: worker1 dies holding a lease; survivors requeue its cells.
    proc = s.start("kill", ["--serve", "3"])
    pid, _ = wait_for_record(
        os.path.join(s.results("kill"), "events", "worker1.jsonl"),
        "claim", proc)
    os.kill(pid, signal.SIGKILL)
    s.finish("kill", proc)

    # Join: attach while the coordinator's workers are just starting.
    proc = s.start("join", ["--serve", "2"])
    wait_for_record(
        os.path.join(s.results("join"), "events", "coordinator.jsonl"),
        "mark", proc, name="spawn")
    with open(os.path.join(work, "joiner.err"), "wb") as err:
        subprocess.run([os.path.join(bench, "sweep_server"), "--join",
                        s.results("join"), "--sweep", "fig10",
                        "--workloads", WORKLOADS], env=s.env,
                       stderr=err, check=True, timeout=TIMEOUT_S)
    s.finish("join", proc)

    serial_out = s.read("serial", ".out")
    serial_merged = s.read("serial", ".merged")
    check(serial_out.count(b"\n") == 20, "serial stdout has no 20 cells")
    for name in ("warm", "serve", "kill", "join"):
        check(s.read(name, ".out") == serial_out,
              "%s stdout differs from serial" % name)
        check(s.read(name, ".merged") == serial_merged,
              "%s merged document differs from serial" % name)

    check_serve(s)

    sm = s.summary("kill")
    requeues = sum(1 for e in s.timeline("kill")["traceEvents"]
                   if e["name"] == "requeue")
    check(sm["requeued"] >= 1, "kill run requeued nothing")
    check(sm["requeued"] == requeues,
          "summary requeued %d != %d timeline requeue instants"
          % (sm["requeued"], requeues))

    joiners = [w for w in s.summary("join")["per_worker"]
               if w["name"].startswith("join")]
    check(len(joiners) == 1 and joiners[0]["cells"] >= 1,
          "joiner missing from per_worker or published nothing: %s"
          % joiners)

    print("sweep contract: serial, serve, kill (requeued %d) and join "
          "(joiner %d cells) runs byte-identical"
          % (sm["requeued"], joiners[0]["cells"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
