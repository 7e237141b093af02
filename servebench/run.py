"""End-to-end benchmark of `lambekd serve`.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a lambekd checkout.  Builds the service and the
replay tool with dune, generates the workload from the seed, and drives a
real `lambekd serve --tcp 0 --domains 1` over one loopback connection as a
closed loop with a fixed window of requests in flight (below the queue
cap, so nothing is shed).  Every response is checked against the
benchmark's own oracles.  The last line of stdout is one JSON object:
correct, attempted, failed and the metrics.  `--trace 1` adds the traced
in-process replay and reports the per-layer metrics instead.  See
README.md in this directory.
"""

import argparse
import json
import os
import select
import signal
import socket
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.setrecursionlimit(20000)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402

WINDOW = 16  # requests in flight
QUEUE_CAP = 64  # the server's queue bound; WINDOW stays below it
# discarded set-ups before and after the measurement; with the measured
# server's own, setup_s is the median of 31
BOOTS_BEFORE = 15
BOOTS_AFTER = 15
WORK = ".servebench"
# the benchmark's own build, apart from the repository's `_build`
BUILD = os.path.join(WORK, "build")
EXE = os.path.join(BUILD, "default/bin/lambekd.exe")
REPLAY = os.path.join(BUILD, "default/servebench/replay/replay.exe")


class BenchError(Exception):
    pass


def log(msg):
    print("servebench: " + msg, file=sys.stderr, flush=True)


def build():
    if not os.path.exists("dune-project") or not os.path.isdir("bin"):
        raise BenchError("run from the root of a lambekd checkout (no dune-project or bin/ here)")
    os.makedirs(WORK, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    # the replay is enabled only under the `servebench` profile (see
    # replay/dune); dune takes a nested build directory only as an
    # absolute path
    p = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "--profile", "servebench",
         "--build-dir", os.path.abspath(BUILD), "./bin/lambekd.exe",
         "./servebench/replay/replay.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
    if p.returncode != 0:
        sys.stderr.write(p.stdout.decode(errors="replace")[-4000:])
        raise BenchError("dune build failed (exit %d)" % p.returncode)


def encode(ops):
    return [(line + "\n").encode() for line, _ in ops]


def schedstat_ns(pid):
    """CPU time of every thread of [pid], in ns."""
    total = 0
    base = "/proc/%d/task" % pid
    for tid in os.listdir(base):
        try:
            with open("%s/%s/schedstat" % (base, tid)) as f:
                total += int(f.read().split()[0])
        except (FileNotFoundError, ProcessLookupError):
            pass
    return total


def steal_s():
    """CPU seconds the host has taken from this machine's CPUs (all of
    them), from /proc/stat; 0 where it is not reported."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


class Server:
    """One `lambekd serve` process and the benchmark's connection to it."""

    def __init__(self, errfile):
        env = {k: v for k, v in os.environ.items() if not k.startswith("LAMBEKD_")}
        # print the runtime's GC totals at exit (allocated words)
        env["OCAMLRUNPARAM"] = "v=0x400"
        self.err = open(errfile, "w+b")
        self.p = subprocess.Popen(
            [EXE, "serve", "--tcp", "0", "--domains", "1", "--queue-cap", str(QUEUE_CAP)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=self.err, env=env)
        self.sock = None
        ready, _, _ = select.select([self.p.stdout], [], [], 60)
        line = self.p.stdout.readline().decode() if ready else ""
        if "serving on" not in line:
            self.kill()
            raise BenchError("serve did not start: %r" % line)
        port = int(line.rsplit(":", 1)[1])
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.settimeout(120)

    def cpu_ns(self):
        return schedstat_ns(self.p.pid)

    def vm_hwm_kb(self):
        with open("/proc/%d/status" % self.p.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise BenchError("no VmHWM for the server")

    def stop(self):
        """Drain and stop the server; return the words it allocated."""
        self.sock.close()
        self.p.send_signal(signal.SIGTERM)
        try:
            self.p.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("serve did not drain on SIGTERM")
        self.err.seek(0)
        text = self.err.read().decode(errors="replace")
        self.err.close()
        if self.p.returncode != 0:
            raise BenchError("serve exited %d: %s" % (self.p.returncode, text[-2000:]))
        for line in text.splitlines():
            if line.startswith("allocated_words:"):
                return int(line.split()[1])
        raise BenchError("serve printed no GC totals at exit")

    def kill(self):
        if self.p.poll() is None:
            self.p.kill()
        self.p.wait()
        if self.sock is not None:
            self.sock.close()
        self.err.close()


def drive(sock, payload, lat=None):
    """Send [payload] keeping WINDOW lines in flight; return the response
    lines and the elapsed seconds.  With [lat], append each request's
    send-to-response latency in seconds."""
    n = len(payload)
    sent = got = 0
    chunks = []
    sent_at = [0.0] * n if lat is not None else None
    clock = time.perf_counter
    t0 = clock()
    while got < n:
        if sent - got < WINDOW and sent < n:
            k = min(n, got + WINDOW)
            sock.sendall(b"".join(payload[sent:k]))
            if sent_at is not None:
                sent_at[sent:k] = [clock()] * (k - sent)
            sent = k
        data = sock.recv(1 << 20)
        if not data:
            raise BenchError("server closed the connection after %d of %d responses" % (got, n))
        chunks.append(data)
        k = got + data.count(b"\n")
        if sent_at is not None and k > got:
            now = clock()
            lat.extend(now - t for t in sent_at[got:k])
        got = k
    elapsed = clock() - t0
    lines = b"".join(chunks).split(b"\n")
    return lines[:n], elapsed


class Checker:
    def __init__(self):
        self.failed = 0
        self.wrong = []

    def check(self, lines, ops):
        for raw, (_, exp) in zip(lines, ops):
            verdict = workloads.check(json.loads(raw), exp)
            if verdict == "failed":
                self.failed += 1
            elif verdict is not None:
                self.wrong.append(verdict)


def boot(warm):
    """Spawn a server and drive the warm-up pass through it, checking the
    answers.  Returns the server and two figures for the stretch from spawn
    to the last warm-up answer: the CPU seconds the server spent on it, and
    the wall-clock seconds it took."""
    t0 = time.perf_counter()
    srv = Server(os.path.join(WORK, "serve.err"))
    try:
        lines, _ = drive(srv.sock, encode(warm))
        dt = (srv.cpu_ns() / 1e9, time.perf_counter() - t0)
        c = Checker()
        c.check(lines, warm)
    except Exception:
        srv.kill()
        raise
    if c.failed or c.wrong:
        srv.kill()
        raise BenchError("warm-up pass failed: %s" % (c.wrong[:3] or "%d failures" % c.failed))
    return srv, dt


def setups(warm, n):
    """[n] set-ups whose servers are drained at once.  Returns their
    (CPU, wall) seconds and the words each server allocated over its whole
    life."""
    times, allocs = [], []
    for _ in range(n):
        srv, dt = boot(warm)
        times.append(dt)
        allocs.append(srv.stop())
    return times, allocs


def measure(wl, srv, seconds, checker):
    """Whole rounds until [seconds] of driving have elapsed, and at least
    the workload's PEAK_ROUNDS.  Generation and checking happen between
    rounds, off the clock.  The peak RSS is read after PEAK_ROUNDS rounds:
    retained memory grows with the work served (the result cache fills),
    so reading it after a fixed amount of work keeps a faster server from
    looking like a bigger one."""
    steal0, t0 = steal_s(), time.perf_counter()
    busy = 0.0
    cpu = 0
    requests = 0
    lat = []
    rounds = []
    hwm_kb = None
    r = 0
    while busy < seconds or r < wl.PEAK_ROUNDS:
        ops = wl.round(r)
        payload = encode(ops)
        c0 = srv.cpu_ns()
        lines, dt = drive(srv.sock, payload, lat)
        cpu += srv.cpu_ns() - c0
        busy += dt
        requests += len(ops)
        checker.check(lines, ops)
        rounds.append(ops)
        r += 1
        if r == wl.PEAK_ROUNDS:
            hwm_kb = srv.vm_hwm_kb()
    return {"busy": busy, "cpu_ns": cpu, "requests": requests, "lat": lat,
            "rounds": rounds, "hwm_kb": hwm_kb,
            "steal": (steal_s() - steal0) / (time.perf_counter() - t0)}


def percentile(xs, q):
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(q * len(xs)))]


def replay(name, seed, warm, rounds, checker):
    """The traced in-process replay of the same lines; returns its figures."""
    paths = {k: os.path.join(WORK, "%s-%d.%s" % (name, seed, k))
             for k in ("warmup", "rounds", "spans", "responses")}
    ops = [op for rnd in rounds for op in rnd]
    for key, src in (("warmup", warm), ("rounds", ops)):
        with open(paths[key], "wb") as f:
            f.writelines(encode(src))
    try:
        p = subprocess.run([REPLAY, paths["warmup"], paths["rounds"], paths["spans"],
                            paths["responses"]], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           timeout=150)
    except subprocess.TimeoutExpired:
        raise BenchError("replay did not finish in 150 s")
    if p.returncode != 0:
        raise BenchError("replay failed: %s" % p.stderr.decode(errors="replace")[-2000:])
    with open(paths["responses"], "rb") as f:
        lines = f.read().split(b"\n")
    checker.check(lines, warm + ops)
    return json.loads(p.stdout.decode().strip().splitlines()[-1])


PER_LAYER = [
    ("protocol.decode_ns", "ns"), ("protocol.decode_words", "words"),
    ("protocol.encode_ns", "ns"), ("protocol.encode_bytes", "bytes"),
    ("registry.get_ns", "ns"), ("registry.artifact_hit_ratio", "ratio"),
    ("registry.compile_us", "us"), ("registry.result_hit_ratio", "ratio"),
    ("scheduler.handoff_us", "us"), ("exec.run_ns", "ns"), ("exec.run_words", "words"),
    ("engine.ll1_steps", "count"), ("engine.slr_steps", "count"),
    ("engine.earley_items", "count"), ("engine.cyk_cells", "count"),
    ("engine.forest_nodes", "count"), ("engine.weighted_nodes", "count"),
    ("engine.kbest_derivs", "count"), ("session.op_ns", "ns"),
    ("session.reused_sets", "count"), ("session.heap_words_per_buffered_byte", "words/byte"),
    ("server.overhead_us", "us"), ("trace.overhead_ratio", "ratio"),
]


def on_term(signum, _frame):
    # unwinds through the handlers that stop the servers
    raise BenchError("stopped by signal %d" % signum)


def main():
    signal.signal(signal.SIGTERM, on_term)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    warm = wl.warmup()
    t_start = time.perf_counter()
    # set-ups on both sides of the measurement, so that a slow stretch of
    # the machine at either end moves few of them
    setup_times, setup_allocs = setups(warm, BOOTS_BEFORE)
    srv, dt = boot(warm)
    setup_times.append(dt)
    checker = Checker()
    try:
        m = measure(wl, srv, args.seconds, checker)
    except Exception:
        srv.kill()
        raise
    alloc = srv.stop()
    times, allocs = setups(warm, BOOTS_AFTER)
    setup_times += times
    setup_allocs += allocs
    requests = m["requests"]
    cpu_us = m["cpu_ns"] / 1e3 / requests
    lat = m["lat"]
    # throughput and latency are reported here, not gated: both follow the
    # host's steal (README, Observations)
    log("%s seed %d: %d requests in %d rounds, %.3f s driven, %.0f req/s; latency at window %d: "
        "p50 %.1f us, p99 %.1f us (%d samples); host steal %.2f CPU-s/s; wall %.1f s"
        % (args.workload, args.seed, requests, len(m["rounds"]), m["busy"],
           requests / m["busy"], WINDOW, percentile(lat, 0.5) * 1e6,
           percentile(lat, 0.99) * 1e6, len(lat), m["steal"], time.perf_counter() - t_start))
    log("set-up: median %.4f s of server CPU, %.4f s of wall clock, over %d set-ups"
        % (statistics.median(c for c, _ in setup_times),
           statistics.median(w for _, w in setup_times), len(setup_times)))
    if args.trace == 0:
        metrics = {
            "setup_s": (statistics.median(cpu for cpu, _ in setup_times), "s"),
            "cpu_us_per_req": (cpu_us, "us"),
            "alloc_words_per_req": ((alloc - statistics.median(setup_allocs)) / requests, "words"),
            "peak_rss_mb": (m["hwm_kb"] / 1024.0, "MB"),
        }
    else:
        rounds = m["rounds"][:max(1, len(m["rounds"]) // 2)]
        fig = replay(args.workload, args.seed, warm, rounds, checker)
        in_process_us = (fig["protocol.decode_ns"] + fig["protocol.encode_ns"]
                         + (fig["exec.run_ns"] * fig["requests"]
                            + fig["session.op_ns"] * fig["session_ops"]) / fig["lines"]) / 1e3
        fig["server.overhead_us"] = cpu_us - in_process_us
        log("replay: %d lines, %.0f ns/line traced vs %.0f ns/line untraced"
            % (fig["lines"], fig["traced_line_ns"], fig["untraced_line_ns"]))
        metrics = {k: (fig[k], unit) for k, unit in PER_LAYER}
    for msg in checker.wrong[:5]:
        log("wrong answer: " + msg)
    print(json.dumps({
        "correct": not checker.wrong,
        "attempted": requests,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        log(str(e))
        sys.exit(1)
