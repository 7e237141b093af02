"""Self-check: peak_rss_mb is the server's own high-water mark.

    python3 servebench/rsscheck.py

Run from the root of a lambekd checkout after servebench/run.py has built
it.  Boots `lambekd serve` twice and drives the warm_short warm-up and
one round through each: once as is, once after this process has touched
a 256 MiB heap of its own.  The server's VmHWM must read the same both
times (within 10%); the child rusage of the same processes is printed
next to it for contrast, since it reports the larger of the server's
peak and the image it was forked from.  Exits 1 if the check fails.
"""

import os
import resource
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402

BALLAST_MB = 256


def peak(wl, ops):
    srv = run.Server(os.path.join(run.WORK, "rsscheck.err"))
    try:
        run.drive(srv.sock, run.encode(ops))
        hwm = srv.vm_hwm_kb() / 1024.0
    except Exception:
        srv.kill()
        raise
    srv.stop()
    return hwm


def main():
    os.makedirs(run.WORK, exist_ok=True)
    wl = workloads.WarmShort(1)
    ops = wl.warmup() + wl.round(0)
    plain = peak(wl, ops)
    ballast = bytearray(BALLAST_MB << 20)
    for i in range(0, len(ballast), 4096):
        ballast[i] = 1
    inflated = peak(wl, ops)
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    self_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("server VmHWM: %.1f MB plain, %.1f MB with a %d MiB generator heap"
          % (plain, inflated, BALLAST_MB))
    print("for contrast: generator peak %.1f MB, largest child rusage %.1f MB"
          % (self_peak, child))
    ok = abs(inflated - plain) <= 0.1 * plain
    print("ok" if ok else "FAILED: the reported peak follows the generator's heap")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
