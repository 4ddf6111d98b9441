#!/usr/bin/env python3
"""Builds and runs the triq end-to-end benchmark.

    python3 triqbench/run.py --workload owl_materialize|sparql_qa|serve_rw \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
benchmark package (triqbench/CMakeLists.txt: the triq libraries,
triq_server and the driver, Release) under .bench_build/; later calls
only check the build is current. The driver's output is relayed as is:
its last line is the result object. Exits non-zero, without a result,
when the build fails or the run overruns its time limit, and with the
driver's code otherwise (1 on a correctness mismatch).
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "triqbench")
RUN_TIMEOUT_S = 170


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "triqbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("triqbench: build failed (%s)\n" % " ".join(step))
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["owl_materialize", "sparql_qa", "serve_rw"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 1
    command = [os.path.join(BUILD, "triqbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--server", os.path.join(BUILD, "triq", "tools", "triq_server")]
    # Its own process group, so a timeout also reaps the servers it spawned.
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        sys.stderr.write("triqbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
