#!/usr/bin/env python3
"""Build and run the end-to-end CEP benchmark.

    python3 perfbench/run.py --workload <keyed_seq7|iter4_paced|multi_share|all> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the `perfbench` package (its own
Cargo workspace, depending on the repository's crates by path) with
`cargo build --release --offline` into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs it. The last line of standard output is the
result JSON of the run; per-run records go to `perfbench/out/`. With
`--workload all` every workload runs in turn and each prints its own
result line.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["keyed_seq7", "iter4_paced", "multi_share"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    args = {}
    it = iter(argv)
    for flag in it:
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            fail(f"unknown flag {flag}\n{__doc__}")
        value = next(it, None)
        if value is None:
            fail(f"{flag} needs a value")
        args[flag] = value
    missing = [f for f in ("--workload", "--seed", "--seconds", "--trace") if f not in args]
    if missing:
        fail(f"missing {', '.join(missing)}\n{__doc__}")
    if args["--workload"] != "all" and args["--workload"] not in WORKLOADS:
        fail(f"unknown workload {args['--workload']}")
    return args


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest():
    """Digest of the program under test: every file the build reads."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench/src"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def main():
    args = parse_args(sys.argv[1:])
    for needed in ("Cargo.toml", "crates", "perfbench/Cargo.toml"):
        if not (ROOT / needed).exists():
            fail(f"{needed} not found: run from a full checkout of the repository")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")],
        cwd=ROOT,
        env={**os.environ, "CARGO_TARGET_DIR": str(target)},
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    env = {
        **os.environ,
        "PERFBENCH_COMMIT": command_output(["git", "rev-parse", "HEAD"]),
        "PERFBENCH_RUSTC": command_output(["rustc", "--version"]),
        "PERFBENCH_SOURCE_DIGEST": source_digest(),
    }
    # The program under test reads these; the benchmark pins their effect.
    for var in ("ASP_DATA_PLANE", "ASP_SHARDS"):
        env.pop(var, None)
    exe = target / "release" / "perfbench"
    workloads = WORKLOADS if args["--workload"] == "all" else [args["--workload"]]
    for w in workloads:
        cmd = [str(exe), "--workload", w, "--seed", args["--seed"],
               "--seconds", args["--seconds"], "--trace", args["--trace"],
               "--out", str(ROOT / "perfbench" / "out")]
        run = subprocess.run(cmd, cwd=ROOT, env=env)
        if run.returncode != 0:
            sys.exit(run.returncode)


if __name__ == "__main__":
    main()
