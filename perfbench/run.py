#!/usr/bin/env python3
"""Builds safenn's end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) with the repository's default Release flags;
build output goes to stderr so the last line of stdout stays the result JSON.
The exit code is the benchmark's: 0 when every correctness check passed.
"""
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("error: safenn sources (src/) not found next to perfbench/")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", "4"], check=True, stdout=sys.stderr)
    return out


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "none"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the library and benchmark sources, so a run from a
    checkout without git history still names the code it measured."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main(argv):
    try:
        out = build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"error: build failed: {e}")
    cmd = [os.path.join(out, "safenn_perfbench"), *argv,
           "--tmpdir", os.path.join(out, "tmp"),
           "--commit", commit(), "--source-digest", source_digest()]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
