"""Regenerate each workload's artifacts at two commits and compare them.

Usage (from a git checkout of the repository):

    python3 bench/compare.py BASE [HEAD] [--seed N]

BASE and HEAD are git revisions; HEAD defaults to the working tree. The
`src/` tree of each revision is exported with `git archive` under
.bench_build/compare/, and the first input of every workload is run at both
with the same seed. results.csv, summary.json, ratios.csv and every other
artifact must be byte-identical: a change that claims to be faster must leave
them unchanged. HEAD is also run traced, and its traced artifacts must equal
its untraced ones. Exit code 0 when everything is identical.
"""
from __future__ import annotations

import argparse
import io
import os
import shutil
import subprocess
import sys
import tarfile

import run
from checks import compare_artifacts

COMPARE_DIR = os.path.join(run.ROOT, ".bench_build", "compare")


def export_src(rev: str) -> str:
    """The src/ tree of a git revision, exported once per commit."""
    sha = subprocess.run(
        ["git", "-C", run.ROOT, "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, capture_output=True, text=True).stdout.strip()
    dest = os.path.join(COMPARE_DIR, "src-" + sha)
    if not os.path.isdir(dest):
        tar = subprocess.run(["git", "-C", run.ROOT, "archive", "--format=tar", sha, "src"],
                             check=True, capture_output=True).stdout
        tmp = dest + ".partial"
        shutil.rmtree(tmp, ignore_errors=True)
        with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
            tf.extractall(tmp)
        os.rename(tmp, dest)
    return os.path.join(dest, "src")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("head", nargs="?", help="git revision (default: the working tree)")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    for var in run.SINGLE_THREAD_ENV:
        os.environ[var] = "1"
    sides = {
        "base": export_src(args.base),
        "head": export_src(args.head) if args.head else run.SRC,
    }
    out_root = os.path.join(COMPARE_DIR, "out")
    shutil.rmtree(out_root, ignore_errors=True)
    all_same = True
    for name in run.WORKLOADS:
        wl = run.WORKLOADS[name]
        wl_dir = os.path.join(out_root, name)
        os.makedirs(wl_dir)
        argv_ = wl.argv(1000 * args.seed, wl_dir)
        dirs, ran = {}, True
        for label, src, traced in (("base", sides["base"], False),
                                   ("head", sides["head"], False),
                                   ("head-traced", sides["head"], True)):
            dirs[label] = os.path.join(wl_dir, label)
            res = run.invoke(argv_, dirs[label], traced=traced, src=src)
            if "error" in res:
                print(f"{name} {label}: {res['error']}")
                ran = False
        if not ran:
            all_same = False
            continue
        for a, b in (("base", "head"), ("head", "head-traced")):
            problems = compare_artifacts(dirs[a], dirs[b])
            written = sorted(os.listdir(dirs[a]))
            print(f"{name:<17} {a} vs {b:<12} "
                  + ("; ".join(problems) if problems else
                     "identical: " + ", ".join(written)))
            all_same &= not problems
    print("all artifacts identical" if all_same else "ARTIFACTS DIFFER")
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main())
