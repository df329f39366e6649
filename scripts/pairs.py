#!/usr/bin/env python3
"""Alternated parent / change pairs of the benchmark, and the claim rule.

Runs two `bench` binaries (crates/perfbench) on one workload, alternating
which side goes first, and prints for every end-to-end metric of
BENCHMARK.json both sides' median and quartiles, how many pairs the
change won, and whether a claim holds: the change wins at least 9 pairs
in 10, and its median is further from the parent's than the parent's own
q1-q3 spread. It also checks that every run is `correct` with no failed
operation and that both sides print the same `digest=`.

    scripts/pairs.py PARENT_BIN CHANGE_BIN --workload W \\
        [--pairs 10] [--seed 1] [--seconds 6] [--out DIR]

Each binary must be `<checkout>/crates/perfbench/target/release/bench`.
It is copied first, so a rebuild cannot swap it mid-run, and run from
the checkout it was built in. Every run's result line is kept in `--out` as
`parent.jsonl` / `change.jsonl`; line i of one pairs with line i of the
other. Exits 1 when a run is incorrect or the digests differ.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def checkout_of(binary):
    """The checkout a bench binary was built in; exits if it is not one."""
    path = os.path.abspath(binary)
    checkout = path
    for _ in range(5):
        checkout = os.path.dirname(checkout)
    if path != os.path.join(checkout, "crates", "perfbench", "target", "release", "bench"):
        sys.exit(f"{binary}: not <checkout>/crates/perfbench/target/release/bench")
    return checkout


def run(binary, cwd, args, out):
    """One bench run: its result line (parsed) and its digest."""
    cmd = [binary, "--workload", args.workload, "--seconds", str(args.seconds),
           "--seed", str(args.seed), "--out", out]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    digest = re.search(r"digest=([0-9a-f]+)", proc.stdout)
    return json.loads(lines[-1]), digest.group(1) if digest else None


def quartiles(xs):
    """(q1, median, q3), linearly interpolated."""
    xs = sorted(xs)

    def at(q):
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_bin")
    ap.add_argument("change_bin")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=6)
    ap.add_argument("--out")
    args = ap.parse_args()
    bins = {"parent": args.parent_bin, "change": args.change_bin}
    checkouts = {side: checkout_of(binary) for side, binary in bins.items()}
    args.out = args.out or tempfile.mkdtemp(prefix="pairs-")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
    os.makedirs(args.out, exist_ok=True)
    sides = {}
    for side, binary in bins.items():
        copy = os.path.join(args.out, side)
        shutil.copy2(binary, copy)
        sides[side] = (copy, checkouts[side])

    results = {"parent": [], "change": []}
    digests = {"parent": set(), "change": set()}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            binary, cwd = sides[side]
            line, digest = run(binary, cwd, args, os.path.join(args.out, "out_" + side))
            results[side].append(line)
            digests[side].add(digest)
            with open(os.path.join(args.out, side + ".jsonl"), "a") as f:
                f.write(json.dumps(line) + "\n")
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    ok = True
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs at {args.seconds} s")
    for side in ("parent", "change"):
        bad = [r for r in results[side] if not r["correct"] or r["failed"]]
        print(f"{side}: {len(bad)} incorrect or failing runs, digest {sorted(digests[side])}")
        ok &= not bad
    if digests["parent"] != digests["change"]:
        print("DIGESTS DIFFER")
        ok = False

    print("\n| metric | parent median [q1, q3] | change median [q1, q3] | ratio | wins | claim |")
    print("|---|---:|---:|---:|---:|---|")
    for name, direction in better.items():
        if name not in results["parent"][0]["metrics"]:
            continue
        p = [r["metrics"][name]["value"] for r in results["parent"]]
        c = [r["metrics"][name]["value"] for r in results["change"]]
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
        claim = wins >= 0.9 * args.pairs and sign * (cm - pm) > p3 - p1
        ratio = cm / pm if pm else float("nan")
        print(f"| {name} | {pm:.4g} [{p1:.4g}, {p3:.4g}] | {cm:.4g} [{c1:.4g}, {c3:.4g}] "
              f"| {ratio:.3f} | {wins}/{args.pairs} | {'holds' if claim else 'no'} |")
    print(f"\nresult lines: {args.out}/parent.jsonl, {args.out}/change.jsonl")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
