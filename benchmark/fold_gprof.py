#!/usr/bin/env python3
"""Fold a gprof flat profile into layer buckets.

    python3 benchmark/fold_gprof.py flat.txt

Reads the output of `gprof -b -p` and sums self time per bucket: each
rcs::<module> namespace (rcs:: itself is `common`, home of Value and
Bytes), `std` for standard-library template code, `allocator` for malloc,
free and operator new/delete, `memcmp` for byte compares, `rtti` for
dynamic_cast and type_info, `libc` for other C symbols, `harness` for
rcs_bench's own file-local code (calibration, metrics), and `other`.
A template instantiated on rcs types counts as `std`: the bucket is the
namespace of the function's own qualified name.
"""
import re
import sys

MODULES = {"sim", "comp", "script", "ftm", "core", "app", "load", "obs",
           "fsim", "gateway"}
ALLOCATOR = re.compile(r"^(malloc|free|cfree|realloc|calloc|_int_\w+|"
                       r"malloc_\w+|unlink_chunk|sysmalloc|tcache_\w+|"
                       r"__libc_(malloc|free|calloc|realloc)|aligned_alloc|"
                       r"_mid_memalign|alloc_perturb|"
                       r"\{anonymous\}::counted_alloc\w*)$")
MEMCMP = re.compile(r"^(__)?(memcmp|bcmp)\w*$")
RTTI = re.compile(r"^(__dynamic_cast|__cxxabiv1::.*|std::type_info::.*)$")
ROW = re.compile(r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(.+)$")


def qualified_name(signature):
    """The function's qualified name: the signature up to its top-level
    argument list, minus any leading return type."""
    signature = signature.replace("decltype(auto) ", "").replace(
        "(anonymous namespace)", "{anonymous}")
    depth = 0
    tokens = [""]
    for ch in signature:
        if ch == "(" and depth == 0 and not tokens[-1].endswith("operator"):
            break
        depth += ch in "<(["
        depth -= ch in ">)]"
        if ch == " " and depth == 0:
            tokens.append("")
        else:
            tokens[-1] += ch
    qualified = [t for t in tokens if "::" in t]
    return qualified[-1] if qualified else tokens[-1]


def bucket(signature):
    if "operator new" in signature or "operator delete" in signature:
        return "allocator"
    name = qualified_name(signature)
    if ALLOCATOR.match(name):
        return "allocator"
    if MEMCMP.match(name):
        return "memcmp"
    if RTTI.match(name):
        return "rtti"
    parts = name.split("::")
    if parts[0] in ("std", "__gnu_cxx", "__cxx11"):
        return "std"
    if parts[0] == "rcs":
        return parts[1] if len(parts) > 2 and parts[1] in MODULES else "common"
    if parts[0] == "{anonymous}":
        return "harness"
    if len(parts) == 1 and re.match(r"^_*[A-Za-z]\w*$", name):
        return "libc"
    return "other"


def main():
    totals = {}
    with open(sys.argv[1]) as f:
        for line in f:
            row = ROW.match(line)
            if row:
                seconds = float(row.group(1))
                key = bucket(row.group(2).strip())
                totals[key] = totals.get(key, 0.0) + seconds
    grand = sum(totals.values())
    if grand == 0:
        sys.exit("fold_gprof: no samples in the flat profile")
    print(f"{'bucket':<12} {'self s':>9} {'share':>7}")
    for key, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(f"{key:<12} {seconds:>9.2f} {100 * seconds / grand:>6.1f}%")


if __name__ == "__main__":
    main()
