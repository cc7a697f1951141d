"""Benchmark inputs: workflow files and spot price traces, written from a seed.

The generators here deliberately do not call spotflow's own workflow
generators: the benchmark's inputs must stay byte-identical when the program
under test changes, so that two commits are measured on the same files.
The shapes and task-profile ranges follow spotflow's montage/ligo/epigenomics
generators; only the random streams differ.

Both file formats are spotflow's documented input formats:

  workflow  `task ID INSTR SEQ_MB RND_MB NET_IN_MB NET_OUT_MB` and
            `edge SRC DST` lines
  trace     `timestamp,price` lines, epoch seconds and USD/hour
"""

import zlib

import numpy as np


def rng_for(seed, *labels):
    """Generator keyed by a root seed and text labels (stable across runs)."""
    key = [int(seed)] + [zlib.crc32(str(label).encode("utf-8")) for label in labels]
    return np.random.default_rng(np.random.SeedSequence(key))


def _profile(rng, kind):
    """(instructions, seq_mb, rnd_mb, net_in_mb, net_out_mb) of one task."""
    instr = rng.uniform(4e11, 16e11)
    io = rng.uniform(800, 8000)
    net = rng.uniform(200, 2000)
    if kind == "io":
        return (instr * 0.2, io * 4, io * 0.5, net, net)
    if kind == "cpu":
        return (instr * 4, io * 0.2, 0.0, net * 0.5, net * 0.5)
    return (instr, io, io * 0.2, net, net)


def _montage(add, edge, width):
    level1 = [add("io") for _ in range(width)]
    level2 = [add("io") for _ in range(width)]
    for i, t in enumerate(level2):
        edge(level1[i], t)
        edge(level1[(i + 1) % width], t)
    join = add("cpu")
    for t in level2:
        edge(t, join)
    level3 = [add("io") for _ in range(width)]
    for t in level3:
        edge(join, t)
    tail1, tail2 = add("io"), add("mixed")
    for t in level3:
        edge(t, tail1)
    edge(tail1, tail2)


def _ligo(add, edge, branches, width):
    tails = []
    for _ in range(branches):
        head = add("cpu")
        mids = [add("mixed") for _ in range(width)]
        tail = add("cpu")
        for m in mids:
            edge(head, m)
            edge(m, tail)
        tails.append(tail)
    merge = add("mixed")
    for t in tails:
        edge(t, merge)


def _epigenomics(add, edge, lanes, depth):
    split = add("io")
    lane_tails = []
    for _ in range(lanes):
        prev = split
        for _ in range(depth):
            node = add("cpu")
            edge(prev, node)
            prev = node
        lane_tails.append(prev)
    merge = add("io")
    for t in lane_tails:
        edge(t, merge)
    final = add("mixed")
    edge(merge, final)


SHAPES = {"montage": _montage, "ligo": _ligo, "epigenomics": _epigenomics}


def workflow_text(shape, params, generator_seed):
    """Workflow file contents for one class (tasks numbered in creation order)."""
    rng = rng_for(generator_seed, "workflow", shape)
    tasks, edges = [], []

    def add(kind):
        tasks.append(_profile(rng, kind))
        return len(tasks) - 1

    def edge(u, v):
        edges.append((u, v))

    SHAPES[shape](add, edge, **params)
    lines = ["task %d %.17g %.17g %.17g %.17g %.17g" % ((i,) + prof)
             for i, prof in enumerate(tasks)]
    lines += ["edge %d %d" % e for e in edges]
    return "\n".join(lines) + "\n"


def trace_text(seed, type_name, ondemand_price, spec):
    """Spiky price trace for one instance type.

    Prices sit at base_share_of_ondemand x on-demand with uniform relative
    jitter; exactly spike_share of the points, at random positions, jump to
    spike_multiple_of_ondemand x on-demand, above every bid the refiner may
    place.  A fixed spike count keeps seeds alike in how often spot fails.
    """
    rng = rng_for(seed, "trace", type_name)
    n = spec["points"]
    base = ondemand_price * spec["base_share_of_ondemand"]
    prices = base * (1.0 + rng.uniform(-spec["jitter"], spec["jitter"], size=n))
    spikes = rng.choice(n, size=round(spec["spike_share"] * n), replace=False)
    prices[spikes] = ondemand_price * spec["spike_multiple_of_ondemand"]
    times = np.arange(n) * spec["interval_s"]
    return "".join("%d,%.6f\n" % (t, p) for t, p in zip(times, prices))
