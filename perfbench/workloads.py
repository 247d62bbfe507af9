"""Preparing, running and checking the inputs of each benchmark workload.

``cycles`` turns the seeded inputs of :mod:`inputs` into what the program
takes, one cycle at a time: ``Poly`` objects for ``suite``, and ``.poly``
files plus CLI arguments for ``modify``.  ``execute`` is the timed call into
fsing.  ``verify`` checks its output and returns a digest of the report, so
that reports can be compared byte for byte across runs and commits.

Calls go through module attributes (``fsing.cli.main``), never through
names bound at import time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil

import fsing.cli
import fsing.pipeline
from fsing import Poly, VarCtx, build_field

import inputs

# Cycles before a seed's input stream starts over: more than a 45 s run uses
# at the commit that added the benchmark (suite about 1.6 to 2.7 times,
# modify about 3).  A faster program wraps around to the first input.
# fsing's only cache across inputs is build_field's lru_cache of Field
# objects, so a repeated input costs what it cost the first time.
POOL_CYCLES = {"suite": 40, "modify": 12}
WORK_DIR = os.path.join("perfbench", "work")


def cycle_length(workload):
    """Inputs in one cycle of the workload's fixed schedule of families."""
    cycle = inputs.suite_cycle if workload == "suite" else inputs.modify_cycle
    return len(cycle())


def pool_size(workload):
    """Inputs before the stream of ``cycles`` starts over."""
    return POOL_CYCLES[workload] * cycle_length(workload)


def cycles(workload, seed):
    """The workload's inputs for ``seed``, one cycle's list at a time, without end.

    A cycle is built when it is asked for, just before it runs, so only one
    cycle's inputs are alive at a time and the input pool does not set the
    peak memory.  ``.poly`` files go under WORK_DIR, relative to the current
    directory (the repository root), named by their place in the pool.
    """
    length = cycle_length(workload)
    while True:
        stream = inputs.suite_inputs(seed) if workload == "suite" else inputs.modify_inputs(seed)
        for c in range(POOL_CYCLES[workload]):
            raw = next(stream)
            if workload == "suite":
                yield [_suite_item(item) for item in raw]
            else:
                yield _write_files(raw, c * length)


def _suite_item(item):
    n = item["n"]
    exps = {tuple(int(i in mono) for i in range(n)): c for mono, c in item["terms"].items()}
    f = Poly.make(build_field(item["p"]), VarCtx(f"x{i + 1}" for i in range(n)), exps)
    return {"family": f"p={item['p']}", "poly": f, "t": item["t"]}


def _write_files(raw, first):
    folder = os.path.join(WORK_DIR, "modify")
    shutil.rmtree(folder, ignore_errors=True)
    os.makedirs(folder)
    for k, item in enumerate(raw, first):
        path = os.path.join(folder, f"{k:05d}.poly")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(item["text"])
        item["argv"] = [item["argv"][0], path, *item["argv"][1:]]
    return raw


def cleanup():
    shutil.rmtree(WORK_DIR, ignore_errors=True)


def execute(item):
    """Run one input through fsing; this is the timed region."""
    if "poly" in item:
        return fsing.pipeline.check_sqfree_sample(item["poly"], item["t"])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fsing.cli.main(item["argv"])
    return code, out.getvalue(), err.getvalue()


def verify(item, output):
    """(error message or None, report digest) for one executed input."""
    if isinstance(output, BaseException):
        return f"{type(output).__name__}: {output}", None
    if "poly" in item:
        text = json.dumps(output, sort_keys=True)
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        if not output["ok"]:
            return f"sample failed: {output['failure']}", digest
        if output["t"] != item["t"]:
            return f"recovered t={output['t']}, planted t={item['t']}", digest
        return None, digest
    code, text, err = output
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    if code != 0:
        return f"exit code {code}: {err.strip()[:200]}", digest
    try:
        status = json.loads(text)["status"]
    except (ValueError, KeyError) as exc:
        return f"unreadable report: {exc}", digest
    if status != "pass":
        return f"report status {status!r}", digest
    return None, digest
