"""SHA-256 digests of nine small reports, one set per numpy version and SIMD level.

Every estimator at n = 2, 3, 200 and 10,000 (two-step from n = 6), a real and
a complex geometric shift, a ``clt-check``, a ``harmonic-check`` and three
``estimate`` runs on ``data/cauchy_2400.txt``.  The reports' bits hold per
numpy build and SIMD dispatch level (the draws' ``tan``, ``log`` and
``arctan2`` may round differently on another), so the recorded digests are
keyed by both.  The default level runs in this process; each lower level the
CPU has (AVX-512 off, and ``X86_V3`` off as well) runs in a subprocess under
``NPY_DISABLE_CPU_FEATURES``, which acts on that process only, and its key
lists only the features left on.  On a key with no entry the test prints the
entry to record and is skipped, as it compares nothing; on a mismatch it
names the first differing JSON field.
A change that moves report bits on purpose records the new digests:

    PYTHONPATH=src python tests/test_report_digests.py
    PYTHONPATH=src NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" python tests/test_report_digests.py
    PYTHONPATH=src NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR" python tests/test_report_digests.py

print this machine's entries for ``data/report_digests.json``.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cqmeans.cli import main

DATA = Path(__file__).resolve().parent / "data"
SAMPLES = str(DATA / "cauchy_2400.txt")
REPORTS = {
    "simulate-geometric-0": ["simulate", "--estimator", "geometric", "--alpha", "0,0",
                             "--n", "2,3,200,10000", "--reps", "100", "--seed", "11"],
    "simulate-geometric-i": ["simulate", "--estimator", "geometric", "--alpha", "0,1",
                             "--n", "2,3,200,10000", "--reps", "100", "--seed", "12"],
    "simulate-mobius": ["simulate", "--estimator", "mobius", "--alpha", "1,2",
                        "--n", "2,3,200,10000", "--reps", "100", "--seed", "13"],
    "simulate-two-step": ["simulate", "--estimator", "two-step", "--alpha", "0,1",
                          "--n", "6,200,10000", "--reps", "100", "--seed", "14"],
    "clt-check": ["clt-check", "--estimator", "geometric", "--alpha", "0,1", "--n", "200",
                  "--reps", "1000", "--seed", "15"],
    "harmonic-check": ["harmonic-check", "--n", "7", "--reps", "200", "--seed", "16"],
    "estimate-geometric": ["estimate", "--input", SAMPLES, "--estimator", "geometric",
                           "--alpha", "0,1"],
    "estimate-mobius": ["estimate", "--input", SAMPLES, "--estimator", "mobius",
                        "--alpha", "1,2"],
    "estimate-two-step": ["estimate", "--input", SAMPLES, "--estimator", "two-step",
                          "--alpha", "0,1"],
}
# the dispatched features each lower level switches off, where the CPU has them
LOWER_LEVELS = {"avx512-off": ("X86_V4", "AVX512_ICL", "AVX512_SPR"),
                "x86-v3-off": ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")}


def _found():
    """The dispatched SIMD features numpy uses in this process."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]


def _key():
    """numpy's version and the SIMD features its dispatch uses on this CPU."""
    return f"numpy {np.__version__} / {' '.join(_found()) or 'baseline only'}"


def _leaves(value, path=""):
    """(path, value) of every number, string, bool and null of a JSON value, in order."""
    if isinstance(value, dict):
        for name, item in value.items():
            yield from _leaves(item, f"{path}.{name}" if path else name)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def _entry(tmp):
    """{report: {"sha256": of its bytes, "fields": {path: 16 hex digits of the leaf}}}."""
    entry = {}
    for name, argv in REPORTS.items():
        out = Path(tmp) / f"{name}.json"
        assert main([*argv, "--out", str(out)]) in (0, 5), name  # 5: a check failed
        data = out.read_bytes()
        fields = {path: _digest(json.dumps(leaf).encode())[:16]
                  for path, leaf in _leaves(json.loads(data))}
        entry[name] = {"sha256": _digest(data), "fields": fields}
    return entry


def _first_difference(got, recorded):
    """The first field, in report order, whose digest differs or that one side lacks."""
    for path, digest in got.items():
        if recorded.get(path) != digest:
            return path
    return next((path for path in recorded if path not in got), "the layout, no field")


def _check(key, entry):
    """Skip where ``key`` has no recorded digests; else fail on the first report that
    differs, naming its first differing field."""
    recorded = json.loads((DATA / "report_digests.json").read_text()).get(key)
    if recorded is None:
        print(f"no digests recorded for {key!r}; this machine's entry:")
        print(json.dumps({key: entry}, indent=1))
        pytest.skip(f"no digests recorded for {key!r}; its entry is printed above")
    assert set(entry) == set(recorded)
    for name, report in entry.items():
        if report["sha256"] != recorded[name]["sha256"]:
            field = _first_difference(report["fields"], recorded[name]["fields"])
            raise AssertionError(f"{name}: the report differs first in {field!r}")


def test_reports_have_the_recorded_digests(tmp_path):
    _check(_key(), _entry(tmp_path))


@pytest.mark.parametrize("level", LOWER_LEVELS)
def test_reports_have_the_recorded_digests_at_a_lower_dispatch_level(level):
    off = [f for f in LOWER_LEVELS[level] if f in _found()]
    if not off:
        pytest.skip(f"this CPU has none of {' '.join(LOWER_LEVELS[level])}")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(off),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    ((key, entry),) = json.loads(run.stdout).items()
    assert not set(off) & set(key.split()), key  # the features switched off are off
    _check(key, entry)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps({_key(): _entry(tmp)}, indent=1))
