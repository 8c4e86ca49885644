"""Every corpus run gives what tests/golden/corpus.json recorded.

The corpus holds each run's exit code, report body and CSV hashes;
tests/golden/write_corpus.py rewrites it. Values are compared bit for bit,
also when numpy, scipy or Python differ from the recorded versions: a
mismatch then names both, as a finding about those versions.
"""

import json

import pytest

from golden.write_corpus import CASES, CORPUS, run_case, versions

_CORPUS = json.loads(CORPUS.read_text())


def _differences(recorded, running, path: str = "$"):
    """The JSON path of every leaf that differs, with both values."""
    if isinstance(recorded, dict) and isinstance(running, dict):
        for key in sorted(recorded.keys() | running.keys()):
            if key not in running:
                yield f"{path}.{key}: recorded only"
            elif key not in recorded:
                yield f"{path}.{key}: running only"
            else:
                yield from _differences(recorded[key], running[key], f"{path}.{key}")
    elif isinstance(recorded, list) and isinstance(running, list) \
            and len(recorded) == len(running):
        for i, (a, b) in enumerate(zip(recorded, running)):
            yield from _differences(a, b, f"{path}[{i}]")
    # as written: 1 and 1.0, or 0.0 and -0.0, differ
    elif json.dumps(recorded) != json.dumps(running):
        yield f"{path}: recorded {recorded!r}, running {running!r}"


def test_corpus_holds_every_case():
    assert sorted(_CORPUS["runs"]) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_run_matches_corpus(case):
    diffs = list(_differences(_CORPUS["runs"][case], run_case(case)))
    assert not diffs, "\n".join([
        f"{case} differs from the corpus",
        f"recorded under {_CORPUS['versions']}, running under {versions()}",
        *diffs,
    ])
