"""The seeded input generator: determinism and variant correctness."""

import json
import random
from collections import Counter

import pytest

from pb import gen
from repro.problems import get_problem
from repro.service.canonical import canonicalize


def _bytes(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


@pytest.fixture(scope="module")
def classroom():
    return gen.generate("classroom", 7)


def test_same_seed_gives_byte_identical_inputs(classroom):
    assert _bytes(gen.generate("classroom", 7)) == _bytes(classroom)


def test_another_seed_changes_the_stream_not_the_corpus(classroom):
    other = gen.generate("classroom", 8)
    assert other["stream"] != classroom["stream"]
    sources = {sid: sub["source"] for sid, sub in classroom["submissions"].items()}
    assert {sid: s["source"] for sid, s in other["submissions"].items()} == sources


def test_classroom_stream_shape(classroom):
    stream = classroom["stream"]
    firsts = [sid for sid, variant in stream if variant is None]
    assert len(firsts) == len(set(firsts))  # each distinct submission once
    seen = set()
    for sid, variant in stream:
        if variant is not None:
            assert sid in seen  # resubmissions only of ones already seen
        seen.add(sid)
    props = classroom["properties"]
    assert props["first_submission_share"] == pytest.approx(
        1 - gen.CLASSROOM_HIT_SHARE, abs=0.01
    )


def test_every_seed_resubmits_each_submission_as_often(classroom):
    def counts(doc):
        return Counter(sid for sid, variant in doc["stream"] if variant is not None)

    assert counts(gen.generate("classroom", 8)) == counts(classroom)
    ranked = sorted(counts(classroom).items(), key=lambda item: -item[1])
    assert ranked[0][1] > 5 * ranked[-1][1]  # zipf: a few take most hits


def test_variants_share_the_original_canonical_form(classroom):
    checked = 0
    for sub in list(classroom["submissions"].values())[::7]:
        spec = get_problem(sub["problem"]).spec
        digest = canonicalize(sub["source"], spec).digest
        for variant in sub["variants"]:
            assert variant["source"] != sub["source"]
            assert canonicalize(variant["source"], spec).digest == digest
            checked += 1
    assert checked


def test_alpha_rename_leaves_names_that_are_not_local_everywhere():
    source = (
        "def helper(x):\n    return total + x\n\n"
        "def f(n):\n    total = n\n    return helper(total)\n"
    )
    # ``total`` is a global inside ``helper``: renaming it would change
    # the program, so only the parameters are renamed.
    renamed = gen.alpha_rename(source, random.Random(0))
    assert renamed is not None
    assert renamed.count("total") == source.count("total") == 3
    assert "def helper(x)" not in renamed and "def f(n)" not in renamed
