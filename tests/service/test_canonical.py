"""Canonicalizer tests: the dedup backbone of the batch service."""

import hashlib
import sys
import threading

import pytest

from repro.problems import all_problems, get_problem
from repro.service import canonicalize, model_digest
from repro.service.canonical import MEMO_CAPACITY, _canonical_form, memo_info
from repro.mpy import parse_program, to_source
from repro.studentgen import generate_corpus

SPEC = get_problem("iterPower-6.00x").spec

BASE = """def iterPower(base, exp):
    result = 0
    for i in range(exp):
        result = result * base
    return result
"""

#: BASE with every local renamed, comments added and formatting changed.
RENAMED = """def iterPower(b, e):
    # my solution!!
    acc = 0

    for counter in range(e):
        acc = acc  *  b
    return acc
"""

#: Same shape, different semantics (initializer 1, the correct program).
DIFFERENT = """def iterPower(base, exp):
    result = 1
    for i in range(exp):
        result = result * base
    return result
"""


class TestCanonicalize:
    def test_renamed_and_reformatted_coincide(self):
        a = canonicalize(BASE, SPEC)
        b = canonicalize(RENAMED, SPEC)
        assert a.parsed and b.parsed
        assert a.digest == b.digest
        assert a.text == b.text

    def test_semantically_different_distinguished(self):
        assert canonicalize(BASE, SPEC).digest != canonicalize(DIFFERENT, SPEC).digest

    def test_misnamed_entry_function_normalizes(self):
        # The rewriter's fallback locator accepts a sole top-level def, so
        # a typo'd name grades identically — and must cache identically.
        typoed = BASE.replace("def iterPower", "def iterpower")
        assert canonicalize(typoed, SPEC).digest == canonicalize(BASE, SPEC).digest

    def test_without_spec_names_stay(self):
        typoed = BASE.replace("def iterPower", "def iterpower")
        assert canonicalize(typoed).digest != canonicalize(BASE).digest

    def test_syntax_error_falls_back_to_text(self):
        broken = "def iterPower(base exp):\n    return\n"
        form = canonicalize(broken, SPEC)
        assert not form.parsed
        assert form.digest == canonicalize(broken, SPEC).digest

    def test_syntax_error_comment_invariance(self):
        a = canonicalize("def f(:\n    pass\n", SPEC)
        b = canonicalize("# header\ndef f(:\n    pass\n", SPEC)
        assert a.digest == b.digest

    def test_existing_canonical_names_not_rewritten(self):
        # Renaming a module that already uses the canonical namespace
        # could merge distinct programs, so it prints as written, even
        # when the clashing name sits outside every function.
        for source in (
            "def f(_cv0):\n    return _cv0\n",
            "def f(a):\n    return a\nx = _cv3\n",
        ):
            assert canonicalize(source).text == to_source(parse_program(source))

    def test_alpha_rename_keeps_semantics(self):
        assert canonicalize(BASE).text == (
            "def iterPower(_cv0, _cv1):\n"
            "    _cv2 = 0\n"
            "    for _cv3 in range(_cv1):\n"
            "        _cv2 = _cv2 * _cv0\n"
            "    return _cv2\n"
        )
        # Recursive/global function references survive.
        rec = "def f(n):\n    if n == 0:\n        return 1\n    return f(n - 1)\n"
        assert "return f(_cv0 - 1)" in canonicalize(rec).text

    def test_numbering_follows_first_occurrence(self):
        # Branches number in source order, and the function's own name
        # keeps its slot (``_cv3``) without being renamed.
        source = (
            "def f(n):\n"
            "    if n > 0:\n"
            "        a = 1\n"
            "    else:\n"
            "        b = 2\n"
            "    f = 3\n"
            "    c = 4\n"
            "    return a + b + c\n"
        )
        assert canonicalize(source).text == (
            "def f(_cv0):\n"
            "    if _cv0 > 0:\n"
            "        _cv1 = 1\n"
            "    else:\n"
            "        _cv2 = 2\n"
            "    f = 3\n"
            "    _cv4 = 4\n"
            "    return _cv1 + _cv2 + _cv4\n"
        )

    def test_nested_defs_and_lambdas_share_the_enclosing_map(self):
        # A nested def keeps its name and unmapped parameters; names the
        # enclosing function maps are renamed wherever they occur, lambda
        # parameters included. Top-level statements print as written.
        source = (
            "def f(a):\n"
            "    def g(b):\n"
            "        c = a + b\n"
            "        return c\n"
            "    h = lambda a, q: a + q\n"
            "    return h(g(a), a)\n"
            "print(f(3))\n"
        )
        assert canonicalize(source).text == (
            "def f(_cv0):\n"
            "    def g(b):\n"
            "        _cv1 = _cv0 + b\n"
            "        return _cv1\n"
            "    _cv2 = lambda _cv0, q: _cv0 + q\n"
            "    return _cv2(g(_cv0), _cv0)\n"
            "print(f(3))\n"
        )

    def test_a_nested_def_is_renamed_with_the_local_it_shares_a_name_with(
        self,
    ):
        # `g` is a local and a nested def: the call names the def, so this
        # returns its argument. Spelled `h`, the call names the int and
        # raises. One canonical text for both would serve one's verdict
        # for the other.
        shadowed = (
            "def f(a):\n"
            "    g = 1\n"
            "    def g(b):\n"
            "        return b\n"
            "    return g(a)\n"
        )
        calls_the_int = shadowed.replace("g = 1", "h = 1").replace(
            "return g(a)", "return h(a)"
        )
        assert canonicalize(shadowed).text == (
            "def f(_cv0):\n"
            "    _cv1 = 1\n"
            "    def _cv1(b):\n"
            "        return b\n"
            "    return _cv1(_cv0)\n"
        )
        assert (
            canonicalize(shadowed).digest
            != canonicalize(calls_the_int).digest
        )


#: SHA-256 over the canonical digests of each registry problem's seed-0
#: studentgen corpus (incorrect, correct, then syntax-error attempts),
#: each source canonicalized with the problem's spec and then without.
#: A changed canonical text changes every cache key built on it, so a
#: faster canonicalizer must leave these as they are.
PINNED_CORPUS_DIGESTS = {
    "prodBySum-6.00": "8ecc6050ca607381266fd73ceb25e0ba232879fdcb3c019de9e9366c60a9e5a5",
    "oddTuples-6.00": "2d0fb6a2ae52f99a14cecf7edc3ef650ad8757d57f9a0f5091daf4fc99138e30",
    "compDeriv-6.00": "cd952b02ff3826ec67aa7ad3922bac4afbddd15638a6cb2fa9b400c426226f3f",
    "evalPoly-6.00": "0515ac9f81e8c299f10fa8103e8eed76a3ab7bc9a97fcbae4b6992cff9d85eb2",
    "compBal-stdin-6.00": "2d33f3eb15a07c38cffb347170bbb253515bf928b4dbd1685ce3559074392623",
    "compDeriv-6.00x": "b326bb2b3939159ea73dad9132c5a166995e97cdf1d3f954314103798bfed9b1",
    "evalPoly-6.00x": "39dfeedeb5987fe3de5a65b3214a9021d84092dd55e7bf0174fd8961363b98d9",
    "oddTuples-6.00x": "d4f4e451f1889456ccbb1f936cddddcb109363cd56bbde63d3fc7a458563ad3c",
    "iterPower-6.00x": "523910f51d959412c462e07a7d1bb2c9af51f6b38c2d84cfa8dd6e1df6f8d987",
    "recurPower-6.00x": "ffe23b054532b161456101838a5c139dca627b9bf6085ac564a36868e3568901",
    "iterGCD-6.00x": "82c722da27da5c397a78975de7dea46baa0ade6aa60c712bf7db4482b9d9d5a9",
    "hangman1-str-6.00x": "7eb99acbaf4a1a35ff9ff3c7bdff85593b39cbeb529a332862b8dc8d6e490875",
    "hangman2-str-6.00x": "54bbd504beb6fa8afe83ca2169b35ff32aab563a44d61c495ff52f340c10d7cc",
    "stock-market-I": "141767b20be584b205244adc40e950da4b69ca86a9a1864721753971c2546120",
    "stock-market-II": "a90a9d32caf99aebc633366db611ee5ac2e47689f0ce6e028c558c6d9b67d9cc",
    "restaurant-rush": "5d6a5e92e916c4d954cd08b645cabe4ecba7d47ff09126c613d8f5cb5cb56c7e",
}


@pytest.mark.parametrize("name", [p.name for p in all_problems()])
def test_corpus_digests_are_pinned(name):
    problem = get_problem(name)
    corpus = generate_corpus(problem, seed=0)
    attempts = corpus.incorrect + corpus.correct + corpus.syntax_errors
    combined = hashlib.sha256()
    for submission in attempts:
        for spec in (problem.spec, None):
            combined.update(canonicalize(submission.source, spec).digest.encode())
    assert combined.hexdigest() == PINNED_CORPUS_DIGESTS[name]


class TestMemo:
    def test_a_hit_equals_a_fresh_computation(self):
        canonicalize(BASE, SPEC)
        hits = memo_info()["memo_hits"]
        form = canonicalize(BASE, SPEC)
        assert memo_info()["memo_hits"] == hits + 1
        assert form == _canonical_form.__wrapped__(BASE, SPEC)

    def test_the_spec_is_part_of_the_key(self):
        typoed = BASE.replace("def iterPower", "def iterpower")
        orders = ((SPEC, None), (None, SPEC))
        for order in orders:
            _canonical_form.cache_clear()
            digests = {
                spec: canonicalize(typoed, spec).digest for spec in order
            }
            assert digests[SPEC] == canonicalize(BASE, SPEC).digest
            assert digests[None] != digests[SPEC]

    def test_the_memo_stays_bounded(self):
        _canonical_form.cache_clear()
        sources = [
            f"def f(x):\n    return x + {i}\n"
            for i in range(MEMO_CAPACITY + 40)
        ]
        for source in sources:
            canonicalize(source)
            assert memo_info()["memo_entries"] <= MEMO_CAPACITY
        assert memo_info()["memo_entries"] == MEMO_CAPACITY
        # The least recently used entries went first.
        misses = memo_info()["memo_misses"]
        canonicalize(sources[0])
        assert memo_info()["memo_misses"] == misses + 1

    def test_concurrent_callers_agree(self):
        sources = [BASE, RENAMED, DIFFERENT] + [
            f"def iterPower(b, e):\n    return b ** e + {i}\n"
            for i in range(20)
        ]
        expected = [
            _canonical_form.__wrapped__(source, SPEC).digest
            for source in sources
        ]
        _canonical_form.cache_clear()
        barrier = threading.Barrier(8, timeout=30)
        seen = []

        def worker():
            barrier.wait()
            seen.append([canonicalize(s, SPEC).digest for s in sources])

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [expected] * 8


class TestModelDigest:
    def test_stable_for_same_model(self):
        problem = get_problem("iterPower-6.00x")
        assert model_digest(problem.model) == model_digest(problem.model)

    def test_changes_when_rules_change(self):
        problem = get_problem("iterPower-6.00x")
        full = model_digest(problem.model)
        assert full != model_digest(problem.model.prefix(1))

    def test_differs_across_problems(self):
        a = model_digest(get_problem("iterPower-6.00x").model)
        b = model_digest(get_problem("recurPower-6.00x").model)
        assert a != b
