"""Tests for the public API: classification statuses and report shape."""


from repro.core import ProblemSpec, generate_feedback, grade_submission
from repro.core.api import (
    ALREADY_CORRECT,
    BAD_SIGNATURE,
    FIXED,
    NO_FIX,
    SYNTAX_ERROR,
    UNSUPPORTED,
)
from repro.eml import parse_error_model
from repro.mpy.values import Bounds

SPEC = ProblemSpec.from_typed_reference(
    "double",
    "def double(x_int):\n    return x_int * 2\n",
    bounds=Bounds(int_bits=4),
)
MODEL = parse_error_model(
    """
rule MULN: a * n -> a * {n + 1, n - 1}
rule ADDN: a + n -> a + {n + 1, n - 1, 0}
"""
)


def feedback(source, **kwargs):
    return generate_feedback(source, SPEC, MODEL, timeout_s=30, **kwargs)


class TestStatuses:
    def test_syntax_error(self):
        report = feedback("def double(x:\n")
        assert report.status == SYNTAX_ERROR

    def test_unsupported_feature(self):
        report = feedback("import math\ndef double(x):\n    return x * 2\n")
        assert report.status == UNSUPPORTED

    def test_bad_signature_missing_function(self):
        report = feedback("def halve(x):\n    return x\ndef other(y):\n    return y\n")
        assert report.status == BAD_SIGNATURE

    def test_bad_signature_wrong_arity(self):
        report = feedback("def double(x, y):\n    return x\n")
        assert report.status == BAD_SIGNATURE

    def test_already_correct(self):
        report = feedback("def double(x):\n    return x + x\n")
        assert report.status == ALREADY_CORRECT
        assert report.render() == "The program is correct."

    def test_fixed(self):
        report = feedback("def double(x):\n    return x * 3\n")
        assert report.status == FIXED
        assert report.cost == 1
        assert report.fixed_source is not None
        assert "x * 2" in report.fixed_source

    def test_no_fix(self):
        report = feedback("def double(x):\n    return x * x\n")
        assert report.status == NO_FIX

    def test_sole_function_fallback_with_rename(self):
        # A typo'd name still grades when it is the only definition.
        report = feedback("def duble(x):\n    return x * 3\n")
        assert report.status == FIXED

    def test_recursive_submission_renamed_consistently(self):
        spec = ProblemSpec.from_typed_reference(
            "countdown",
            (
                "def countdown(n_int):\n"
                "    if n_int <= 0:\n"
                "        return 0\n"
                "    return countdown(n_int - 1)\n"
            ),
            bounds=Bounds(int_bits=3),
        )
        model = parse_error_model("rule RETN: return n -> return {n + 1, 0}")
        report = generate_feedback(
            (
                "def cntdown(n):\n"
                "    if n <= 0:\n"
                "        return 1\n"
                "    return cntdown(n - 1)\n"
            ),
            spec,
            model,
            timeout_s=30,
        )
        assert report.status == FIXED
        assert report.cost == 1


class TestGradeSubmission:
    def test_grading_buckets(self):
        assert grade_submission("def double(x:\n", SPEC) == SYNTAX_ERROR
        assert (
            grade_submission("import os\ndef double(x):\n    return x\n", SPEC)
            == UNSUPPORTED
        )
        assert (
            grade_submission("def double(x):\n    return 2 * x\n", SPEC)
            == ALREADY_CORRECT
        )
        assert (
            grade_submission("def double(x):\n    return x\n", SPEC)
            == "incorrect"
        )


class TestReportShape:
    def test_engine_result_attached(self):
        report = feedback("def double(x):\n    return x * 3\n")
        assert report.engine_result is not None
        assert report.engine_result.stats["engine"] == "cegismin"

    def test_items_sorted_by_line(self):
        report = feedback("def double(x):\n    return x * 3\n")
        lines = [item.line for item in report.items]
        assert lines == sorted(lines)

    def test_timing_recorded(self):
        report = feedback("def double(x):\n    return x * 3\n")
        assert report.wall_time > 0


class TestVerifierCache:
    def test_same_spec_shares_a_verifier(self):
        from repro.core.api import _verifier_cache

        assert _verifier_cache(SPEC) is _verifier_cache(SPEC)

    def test_spec_is_not_mutated(self):
        from repro.core.api import _verifier_cache

        _verifier_cache(SPEC)
        assert not hasattr(SPEC, "_verifier_cache")

    def test_cold_entries_are_collectable(self):
        # The weak mapping must not pin specs through their verifiers:
        # once a verifier leaves the hot ring and the spec is dropped,
        # both are collected (the WeakKeyDictionary value->key pitfall).
        import gc

        from repro.core.api import _HOT_VERIFIERS, _VERIFIERS, _verifier_cache
        from repro.mpy.values import Bounds

        spec = ProblemSpec.from_typed_reference(
            "triple",
            "def triple(x_int):\n    return x_int * 3\n",
            bounds=Bounds(int_bits=3),
        )
        _verifier_cache(spec)
        assert any(v.spec is spec for v in _HOT_VERIFIERS)
        before = len(_VERIFIERS)
        _HOT_VERIFIERS.clear()
        del spec
        gc.collect()
        assert len(_VERIFIERS) < before

    def test_hot_ring_holds_each_verifier_once(self):
        # Repeated use of one problem must not push every other hot
        # verifier out of the ring.
        import gc
        import weakref

        from repro.core.api import _verifier_cache
        from repro.mpy.values import Bounds

        def spec_for(factor):
            return ProblemSpec.from_typed_reference(
                f"times{factor}",
                f"def times(x_int):\n    return x_int * {factor}\n",
                bounds=Bounds(int_bits=3),
            )

        a, b = spec_for(5), spec_for(7)
        ref = weakref.ref(_verifier_cache(a))
        for _ in range(40):
            _verifier_cache(b)
        gc.collect()
        assert _verifier_cache(a) is ref()

    def test_a_backend_switch_gets_a_verifier_of_the_new_backend(self):
        # A cached verifier runs its reference on the backend it was
        # built on, so a grading after a switch must not be handed it.
        from repro.compile import BACKEND, COMPILED, INTERP
        from repro.core.api import _verifier_cache

        with BACKEND.using(COMPILED):
            compiled = _verifier_cache(SPEC)
        with BACKEND.using(INTERP):
            interp = _verifier_cache(SPEC)
            assert interp is not compiled
            assert interp.backend == INTERP
            assert _verifier_cache(SPEC) is interp
            assert interp.inputs == compiled.inputs
        with BACKEND.using(COMPILED):
            assert _verifier_cache(SPEC).backend == COMPILED
