"""Randomized structural properties, driven by the shared selfcheck suites
(the CLI selftest runs the same code)."""

from gkinv.selfcheck import (
    egk_suite,
    invariant_suite,
    involution_suite,
    oracle_suite,
    padic_suite,
    qform_suite,
    reducer_suite,
)


def _assert_all(results):
    bad = [r for r in results if not r.ok]
    assert not bad, "; ".join(f"{r.name}: {r.detail}" for r in bad)


def test_padic_properties():
    # at least a thousand random triples per prime for the symbol algebra
    _assert_all(padic_suite(trials=1000, seed=0))


def test_qform_properties():
    _assert_all(qform_suite(trials=80, seed=1))


def test_involution_properties():
    _assert_all(involution_suite())


def test_reducer_properties():
    _assert_all(reducer_suite(trials=50, seed=3))


def test_invariant_properties():
    _assert_all(invariant_suite(trials=60, seed=4))


def test_egk_properties():
    _assert_all(egk_suite(trials=60, seed=5))


def test_oracle_properties():
    _assert_all(oracle_suite(trials=30, seed=6))
