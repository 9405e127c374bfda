"""End-to-end checks pinning the package's headline fixtures and sweeps.

Every test carries an ``acceptance(n, label)`` marker; the terminal summary
prints one pass/fail line per numbered criterion.  Wall-clock budgets are
asserted where a criterion names one.  The S_7 sweep runs only under
FORESTRY_EXTENDED=1.
"""
import time
from math import factorial

import pytest
from references import label_weight, x

from forestry.correspondence import (
    covering_relation,
    find_bad_pair,
    labeling_to_pipe_dream,
    verify_theorem,
)
from forestry.forests import (
    code_of_forest,
    forest_from_code,
    forest_polynomial,
    valid_labelings,
)
from forestry.permutations import (
    all_permutations,
    avoids_forbidden,
    contains_pattern,
    insert,
    lehmer_code,
    trim_zeros,
)
from forestry.pipedreams import (
    all_pipe_dreams,
    schubert,
    schubert_divdiff,
    simple_closure,
    weight,
)

acceptance = pytest.mark.acceptance


@acceptance(1, "schubert(4132) and its two pipe dreams")
def test_schubert_4132_exactly():
    start = time.monotonic()
    assert schubert((4, 1, 3, 2)) == x(1) ** 3 * x(2) + x(1) ** 3 * x(3)
    dreams = all_pipe_dreams((4, 1, 3, 2))
    assert len(dreams) == 2
    assert {weight(d) for d in dreams} == {(3, 0, 1), (3, 1)}
    assert time.monotonic() - start < 1.0


@acceptance(2, "eight-row forest polynomial equals its product form")
def test_forest_polynomial_product_form():
    start = time.monotonic()
    forest = forest_from_code((2, 1, 1, 0, 1, 0, 0, 1))
    poly = forest_polynomial(forest)
    product = (
        x(1) ** 2
        * x(2)
        * x(3)
        * (x(2) + x(3) + x(4) + x(5))
        * sum(x(i) for i in range(1, 9))
    )
    assert poly == product
    # 32 unit-weight summands, one per labeling; six pairs of labelings
    # share a monomial, so the collected form has 26 terms
    assert len(valid_labelings(forest)) == 32
    assert sum(coeff for _, coeff in poly.items()) == 32
    assert all(coeff > 0 for _, coeff in poly.items())
    assert time.monotonic() - start < 1.0


@acceptance(3, "Lehmer code and insertion fixtures")
def test_lehmer_code_fixtures():
    assert lehmer_code((1, 5, 3, 4, 2)) == (0, 3, 1, 1, 0)
    assert lehmer_code((4, 1, 5, 3, 2)) == (3, 0, 2, 1, 0)


@acceptance(3, "Lehmer code and insertion fixtures")
@pytest.mark.xfail(
    reason="pinned value contradicts the insertion rule it is meant to "
    "illustrate: bumping values >= 4 in 1342 and placing 4 at slot 2 gives "
    "14352, not 12453 (12453 is what placing 2 at slot 2 gives)",
    strict=True,
)
def test_insert_pinned_value():
    assert insert((1, 3, 4, 2), 2, 4) == (1, 2, 4, 5, 3)


@acceptance(3, "Lehmer code and insertion fixtures")
def test_insert_companion_facts():
    # what the rule actually yields, and the route to the pinned target
    assert insert((1, 3, 4, 2), 2, 4) == (1, 4, 3, 5, 2)
    assert insert((1, 3, 4, 2), 2, 2) == (1, 2, 4, 5, 3)
    assert lehmer_code((1, 2, 4, 5, 3)) == (0, 0, 1, 1, 0)


@acceptance(4, "covering relation of 41532")
def test_covering_relation_41532():
    assert covering_relation((4, 1, 5, 3, 2)) == frozenset(
        {((1, 2), (3, 2)), ((3, 1), (4, 1))}
    )


@acceptance(5, "pattern verdict matches expansion verdict through S_6")
def test_exhaustive_agreement_through_n6():
    start = time.monotonic()
    for n in range(1, 7):
        report = verify_theorem(n)
        assert report.total == factorial(n)
        assert report.disagreements == ()
        assert report.badpair_disagreements == ()
    assert time.monotonic() - start < 60.0


@acceptance(5, "pattern verdict matches expansion verdict through S_6")
@pytest.mark.extended
def test_exhaustive_agreement_n7():
    start = time.monotonic()
    report = verify_theorem(7)
    assert report.total == 5040
    assert report.disagreements == ()
    assert report.badpair_disagreements == ()
    assert time.monotonic() - start < 600.0


@acceptance(6, "pipe-dream sums equal divided-difference values through S_5")
def test_divided_difference_oracle():
    start = time.monotonic()
    checked = 0
    for n in range(1, 6):
        for w in all_permutations(n):
            assert schubert(w) == schubert_divdiff(w)
            checked += 1
    assert checked == 153
    assert time.monotonic() - start < 30.0


@acceptance(7, "simple moves reach every dream exactly when 1432 is avoided")
def test_simple_closure_iff_avoids_1432():
    start = time.monotonic()
    for n in range(1, 7):
        for w in all_permutations(n):
            full = simple_closure(w) == all_pipe_dreams(w)
            assert full == (not contains_pattern(w, (1, 4, 3, 2)))
    assert time.monotonic() - start < 120.0


@acceptance(8, "labeling map is injective, weight-true, with the right image")
def test_labeling_map_suite():
    start = time.monotonic()
    for n in range(1, 6):
        for w in all_permutations(n):
            forest = forest_from_code(lehmer_code(w))
            image = set()
            for labeling in valid_labelings(forest):
                dream = labeling_to_pipe_dream(w, labeling)
                assert weight(dream) == label_weight(labeling)
                image.add(dream)
            assert len(image) == len(valid_labelings(forest))
            assert image <= simple_closure(w)
            assert (image == all_pipe_dreams(w)) == avoids_forbidden(w)
    assert time.monotonic() - start < 120.0


@acceptance(9, "leading monomials recover the code on both sides")
def test_leading_monomials_recover_codes():
    for n in range(1, 7):
        for w in all_permutations(n):
            code = lehmer_code(w)
            assert schubert(w).leading_monomial() == trim_zeros(code)
            forest = forest_from_code(code)
            poly = forest_polynomial(forest)
            assert poly.leading_monomial() == code_of_forest(forest)


@acceptance(10, "bad-pair witnesses for each forbidden pattern")
def test_bad_pair_witnesses():
    pinned = {
        (2, 4, 1, 3): ((1, 1), (2, 2)),
        (2, 4, 3, 1): ((1, 1), (2, 2)),
        (1, 4, 5, 2, 3): ((2, 1), (3, 2)),
        (3, 2, 1, 5, 4): ((1, 2), (4, 1)),
        (3, 4, 1, 2, 6, 5): ((1, 2), (5, 1)),
        (2, 4, 5, 1, 3): ((1, 1), (2, 2)),
        (1, 4, 6, 2, 3, 5): ((2, 1), (3, 3)),
    }
    for w, pair in pinned.items():
        found = find_bad_pair(w)
        assert found is not None
        assert (found.parent, found.child) == pair


@acceptance(10, "bad-pair witnesses for each forbidden pattern")
def test_no_bad_pair_for_forest_cases():
    assert find_bad_pair((4, 1, 3, 2)) is None
    assert find_bad_pair((1, 2, 3, 4)) is None
