"""The Pmf contract: an integer-form law (integer path weights over one
denominator, as the exact routes build it) behaves as its Fraction twin
Pmf(support, probs) in every method, to the type and the float bit."""

import math
import pickle
from fractions import Fraction

import pytest

from polyaurn.urns import Pmf, _exact_pmf, exact_pmf_dp, marginal_pmf, polya_young
from test_golden import EXACT, EXACT_ROUTES, EXACT_SPECS

SMALL = [key for key in EXACT
         if key[0] != "dp_float" and key[2] <= 10 and EXACT_SPECS[key[1]].is_exact]


def _fresh(key):
    route, name, N = key
    return EXACT_ROUTES[route](EXACT_SPECS[name], N)


def _scalar(law: Pmf) -> Pmf:
    """The law itself, or the marginal of colour 0 of a joint law."""
    return marginal_pmf(law, 0) if isinstance(law.support[0], tuple) else law


def _same(a, b) -> bool:
    """Equal and of one type; floats equal to the bit."""
    if type(a) is not type(b):
        return False
    return a.hex() == b.hex() if isinstance(a, float) else a == b


FUNCTIONS = {
    "int": lambda x: math.floor(3 * x) - 2,
    "fraction": lambda x: x * x / 7 - Fraction(1, 3),
    "float": lambda x: math.sqrt(x + 1) / 3,
}


@pytest.mark.parametrize("key", SMALL, ids=lambda k: "_".join(map(str, k)))
def test_integer_form_behaves_as_its_fraction_twin(key):
    law = _fresh(key)
    twin = Pmf(law.support, _fresh(key).probs)
    assert law._den is not None and twin._den is None
    # before the integer form's Fractions are read
    assert law.is_exact and twin.is_exact
    law.check_total()
    twin.check_total()
    one, other = _scalar(law), _scalar(twin)
    assert one._den is not None
    assert _same(one.mean(), other.mean())
    assert _same(one.moment(2), other.moment(2))
    for fn in FUNCTIONS.values():
        assert _same(one.expect(fn), other.expect(fn))
    assert law == twin and twin == law and one == other
    assert hash(law) == hash(twin)
    assert repr(law) == repr(twin) and repr(one) == repr(other)
    assert law.probs == twin.probs


@pytest.mark.parametrize("key", SMALL, ids=lambda k: "_".join(map(str, k)))
def test_integer_forms_compare_across_denominators(key):
    law = _fresh(key)
    tripled = Pmf._from_weights(law.support, tuple(3 * w for w in law._weights), 3 * law._den)
    assert tripled == law and law == tripled and tripled == _fresh(key)
    tripled.check_total()
    if len(law.support) > 1:
        moved = (law._weights[0] + 1, law._weights[1] - 1, *law._weights[2:])
        assert Pmf._from_weights(law.support, moved, law._den) != law
        assert Pmf._from_weights(law.support, tuple(3 * w for w in moved), 3 * law._den) != law


def test_int_valued_expect_returns_a_fraction():
    # int / int is a float: an int-valued expectation must still come back
    # as the Fraction test_moments::test_binomial_moments compares
    law = exact_pmf_dp(polya_young(2, 1, 1, 1, 1), 4, "exact")
    value = law.expect(lambda w: math.comb(int(w - 1), 2))
    assert type(value) is Fraction and value == Pmf(law.support, law.probs).expect(
        lambda w: math.comb(int(w - 1), 2))
    counts = law.map_support(lambda w: int(w - 1))
    assert counts._den is not None
    for value in (counts.mean(), counts.moment(2), counts.expect(lambda k: k > 1)):
        assert type(value) is Fraction


def test_a_nudged_weight_fails_the_total_check():
    law = _fresh(("dp_exact", "std", 10))
    nudged = (law._weights[0] + 1, *law._weights[1:])
    message = f"^exact pmf sums to {Fraction(law._den + 1, law._den)}$"
    with pytest.raises(AssertionError, match=message):
        _exact_pmf(law.support, nudged, law._den)
    with pytest.raises(AssertionError, match=message):
        Pmf(law.support, tuple(Fraction(w, law._den) for w in nudged)).check_total()


@pytest.mark.parametrize("name", ["std", "tri", "tables", "multicolor"])
def test_marginal_of_an_integer_joint_law_is_the_marginal_of_its_twin(name):
    joint = _fresh(("enumerate", name, 9))
    twin = Pmf(joint.support, joint.probs)
    for index in range(len(joint.support[0])):
        mine, theirs = marginal_pmf(joint, index), marginal_pmf(twin, index)
        assert mine._den is not None and theirs._den is None
        assert mine == theirs and repr(mine) == repr(theirs)


def test_a_law_is_immutable_and_pickles_in_its_form():
    law = _fresh(("dp_exact", "std", 9))
    with pytest.raises(AttributeError):
        law.support = ()
    with pytest.raises(AttributeError):
        del law.probs
    back = pickle.loads(pickle.dumps(law))
    assert back._den == law._den and back == law and repr(back) == repr(law)
