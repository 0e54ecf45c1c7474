"""Value semantics of the package's immutable classes.

Each class keeps its attributes in __slots__ and sets them once, in a
constructor.  Two values are equal exactly when they have the same class and
equal attributes, equal hashable values hash alike, and setattr and delattr
raise AttributeError.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from cayley.geometry import SymmetricTensor
from cayley.poly import Polynomial, PolyMatrix, variables
from cayley.symmetry import AffineVectorField, SymmetryAlgebra, euler_field

X1, X2 = variables(2)

# class -> (constructor arguments, arguments of an unequal value)
CASES = {
    SymmetricTensor: ((2, 2, {(2, 1): Fraction(1, 2)}), (2, 2, {(1, 1): 1})),
    AffineVectorField: (([Polynomial.constant(2, 1), X1],), ([X2, X1],)),
    SymmetryAlgebra: (((euler_field(2),), (Fraction(2),)), ((), ())),
    PolyMatrix: (([[X1, X2]],), ([[X2, X1]],)),
}
CLASSES = list(CASES)
HASHABLE = [cls for cls in CLASSES if cls is not SymmetricTensor]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equal_attributes_give_equal_values(cls):
    args, other_args = CASES[cls]
    a, b = cls(*args), cls(*args)
    assert a is not b
    assert a == b and not a != b
    assert a != cls(*other_args)


@pytest.mark.parametrize("cls", HASHABLE, ids=lambda cls: cls.__name__)
def test_equal_values_hash_alike(cls):
    args, _ = CASES[cls]
    assert hash(cls(*args)) == hash(cls(*args))
    assert len({cls(*args), cls(*args)}) == 1


def test_symmetric_tensor_is_unhashable():
    with pytest.raises(TypeError):
        hash(SymmetricTensor(2, 2, {(1, 2): 1}))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_a_value_never_equals_one_of_another_class(cls):
    args, _ = CASES[cls]
    twin = type("Twin", (cls,), {})  # same constructor, same attributes
    value = cls(*args)
    assert twin(*args) != value and value != twin(*args)
    assert value != tuple(getattr(value, name) for name in cls.__slots__)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_setattr_and_delattr_raise(cls):
    value = cls(*CASES[cls][0])
    for name in cls.__slots__:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_copies_and_pickles_are_equal(cls):
    value = cls(*CASES[cls][0])
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value


def test_repr_names_every_attribute():
    assert repr(SymmetryAlgebra((), ())) == "SymmetryAlgebra(basis=(), eigenvalues=())"


def test_keyword_construction_of_the_records():
    assert SymmetryAlgebra(basis=(), eigenvalues=()) == SymmetryAlgebra((), ())

