"""Every exported error survives pickling: type, message, arguments and
attributes, as an error raised in a lane's docking process must."""

import pickle

import pytest

import crossdock
from crossdock import errors

EXAMPLES = {
    "ComparisonError": errors.ComparisonError("H16 against NC24"),
    "CrossdockError": errors.CrossdockError("any failure"),
    "DispatchError": errors.DispatchError("no worker connected within 1 s"),
    "GridOverflowError": errors.GridOverflowError(7, "out"),
    "NoAtomsError": errors.NoAtomsError("no atoms in PDB input 'empty'"),
    "ParameterError": errors.ParameterError("top_k must be >= 1, got 0"),
    "PdbParseError": errors.PdbParseError(12, "bad x coordinate 'abc'"),
    "WireError": errors.WireError("frame of 5 bytes"),
}


def test_every_exported_error_has_an_example():
    exported = {name for name in crossdock.__all__
                if isinstance(getattr(crossdock, name), type)
                and issubclass(getattr(crossdock, name), BaseException)}
    assert exported == set(EXAMPLES)


@pytest.mark.parametrize("exc", [*EXAMPLES.values(), errors.GridOverflowError(3)],
                         ids=[*EXAMPLES, "GridOverflowError-default"])
def test_an_error_round_trips_through_pickle(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc) and back.args == exc.args
    assert vars(back) == vars(exc)
    assert f"{type(back).__name__}: {back}" == f"{type(exc).__name__}: {exc}"


def test_the_errors_that_carry_fields_keep_them():
    assert str(errors.GridOverflowError(7, "out")) == "atom serial 7: out"
    assert pickle.loads(pickle.dumps(errors.GridOverflowError(7, "out"))).serial == 7
    parse = pickle.loads(pickle.dumps(errors.PdbParseError(12, "bad x")))
    assert (str(parse), parse.line_number) == ("line 12: bad x", 12)
