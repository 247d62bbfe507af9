"""The record classes keep the protocol of the dataclasses they replace.

For each of the nine exported records: positional and keyword
construction with the same defaults, a fresh default list per instance,
field-wise ``==`` and ``!=``, the ``Name(field=value, ...)`` repr, and for
the frozen ones equal hashes and no assignment.  The split witness still
checks its exponent bound.
"""

from fractions import Fraction

import pytest

from fsing import (
    FptSample,
    InvariantReport,
    MatroidInput,
    ModificationResult,
    ParsedFile,
    RegCertificate,
    RegStage,
    SplitWitness,
    SuiteConfig,
    TheoremContradictionError,
    VarCtx,
    build_field,
)

F2 = build_field(2)
X = VarCtx(("x",))

# class, field names in order, one value per field, frozen
RECORDS = [
    (SplitWitness, ("e", "q", "witness"), (1, 2, (1, 0)), True),
    (RegStage, ("inverted_var", "e", "multiplier", "witness"), (3, 1, (0, 1), (1, 1)), True),
    (RegCertificate, ("stages", "base", "notes"), ([], [(0, (1, 0))], ["n"]), False),
    (FptSample, ("e", "q", "b", "lam"), (1, 3, 2, Fraction(1)), True),
    (
        InvariantReport,
        ("point", "ord", "mult", "dim", "dfpt", "fpt", "t", "exact", "budget_exceeded"),
        ((0, 0), 2, 2, 1, 1, Fraction(0), 1, True, True),
        False,
    ),
    (ParsedFile, ("field", "varctx", "polys", "source"), (F2, X, {}, "p 2\n"), False),
    (MatroidInput, ("n", "bases"), (3, [(1, 2)]), False),
    (
        SuiteConfig,
        ("p_list", "n", "max_terms", "max_factors", "count", "seed", "extra_inputs"),
        ((3,), 4, 5, 2, 7, 9, ()),
        False,
    ),
    (
        ModificationResult,
        ("f", "ftilde", "transformed", "witness", "certificate", "verified", "dfpt",
         "max_mult", "point_checks", "budget_exceeded"),
        ("f", "ft", "tr", "w", "c", True, 1, 2, [{"point": [0]}], True),
        False,
    ),
]

DEFAULTS = {
    RegCertificate: {"notes": []},
    InvariantReport: {"exact": None, "budget_exceeded": False},
    SuiteConfig: {
        "p_list": (2, 3, 5), "n": 8, "max_terms": 8, "max_factors": 3,
        "count": 200, "seed": 0, "extra_inputs": (),
    },
    ModificationResult: {"point_checks": [], "budget_exceeded": False},
}

IDS = [record[0].__name__ for record in RECORDS]


def _fields(obj, names):
    return tuple(getattr(obj, name) for name in names)


@pytest.mark.parametrize("cls, names, values, frozen", RECORDS, ids=IDS)
def test_construction_and_defaults(cls, names, values, frozen):
    assert _fields(cls(*values), names) == values
    assert _fields(cls(**dict(zip(names, values))), names) == values
    defaults = DEFAULTS.get(cls, {})
    required = [v for name, v in zip(names, values) if name not in defaults]
    made = cls(*required)
    assert {name: getattr(made, name) for name in defaults} == defaults


@pytest.mark.parametrize("cls, field", [(RegCertificate, "notes"),
                                        (ModificationResult, "point_checks")])
def test_default_lists_are_not_shared(cls, field):
    names, values = next((n, v) for c, n, v, _ in RECORDS if c is cls)
    required = [v for name, v in zip(names, values) if name not in DEFAULTS[cls]]
    a, b = cls(*required), cls(*required)
    getattr(a, field).append("only a")
    assert getattr(b, field) == []


@pytest.mark.parametrize("cls, names, values, frozen", RECORDS, ids=IDS)
def test_equality_and_repr(cls, names, values, frozen):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    assert a != values and not a == values
    for k in range(len(values)):
        changed = list(values)
        changed[k] = (2, 4, (0, 0))[k] if cls is SplitWitness else ("other",)
        assert a != cls(*changed) and not a == cls(*changed)
    body = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(a) == f"{cls.__name__}({body})"


@pytest.mark.parametrize("cls, names, values, frozen", RECORDS, ids=IDS)
def test_frozen_records_hash_and_refuse_assignment(cls, names, values, frozen):
    a, b = cls(*values), cls(*values)
    if not frozen:
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, names[0], values[1])
        assert getattr(a, names[0]) == values[1]
        return
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    for name in names:
        with pytest.raises(AttributeError):
            setattr(a, name, values[0])
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert _fields(a, names) == values


def test_split_witness_checks_its_exponent_bound():
    with pytest.raises(TheoremContradictionError):
        SplitWitness(1, 2, (2, 0))
    with pytest.raises(TheoremContradictionError):
        SplitWitness(e=1, q=3, witness=(0, -1))
    assert SplitWitness(1, 3, (2, 0)).witness == (2, 0)
