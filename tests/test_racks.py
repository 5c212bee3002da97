import itertools
import json

import pytest

from ybrack import racks
from ybrack.racks import (ClosureCapExceeded, Perm, RackError,
                          RackSpecError, behavioral_classes, class_ids,
                          closure, conjugation_quandle, dihedral_rack,
                          inner_group, parse_perm, rack_from_json,
                          rack_from_name, square_reflection_quandle,
                          tetrahedral_quandle, transposition_quandle,
                          trivial_rack, validate_rack)


# -- permutations --------------------------------------------------------

def test_perm_right_action_composition():
    a = Perm((1, 0, 2))
    b = Perm((0, 2, 1))
    # x^(ab) = (x^a)^b
    ab = a * b
    for x in range(3):
        assert ab(x) == b(a(x))


def test_perm_inverse_and_identity():
    p = parse_perm("(123)", 4)
    assert p * p.inverse() == Perm.identity(4)
    assert Perm.identity(4).images == (0, 1, 2, 3)


def test_parse_perm_forms():
    assert parse_perm("(12)(34)", 4).images == (1, 0, 3, 2)
    assert parse_perm("(1 2 3)", 3).images == (1, 2, 0)
    assert parse_perm("()", 3) == Perm.identity(3)
    with pytest.raises(RackSpecError):
        parse_perm("(15)", 3)
    with pytest.raises(RackSpecError):
        parse_perm("(12)(21)", 3)


def test_cycle_string_round_trip():
    p = parse_perm("(12)(34)", 5)
    assert parse_perm(p.cycle_string(), 5) == p


def test_closure_s3():
    gens = [parse_perm("(12)", 3), parse_perm("(123)", 3)]
    step = lambda p: (p * g for g in gens)
    s3 = closure(Perm.identity(3), step, 6)
    assert len(s3) == len(set(s3)) == 6 and s3[0] == Perm.identity(3)
    with pytest.raises(ClosureCapExceeded):
        closure(Perm.identity(3), step, 5)


# -- validation ----------------------------------------------------------

def test_validate_trivial_is_quandle():
    r = validate_rack([[0, 0, 0], [1, 1, 1], [2, 2, 2]])
    assert r.is_quandle and r.size == 3


def test_validate_dihedral3():
    table = [[(2 * y - x) % 3 for y in range(3)] for x in range(3)]
    r = validate_rack(table, quandle_required=True)
    assert r.is_quandle


def test_validate_constant_column_fails_q2():
    with pytest.raises(RackError, match="bijection"):
        validate_rack([[0, 0], [0, 1]])


def test_validate_q3_violation_carries_witness():
    # columns are permutations but self-distributivity fails
    with pytest.raises(RackError) as err:
        validate_rack([[0, 1], [1, 0]])
    assert err.value.witness is not None
    x, y, z = err.value.witness
    t = [[0, 1], [1, 0]]
    assert t[t[x][y]][z] != t[t[x][z]][t[y][z]]


def test_validate_rack_not_quandle():
    cyclic = [[(x + 1) % 3 for _ in range(3)] for x in range(3)]
    r = validate_rack(cyclic)
    assert not r.is_quandle
    with pytest.raises(RackError, match="idempotency"):
        validate_rack(cyclic, quandle_required=True)


def test_empty_rack_rejected():
    with pytest.raises(RackSpecError):
        validate_rack([])
    with pytest.raises(RackSpecError):
        conjugation_quandle([])


def test_out_of_range_entry_is_input_error():
    with pytest.raises(RackSpecError):
        validate_rack([[0, 2], [1, 0]])


@pytest.mark.parametrize("table", [5, None, "abc", [1, 2], [[0.7]],
                                   [[True]], [["0"]], [[0, 1], [1, 1.0]]])
def test_table_of_non_integers_is_input_error(table):
    with pytest.raises(RackSpecError):
        validate_rack(table)
    with pytest.raises(RackSpecError):
        rack_from_json({"table": table})
    with pytest.raises(RackSpecError):
        rack_from_json({"size": 2, "table": table})


# -- conjugation quandles -------------------------------------------------

def test_conjugation_quandle_transpositions_matches_dihedral():
    assert transposition_quandle(3).table == dihedral_rack(3).table


def test_conjugation_quandle_square_reflections():
    r = square_reflection_quandle()
    assert r.size == 4 and r.is_quandle
    assert r.table == ((0, 0, 1, 1), (1, 1, 0, 0),
                       (3, 3, 2, 2), (2, 2, 3, 3))


def test_conjugation_quandle_singleton():
    r = conjugation_quandle([Perm.identity(3)])
    assert r.size == 1 and r.is_quandle


def _class_by_enumeration(g, group):
    """g's conjugacy class as the set of its conjugates by every element
    of the listed group, sorted by image tuple."""
    return sorted({h.inverse() * g * h for h in group},
                  key=lambda p: p.images)


def _symmetric(k):
    return [Perm(p) for p in itertools.permutations(range(k))]


@pytest.mark.parametrize("k", range(2, 7))
def test_transposition_quandle_is_the_class_over_all_of_sk(k):
    cls = _class_by_enumeration(parse_perm("(12)", k), _symmetric(k))
    assert transposition_quandle(k).table == conjugation_quandle(cls).table


def test_tetrahedral_quandle_is_the_class_over_all_of_a4():
    a4 = [p for p in _symmetric(4)
          if sum(p(i) > p(j) for i, j in itertools.combinations(range(4), 2))
          % 2 == 0]
    assert len(a4) == 12
    cls = _class_by_enumeration(parse_perm("(123)", 4), a4)
    assert tetrahedral_quandle().table == conjugation_quandle(cls).table


def test_conjugation_quandle_not_closed():
    perms = [parse_perm("(12)", 3), parse_perm("(13)", 3)]
    with pytest.raises(RackError, match="closed"):
        conjugation_quandle(perms)


def test_conjugation_quandles_always_validate_as_quandles():
    for rack in [transposition_quandle(3), transposition_quandle(4),
                 square_reflection_quandle(), tetrahedral_quandle()]:
        assert validate_rack(rack.table, quandle_required=True).is_quandle


# -- inner group and behavioural classes ---------------------------------

def test_inner_group_orders():
    assert inner_group(trivial_rack(5)).order == 1
    assert inner_group(dihedral_rack(3)).order == 6
    assert inner_group(square_reflection_quandle()).order == 4
    assert inner_group(tetrahedral_quandle()).order == 12


def test_inner_group_cap(monkeypatch):
    monkeypatch.setattr(racks, "CLOSURE_CAP", 2)
    with pytest.raises(ClosureCapExceeded):
        inner_group(dihedral_rack(3))


def test_inner_group_closed_under_product_and_inverse():
    g = inner_group(dihedral_rack(4))
    els = set(g.elements)
    for a in els:
        assert a.inverse() in els
        for b in els:
            assert a * b in els
    assert Perm.identity(4) in els


def test_behavioral_classes_examples():
    assert behavioral_classes(trivial_rack(4)) == [[0, 1, 2, 3]]
    assert behavioral_classes(dihedral_rack(3)) == [[0], [1], [2]]
    assert behavioral_classes(square_reflection_quandle()) == [[0, 1], [2, 3]]
    assert behavioral_classes(dihedral_rack(6)) == [[0, 3], [1, 4], [2, 5]]


def test_behavioral_classes_preserved_by_inner_action():
    for rack in [dihedral_rack(4), dihedral_rack(6),
                 square_reflection_quandle()]:
        ids = class_ids(rack)
        for alpha in inner_group(rack).elements:
            for x in range(rack.size):
                for y in range(rack.size):
                    if ids[x] == ids[y]:
                        assert ids[alpha(x)] == ids[alpha(y)]


def test_right_translations_are_rack_automorphisms():
    for rack in [dihedral_rack(4), tetrahedral_quandle(),
                 square_reflection_quandle()]:
        for y in range(rack.size):
            rho = rack.rho(y)
            for a in range(rack.size):
                for b in range(rack.size):
                    assert rho(rack.op(a, b)) == rack.op(rho(a), rho(b))


# -- named constructors and JSON ------------------------------------------

def test_rack_from_name_forms():
    assert rack_from_name("trivial:4").size == 4
    assert rack_from_name("dihedral:5").table == dihedral_rack(5).table
    conj = rack_from_name("conj:S3:(12),(13),(23)")
    assert conj.table == dihedral_rack(3).table
    tet = rack_from_name("conj:S4:(123),(134),(142),(243)")
    assert sorted(sorted(row) for row in tet.table) == \
        sorted(sorted(row) for row in tetrahedral_quandle().table)


def test_rack_from_name_errors():
    with pytest.raises(RackSpecError):
        rack_from_name("nonsense")
    with pytest.raises(RackSpecError):
        rack_from_name("conj:G3:(12)")
    with pytest.raises(RackSpecError):
        rack_from_name("conj:A4:(12)")  # odd permutation


def test_rack_json_round_trip():
    rack = square_reflection_quandle()
    data = json.loads(json.dumps(rack.to_json()))
    assert rack_from_json(data).table == rack.table


def test_rack_json_shape_errors():
    with pytest.raises(RackSpecError):
        rack_from_json({"size": 3})
    with pytest.raises(RackSpecError):
        rack_from_json({"size": 3, "table": [[0]]})


def test_tetrahedral_structure():
    tet = tetrahedral_quandle()
    assert tet.size == 4 and tet.is_quandle
    assert behavioral_classes(tet) == [[0], [1], [2], [3]]
