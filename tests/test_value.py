"""The package's frozen value types (`blockspin._value.frozen`) against the
stdlib: each class has a twin made by `dataclasses.make_dataclass` from its
fields, and on instances from the built-in codes, channels, tilings, toric
states, logistic runs and algebra decompositions the two give the same
`repr`, `hash` and `==` results, except that a value with a `Mapping`
field hashes where its twin raises.  Then the storage rule: tuple fields
are tuples, mapping fields read-only views of their own copy, and every
value pickles."""

import collections.abc
import dataclasses
import functools
import importlib
import itertools
import pickle
import typing
from types import MappingProxyType

import pytest

from blockspin._value import frozen, replace

LAYERS = ("pauli", "codes", "channel", "tiling", "toric_rescale", "logistic", "dfs")


def frozen_classes() -> dict[str, type]:
    """Every class a layer defines with `frozen`, which alone sets `__match_args__`."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"blockspin.{layer}")
        for name, obj in vars(mod).items():
            if isinstance(obj, type) and obj.__module__ == mod.__name__ and "__match_args__" in vars(obj):
                out[f"{layer}.{name}"] = obj
    return out


@functools.cache
def instances() -> dict[str, list]:
    """At least two instances of each frozen class, some of them equal."""
    from blockspin import channel, codes, dfs, logistic, tiling, toric_rescale
    from blockspin.pauli import Pauli

    five, steane = codes.five_qubit_code(), codes.steane_code()
    dep, flip = channel.PauliChannel.depolarizing(0.1), channel.PauliChannel.bit_flip(0.05)
    plus, brick = tiling.plus_tiling(25), tiling.brick_tiling(25)
    state = toric_rescale.ToricState(3)
    scans = [toric_rescale.cardinality_scan(toric_rescale.ToricState(L)) for L in (3, 4)]
    ops = dfs.collective_noise_generators(2)
    decs = [dfs.decompose(ops), dfs.decompose(dfs.collective_noise_generators(3))]
    orbits = [logistic.map_orbit(mu, 1.0, 0.5, 1400) for mu in (2.5, 3.3)]
    _, records = channel.classify_error(five, 2, Pauli.from_string("X" + "I" * 24))
    return {
        "pauli.Pauli": [Pauli.from_string(s) for s in ("XYZ", "-iXYZ", "XYZ", "ZZI")],
        "pauli.StabilizerGroup": [five.stabilizer, steane.stabilizer, state.group,
                                  replace(five.stabilizer)],
        "codes.StabilizerCode": [five, steane, codes.toric_code(2)],
        "codes.TileHamiltonian": [
            codes.TileHamiltonian([1.0] * 4, five.stabilizer.generators),
            codes.TileHamiltonian([2.0] * 4, five.stabilizer.generators),
        ],
        "channel.PauliChannel": [dep, flip, channel.PauliChannel(0.9, 0.1 / 3, 0.1 / 3, 0.1 / 3),
                                 channel.effective_channel(steane, flip)],
        "channel.LogicalActionTable": [five.action_table, steane.action_table],
        "channel.FlowTrajectory": [channel.flow(five, dep), channel.flow(steane, flip),
                                   channel.flow(five, dep)],
        "channel.MemorySupport": [channel.memory_support(five, dep, 0.5),
                                  channel.memory_support(five, channel.PauliChannel.depolarizing(0.2), 0.5),
                                  channel.memory_support(five, dep, 0.5)],
        "channel.LevelRecord": [*records, channel.LevelRecord(1, records[0].residual)],
        "tiling.Tiling": [plus, brick, tiling.plus_tiling(25, -1), tiling.plus_tiling(25)],
        "tiling.ConcatenatedTiling": [tiling.concatenate_tiling(plus, 1),
                                      tiling.concatenate_tiling(plus, 2)],
        "toric_rescale.ToricState": [state, toric_rescale.ToricState(4), toric_rescale.ToricState(3)],
        "toric_rescale.ScanRow": [*scans[0].rows, *scans[1].rows],
        "toric_rescale.CardinalityScan": [*scans, toric_rescale.cardinality_scan(state)],
        "toric_rescale.RescalingCheck": [toric_rescale.verify_rescaling(state),
                                         toric_rescale.verify_rescaling(toric_rescale.ToricState(6))],
        "logistic.LogisticParams": [logistic.LogisticParams(1.0, 1.0, dt) for dt in (1.0, 2.3, 1.0)],
        "logistic.CycleReport": [logistic.detect_cycle(o) for o in (*orbits, orbits[0])],
        "dfs.OperatorSet": [ops, dfs.collective_noise_generators(3)],
        "dfs.Block": [b for dec in decs for b in dec.blocks],
        "dfs.AlgebraDecomposition": [*decs, replace(decs[0])],
        "dfs.NoiselessBlock": [nb for dec in decs for nb in dfs.find_noiseless(dec)]
        + [dfs.NoiselessBlock(0, 2, "subspace")],
    }


def outcome(fn):
    """("value", result) of fn(), or ("raises", the exception's type)."""
    try:
        return "value", fn()
    except Exception as exc:  # unhashable fields raise in both types alike
        return "raises", type(exc)


def field_values(obj) -> dict:
    return {f: getattr(obj, f) for f in obj.__match_args__}


def fields_annotated(head: str) -> list[tuple[str, str]]:
    """(class name, field) for each field of a frozen class annotated
    `head[...]`; every layer module uses string annotations."""
    return [(name, f) for name, cls in sorted(frozen_classes().items())
            for f, a in cls.__annotations__.items() if a.startswith(f"{head}[")]


# their numpy fields neither hash nor compare as a whole, as in a dataclass
ARRAY_HOLDERS = {"dfs.OperatorSet", "dfs.Block", "dfs.AlgebraDecomposition"}


def test_every_frozen_class_has_instances():
    assert sorted(frozen_classes()) == sorted(instances())
    assert len(frozen_classes()) == 21


@pytest.mark.parametrize("name", sorted(frozen_classes()))
def test_matches_the_stdlib_dataclass(name):
    cls = frozen_classes()[name]
    twin = dataclasses.make_dataclass(cls.__name__, cls.__match_args__, frozen=True)
    objs = instances()[name]
    twins = [twin(**field_values(obj)) for obj in objs]
    assert all(type(obj) is cls for obj in objs)
    assert len(objs) >= 2
    has_mapping = any(c == name for c, _ in fields_annotated("Mapping"))
    for obj, tw in zip(objs, twins):
        assert repr(obj) == repr(tw)
        if has_mapping:  # the twin's view is unhashable; see test_hashes_and_pickles
            assert outcome(lambda: hash(tw)) == ("raises", TypeError)
        else:
            assert outcome(lambda: hash(obj)) == outcome(lambda: hash(tw))
        assert obj.__match_args__ == tw.__match_args__
    for (a, ta), (b, tb) in itertools.product(zip(objs, twins), repeat=2):
        assert outcome(lambda: a == b) == outcome(lambda: ta == tb)
        assert outcome(lambda: a != b) == outcome(lambda: ta != tb)
    # another class never compares equal, not even a twin of the same fields
    assert objs[0] != twins[0] and objs[0] != tuple(field_values(objs[0]).values())


@pytest.mark.parametrize("name", sorted(frozen_classes()))
def test_assignment_and_deletion_raise(name):
    obj = instances()[name][0]
    for f in obj.__match_args__:
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field {f!r}$"):
            setattr(obj, f, getattr(obj, f))
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field {f!r}$"):
            delattr(obj, f)
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.not_a_field = 1


@pytest.mark.parametrize("name", sorted(frozen_classes()))
def test_constructor_arguments(name):
    cls = frozen_classes()[name]
    obj = instances()[name][0]
    values = field_values(obj)
    first, *_ = values
    rebuilt = [cls(*values.values()), cls(**values), replace(obj)]
    assert all(type(r) is cls and r == obj for r in rebuilt)
    with pytest.raises(TypeError):
        cls()  # every class has a required first field
    with pytest.raises(TypeError):
        cls(**values, not_a_field=1)
    with pytest.raises(TypeError):
        cls(*values.values(), **{first: values[first]})
    with pytest.raises(TypeError):
        cls(*values.values(), values[first])
    with pytest.raises(TypeError):
        replace(obj, not_a_field=1)


def test_annotated_fields():
    assert fields_annotated("Mapping") == [
        ("codes.StabilizerCode", "recovery_table"), ("tiling.ConcatenatedTiling", "addresses")
    ]
    assert len(fields_annotated("tuple")) == 15


@pytest.mark.parametrize("name", sorted(frozen_classes()))
def test_hashes_and_pickles(name):
    for obj in instances()[name]:
        back = pickle.loads(pickle.dumps(obj))
        assert type(back) is type(obj) and repr(back) == repr(obj)
        if name in ARRAY_HOLDERS:
            with pytest.raises(TypeError, match="unhashable type: 'numpy.ndarray'"):
                hash(obj)
        else:
            assert back == obj and hash(back) == hash(obj)
            assert vars(back).keys() == vars(obj).keys()  # caches included


def test_code_pickles_with_its_action_table():
    from blockspin.codes import shor_code

    code = shor_code()
    table = code.action_table
    back = pickle.loads(pickle.dumps(code))
    assert back == code and hash(back) == hash(code)
    assert "action_table" in vars(back) and back.action_table == table


@pytest.mark.parametrize("name, field", fields_annotated("tuple"))
def test_tuple_fields_store_any_iterable_as_a_tuple(name, field):
    cls = frozen_classes()[name]
    obj = instances()[name][0]
    values = field_values(obj)
    assert type(values[field]) is tuple
    for given in (list(values[field]), (v for v in values[field])):
        rebuilt = cls(**{**values, field: given})
        assert type(getattr(rebuilt, field)) is tuple and rebuilt == obj
        if name not in ARRAY_HOLDERS:
            assert hash(rebuilt) == hash(obj)


@pytest.mark.parametrize("name, field", fields_annotated("Mapping"))
def test_mapping_fields_store_a_view_of_a_copy(name, field):
    cls = frozen_classes()[name]
    obj = instances()[name][0]
    given = dict(getattr(obj, field))
    value = cls(**{**field_values(obj), field: given})
    view, digest = getattr(value, field), hash(value)
    assert type(view) is MappingProxyType and value == obj and digest == hash(obj)
    key = next(iter(given))
    with pytest.raises(TypeError):
        view[key] = None
    given.pop(key)
    given[object()] = None
    assert value == obj and hash(value) == digest and key in view


def test_evaluated_annotations_get_the_same_rule():
    @frozen
    class Record:
        items: tuple[int, ...]
        table: collections.abc.Mapping[str, int]
        legacy: typing.Mapping[str, int]
        rows: list[int]

    given = {"a": 1}
    rows = [3]
    rec = Record(iter([1, 2]), given, given, rows)
    given["b"] = 2
    assert rec.items == (1, 2) and rec.rows is rows
    assert type(rec.table) is type(rec.legacy) is MappingProxyType
    assert rec.table == rec.legacy == {"a": 1}
    assert rec == Record((1, 2), {"a": 1}, {"a": 1}, rows)


def test_generated_methods():
    @frozen
    class Point:
        x: int
        y: int = 0

    assert Point(1) == Point(x=1, y=0) == replace(Point(1, 2), y=0)
    assert hash(Point(1, 2)) == hash((1, 2))
    assert repr(Point(1, 2)) == f"{Point.__qualname__}(x=1, y=2)"
    assert Point.__match_args__ == ("x", "y")
    assert Point.y == 0 and Point.__init__.__qualname__.endswith("Point.__init__")
    with pytest.raises(TypeError, match=r"missing required arguments: 'x'"):
        Point(y=1)
    with pytest.raises(TypeError, match="multiple values for argument 'x'"):
        Point(1, x=2)
    with pytest.raises(TypeError, match="unexpected keyword argument 'z'"):
        Point(1, z=2)
    with pytest.raises(TypeError, match="takes 2 arguments but 3 were given"):
        Point(1, 2, 3)


def test_one_field_hashes_as_a_one_tuple():
    @frozen
    class Box:
        value: int

    assert hash(Box(7)) == hash((7,)) != hash(7)


def test_post_init_and_own_init_are_kept():
    @frozen
    class Checked:
        n: int

        def __post_init__(self):
            if self.n < 0:
                raise ValueError("negative")
            object.__setattr__(self, "n", self.n * 2)

    @frozen
    class Own:
        n: int

        def __init__(self, text: str):
            self.__dict__.update(n=int(text))

    assert Checked(2).n == 4
    with pytest.raises(ValueError):
        Checked(-1)
    assert Own("5").n == 5 and Own("5") == Own("05")

