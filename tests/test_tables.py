"""One holder for the lattice tables: ground, ownership and the entry points.

Every lattice table type (``SetFunction``, ``PairSetFunction``,
``DiscreteTable``, ``BirthDeathKernel``, ``LatticeOperator``) is built
through ``core._Table``: a ground that is not discrete is a
``ValidationError`` naming the type, the public constructor holds copies of
the caller's arrays, and ``_take`` holds the arrays it is given.
``MixingDensity`` keeps copies too.  The process entry points, the
verifiers and the batched forms check their input the same way.
"""

import math

import numpy as np
import pytest

from confpp.core import (BoxWindow, DiscreteGround, SetFunction,
                         constant_function, indicator_empty, power_function)
from confpp.errors import ValidationError
from confpp.generators import (BirthDeathKernel, LatticeOperator,
                               hat_L_action, hat_L_closed, pairing,
                               random_kernel)
from confpp.processes import (DiscreteTable, MixedPoisson, MixingDensity,
                              PapangelouSpec, Poisson, Superposition,
                              correlation_functional, papangelou_table,
                              point_mass_mixing, poisson_table,
                              to_discrete_table)
from confpp.samplers import (RunPlan, constant_h, count_distribution_check,
                             strauss_spec, verify_gnz, verify_mecke)
from confpp.two_type import PairSetFunction

G3 = DiscreteGround((0.5, 1.0, 2.0))
WINDOW = BoxWindow(((0.0, 1.0),))

# type -> (its array fields, the arguments after the ground, fresh each call)
TABLES = {
    SetFunction: (("values",), lambda: (np.arange(8.0),)),
    PairSetFunction: (("values",), lambda: (np.ones((8, 8)),)),
    DiscreteTable: (("probs", "overlap_probs"),
                    lambda: (np.full(8, 0.125), np.zeros(8))),
    BirthDeathKernel: (("death", "birth"),
                       lambda: (np.ones((3, 4)), np.full((3, 4), 0.5), 1)),
    LatticeOperator: (("matrix",), lambda: (np.eye(8),)),
}
HOLDERS = [pytest.param(cls, (G3,), args, names, id=cls.__name__)
           for cls, (names, args) in TABLES.items()]
HOLDERS.append(pytest.param(MixingDensity, (),
                            lambda: (np.array([0.5, 1.5]),
                                     np.array([0.25, 0.75])),
                            ("grid", "masses"), id="MixingDensity"))


@pytest.mark.parametrize("cls", TABLES, ids=lambda c: c.__name__)
@pytest.mark.parametrize("build", ["constructor", "_take"])
def test_a_window_ground_is_a_validation_error(cls, build):
    make = cls if build == "constructor" else cls._take
    with pytest.raises(ValidationError, match=cls.__name__):
        make(WINDOW, *TABLES[cls][1]())


@pytest.mark.parametrize("cls, head, args, names", HOLDERS)
def test_the_constructor_holds_copies(cls, head, args, names):
    given = args()
    held = cls(*head, *given)
    for caller, name in zip(given, names):
        mine = getattr(held, name)
        assert caller.flags.writeable and not mine.flags.writeable
        assert not np.shares_memory(caller, mine)
        before = mine.copy()
        caller[...] = 7.0  # the caller may keep editing its own array
        assert np.array_equal(mine, before)


@pytest.mark.parametrize("cls", TABLES, ids=lambda c: c.__name__)
def test_take_holds_the_arrays_it_is_given(cls):
    names, args = TABLES[cls]
    args = args()
    held = cls._take(G3, *args)
    for given, name in zip(args, names):
        assert getattr(held, name) is given
        assert not given.flags.writeable


def test_a_left_out_overlap_table_is_zeros():
    for table in (DiscreteTable(G3, np.full(8, 0.125)),
                  DiscreteTable._take(G3, np.full(8, 0.125), None)):
        assert np.array_equal(table.overlap_probs, np.zeros(8))
        assert not table.overlap_probs.flags.writeable


@pytest.mark.parametrize("model", [
    Poisson(1.0), MixedPoisson(point_mass_mixing(1.0)),
    Superposition(Poisson(1.0), Poisson(2.0))],
    ids=lambda m: type(m).__name__)
@pytest.mark.parametrize("entry", [to_discrete_table, correlation_functional],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("ground", [None, WINDOW], ids=["none", "window"])
def test_process_entry_points_need_a_discrete_ground(entry, model, ground):
    with pytest.raises(ValidationError, match=entry.__name__):
        entry(model, ground)


def test_papangelou_table_needs_a_discrete_ground():
    spec = PapangelouSpec(lambda gamma, x: 1.0)
    with pytest.raises(ValidationError, match="papangelou_table"):
        papangelou_table(WINDOW, spec)


@pytest.mark.parametrize("build, args", [
    (poisson_table, (1.0,)), (constant_function, ()),
    (power_function, (2.0,)), (indicator_empty, ())],
    ids=lambda f: getattr(f, "__name__", ""))
def test_lattice_builders_need_a_discrete_ground(build, args):
    with pytest.raises(ValidationError, match=build.__name__):
        build(WINDOW, *args)


@pytest.mark.parametrize("verify", [
    lambda window, plan: verify_mecke(2.0, window, constant_h(), plan),
    lambda window, plan: count_distribution_check(Poisson(1.0), window, 4,
                                                  plan)],
    ids=["verify_mecke", "count_distribution_check"])
def test_verifiers_reject_a_second_window(verify):
    plan = RunPlan(BoxWindow(((0.0, 5.0),)), replicas=10, master_seed=1)
    with pytest.raises(ValidationError, match="plan's window"):
        verify(WINDOW, plan)


def test_one_message_for_a_bad_pairing_activity():
    k = SetFunction(G3, np.ones(8))
    kernel = random_kernel(G3, 1, np.random.default_rng(0))
    calls = (lambda: pairing(k, k, -1.0),
             lambda: hat_L_closed(kernel).adjoint_apply(k, math.nan),
             lambda: hat_L_action(kernel).adjoint_apply(k, 0.0))
    messages = set()
    for call in calls:
        with pytest.raises(ValidationError) as err:
            call()
        messages.add(str(err.value))
    assert messages == {"intensity z must be positive and finite"}


def test_one_message_for_an_unstacked_batch():
    def unstacked(points, proposals):
        return np.ones(len(proposals))

    lattice = PapangelouSpec(lambda gamma, x: 1.0, batch=unstacked)
    strauss = strauss_spec(2.0, 0.5, 0.1)
    window = PapangelouSpec(strauss.evaluator, unstacked, strauss.r_max)
    plan = RunPlan(WINDOW, replicas=64, master_seed=3, burn_in=0)
    for call in (lambda: papangelou_table(G3, lattice),
                 lambda: verify_gnz(window, constant_h(), plan)):
        with pytest.raises(ValidationError, match="one value per proposal"):
            call()


# an 18-site value table and a 9-site matrix hold 2**18 entries: two of the
# 2**17-entry chunks in which the finiteness check reads a held array
@pytest.mark.parametrize("cls, sites, shape", [
    (SetFunction, 18, (1 << 18,)), (LatticeOperator, 9, (1 << 9, 1 << 9))],
    ids=["SetFunction", "LatticeOperator"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [1 << 17, (1 << 18) - 1])
@pytest.mark.parametrize("build", ["constructor", "_take"])
def test_a_non_finite_entry_in_the_last_chunk_is_caught(cls, sites, shape,
                                                        bad, at, build):
    ground = DiscreteGround((1.0,) * sites)
    table = np.zeros(shape)
    table.reshape(-1)[at] = bad
    make = cls if build == "constructor" else cls._take
    with pytest.raises(ValidationError, match=f"{cls.__name__}.* non-finite"):
        make(ground, table)
