"""Golden values of the continuum Monte Carlo layer.

Recorded from the first scalar implementation, which built a validated
``Configuration`` for every chain step and every proposal point.  They pin
the random stream: the chain, which makes one scalar call of the spec per
step whether or not the spec has a batched form, and the verifiers, whose
right-hand sides take the batched or the scalar path, must reproduce them
bit for bit.
"""

import hashlib

import numpy as np
import pytest

from confpp.core import BoxWindow
from confpp.processes import PapangelouSpec
from confpp.samplers import (RunPlan, constant_h, detailed_balance_residual,
                             sample_gibbs_bd, strauss_spec, verify_gnz,
                             verify_mecke)

W1 = BoxWindow(((0.0, 1.0),))
W2 = BoxWindow(((0.0, 1.0), (0.0, 1.0)))
CELLS = {1: BoxWindow(((0.25, 0.75),)),
         2: BoxWindow(((0.25, 0.75), (0.25, 0.75)))}


def _digest(chain):
    return hashlib.sha256(repr([g.points for g in chain]).encode()).hexdigest()


def h_one(gamma, x):
    return 1.0


def h_pair(gamma, x):
    """Other points of the central cell, for x in the cell (test_08's h)."""
    cell = CELLS[len(x)]
    if not cell.contains(x):
        return 0.0
    return float(sum(1 for p in gamma.points if p != x and cell.contains(p)))


def h_pair_batch(points, proposals):
    """``h_pair(gamma u {u}, u)`` for each proposal row u, on a stack of
    configurations (leading axes) as well."""
    lo, hi = np.array(CELLS[proposals.shape[-1]].box).T

    def inside(a):
        return np.all((lo <= a) & (a <= hi), axis=-1)

    counts = np.count_nonzero(inside(points), axis=-1).astype(float)
    return inside(proposals) * counts[..., np.newaxis]


def batched_h(h):
    """The same test function, carrying its batched form."""
    if h is h_one:
        return constant_h(1.0)

    def wrapped(gamma, x):
        return h(gamma, x)

    wrapped.batch = h_pair_batch
    return wrapped


def scalar_only(spec):
    """The same model without its batched form."""
    return PapangelouSpec(spec.evaluator, spec.descriptor)


SPEC_FORMS = {"native": lambda spec: spec, "scalar": scalar_only}
H_FORMS = {"scalar": lambda h: h, "batched": batched_h}

CHAINS = {
    "strauss-1d": (
        W1, (2.0, 0.5, 0.1),
        dict(replicas=300, master_seed=5, burn_in=500, thinning=3),
        "b09517324067e0558e70a0e87001fe8684763e20bd8bf647438ac23b08d675e5"),
    "strauss-2d": (
        W2, (20.0, 0.3, 0.1),
        dict(replicas=100, master_seed=6, burn_in=400, thinning=2),
        "82b56bcf1330877d977554e0dd925b31dd800ea8763916bc207dd791e2ff0acb"),
    "hardcore-1d": (
        W1, (3.0, 0.0, 0.05),
        dict(replicas=200, master_seed=8, burn_in=300, thinning=2),
        "48b25a87a9315fa4f4ac15650305ece614018f0b8562903612a871bdbd2e9a8a"),
}

GNZ = {
    "gnz-1d-h1": (
        W1, (2.0, 0.5, 0.1), h_one,
        dict(replicas=256, master_seed=11, burn_in=500, thinning=3),
        {'identity': 'gnz', 'lhs': 1.71875, 'rhs': 1.6911468505859375,
         'lhs_se': 0.07128782965459635, 'rhs_se': 0.012879220480047408,
         'z_score': 0.21019436838731836, 'pass': True, 'n_effective': 103}),
    "gnz-1d-pair": (
        W1, (2.0, 0.5, 0.1), h_pair,
        dict(replicas=256, master_seed=12, burn_in=500, thinning=3),
        {'identity': 'gnz', 'lhs': 0.890625, 'rhs': 0.6641693115234375,
         'lhs_se': 0.1479505363735978, 'rhs_se': 0.03547288116714676,
         'z_score': 0.8024202217598948, 'pass': True, 'n_effective': 55}),
    "gnz-2d-h1": (
        W2, (20.0, 0.3, 0.1), h_one,
        dict(replicas=128, master_seed=13, burn_in=400, thinning=2),
        {'identity': 'gnz', 'lhs': 15.484375, 'rhs': 14.6489306640625,
         'lhs_se': 0.3003001236214318, 'rhs_se': 0.12160273963308706,
         'z_score': 1.1206937255546212, 'pass': True, 'n_effective': 35}),
    "gnz-2d-pair": (
        W2, (20.0, 0.3, 0.1), h_pair,
        dict(replicas=128, master_seed=14, burn_in=400, thinning=2),
        {'identity': 'gnz', 'lhs': 16.609375, 'rhs': 12.7564453125,
         'lhs_se': 1.2567844612198158, 'rhs_se': 0.521554226119246,
         'z_score': 2.2263611946606416, 'pass': True, 'n_effective': 39}),
}

MECKE = {
    "mecke-1d-pair": (
        W1, 2.0, h_pair, dict(replicas=300, master_seed=15),
        {'identity': 'mecke', 'lhs': 0.8066666666666666, 'rhs': 0.8740625,
         'lhs_se': 0.12023697646358388, 'rhs_se': 0.05539781768182626,
         'z_score': -0.800866987102392, 'pass': True, 'n_effective': 300}),
    "mecke-2d-pair": (
        W2, 8.0, h_pair, dict(replicas=150, master_seed=16),
        {'identity': 'mecke', 'lhs': 3.493333333333333,
         'rhs': 3.5083333333333333, 'lhs_se': 0.4730543968102783,
         'rhs_se': 0.22727739639973682, 'z_score': -0.047447793505216565,
         'pass': True, 'n_effective': 150}),
    "mecke-1d-h1": (
        W1, 2.0, h_one, dict(replicas=300, master_seed=17),
        {'identity': 'mecke', 'lhs': 1.97, 'rhs': 2.0,
         'lhs_se': 0.07692023406118025, 'rhs_se': 0.0,
         'z_score': -0.39001441384251145, 'pass': True, 'n_effective': 300}),
}


@pytest.mark.parametrize("form", sorted(SPEC_FORMS))
@pytest.mark.parametrize("name", sorted(CHAINS))
def test_chain_states(name, form):
    window, args, plan, digest = CHAINS[name]
    spec = SPEC_FORMS[form](strauss_spec(*args))
    assert _digest(sample_gibbs_bd(spec, RunPlan(window, **plan))) == digest


def test_chain_states_scalar_spec():
    spec = PapangelouSpec(lambda gamma, x: 1.5, {"r_max": 1.5})
    plan = RunPlan(W1, replicas=200, master_seed=9, burn_in=300, thinning=2)
    assert _digest(sample_gibbs_bd(spec, plan)) == (
        "e97d12cea08e17fd69c5664b4cfddd240c38cea02b0313d54bd0532c11081dd0")


@pytest.mark.parametrize("h_form", sorted(H_FORMS))
@pytest.mark.parametrize("form", sorted(SPEC_FORMS))
@pytest.mark.parametrize("name", sorted(GNZ))
def test_gnz_report(name, form, h_form):
    window, args, h, plan, report = GNZ[name]
    spec = SPEC_FORMS[form](strauss_spec(*args))
    rep = verify_gnz(spec, H_FORMS[h_form](h), RunPlan(window, **plan))
    assert rep.to_json() == report


@pytest.mark.parametrize("h_form", sorted(H_FORMS))
@pytest.mark.parametrize("name", sorted(MECKE))
def test_mecke_report(name, h_form):
    window, z, h, plan, report = MECKE[name]
    rep = verify_mecke(z, window, H_FORMS[h_form](h),
                       RunPlan(window, **plan))
    assert rep.to_json() == report


@pytest.mark.parametrize("form", sorted(SPEC_FORMS))
@pytest.mark.parametrize("window, args, value", [
    (W1, (2.0, 0.5, 0.1), 0.0),
    (W2, (20.0, 0.3, 0.1), 2.220446049250313e-16),
])
def test_detailed_balance_residual(window, args, value, form):
    spec = SPEC_FORMS[form](strauss_spec(*args))
    assert detailed_balance_residual(
        spec, RunPlan(window, 10, 7, burn_in=200)) == value
