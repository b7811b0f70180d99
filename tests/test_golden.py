"""Golden values of the continuum Monte Carlo layer.

The Mecke values were recorded when the verifier began to draw its samples
in one ``sample_batch`` call on the first of two streams and their
proposals on the second.  The chain values (``CHAINS``, the scalar-spec
digest and ``GNZ``) were recorded when the chain began to read its
uniforms in blocks of ``rng.random(k)`` and to pick the dying point as
``int(u * n)``; the detailed-balance values did not move then.  They pin
the random stream: the chain, which makes one scalar call of the spec per
step whether or not the spec has a batched form, and the verifiers, whose
right-hand sides take the batched or the scalar path, must reproduce them
bit for bit.  The GNZ plans are far too short for batch means (8 chain
steps a batch), so their ``pass`` fields pin values, not verdicts.
"""

import hashlib

import numpy as np
import pytest

import oracles
from confpp.core import BoxWindow
from confpp.processes import PapangelouSpec
from confpp.samplers import (RunPlan, constant_h, sample_gibbs_bd,
                             strauss_spec, verify_gnz, verify_mecke)

W1 = BoxWindow(((0.0, 1.0),))
W2 = BoxWindow(((0.0, 1.0), (0.0, 1.0)))
CELLS = {1: BoxWindow(((0.25, 0.75),)),
         2: BoxWindow(((0.25, 0.75), (0.25, 0.75)))}


def _digest(chain):
    """sha256 of the repr of the list of the states' point tuples."""
    states = oracles.point_tuples(chain)
    return hashlib.sha256(repr(states).encode()).hexdigest()


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
    return PapangelouSpec(spec.evaluator, r_max=spec.r_max)


SPEC_FORMS = {"native": lambda spec: spec, "scalar": scalar_only}
H_FORMS = {"scalar": lambda h: h, "batched": batched_h}

CHAINS = {
    "strauss-1d": (
        W1, (2.0, 0.5, 0.1),
        dict(replicas=300, master_seed=5, burn_in=500, thinning=3),
        "ad64358b563804c7852b8218f3ee46a3c374ae7e762e1aa818ad34e1df70fcb5"),
    "strauss-2d": (
        W2, (20.0, 0.3, 0.1),
        dict(replicas=100, master_seed=6, burn_in=400, thinning=2),
        "3906c14a83c62500cb6b402abe66b6636c7effe8b2ed54c60b07bcf92efa1be9"),
    "hardcore-1d": (
        W1, (3.0, 0.0, 0.05),
        dict(replicas=200, master_seed=8, burn_in=300, thinning=2),
        "5b5ad52941d238a18c84a24f98415e2aa5e8b5441d1f55b86e837be4a0e0362f"),
}

GNZ = {
    "gnz-1d-h1": (
        W1, (2.0, 0.5, 0.1), h_one,
        dict(replicas=256, master_seed=11, burn_in=500, thinning=3),
        {'identity': 'gnz', 'lhs': 1.72265625, 'rhs': 1.683837890625,
         'lhs_se': 0.07145509200796275, 'rhs_se': 0.013017455018043871,
         'z_score': 0.3178521972062641, 'pass': True, 'n_effective': 120}),
    "gnz-1d-pair": (
        W1, (2.0, 0.5, 0.1), h_pair,
        dict(replicas=256, master_seed=12, burn_in=500, thinning=3),
        {'identity': 'gnz', 'lhs': 0.9453125, 'rhs': 0.7155914306640625,
         'lhs_se': 0.13508543813981755, 'rhs_se': 0.03445315807084916,
         'z_score': 1.5022107398970197, 'pass': True, 'n_effective': 154}),
    "gnz-2d-h1": (
        W2, (20.0, 0.3, 0.1), h_one,
        dict(replicas=128, master_seed=13, burn_in=400, thinning=2),
        {'identity': 'gnz', 'lhs': 18.515625, 'rhs': 13.247426757812498,
         'lhs_se': 0.2883875326213959, 'rhs_se': 0.11760599177952095,
         'z_score': 7.1486669386165556, 'pass': False, 'n_effective': 34}),
    "gnz-2d-pair": (
        W2, (20.0, 0.3, 0.1), h_pair,
        dict(replicas=128, master_seed=14, burn_in=400, thinning=2),
        {'identity': 'gnz', 'lhs': 9.765625, 'rhs': 10.46802978515625,
         'lhs_se': 0.7737770048427551, 'rhs_se': 0.5361423439673464,
         'z_score': -0.9235730687677176, 'pass': True, 'n_effective': 57}),
}

MECKE = {
    "mecke-1d-pair": (
        W1, 2.0, h_pair, dict(replicas=300, master_seed=15),
        {'identity': 'mecke', 'lhs': 0.8866666666666667,
         'rhs': 0.9538541666666667, 'lhs_se': 0.11134861276069384,
         'rhs_se': 0.055810757613155744, 'z_score': -0.9138408593175437,
         'pass': True, 'n_effective': 300}),
    "mecke-2d-pair": (
        W2, 8.0, h_pair, dict(replicas=150, master_seed=16),
        {'identity': 'mecke', 'lhs': 2.96, 'rhs': 3.6625,
         'lhs_se': 0.35330083004440715, 'rhs_se': 0.23028757797204924,
         'z_score': -3.6939398573114404, 'pass': True, 'n_effective': 150}),
    "mecke-1d-h1": (
        W1, 2.0, h_one, dict(replicas=300, master_seed=17),
        {'identity': 'mecke', 'lhs': 2.026666666666667, 'rhs': 2.0,
         'lhs_se': 0.07728580402331521, 'rhs_se': 0.0,
         'z_score': 0.3450396486607294, 'pass': True, 'n_effective': 300}),
}


@pytest.mark.parametrize("form", sorted(SPEC_FORMS))
@pytest.mark.parametrize("name", sorted(CHAINS))
def test_chain_states(name, form):
    window, args, plan, digest = CHAINS[name]
    spec = SPEC_FORMS[form](strauss_spec(*args))
    assert _digest(sample_gibbs_bd(spec, RunPlan(window, **plan))) == digest


def test_chain_states_scalar_spec():
    spec = PapangelouSpec(lambda gamma, x: 1.5, r_max=1.5)
    plan = RunPlan(W1, replicas=200, master_seed=9, burn_in=300, thinning=2)
    assert _digest(sample_gibbs_bd(spec, plan)) == (
        "31bb362e1181ca7f53033ddf8ff28d15f387635afabf16d4fc9676c2a310bef4")


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

