"""Masks and chains do not depend on how many CPUs the pruners' passes use.

The pruners split every whole-layer pass of a large layer into row ranges,
one per usable CPU. Forcing the helper's CPU count to 1, 2 and 3 on a net
whose middle layer is above the split size must give one sha256 of every
pruner's masks and of tc_mp_trace's chains. Zero weights, a zero row among
them, put log 0 into the ranges the helper threads take; that must raise no
RuntimeWarning, whose state numpy keeps per thread.
"""

import hashlib
import warnings

import numpy as np
import pytest

from tcprune import parallel, pruner
from tcprune.network import LayeredNetwork
from tcprune.pruner import PruneSpec

DIMS = (128, 512, 512, 8)  # the middle layer holds 4 * MIN_SPAN entries


def _net() -> LayeredNetwork:
    rng = np.random.default_rng(11)
    weights = [rng.standard_normal((a, b)) for a, b in zip(DIMS, DIMS[1:])]
    middle = weights[1]
    middle[rng.random(middle.shape) < 0.1] = 0.0
    middle[400] = 0.0  # a row of the last range scores -inf throughout
    return LayeredNetwork(tuple(weights), ("identity",) * len(weights))


def _digest(net: LayeredNetwork) -> str:
    digest = hashlib.sha256()

    def add(mask):
        for m in mask.masks:
            digest.update(m.tobytes())

    for rate in (0.5, 0.9):
        add(pruner.standard_mp(net, rate))
        add(pruner.stochastic_mp(net, rate, seed=3))
        for stochastic in (False, True):
            mask, traces = pruner.tc_mp_trace(net, PruneSpec(rate, stochastic=stochastic))
            add(mask)
            digest.update(traces.paths.tobytes())
            digest.update(traces.newly_added.tobytes())
            spec = PruneSpec(rate, stochastic=stochastic, scoring="global", alpha=0.5)
            add(pruner.tc_mp(net, spec))
    return digest.hexdigest()


def test_masks_and_chains_bit_identical_on_one_two_and_three_cpus(monkeypatch):
    net = _net()
    splits = []
    spans = parallel.spans

    def counted(rows, row_size=1):
        ranges = spans(rows, row_size)
        if ranges is not None:
            splits.append(len(ranges))
        return ranges

    monkeypatch.setattr(parallel, "spans", counted)
    digests = {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        splits.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            digests[cpus] = _digest(net)
        # one CPU never splits; two and three split every large pass
        assert max(splits, default=1) == cpus
        if cpus > 1:
            assert len(splits) >= 10
    assert len(set(digests.values())) == 1, digests


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_helper_thread_log_zero_raises_no_warning(monkeypatch, cpus):
    from tcprune.surrogate import _log_abs

    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    w = np.ones((512, 512))
    w[-1] = 0.0  # in the last range, which a helper thread takes
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _log_abs(w)
    assert (got[-1] == -np.inf).all() and (got[:-1] == 0.0).all()
