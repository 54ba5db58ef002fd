"""One refusal type: an argument that breaks its rule raises ``InvalidArgumentError``.

It is both a ``LipcotError``, which the command line reports as one
``error:`` line, and a ``ValueError``, which callers of the library expect.
"""

import ast
import pathlib

import numpy as np
import pytest

from conftest import FS
from lipcot import codebook as cb
from lipcot import errors, lpc_core, pipeline
from lipcot._util import whole
from lipcot.latent import LatentMethod

SOURCE = pathlib.Path(lpc_core.__file__).parent


def test_no_bare_value_or_type_error_is_raised():
    # testkit's oracles are not library rules and keep the builtin types
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "testkit.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(target, ast.Name) and target.id in ("ValueError", "TypeError"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


LPC = LatentMethod.lpc_coeff()


def _book(**changes):
    fields = dict(
        k=2, centroids=np.zeros((2, 3)), norm_stats=cb.NormStats(np.zeros(3), np.ones(3)),
        method=LPC, order=2, lam=0.2, seed=0,
    )
    return cb.Codebook(**{**fields, **changes})


@pytest.mark.parametrize(
    "refuse",
    [
        lambda: whole(2.5, "n"),
        lambda: whole(0, "n", 1),
        lambda: lpc_core.check_rate(0.0),
        lambda: lpc_core.check_rate(10**400),
        lambda: lpc_core.check_lam(1.5),
        lambda: cb.check_space(0, LPC, 2, 0.2, 0, 3),
        lambda: cb.check_space(2, LPC, 2, 0.2, -1, 3),
        lambda: LatentMethod("nope"),
        lambda: LatentMethod("cepstrum", n_cepstra=0),
        lambda: LatentMethod("lpc", n_cepstra=4),
        lambda: lpc_core.Segment([1.0], FS),
        lambda: lpc_core.Segment([1.0, 2.0], -FS),
        lambda: lpc_core.LpcModel(2, [0.1], 1.0, 0.0, FS),
        lambda: lpc_core.LpcModel(0, [], 1.0, 0.0, FS),
        lambda: lpc_core.LpcModel(1, [0.1], 10**400, 0.0, FS),
        lambda: cb.NormStats([0.0], [0.0]),
        lambda: cb.NormStats([0.0, 1.0], [1.0]),
        lambda: _book(centroids=np.zeros((3, 3))),
        lambda: _book(centroids=np.full((2, 3), np.nan)),
        lambda: _book(seed=True),
        lambda: cb.decode_token(_book(), 2, FS),
        lambda: pipeline.MultichannelSeries(np.zeros((0, 4)), FS, []),
        lambda: pipeline.MultichannelSeries(np.zeros((2, 4)), FS, ["a"]),
        lambda: pipeline.TokenSequence([0], "sideways"),
        lambda: pipeline.TokenSequence([0.5], pipeline.LAYOUT_TEMPORAL),
        lambda: pipeline.TokenizerConfig(2, 0.2, 0, 1, LPC),
        lambda: pipeline.TokenizerConfig(8, 0.2, 8, 1, LPC),
    ],
    ids=[
        "whole-fraction", "whole-least", "check-rate", "check-rate-past-float64", "check-lam",
        "check-space-k", "check-space-seed", "method-tag", "method-n-cepstra",
        "method-stray-n-cepstra", "segment-length", "segment-rate", "model-coeffs",
        "model-order", "model-power-past-float64", "norm-std", "norm-lengths",
        "codebook-shape", "codebook-finite", "codebook-seed", "token-range", "series-empty",
        "series-names", "sequence-layout", "sequence-token", "config-window", "config-order",
    ],
)
def test_refusals_are_lipcot_and_value_errors(refuse):
    with pytest.raises(errors.LipcotError) as info:
        refuse()
    assert isinstance(info.value, ValueError)


def _nested_list(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize(
    "refuse",
    [
        lambda: lpc_core.check_lam("x" * 100_000),
        lambda: lpc_core.check_lam(10**5000),  # past str()'s digit limit: no repr at all
        lambda: whole(-(10**4000), "k", 1),
        lambda: lpc_core.check_rate(_nested_list(100_000)),  # repr passes the recursion limit
        lambda: LatentMethod("x" * 100_000),
    ],
    ids=["long-string", "huge-int", "long-int", "deep-list", "long-tag"],
)
def test_refusals_echo_a_bounded_value(refuse):
    # the whole value was echoed, or its repr raised in place of the refusal
    with pytest.raises(errors.InvalidArgumentError) as info:
        refuse()
    assert len(str(info.value)) < 200
