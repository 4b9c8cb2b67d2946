"""Byte-identity of the constructions themselves: the printed matrices of
``shift``, ``direct_sum``, ``tensor``, ``cone`` (with its inclusion and
projection), ``contraction_of_identity_cone`` and ``fold_complex`` of
``tensor_complexes``, against SHA-256 pins.

The ``check`` reports and ch pinned in ``test_pins.py`` are invariants of
these constructions, so they would not see a block placed in the wrong
position; these pins do.  The inputs are the ``check_cli`` documents of
``perfbench.workloads.cli_documents()`` and three-term complexes with odd
``min_degree``.  Each pin covers one construction over every input, and the
text it hashes names the input before each printed result.
"""
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from workloads import cli_documents, digest  # noqa: E402

from mfchern import (  # noqa: E402
    ChainComplex,
    PolyMatrix,
    RingCtx,
    cone,
    contraction_of_identity_cone,
    direct_sum,
    fold_complex,
    identity_morphism,
    mf_unit,
    parse_poly,
    print_poly,
    shift,
    tensor,
    tensor_complexes,
)
from mfchern.cli import matfac_to_doc  # noqa: E402
from mfchern.mf import StrictMorphism  # noqa: E402


def _mf(M):
    return json.dumps(matfac_to_doc(M), sort_keys=True)


def _mat(P):
    return json.dumps([[print_poly(e) for e in row] for row in P.entries])


def _morphism(alpha):
    return f"{_mat(alpha.alpha0)} {_mat(alpha.alpha1)}"


def _homotopy(h):
    return f"{_mat(h.h0)} {_mat(h.h1)}"


def _times_first_variable(M):
    """The strict endomorphism x_1 * id of M."""
    x = parse_poly(M.ctx.variables[0], M.ctx)
    return StrictMorphism(
        M, M, PolyMatrix.identity(M.ctx, M.r0).scale(x),
        PolyMatrix.identity(M.ctx, M.r1).scale(x),
    )


def _cone_text(alpha):
    c = cone(alpha)
    return "\n".join(
        (_mf(c.cone), _morphism(c.from_target), _morphism(c.to_shifted_source))
    )


CTX = RingCtx(("x", "y", "z", "w"))


def _complex(min_degree, ranks, grids):
    P = lambda s: parse_poly(s, CTX)
    diffs = tuple(
        PolyMatrix(CTX, len(g), len(g[0]), [[P(e) for e in row] for row in g])
        for g in grids
    )
    return ChainComplex(CTX, min_degree, tuple(ranks), diffs)


def complex_pairs():
    """Pairs of complexes to tensor, each with a three-term complex of odd
    ``min_degree``: the Koszul complexes of (x, y) and (z, w), and a complex
    of Euler characteristic 1, so that some foldings have r0 != r1."""
    kxy = lambda lo: _complex(lo, (1, 2, 1), ([["x"], ["y"]], [["-y", "x"]]))
    kzw = lambda lo: _complex(lo, (1, 2, 1), ([["z"], ["w"]], [["w", "-z"]]))
    k3 = lambda lo: _complex(lo, (1, 2, 2), ([["x"], ["y"]], [["y", "-x"], ["0", "0"]]))
    kz = lambda lo: _complex(lo, (1, 1), ([["z"]],))
    two = lambda lo: _complex(lo, (2, 1), ([["z", "w^2"]],))
    return {
        "kzw-3*kxy-1": (kzw(-3), kxy(-1)),
        "kxy-1*kz1": (kxy(-1), kz(1)),
        "kz0*kxy1": (kz(0), kxy(1)),
        "k3_1*two0": (k3(1), two(0)),
        "two-1*k3_-1": (two(-1), k3(-1)),
    }


def construction_texts():
    """Construction name -> the printed results over every input."""
    docs = {name: build() for name, (_, build) in cli_documents().items()}
    folds = {
        name: fold_complex(tensor_complexes(X, Y))
        for name, (X, Y) in complex_pairs().items()
    }
    mfs = {**docs, **{f"fold({name})": F for name, F in folds.items()}}
    fold_names = list(folds)
    fold_sums = {
        f"fold({a})+fold({b})": direct_sum(folds[a], folds[b])
        for a, b in zip(fold_names, fold_names[1:])
    }
    out = {
        "shift": {name: _mf(shift(M)) for name, M in mfs.items()},
        "direct_sum": {
            **{name: _mf(direct_sum(M, shift(M))) for name, M in mfs.items()},
            **{name: _mf(S) for name, S in fold_sums.items()},
        },
        "tensor": {
            name: "\n".join((
                _mf(tensor(M, shift(M))),
                _mf(tensor(M, mf_unit(M.ctx))),
                _mf(tensor(mf_unit(M.ctx), M)),
            ))
            for name, M in docs.items()
        },
        "cone": {
            name: "\n".join((
                _cone_text(identity_morphism(M)),
                _cone_text(_times_first_variable(M)),
            ))
            for name, M in mfs.items()
        },
        "contraction_of_identity_cone": {
            name: _homotopy(contraction_of_identity_cone(M)) for name, M in mfs.items()
        },
        "fold_complex": {name: _mf(F) for name, F in folds.items()},
    }
    return {
        kind: "\n".join(f"{name}\n{text}" for name, text in texts.items())
        for kind, texts in out.items()
    }


# Recorded before ``Matrix.blocks`` replaced ``block2`` and the offset
# bookkeeping of ``fold_complex`` and ``tensor_complexes``.
PINS = {
    "shift": "4f6b8608433e3b8073fa841483116a645ab78d3570dfc406cb8c0c4131674017",
    "direct_sum": "d760fae55929de9791d5fbef1661a2b7c37d7dc3b5871ed4a8c0f91d7ddc4f73",
    "tensor": "e7298d973fc630c85668d1a3a4c8c224264988a22f138e5d2b7a6e9bb2523ccf",
    "cone": "61a73ecb7a08e21e4792278dbc65609922c81474b1d6a281925c63981054cc7c",
    "contraction_of_identity_cone": "98bb07994704612cc63040c3691d596ebde62c1c634698a2ee2ae70309712d01",
    "fold_complex": "646b8f8669ce91f41561c28941a1eff0ec52db29c83205e863296af2a6d23f03",
}


@pytest.fixture(scope="module")
def texts():
    return construction_texts()


@pytest.mark.parametrize("kind", sorted(PINS))
def test_construction_outputs_match_pins(kind, texts):
    assert digest(texts[kind]) == PINS[kind]


def test_every_construction_is_pinned(texts):
    assert sorted(texts) == sorted(PINS)
