"""Differential test of the matmul encoder against the code it replaced:
`encode` looping over symbols with the alphabet's add and mul, and
`codebook` running it over itertools.product of the alphabet, kept here
verbatim as the oracle (the codebook on its own cache, so the two never
share one).  `combined_message` is checked against its alphabet-arithmetic
body the same way.  Codewords, codebook order and preimages must agree
exactly, on prime fields, chain rings and F_{p^2}."""

import itertools
import random

import numpy as np
import pytest

from latcf.algebra import ChainRing, GaloisField, PrimeField
from latcf.cfsim import combined_message
from latcf.codes import LinearCode, codebook, encode

_ENUM_CAP = 1 << 16


# ---------------------------------------------------------------------------
# the oracle: encode, codebook and combined_message as they were
# ---------------------------------------------------------------------------


def reference_encode(code: LinearCode, w):
    """Codeword w*G with all arithmetic in the code's alphabet."""
    if len(w) != code.n:
        raise ValueError(f"message length {len(w)} != n={code.n}")
    A = code.alphabet
    out = [A.zero] * code.N
    for wi, row in zip(w, code.G):
        wi = int(wi) % A.size
        if wi == A.zero:
            continue
        for j, g in enumerate(row):
            out[j] = A.add(out[j], A.mul(wi, g))
    return tuple(out)


def reference_codebook(code: LinearCode) -> dict:
    """Map codeword -> one preimage message; enumerated once."""
    if code.codebook_bound() > _ENUM_CAP:
        raise ValueError("codebook too large to enumerate")
    cb = {}
    for w in itertools.product(code.alphabet.elements(), repeat=code.n):
        cb.setdefault(reference_encode(code, w), w)
    return cb


def reference_combined_message(code, b_level, messages):
    """The linear function sum_k b_k * w_k in the code's message space."""
    A = code.alphabet
    out = [A.zero] * code.n
    for bk, wk in zip(b_level, messages):
        bk = int(bk) % A.size
        for i, wi in enumerate(wk):
            out[i] = A.add(out[i], A.mul(bk, int(wi) % A.size))
    return tuple(out)


# ---------------------------------------------------------------------------
# codes, each built twice so the oracle never reads the new cache
# ---------------------------------------------------------------------------

ALPHABETS = {
    "F2": PrimeField(2),
    "F3": PrimeField(3),
    "Z4": ChainRing(2, 2),
    "Z9": ChainRing(3, 2),
    "GF4": GaloisField(2, 2, reduction=(1, 1)),
    "GF9": GaloisField(3, 2, reduction=(1, 1)),
    "GF49": GaloisField(7, 2, reduction=(3, 0)),
    "GaloisField(3)": GaloisField(3),
}


def _row_sets(rng, A, N):
    """Random, dependent, non-free, zero and identity generator sets."""
    size, p = A.size, A.p
    for n in (1, 2, 3):
        yield [[rng.randrange(size) for _ in range(N)] for _ in range(n)]
    row = [rng.randrange(size) for _ in range(N)]
    yield [row, [A.mul(rng.randrange(1, size), x) for x in row]]  # dependent rows
    if A.char != p:  # zero divisors in the rows: a non-free chain-ring code
        yield [[p * rng.randrange(size) % size for _ in range(N)] for _ in range(2)]
    yield []
    yield [[int(i == j) for j in range(N)] for i in range(N)]


def _codes(name):
    A = ALPHABETS[name]
    rng = random.Random(sum(map(ord, name)))
    for N in (1, 3, 5):
        for rows in _row_sets(rng, A, N):
            yield lambda rows=rows, N=N: LinearCode(A, rows, N=N)


@pytest.mark.parametrize("name", sorted(ALPHABETS))
def test_encode_matches_reference(name):
    rng = random.Random(7)
    for make in _codes(name):
        code = make()
        size = code.alphabet.size
        for _ in range(40):
            w = [rng.randrange(-2 * size, 3 * size) for _ in range(code.n)]  # unreduced too
            got = encode(code, w)
            assert got == reference_encode(code, w), (code.G, w)
            assert all(type(x) is int for x in got)


@pytest.mark.parametrize("name", sorted(ALPHABETS))
def test_encode_rows_are_each_rows_codeword(name):
    rng = np.random.default_rng(8)
    for make in _codes(name):
        code = make()
        w = rng.integers(0, code.alphabet.size, size=(3, 4, code.n))
        got = encode(code, w)
        assert got.dtype == np.int64 and got.shape == (3, 4, code.N)
        for idx in np.ndindex(3, 4):
            assert tuple(got[idx].tolist()) == reference_encode(code, w[idx].tolist())


@pytest.mark.parametrize("name", sorted(ALPHABETS))
def test_codebook_matches_reference_in_order_and_preimages(name):
    for make in _codes(name):
        code, ref = make(), make()
        if ref.codebook_bound() > 4096:
            continue
        got, want = codebook(code), reference_codebook(ref)
        assert list(got.items()) == list(want.items()), code.G
        assert all(type(x) is int for word in got for x in word)
        assert all(type(x) is int for msg in got.values() for x in msg)


def test_codebook_cap_is_unchanged():
    code = LinearCode(PrimeField(2), [[1] * 17 for _ in range(17)])
    with pytest.raises(ValueError, match="too large"):
        codebook(code)


def test_encode_refuses_wrong_lengths():
    code = LinearCode(PrimeField(3), [[1, 2, 0], [0, 1, 1]])
    for w in ((1,), (1, 2, 0), np.zeros((4, 3), dtype=np.int64)):
        with pytest.raises(ValueError, match="message length"):
            encode(code, w)


@pytest.mark.parametrize("name", sorted(ALPHABETS))
def test_combined_message_matches_reference(name):
    rng = random.Random(9)
    A = ALPHABETS[name]
    for make in _codes(name):
        code = make()
        for K in (1, 2, 4):
            b = [rng.randrange(-5, 3 * A.size) for _ in range(K)]
            msgs = [[rng.randrange(3 * A.size) for _ in range(code.n)] for _ in range(K)]
            got = combined_message(code, b, msgs)
            assert got == reference_combined_message(code, b, msgs), (b, msgs)
