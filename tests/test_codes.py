import importlib.util
import itertools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gapstab import codes
from gapstab.codes import (
    FiniteField,
    LinearCode,
    finite_field,
    measure_from_code,
    random_code,
    read_code_file,
    reed_muller_multilinear,
)
from gapstab.errors import (
    InvalidArgument,
    InvalidField,
    RankDeficient,
    ResourceCap,
    SamplingFailure,
)
from gapstab.spectral import ProbMeasure, kappa

HAMMING = [
    [1, 0, 0, 0, 0, 1, 1],
    [0, 1, 0, 0, 1, 0, 1],
    [0, 0, 1, 0, 1, 1, 0],
    [0, 0, 0, 1, 1, 1, 1],
]


def test_prime_field():
    f = finite_field(5)
    assert f.mul(3, 4) == 2
    assert f.add(3, 4) == 2
    assert f.inv(2) == 3
    assert f.neg(1) == 4


def test_gf4_polynomial_basis():
    # x^2 = x + 1 under the default modulus, with elements 2 = x, 3 = x + 1
    f = finite_field(4)
    assert f.mul(2, 2) == 3
    assert f.add(2, 3) == 1
    assert f.mul(2, 3) == 1  # x(x+1) = x^2 + x = 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_field_axioms(q):
    f = finite_field(q)
    els = range(q)
    for a in els:
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    for a, b, c in itertools.product(els, repeat=3):
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_not_a_prime_power():
    with pytest.raises(InvalidField):
        finite_field(6)
    with pytest.raises(InvalidField):
        finite_field(1)


def test_trace_pairing_invertible():
    f = finite_field(4)
    m = f.trace_pairing()
    assert m.shape == (f.k, f.k)
    assert round(np.linalg.det(m.astype(float))) % f.p != 0


def test_repetition_code():
    code = LinearCode(2, [[1, 1, 1]])
    assert code.params[:2] == (3, 1)
    assert code.distance() == 3
    assert np.array_equal(code.generator, [[1, 1, 1]])


def test_hamming_code():
    code = LinearCode(2, HAMMING)
    assert (code.length, code.dim, code.distance()) == (7, 4, 3)


def test_rank_validation():
    with pytest.raises(RankDeficient):
        LinearCode(2, [[1, 0, 1], [1, 0, 1]])
    with pytest.raises(InvalidArgument):
        LinearCode(2, [[0, 2, 0]])  # entry outside the field
    with pytest.raises(InvalidArgument):
        LinearCode(2, [])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_rank_check_counts_the_span(q):
    """A generator is accepted exactly when its N rows span q^N words,
    counted by enumerating every combination with the field's scalar ops."""
    f = finite_field(q)
    rng = np.random.default_rng(q)
    for _ in range(25):
        rows = rng.integers(q, size=(int(rng.integers(1, 4)), int(rng.integers(1, 6))))
        if len(rows) > 1 and rng.random() < 0.5:  # make the last row dependent
            c = int(rng.integers(q))
            rows[-1] = [f.add(f.mul(c, int(a)), int(b)) for a, b in zip(rows[0], rows[-2])]
        words = {(0,) * rows.shape[1]}
        for row in rows.tolist():
            words = {
                tuple(f.add(w, f.mul(c, x)) for w, x in zip(word, row))
                for word in words
                for c in range(q)
            }
        if len(words) == q ** len(rows):
            assert LinearCode(f, rows).dim == len(rows)
        else:
            with pytest.raises(RankDeficient):
                LinearCode(f, rows)


def test_distance_cap_and_declared(monkeypatch):
    code = LinearCode(2, HAMMING)
    monkeypatch.setattr(codes, "DISTANCE_CAP", 4)
    with pytest.raises(ResourceCap):
        code.distance()  # 15 nonzero codewords exceed the cap
    monkeypatch.setattr(codes, "DISTANCE_CAP", 1)
    declared = LinearCode(2, HAMMING, distance=3)
    assert declared.distance() == 3  # declaration short-circuits
    with pytest.raises(InvalidArgument):
        LinearCode(2, [[1, 1, 0]], distance_bound=3).distance()  # true d = 2


def test_measure_from_repetition():
    code = LinearCode(2, [[1, 1, 1]])
    group, mu, predicted = measure_from_code(code)
    assert group.orders == (2,)
    assert mu((1,)) == 1  # all three columns give the same character
    assert predicted == Fraction(1, 2)
    assert kappa(group, mu).kappa == predicted


def test_measure_from_hamming():
    group, mu, predicted = measure_from_code(LinearCode(2, HAMMING))
    assert group.orders == (2,) * 4
    assert sum(p for _, p in mu.items_nonzero()) == 1
    assert predicted == Fraction(7, 6)
    assert kappa(group, mu).kappa == Fraction(7, 6)


def test_measure_from_gf4_code():
    code = LinearCode(4, [[1, 2]])
    group, mu, predicted = measure_from_code(code)
    # one column per field multiple per nontrivial scalar: (q-1)*K points
    assert sum(p for _, p in mu.items_nonzero()) == 1
    assert predicted == Fraction(3, 4) * Fraction(2, code.distance())
    assert abs(float(kappa(group, mu).kappa) - float(predicted)) < 1e-9


def _support_by_columns(code, pairing):
    """The per-column loop measure_from_code replaced, as the order oracle."""
    f = code.field
    support = []
    for i in range(code.length):
        for t in range(1, f.q):
            exps = []
            for bj in code.generator[:, i]:
                exps.extend(int(c) for c in (pairing @ f._digits[f.mul(t, int(bj))]) % f.p)
            support.append(tuple(exps))
    return support


# ids "<q>-None": no pairing is passed in, so the trace pairing is used
@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9], ids="{}-None".format)
def test_measure_support_order_matches_column_loop(q):
    rng = np.random.default_rng(q)
    code = random_code(q, 5, 2, 1, rng=rng)
    group, mu, _ = measure_from_code(code)
    want = ProbMeasure.uniform_on(group, _support_by_columns(code, code.field.trace_pairing()))
    assert list(mu.weights.items()) == list(want.weights.items())


def _ac1_binary_family():
    """The 6378 systematic binary codes of AC1: identity, then parity columns."""
    for n in range(1, 5):
        for k in range(n, 9):
            for cols in itertools.combinations_with_replacement(range(2**n), k - n):
                yield LinearCode(2, [[int(j == i) for j in range(n)] + [c >> i & 1 for c in cols]
                                     for i in range(n)])


def _seeded_codes():
    """Random codes over F_3, F_4 and F_5, 20 each, seeded."""
    rng = np.random.default_rng(28)
    for q, cap in ((3, 5), (4, 4), (5, 3)):
        for j in range(20):
            n = 1 + j % cap
            yield random_code(q, int(rng.integers(n, 11)), n, 1, rng=rng)


def test_count_built_measure_equals_uniform_on():
    """measure_from_code's count-built measure against ProbMeasure.uniform_on
    on the per-column support: the same weights in the same order, the same
    integers, and the same kappa (equal Fractions, floats bit for bit)."""
    seen = 0
    for code in itertools.chain(_ac1_binary_family(), _seeded_codes()):
        group, mu, _ = measure_from_code(code)
        want = ProbMeasure.uniform_on(group, _support_by_columns(code, code.field.trace_pairing()))
        assert (mu.numerators, mu.denominator) == (want.numerators, want.denominator)
        assert mu.support == want.support
        assert list(mu.weights.items()) == list(want.weights.items())
        got, ref = kappa(group, mu), kappa(group, want)
        assert type(got.kappa) is type(ref.kappa) is (Fraction if code.q in (2, 4) else float)
        if code.q in (2, 4):
            assert (got.kappa, got.second_eigenvalue) == (ref.kappa, ref.second_eigenvalue)
        else:
            assert got.kappa.hex() == ref.kappa.hex()
            assert got.second_eigenvalue.hex() == ref.second_eigenvalue.hex()
        seen += 1
    assert seen == 6378 + 60


def _distance_by_messages(code):
    """Minimum weight over the nonzero messages, one codeword at a time."""
    add, mul, _, _ = code.field._lists
    gen = code.generator.tolist()
    best = code.length
    for msg in itertools.product(range(code.q), repeat=code.dim):
        word = [0] * code.length
        for m, row in zip(msg, gen):
            word = [add[w][mul[m][b]] for w, b in zip(word, row)]
        if any(msg):
            best = min(best, sum(map(bool, word)))
    return best


def test_distance_equals_the_per_message_enumeration():
    rng = np.random.default_rng(8)
    extra = [reed_muller_multilinear(8, 2), random_code(8, 6, 3, 1, rng=rng),
             random_code(9, 6, 3, 1, rng=rng)]
    for code in itertools.chain(_ac1_binary_family(), _seeded_codes(), extra):
        assert code.distance() == _distance_by_messages(code), code.generator.tolist()


def test_reed_muller_multilinear():
    code = reed_muller_multilinear(2, 3)
    # multilinear polynomials in 3 boolean variables, evaluated on 8 points
    assert code.length == 8
    assert code.dim == 8
    assert code.distance() == 1
    # a + b x over F_8 vanishes at most once, so the distance is 7
    code2 = reed_muller_multilinear(8, 1)
    assert (code2.length, code2.dim, code2.distance()) == (8, 2, 7)
    with pytest.raises(InvalidArgument):
        reed_muller_multilinear(3, 2)  # characteristic must be 2
    with pytest.raises(InvalidArgument):
        reed_muller_multilinear(4, 2)  # even extension degree


def test_random_code():
    rng = np.random.default_rng(5)
    code = random_code(2, 8, 3, 3, rng=rng)
    assert (code.length, code.dim) == (8, 3)
    assert code.distance() >= 3
    again = random_code(2, 8, 3, 3, rng=np.random.default_rng(5))
    assert np.array_equal(code.generator, again.generator)


def test_random_code_impossible(monkeypatch):
    monkeypatch.setattr(codes, "_CODE_TRIES", 20)
    with pytest.raises(SamplingFailure):
        random_code(2, 3, 2, 3, rng=np.random.default_rng(0))


def test_code_file_round_trip(tmp_path):
    path = tmp_path / "hamming.code"
    rows = "\n".join(" ".join(map(str, row)) for row in HAMMING)
    path.write_text(f"2 7 4\n{rows}\nd 3\n")
    back = read_code_file(path)
    assert np.array_equal(back.generator, HAMMING)
    assert back.distance() == 3
    empty = tmp_path / "empty.code"
    empty.write_text("")
    with pytest.raises(InvalidArgument):
        read_code_file(empty)


def test_code_file_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.code"
    bad.write_text("2 3\n1 1 1\n")
    with pytest.raises(InvalidArgument):
        read_code_file(bad)
    bad.write_text("2 3 1\n1 1\n")
    with pytest.raises(InvalidArgument):
        read_code_file(bad)


def test_kappa_of_the_benchmark_code_family_is_unchanged():
    """kappa of every code of the benchmark's kappa-codes family (seed 0)
    against the values recorded in perfbench/reference.json: the exact
    Fractions (q = 2, 4) identical, the floats (q = 3, 5) to relative 1e-9,
    as the benchmark's fingerprint compares them."""
    here = Path(__file__).resolve().parent.parent / "perfbench"
    spec = importlib.util.spec_from_file_location("_kappa_workloads", here / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    reference = json.loads((here / "reference.json").read_text())["kappa-codes"]
    family = workloads.KappaCodes().build(0)["family"]
    assert len(family) == len(reference) == 6578
    exact = 0
    for label, q, gen in family:
        group, mu, predicted = measure_from_code(LinearCode(finite_field(q), gen))
        assert "elements" not in vars(group)  # the group's element list is never built
        got, want = kappa(group, mu).kappa, reference[label]["kappa"]
        if q in (2, 4):
            assert type(got) is Fraction and got == Fraction(want) == predicted, label
            exact += 1
        else:
            assert math.isclose(got, want, rel_tol=1e-9, abs_tol=0.0), label
    assert exact == 6378 + 100
