"""Linear codes over F_q and the code -> measure construction.

A code is stored by its generator: an N x K matrix whose rows b_1, ..., b_N
span the code inside F_q^K (K is the length, N the dimension).  Each column
i <= K, paired against the nontrivial additive characters of F_q, yields a
character of F_q^N; the uniform measure on that multiset has spectral gap
constant exactly ((q-1)/q) * K/d, which downstream modules consume as a
supply of measures with certified kappa.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .abelian import AbelianGroup
from .errors import (
    InvalidArgument,
    InvalidField,
    RankDeficient,
    ResourceCap,
    SamplingFailure,
)
from .spectral import ProbMeasure

DISTANCE_CAP = 2**24
_CODE_TRIES = 200


def _factor_prime_power(q: int):
    if q < 2:
        raise InvalidField(f"{q} is not a prime power")
    p = None
    for cand in range(2, q + 1):
        if cand * cand > q:
            p = q  # q itself prime
            break
        if q % cand == 0:
            p = cand
            break
    k = 0
    m = q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise InvalidField(f"{q} is not a prime power")
    return p, k


def _poly_divmod(num, den, p):
    num = list(num)
    d = len(den) - 1
    inv_lead = pow(den[-1], -1, p)
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i] * inv_lead % p
        if c:
            for j in range(d + 1):
                num[i - d + j] = (num[i - d + j] - c * den[j]) % p
        num[i] = c  # quotient coefficient, reuse storage
    return num[d:], num[:d]


def _is_irreducible(poly, p):
    k = len(poly) - 1
    for deg in range(1, k // 2 + 1):
        for enc in range(p**deg):
            den = [(enc // p**i) % p for i in range(deg)] + [1]
            _, rem = _poly_divmod(poly, den, p)
            if not any(rem):
                return False
    return True


@lru_cache(maxsize=None)
def _default_modulus(p: int, k: int):
    """Smallest-encoding monic irreducible of degree k over F_p."""
    for enc in range(p**k):
        poly = tuple((enc // p**i) % p for i in range(k)) + (1,)
        if _is_irreducible(poly, p):
            return poly
    raise InvalidField(f"no irreducible polynomial found for p={p}, k={k}")


class FiniteField:
    """F_q arithmetic on integer element codes 0..q-1.

    An element's base-p digits are its coordinates in the polynomial basis
    1, x, ..., x^(k-1) modulo ``modulus``, the smallest-encoding monic
    irreducible of degree k.  Addition and multiplication are table lookups.
    """

    def __init__(self, q: int):
        p, k = _factor_prime_power(q)
        if q > 1024:
            raise ResourceCap(f"field size {q} above table cap 1024")
        if k > 16:
            raise InvalidField(f"extension degree {k} above 16")
        self.q, self.p, self.k = q, p, k
        self.modulus = modulus = _default_modulus(p, k)

        digits = np.array(
            [[(e // p**i) % p for i in range(k)] for e in range(q)], dtype=np.int64
        )
        self._digits = digits
        self._enc = p ** np.arange(k, dtype=np.int64)
        self.add_table = np.asarray(
            ((digits[:, None, :] + digits[None, :, :]) % p) @ self._enc,
            dtype=np.int64,
        )
        # x^s mod modulus for s up to 2k-2, as digit vectors
        pows = np.zeros((2 * k - 1, k), dtype=np.int64)
        cur = [1] + [0] * (k - 1)
        for s in range(2 * k - 1):
            pows[s] = cur
            cur = [0] + cur  # multiply by x
            lead = cur[k] if len(cur) > k else 0
            cur = [
                (cur[i] - lead * modulus[i]) % p for i in range(k)
            ]
        conv = np.einsum("ai,bj->abij", digits, digits)
        full = np.zeros((q, q, 2 * k - 1), dtype=np.int64)
        for i in range(k):
            for j in range(k):
                full[:, :, i + j] += conv[:, :, i, j]
        self.mul_table = np.asarray(
            (((full % p) @ pows) % p) @ self._enc, dtype=np.int64
        )

        self.inv_table = np.zeros(q, dtype=np.int64)
        for a in range(1, q):
            hits = np.nonzero(self.mul_table[a] == 1)[0]
            if len(hits) != 1:
                raise InvalidField("multiplication table is not a field")
            self.inv_table[a] = hits[0]

        # field trace via iterated Frobenius
        tr = np.zeros(q, dtype=np.int64)
        for a in range(q):
            s, b = 0, a
            for _ in range(k):
                s = self.add_table[s, b]
                b = self.pow(b, p)
            tr[a] = s
        if np.any(self._digits[tr][:, 1:]):
            raise InvalidField("trace does not land in the prime field")
        self.trace_table = self._digits[tr][:, 0]

    @cached_property
    def _lists(self):
        """The add, mul, inverse and negation tables as nested Python lists,
        for scalar loops that would otherwise index numpy arrays entry by
        entry."""
        return (self.add_table.tolist(), self.mul_table.tolist(),
                self.inv_table.tolist(), [self.neg(a) for a in range(self.q)])

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def neg(self, a: int) -> int:
        return int((-self._digits[a] % self.p) @ self._enc)

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise InvalidArgument("zero has no inverse")
        return int(self.inv_table[a])

    def pow(self, a: int, e: int) -> int:
        out, base = 1, a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def trace(self, a: int) -> int:
        return int(self.trace_table[a])

    @cached_property
    def _dual_digits(self) -> np.ndarray:
        """Row x: ``trace_pairing() @ digits(x) mod p``, the coordinates of x
        in the dual group under the trace pairing."""
        return self._digits @ self.trace_pairing().T % self.p

    def trace_pairing(self) -> np.ndarray:
        """T[s, t] = Tr(x^s x^t) in F_p; identifies the dual group with F_q."""
        if self.k == 1:
            return np.array([[1]], dtype=np.int64)
        x = self.p  # the basis generator: digit vector (0, 1, 0, ...)
        alpha = [self.pow(x, s) for s in range(self.k)]
        t = np.zeros((self.k, self.k), dtype=np.int64)
        for s in range(self.k):
            for u in range(self.k):
                t[s, u] = self.trace(self.mul(alpha[s], alpha[u]))
        return t

    def __repr__(self):
        return f"F_{self.q}" + (f"(mod {self.modulus})" if self.k > 1 else "")


@lru_cache(maxsize=None)
def finite_field(q: int) -> FiniteField:
    return FiniteField(q)


class LinearCode:
    """Code of dimension N inside F_q^K, given by N generator rows."""

    def __init__(self, field, generator, distance: int | None = None,
                 distance_bound: int | None = None):
        if isinstance(field, int):
            field = finite_field(field)
        self.field = field
        self.q = field.q
        gen = np.array(generator, dtype=np.int64)
        if gen.ndim != 2 or gen.size == 0:
            raise InvalidArgument("generator must be a nonempty matrix")
        if gen.min() < 0 or gen.max() >= field.q:
            raise InvalidArgument(f"generator entries must lie in [0, {field.q})")
        self.generator = gen
        self.dim, self.length = gen.shape  # N rows of length K
        if self._rank() < self.dim:
            raise RankDeficient(
                f"generator rows are dependent over F_{field.q}"
            )
        self._distance = distance
        self.distance_bound = distance_bound
        if distance is not None and not 1 <= distance <= self.length:
            raise InvalidArgument(f"distance {distance} outside [1, {self.length}]")

    def _rank(self) -> int:
        """Rank over F_q: Gaussian elimination on the rows as lists of field
        codes, with the field's tables read as lists (``FiniteField._lists``)."""
        add, mul, inv, neg = self.field._lists
        m = self.generator.tolist()
        rank, ncols = 0, self.length
        for col in range(ncols):
            piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
            if piv is None:
                continue
            m[rank], m[piv] = m[piv], m[rank]
            scale = mul[inv[m[rank][col]]]
            pivot = m[rank] = [scale[c] for c in m[rank]]
            for r in range(len(m)):
                if r != rank and m[r][col]:
                    minus = mul[neg[m[r][col]]]  # x -> -c x
                    m[r] = [add[a][minus[b]] for a, b in zip(m[r], pivot)]
            rank += 1
            if rank == len(m):
                break
        return rank

    @property
    def params(self):
        return (self.length, self.dim, self._distance)

    def distance(self) -> int:
        """Exact minimum weight by enumerating all q^N - 1 nonzero codewords,
        at most ``DISTANCE_CAP`` of them."""
        if self._distance is not None:
            return self._distance
        total = self.q**self.dim - 1
        if total > DISTANCE_CAP:
            raise ResourceCap(
                f"{total} codewords exceed the enumeration cap {DISTANCE_CAP}; "
                "certified distance unavailable"
            )
        add = self.field.add_table
        multiples = self.field.mul_table[:, self.generator]  # [t, j] = t b_j
        powers = self.q ** np.arange(self.dim, dtype=np.int64)
        best = self.length + 1
        chunk = 1 << 15
        for start in range(1, total + 1, chunk):
            idx = np.arange(start, min(start + chunk, total + 1), dtype=np.int64)
            msgs = idx[:, None] // powers % self.q  # message digits, first row fastest
            # the codewords sum_j m_j b_j: one row gather of m_j b_j per generator row
            acc = multiples[msgs[:, 0], 0]
            for j in range(1, self.dim):
                acc = add[acc, multiples[msgs[:, j], j]]
            best = min(best, int(np.count_nonzero(acc, axis=1).min()))
        if self.distance_bound is not None and best < self.distance_bound:
            raise InvalidArgument(
                f"computed distance {best} violates the declared bound "
                f"{self.distance_bound}"
            )
        self._distance = best
        return best

    def __repr__(self):
        d = self._distance if self._distance is not None else "?"
        return f"LinearCode[{self.length},{self.dim},{d}]_{self.q}"


def measure_from_code(code: LinearCode):
    """The measure on the dual of F_q^N built from the code's columns.

    For each column i and each nontrivial additive character chi of F_q, the
    map y -> chi(sum_j y_j b_j(i)) is a character of F_q^N; the measure is
    uniform on this multiset of (q-1)*K characters.  Characters are encoded
    as elements of the same group via the trace pairing.  The measure is
    built from the integer counts of the distinct rows, in first-appearance
    order as :meth:`ProbMeasure.uniform_on` counts a multiset, through
    ``ProbMeasure._trusted``: each row is a group element by construction.

    Returns (group, measure, predicted_kappa) with
    predicted_kappa = ((q-1)/q) * K/d exactly.
    """
    f = code.field
    group = AbelianGroup((f.p,) * (f.k * code.dim))

    # exps[t-1, j, i] = pairing @ digits(t * b_j(i)) mod p; one support row per
    # (column i, scalar t), entries ordered by generator row j, then digit
    exps = f._dual_digits[f.mul_table[1:, code.generator]]
    rows = np.ascontiguousarray(exps.transpose(2, 0, 1, 3)).reshape(code.length * (f.q - 1), -1)
    # each row's bytes as its key: the counts in first-appearance order, as
    # ProbMeasure.uniform_on counts a multiset, and the distinct rows read back
    counts = Counter(rows.view(f"V{rows.itemsize * rows.shape[1]}").ravel().tolist())
    points = np.frombuffer(b"".join(counts), dtype=np.int64).reshape(len(counts), -1)
    mu = ProbMeasure._trusted(group, points, list(counts.values()))
    d = code.distance()
    predicted = Fraction((f.q - 1) * code.length, f.q * d)
    return group, mu, predicted


def reed_muller_multilinear(q: int, m: int) -> LinearCode:
    """Multilinear functions F_q^m -> F_q (individual degree at most 1).

    Parameters [q^m, 2^m, >= q^m(1 - m/q)]; the bound is the Schwartz-Zippel
    zero count.  Requires q = 2^k with k odd so that the additive characters
    admit the self-dual trace pairing used downstream.
    """
    p, k = _factor_prime_power(q)
    if p != 2 or k % 2 == 0:
        raise InvalidArgument(
            f"q must be 2^k with k odd, got q={q} (p={p}, k={k})"
        )
    if m < 1:
        raise InvalidArgument("need at least one variable")
    f = finite_field(q)
    npoints = q**m
    if npoints > DISTANCE_CAP:
        raise ResourceCap(f"{npoints} evaluation points exceed the cap")
    rows = []
    for subset in range(2**m):
        row = np.empty(npoints, dtype=np.int64)
        for pt in range(npoints):
            coords = [(pt // q**i) % q for i in range(m)]
            val = 1
            for i in range(m):
                if subset >> i & 1:
                    val = f.mul(val, coords[i])
            row[pt] = val
        rows.append(row)
    bound = int(np.ceil(npoints * (1 - m / q)))
    if bound < 1:
        bound = None  # vacuous when m >= q
    return LinearCode(f, np.array(rows), distance_bound=bound)


def random_code(q: int, length: int, dim: int, min_distance: int, rng=None) -> LinearCode:
    """Rejection-sample up to ``_CODE_TRIES`` generators until the exact distance certifies."""
    if rng is None:
        rng = np.random.default_rng(0)
    if dim > length:
        raise InvalidArgument("dimension cannot exceed length")
    f = finite_field(q)
    best = None
    for _ in range(_CODE_TRIES):
        gen = rng.integers(q, size=(dim, length))
        try:
            code = LinearCode(f, gen)
        except RankDeficient:
            continue
        d = code.distance()
        if best is None or d > best._distance:
            best = code
        if d >= min_distance:
            return code
    raise SamplingFailure(
        f"no [{length},{dim}] code with distance >= {min_distance} "
        f"in {_CODE_TRIES} tries",
        best=None if best is None else best.params,
    )


def read_code_file(path) -> LinearCode:
    """Text format: line 1 is `q K N`, then N rows of K symbols, then an
    optional `d <value>` line."""
    with open(path) as fh:
        tokens = [line.split() for line in fh if line.strip()]
    if not tokens or len(tokens[0]) != 3:
        raise InvalidArgument("first line must be: q K N")
    q, length, dim = (int(x) for x in tokens[0])
    if len(tokens) < 1 + dim:
        raise InvalidArgument(f"expected {dim} generator rows")
    rows = []
    for r in range(1, 1 + dim):
        if len(tokens[r]) != length:
            raise InvalidArgument(f"row {r} has {len(tokens[r])} symbols, wanted {length}")
        rows.append([int(x) for x in tokens[r]])
    distance = None
    rest = tokens[1 + dim :]
    if rest:
        if len(rest) != 1 or rest[0][0] != "d" or len(rest[0]) != 2:
            raise InvalidArgument("trailing content must be a single `d <value>` line")
        distance = int(rest[0][1])
    return LinearCode(q, rows, distance=distance)

