"""Small dense matrices over Z/m, as tuples of tuples of ints."""

from __future__ import annotations

Matrix = tuple[tuple[int, ...], ...]


def mat_identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_reduce(a, m: int) -> Matrix:
    return tuple(tuple(int(x) % m for x in row) for row in a)


def mat_mul(a: Matrix, b: Matrix, m: int) -> Matrix:
    n = len(a)
    cols = range(len(b[0]))
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % m for j in cols) for i in range(n)
    )


def mat_pow(a: Matrix, e: int, m: int) -> Matrix:
    out = mat_identity(len(a))
    base = a
    while e:
        if e & 1:
            out = mat_mul(out, base, m)
        base = mat_mul(base, base, m)
        e >>= 1
    return out

