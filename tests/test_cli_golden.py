"""Byte-stable CLI output for a fixed table of requests, and argparse usage
errors that match the top-level parse.

Each golden is the SHA-256 of a request's stdout with its exit code,
recorded while every matrix entry was parsed through ``Fraction(text)``
and a format round trip, every JSON document was written by
``json.dumps(obj, indent=2)``, and argparse ran the subcommand's parser
from inside the top-level ``parse_args``.
"""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

import pytest

from greenmat import cli

from test_cli import run


def _fmt(x) -> str:
    if x is None:
        return "-inf"
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _matrix(sf, grid) -> dict:
    if sf == "boolean":
        entries = [[str(x) for x in row] for row in grid]
    else:
        entries = [[_fmt(x) for x in row] for row in grid]
    return {"semifield": sf, "rows": len(grid), "cols": len(grid[0]), "entries": entries}


def _grid(rng, sf, rows, cols):
    if sf == "boolean":
        return [[rng.randrange(2) for _ in range(cols)] for _ in range(rows)]
    dens = (1, 1, 2, 3) if sf == "tropical" else (1,)
    return [
        [None if rng.randrange(4) == 0 else Fraction(rng.randrange(-9, 10), rng.choice(dens))
         for _ in range(cols)]
        for _ in range(rows)
    ]


def _mul(a, b):
    """Max-plus product; None is -inf."""
    out = []
    for row in a:
        out.append([])
        for j in range(len(b[0])):
            terms = [x + b[k][j] for k, x in enumerate(row) if x is not None and b[k][j] is not None]
            out[-1].append(max(terms) if terms else None)
    return out


def _monomial(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return [[Fraction(rng.randrange(-3, 4)) if perm[i] == j else None for j in range(n)]
            for i in range(n)]


def _tropical_pair(rng, rel, n, related):
    b = _grid(rng, "tropical", n, n)
    if not related:
        return _grid(rng, "tropical", n, n), b
    if rel == "L":
        return _mul(_monomial(rng, n), b), b
    if rel == "R":
        return _mul(b, _monomial(rng, n)), b
    if rel == "H":
        shift = Fraction(rng.randrange(-5, 6), 2)
        return [[None if x is None else x + shift for x in row] for row in b], b
    if rel == "leqL":
        return _mul(_grid(rng, "tropical", n, n), b), b
    return _mul(b, _grid(rng, "tropical", n, n)), b  # leqR


_BOOLEAN_PAIRS = (
    ([[1, 0], [0, 1]], [[0, 1], [1, 0]]),
    ([[1, 1], [0, 0]], [[0, 0], [1, 1]]),
    ([[1, 0], [1, 0]], [[1, 1], [0, 0]]),
    ([[1, 0], [1, 1]], [[1, 1], [0, 1]]),
    ([[0, 0], [0, 0]], [[1, 0], [0, 0]]),
    ([[1, 1], [1, 1]], [[1, 0], [0, 0]]),
)


def _map(sf, n, cells, coeffs, extra=None) -> dict:
    """The map sending unit (i, j) to coeffs[i][j] at cell cells[i*n + j]."""
    zero = 0 if sf == "boolean" else None
    images = []
    for i in range(n):
        for j in range(n):
            g = [[zero] * n for _ in range(n)]
            k, l = divmod(cells[i * n + j], n)
            g[k][l] = coeffs[i][j]
            if extra is not None and (i, j) == (0, 0):
                g[(k + 1) % n][l] = extra
            images.append(_matrix(sf, g))
    return {"n": n, "semifield": sf, "images": images}


def _classify_maps(sf, n):
    rng = random.Random(100 * n + len(sf))
    sigma, tau = list(range(n)), list(range(n))
    rng.shuffle(sigma)
    rng.shuffle(tau)
    standard = [sigma[i] * n + tau[j] for i in range(n) for j in range(n)]
    transposed = [sigma[j] * n + tau[i] for i in range(n) for j in range(n)]
    swapped = [standard[1], standard[0]] + standard[2:]
    if sf == "boolean":
        coeffs = [[1] * n for _ in range(n)]
        extra = 1
    else:
        xs = [Fraction(rng.randrange(-4, 5), rng.choice((1, 2))) for _ in range(n)]
        ys = [Fraction(rng.randrange(-4, 5)) for _ in range(n)]
        coeffs = [[x + y for y in ys] for x in xs]
        extra = Fraction(-1, 3)
    yield "standard", _map(sf, n, standard, coeffs)
    yield "transposed", _map(sf, n, transposed, coeffs)
    yield "NotUnitPermutation", _map(sf, n, standard, coeffs, extra)
    yield "RowColumnStructureViolated", _map(sf, n, swapped, coeffs)
    if sf != "boolean":
        bumped = [row[:] for row in coeffs]
        bumped[n - 1][n - 1] += 1
        yield "CoefficientsNotRankOne", _map(sf, n, standard, bumped)


def golden_requests(folder):
    """(name, argv) of every golden request, its input files written to folder."""
    count = 0

    def add(obj) -> str:
        nonlocal count
        path = folder / f"in{count:03d}.json"
        count += 1
        path.write_text(json.dumps(obj))
        return str(path)

    requests = []
    for rel in ("L", "R", "H", "leqL", "leqR"):
        for n in (1, 2, 3, 4):
            for related in (True, False):
                rng = random.Random(f"{rel}-{n}-{related}")
                a, b = _tropical_pair(rng, rel, n, related)
                tag = "related" if related else "random"
                requests.append((
                    f"relate tropical {rel} n={n} {tag}",
                    ["relate", "--rel", rel, add(_matrix("tropical", a)), add(_matrix("tropical", b))],
                ))
    rng = random.Random("tropical_int")
    for rel in ("L", "leqR"):
        b = _grid(rng, "tropical_int", 3, 3)
        a = _mul(_monomial(rng, 3), b) if rel == "L" else _mul(b, _grid(rng, "tropical_int", 3, 3))
        requests.append((
            f"relate tropical_int {rel} n=3",
            ["relate", "--rel", rel, add(_matrix("tropical_int", a)), add(_matrix("tropical_int", b))],
        ))
    for rel in cli._REL_CHOICES:
        for k, (a, b) in enumerate(_BOOLEAN_PAIRS):
            requests.append((
                f"relate boolean {rel} pair {k}",
                ["relate", "--rel", rel, add(_matrix("boolean", a)), add(_matrix("boolean", b))],
            ))

    rng = random.Random("rank")
    for sf, shapes in (
        ("boolean", ((1, 1), (2, 2), (2, 3), (3, 3), (4, 3), (4, 4))),
        ("tropical", ((1, 1), (2, 2), (2, 3), (3, 3))),
        ("tropical_int", ((2, 2), (3, 2))),
    ):
        for rows, cols in shapes:
            g = _grid(rng, sf, rows, cols)
            requests.append((f"rank {sf} {rows}x{cols}", ["rank", add(_matrix(sf, g))]))
    u, v = [[Fraction(1)], [Fraction(-2, 3)]], [[Fraction(0), Fraction(5, 2)]]
    requests.append(("rank tropical rank one", ["rank", add(_matrix("tropical", _mul(u, v)))]))

    for sf in ("boolean", "tropical"):
        for n in (2, 3, 4):
            for kind, obj in _classify_maps(sf, n):
                requests.append((f"classify {sf} n={n} {kind}", ["classify", add(obj)]))

    for n in (1, 2, 3):
        for fmt in ("json", "dot"):
            requests.append((f"eggbox n={n} {fmt}", ["eggbox", "--n", str(n), "--format", fmt]))

    for style in ("json", "text"):
        requests.append((f"verify t1 {style}", ["verify", "--suite", "t1", "--style", style]))
        requests.append((
            f"verify h_theorem tropical {style}",
            ["verify", "--suite", "h_theorem", "--semifield", "tropical", "--n", "2",
             "--seed", "5", "--trials", "20", "--style", style],
        ))
    return requests


def digest(code, out) -> str:
    return f"{code} {hashlib.sha256(out.encode()).hexdigest()}"


GOLDEN = {
    'relate tropical L n=1 related': '0 62c7ffb077f0dd26ac966a28ebf61d7a79ad4e9d068ae1203eb99b3908041e05',
    'relate tropical L n=1 random': '0 806cd16f4367d9ba0b5489091841b22fae10fa4f69f69da0b85925b7f9f88bea',
    'relate tropical L n=2 related': '0 2ce92d67d56160c620a59a7200c786a491adda5c5b93823e6b4736971b06607e',
    'relate tropical L n=2 random': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate tropical L n=3 related': '0 aeffe33f41f549f23e623977682da0c04926bdde8b0a8e7fbb1e8fa155fd5e53',
    'relate tropical L n=3 random': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate tropical L n=4 related': '0 bf5ca6eb12cb78d396740bf3b082aadcfafcb9ff31f0069f72368a97ce0738e6',
    'relate tropical L n=4 random': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate tropical R n=1 related': '0 7b0404246ee667b1caebe00ce3bba50040294c4c69787af8d7eeb70e9bad872d',
    'relate tropical R n=1 random': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate tropical R n=2 related': '0 2d0e8b9575a7b6f89b20af11ad593624a88a4c0fb27288ce83077b6c366413f1',
    'relate tropical R n=2 random': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate tropical R n=3 related': '0 67aba6db315fe5d04e0d14e198591eaefdfa964439f11fe731be6f0a320fffe2',
    'relate tropical R n=3 random': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate tropical R n=4 related': '0 705497d7845f9567090df17d290c3b517be24a2dd10aecdcb203b38376f14e0f',
    'relate tropical R n=4 random': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate tropical H n=1 related': '0 39557c583d7a18dafb94a496b90495b190d862cd63f06bb732bb6df9063bc1c5',
    'relate tropical H n=1 random': '0 6f63238f61f13ee8f325002d603ca0840557f7f09bfc4509b983041924cd0328',
    'relate tropical H n=2 related': '0 1f385396ef14eb6dac27d6b5685bdbeb2dfa4b49e1dddf17dfb2b188f02344e5',
    'relate tropical H n=2 random': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate tropical H n=3 related': '0 a8ef61e4bf79ec5e5d5b8acbc0f99ef9619785f194daccbc830d37620f7fe26e',
    'relate tropical H n=3 random': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate tropical H n=4 related': '0 24fcae5321646a38e60ce327b4be4a68b10b417ada1d545e3f734b8fd56e71ab',
    'relate tropical H n=4 random': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate tropical leqL n=1 related': '0 649aec0e05f60a0f62682b9db28b5fd02a712f6f277506fdbfdebbf823250af8',
    'relate tropical leqL n=1 random': '0 072e81c6b9ab26d52ec2e3dca542046b3473f5958951cac227a10d2cf5cf0e3a',
    'relate tropical leqL n=2 related': '0 f78fc90db8f70275200a3f43483ffb9fc25c9cf85be0d6e147ae76a4ed635e0c',
    'relate tropical leqL n=2 random': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate tropical leqL n=3 related': '0 f168268f8cbb3eb0b6483208db4579f8ef167691f0c0eb04b8696a4150e3fd62',
    'relate tropical leqL n=3 random': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate tropical leqL n=4 related': '0 78a0b98b6ed9cfb09ca239895ceddca4e5d053bbcf78722556cbee43ed30d9cc',
    'relate tropical leqL n=4 random': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate tropical leqR n=1 related': '0 f96ee1374cb2ed3128a3cf9fbcc5fa5b9c7691509cacb761942800554c8c8adf',
    'relate tropical leqR n=1 random': '0 881faff26185e7e7263ad45a470b7734f511b0113b5577d4ca19e3c0149593f6',
    'relate tropical leqR n=2 related': '0 afd591b5d7794837e5250ea52d5f6563652d8b963bd10f2309ed919bf436f947',
    'relate tropical leqR n=2 random': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate tropical leqR n=3 related': '0 c0e68eec73a46077429c632151571859f94c25ce39a25da08050792f03cc1bbe',
    'relate tropical leqR n=3 random': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate tropical leqR n=4 related': '0 ed3ace324a40f764f47e937e3d6dcdfd6c4c038a271b66ecf79846ecda75fbe1',
    'relate tropical leqR n=4 random': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate tropical_int L n=3': '0 4d81acada473d816e52da92195608ebd6536daa24943eff1917a192f09642396',
    'relate tropical_int leqR n=3': '0 54b696deb428f390f33540b1de91956e8d26a168a539d3c36b4785d027cbd294',
    'relate boolean L pair 0': '0 6118c8ca7d4744be4a405e51c71a00bf16d2e7dba2d4b83a9a13b9d1fb363698',
    'relate boolean L pair 1': '0 dbc81c0360d732946175df1003ad31603ce4d61020476f47d78714fa0ce80a16',
    'relate boolean L pair 2': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate boolean L pair 3': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate boolean L pair 4': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate boolean L pair 5': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate boolean R pair 0': '0 09e4b80048c2605c957aae765a383cdd1c0cc278ddc632e72731734771b927c2',
    'relate boolean R pair 1': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate boolean R pair 2': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate boolean R pair 3': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate boolean R pair 4': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate boolean R pair 5': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate boolean H pair 0': '0 c8cc551be0190d010fb66d7892a0421109fd616d271c75cd8511dd5d984e083c',
    'relate boolean H pair 1': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate boolean H pair 2': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate boolean H pair 3': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate boolean H pair 4': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate boolean H pair 5': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate boolean D pair 0': '0 d38587e2b6c6b4a1a05e3fb3c65a9004601c9f39eb33af0db8998060c804f2f9',
    'relate boolean D pair 1': '0 7656e982183611c06329e6ed3d702ac113866c65c987c5aa3b95baf10139e507',
    'relate boolean D pair 2': '0 806647a633a16b155168ac39d5b7197cfe9cafbe5f910ef03414b9e7b70ff7c5',
    'relate boolean D pair 3': '0 f3cfc41034e69f820c9452e3f92c7ee02d4ed96d87b1d3c0fe71235d8d1bc82c',
    'relate boolean D pair 4': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate boolean D pair 5': '0 2eff8966ef2de96599b5e18ff7681907f369b76fa7a9c8c7988ba72c0e3d98c2',
    'relate boolean J pair 0': '0 74dfb9cb0ba0076e9a60a7bfe9e4b7b7b1a2b9d06dc9b6ec124184cfcc00bb80',
    'relate boolean J pair 1': '0 df3bd46b5fb3593eee0aa2c194f5e5b4fe8e1e3db5aa2be6280582b781ef9b56',
    'relate boolean J pair 2': '0 4a06244ed7fc4c62061ff8b73b9b69765d76d3d2c47e7d4a9f3cecb781dad9c2',
    'relate boolean J pair 3': '0 014a121b567430a942be1c1705e58502e3832c98593c7af5fb090bfce86e19f6',
    'relate boolean J pair 4': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate boolean J pair 5': '0 543b4d107dd7024295a694c2376e0da2588d875eaab0c645c1ed13a894d766c0',
    'relate boolean leqL pair 0': '0 55e092735ba74b5980de3ad73a6ca59c5d7b45f9cee285ab43ae42dea5772185',
    'relate boolean leqL pair 1': '0 94857c6c84dc7d565c897563d5e574495b1b89178dd553d475bb336f0576ad30',
    'relate boolean leqL pair 2': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate boolean leqL pair 3': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate boolean leqL pair 4': '0 3fdd7c6ca953f71134213a1a82644a428a566d318d03afc5ed78d0c3a89e2064',
    'relate boolean leqL pair 5': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate boolean leqR pair 0': '0 bfd186a03b75c33d5c660e12eb8928e4ac4622a0303d683870156e8483c2e087',
    'relate boolean leqR pair 1': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate boolean leqR pair 2': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate boolean leqR pair 3': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate boolean leqR pair 4': '0 84ed00aa11cfe937e083e0a177abd51613171751eed565dcc45449dfd6fe240c',
    'relate boolean leqR pair 5': '0 52e0aa485c160b65d472dc805ed4c9de3987979b4e9bc287f90f78ad831257d9',
    'relate boolean leqJ pair 0': '0 3ab7eb4146b2f42ed3703ccae80f214d90a0927ebfec3011b0a9b15c2d17249c',
    'relate boolean leqJ pair 1': '0 15140bf84a98108e879898598e82d6986663914f8b4f1e5aa818ec38cc1a3121',
    'relate boolean leqJ pair 2': '0 a7f763892c7eaeac6d3c3730da29476d8e692285cb0cf0afb1bd279d9b74b915',
    'relate boolean leqJ pair 3': '0 74f07afacb71ffd3ca5f8fff098859fef86c7c1c3efde0c3dc9cb2739af2aed1',
    'relate boolean leqJ pair 4': '0 bcecccd6e6d58f855e9346e89e6cd0337917466d841242d66b4ae419a40af4e4',
    'relate boolean leqJ pair 5': '0 2b67b00e202738b4cdab915db5bdc70ed1184ab6d1206c7f75e9a4a4e39cd02e',
    'rank boolean 1x1': '0 06a7572445ee61a4e7722298db51fb9e4ccd9a5ed2bfff41629979664ebff0bc',
    'rank boolean 2x2': '0 71966ecedfaf1a4984c5ca772c6e0585bbe328f241fa1a5222a36c6171f19cbb',
    'rank boolean 2x3': '0 71966ecedfaf1a4984c5ca772c6e0585bbe328f241fa1a5222a36c6171f19cbb',
    'rank boolean 3x3': '0 42f7289284f54063d2e5fda579c231273dd2ed99cda55178c3149e97573d922e',
    'rank boolean 4x3': '0 42f7289284f54063d2e5fda579c231273dd2ed99cda55178c3149e97573d922e',
    'rank boolean 4x4': '0 42f7289284f54063d2e5fda579c231273dd2ed99cda55178c3149e97573d922e',
    'rank tropical 1x1': '0 06a7572445ee61a4e7722298db51fb9e4ccd9a5ed2bfff41629979664ebff0bc',
    'rank tropical 2x2': '0 9c6ab84f4e34d18def7a4c392d76ab1e2aa569f0dc56612e38b24a980e022fa7',
    'rank tropical 2x3': '0 9c6ab84f4e34d18def7a4c392d76ab1e2aa569f0dc56612e38b24a980e022fa7',
    'rank tropical 3x3': '0 1ccbb57394cf5bc6279cc0b2eb682e033d9926d951e63639494ac7e0c9780da5',
    'rank tropical_int 2x2': '0 51db384b4bf000b2f40cf1230cadbc7a0dc786f094820116e5edb3c3f106ec09',
    'rank tropical_int 3x2': '0 1ccbb57394cf5bc6279cc0b2eb682e033d9926d951e63639494ac7e0c9780da5',
    'rank tropical rank one': '0 9c6ab84f4e34d18def7a4c392d76ab1e2aa569f0dc56612e38b24a980e022fa7',
    'classify boolean n=2 standard': '0 daf7437162739400e6f0adb2de0ee32ad2d06f4725cca00ab78a40171c73b545',
    'classify boolean n=2 transposed': '0 d074f33968c4e7a4bdd5b2272c208cf591e51f2bf68627cbc3ed605299101925',
    'classify boolean n=2 NotUnitPermutation': '0 2f7ac7c9d66778b9d146990e1c193bc87e8835400bbce6f4c7cd327aa7a4277b',
    'classify boolean n=2 RowColumnStructureViolated': '0 825c0a2d600fca58cbee0adae5b01f8cfc49984bb4f2c73d28473c7e25446f6b',
    'classify boolean n=3 standard': '0 58cf05296c3a4f5be48baddb788e4110170902deb31163c974000e6548193e83',
    'classify boolean n=3 transposed': '0 91375411622f19109e9d8c53463158c44e3132b568dcf8cc09a06f020fde35e2',
    'classify boolean n=3 NotUnitPermutation': '0 2f7ac7c9d66778b9d146990e1c193bc87e8835400bbce6f4c7cd327aa7a4277b',
    'classify boolean n=3 RowColumnStructureViolated': '0 825c0a2d600fca58cbee0adae5b01f8cfc49984bb4f2c73d28473c7e25446f6b',
    'classify boolean n=4 standard': '0 180c0502abc0186b65ce45b896b46f4559f3b588a25964dd0ea6de70edcfce80',
    'classify boolean n=4 transposed': '0 b16427f8482468e45ac355b0c6068712ce9b8509c1b4ed077d35698b6285d5d8',
    'classify boolean n=4 NotUnitPermutation': '0 2f7ac7c9d66778b9d146990e1c193bc87e8835400bbce6f4c7cd327aa7a4277b',
    'classify boolean n=4 RowColumnStructureViolated': '0 825c0a2d600fca58cbee0adae5b01f8cfc49984bb4f2c73d28473c7e25446f6b',
    'classify tropical n=2 standard': '0 7bbddca12f29232a2bc886c8a3255ecf8ef0a7b7e747c3c66d1c696263aec058',
    'classify tropical n=2 transposed': '0 99c2fb1fd912cd6912442a21c4b70ac378a22ae5337e7f157ea398cf3866e0e2',
    'classify tropical n=2 NotUnitPermutation': '0 2f7ac7c9d66778b9d146990e1c193bc87e8835400bbce6f4c7cd327aa7a4277b',
    'classify tropical n=2 RowColumnStructureViolated': '0 825c0a2d600fca58cbee0adae5b01f8cfc49984bb4f2c73d28473c7e25446f6b',
    'classify tropical n=2 CoefficientsNotRankOne': '0 6b1ad90ba11dd3fb0d06d50476bc908ecaa56735bb8595d5e146aa03b3029308',
    'classify tropical n=3 standard': '0 ccbe2cf64669b167b2f42e059d8f96c168aa9a9ed9188325693fbb17988e763b',
    'classify tropical n=3 transposed': '0 aea908e634d08d696b86b80edc4cda9e62292be9a8ada542b70a7558265a50d5',
    'classify tropical n=3 NotUnitPermutation': '0 2f7ac7c9d66778b9d146990e1c193bc87e8835400bbce6f4c7cd327aa7a4277b',
    'classify tropical n=3 RowColumnStructureViolated': '0 825c0a2d600fca58cbee0adae5b01f8cfc49984bb4f2c73d28473c7e25446f6b',
    'classify tropical n=3 CoefficientsNotRankOne': '0 6b1ad90ba11dd3fb0d06d50476bc908ecaa56735bb8595d5e146aa03b3029308',
    'classify tropical n=4 standard': '0 8b68e88fd42c5c775ef61dbe134850141b3cc7dfc4688dacb42d4c834c5d250d',
    'classify tropical n=4 transposed': '0 0c596494217ce4418f7e74ee9f84ff8628d2d85986d9844afbc29cbea31f4a14',
    'classify tropical n=4 NotUnitPermutation': '0 2f7ac7c9d66778b9d146990e1c193bc87e8835400bbce6f4c7cd327aa7a4277b',
    'classify tropical n=4 RowColumnStructureViolated': '0 825c0a2d600fca58cbee0adae5b01f8cfc49984bb4f2c73d28473c7e25446f6b',
    'classify tropical n=4 CoefficientsNotRankOne': '0 6b1ad90ba11dd3fb0d06d50476bc908ecaa56735bb8595d5e146aa03b3029308',
    'eggbox n=1 json': '0 59a891f0ac7ff3048c7b807b865b76141a621eb194b9efbdfa8baf97ad280dc1',
    'eggbox n=1 dot': '0 24ad3962d02b3fee2e75a4d2c3d1c925e067e29cb14d3a7cebe4ce2d2722eb04',
    'eggbox n=2 json': '0 0e347bf153c0595b9e4d6880a95b2959d521a07352cffcd2594a25ae133ccedf',
    'eggbox n=2 dot': '0 160b3530a4bca5e3eafdb67a801e7b749be3da992b0de20acd31e0c16ef13be7',
    'eggbox n=3 json': '0 6c9d1e9d3762a141c3abe0777e905432b4f7b492ed42de709498eb5a120dde48',
    'eggbox n=3 dot': '0 2f6cde355e113aa3f42392b2622f6fde9f3175501c689b44cbedc060a555525d',
    'verify t1 json': '0 77cfbf185750bd1089139aacde24b994296aebcccde39f221c10ad973d3317e2',
    'verify h_theorem tropical json': '0 2b7851419a7dd1ba08c6d7aa5b08679af02c706c20eb989cbc862a88dc2fe5ca',
    'verify t1 text': '0 981dc1a407c0cde4c8a9023c3ebc1118aad83b74ba1e4fe920b588d122db5723',
    'verify h_theorem tropical text': '0 c37088e703f05dac4ae89ec2cfaddbca65ff9e67304c2ab9b5a2b2f895eb1434',
}


@pytest.fixture(scope="module")
def requests(tmp_path_factory):
    return dict(golden_requests(tmp_path_factory.mktemp("golden")))


def test_golden_table_is_complete(requests):
    assert sorted(requests) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_is_byte_identical_to_golden(requests, name):
    code, out, err = run(requests[name])
    assert err == ""
    assert digest(code, out) == GOLDEN[name]


def _top_level_parse(argv):
    """(exit code, stdout, stderr) of the top-level parser's parse_args."""
    parser, _ = cli._build_parser()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parser.parse_args(argv)
            code = None
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["relate", "--rel", "Q", "a.json", "b.json"],
        ["relate", "--rel", "L", "a.json"],
        ["relate", "a.json", "b.json"],
        ["rank"],
        ["verify"],
        ["eggbox"],
        ["verify", "--suite", "t1", "--n", "two"],
        ["eggbox", "--n", "2", "--format", "svg"],
        ["rank", "a.json", "b.json"],
        ["relate", "--rel", "L", "a.json", "b.json", "c.json", "d.json"],
        ["classify", "m.json", "--bogus"],
        ["eggbox", "--n", "2", "--bogus", "x", "y"],
        ["frobnicate"],
        ["frobnicate", "--n", "2"],
        ["--n", "2", "eggbox"],
        [],
        ["-h"],
        ["--help"],
        ["relate", "-h"],
        ["verify", "--help"],
        ["eggbox", "--n", "2", "-h"],
    ],
)
def test_usage_error_matches_top_level_parse(argv):
    want = _top_level_parse(argv)
    assert want[0] is not None  # every case ends in argparse
    assert run(argv) == want
