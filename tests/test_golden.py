"""Golden bytes: sha256 of the CLI's JSON output on fixed inputs.

Any refactor of the witness, regular, four-vertex or surface code must leave
these outputs byte-identical.  The digests are independent of the hash seed.
"""

import hashlib
import json

import pytest

import polygonality as pg
from polygonality import cli

# word-list inputs for the four-vertex recursion: "peel" removes edges over six
# levels, "orbits" patches with multiplicities from a nontrivial orbit list;
# "triangles" is 2-regular with an odd set that no edge leaves
WORD_FILES = {
    "peel.txt": "rank 2\nBaaaabaaaa\n",
    "orbits.txt": "rank 2\nBabaaaabaB\n",
    "triangles.txt": "rank 3\naBcAbC\n",
}

GEN_FILES = {
    # four vertices with k=3: `auto` sends it to the four-vertex route, so the
    # regular route is pinned on it with `--method regular`
    "regular-9.json": ("--kind", "regular", "--seed", "9", "--k", "3", "--pairs", "2"),
    # ten vertices with k=4: the median class of the regular-graph benchmark
    "regular-9-k4.json": ("--kind", "regular", "--seed", "9", "--k", "4", "--pairs", "5"),
    "fourvertex-3.json": ("--kind", "fourvertex", "--seed", "3"),
}

GOLDEN = [
    (("witness", "commutator", "--require-long"), 0,
     "e016c18a52fb3739b09f5c18f45caae2b3e4483b602dc651d885ad23678dcc7b"),
    (("witness", "remark-2.4a"), 2,
     "cc469d59e15624305fec33769a450099f83831a2eb91aef1bfa7dfe2814f6e4f"),
    (("witness", "remark-2.4b", "--require-long"), 0,
     "49aa4566fb713612b1b6058f6af1ae618f5331b268a4d195315e289cb4e8e3d1"),
    (("witness", "example-6.1"), 2,
     "49317a2c8c5c1184d4a6e464571c9e60d8a8a163679572ad017f57195dc17341"),
    (("witness", "figure-7", "--require-long"), 0,
     "e41be52b3c769433fc9d970cae6bc82b9f7c63298f265f5dbc92fab2f2e17533"),
    (("surface", "commutator"), 0,
     "1345c7c993cd1798e9c667ab52b2ddf8c3e0a82b44fdbb33209230267e0c9f7a"),
    (("surface", "remark-2.4b"), 0,
     "65f3f29bac55df68589ac440383535c8cc88e7b8a3e7d66f5bafb55fa34371f2"),
    (("witness", "regular-9.json"), 0,
     "2314180c38254ee9001b23d43d6541b214d6dd729945918769dabb2be6b4b917"),
    (("witness", "regular-9.json", "--method", "regular"), 0,
     "d3ef799c4cae1f80a23c187472cfbc52e8afba06a05fb1c07742d5e11579b2b1"),
    (("witness", "regular-9-k4.json"), 0,
     "91aa4c1e2199e88e0e4187f5cb5762d58203c9ffe0e847e0efeeb9c7e48bc79e"),
    # the odd-cut bound fails, so the regular construction exits 1 and writes nothing
    (("witness", "triangles.txt", "--method", "regular"), 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("witness", "fourvertex-3.json"), 0,
     "e15e92d63a4533a0dfd7870318461037bfd69cedc48ef8241b52dbd4ceced1ea"),
    # surface needs word-list input: a graph JSON exits 1 and writes nothing
    (("surface", "fourvertex-3.json"), 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("witness", "peel.txt", "--require-long"), 0,
     "c50ee83e254aa617cdb4ff3d3a673c4e276a0c14f6e20731ee31e0c301623746"),
    (("surface", "peel.txt"), 0,
     "9df1ea167f80cf9701cbd2fb467fe0c290507561f999a521d72f1df3bda02c00"),
    # the construction's list divided by its gcd, 8 (see the test below)
    (("witness", "orbits.txt", "--require-long"), 0,
     "676e95d3a76571f86375939443bed4444efbf52e136fda22cc24f8e96061e0cc"),
    (("surface", "orbits.txt"), 0,
     "9acfcff5b14aa1f3437c38e2471ff74617a95b9c01561e5dcfeb0c1b50800d9f"),
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    for name, text in WORD_FILES.items():
        (d / name).write_text(text, encoding="utf-8")
    for name, args in GEN_FILES.items():
        assert cli.main(["gen", *args, "--out", str(d / name)]) == 0
    return d


@pytest.mark.parametrize(
    "argv,code,digest", GOLDEN, ids=[" ".join(a) for a, _, _ in GOLDEN]
)
def test_golden_cli_bytes(inputs, tmp_path, argv, code, digest):
    command, spec, *flags = argv
    if (inputs / spec).exists():
        spec = str(inputs / spec)
    out = tmp_path / "out.json"
    assert cli.main([command, spec, *flags, "--out", str(out)]) == code
    data = out.read_bytes() if out.exists() else b""
    assert hashlib.sha256(data).hexdigest() == digest


def test_orbits_witness_is_the_construction_divided_by_eight(inputs, tmp_path):
    # the only golden list with a gcd above 1: 256 polygons become 32
    spec = str(inputs / "orbits.txt")
    out = tmp_path / "out.json"
    assert cli.main(["witness", spec, "--require-long", "--out", str(out)]) == 0
    data = json.loads(out.read_bytes())
    emitted = {frozenset(c["edges"]): c["multiplicity"] for c in data["cycles"]}
    graph = pg.build_whitehead_graph(pg.parse_word_list(WORD_FILES["orbits.txt"]))
    good = pg.four_vertex_witness(graph)
    assert {eids: 8 * m for eids, m in emitted.items()} == good.cycles
    assert (sum(good.cycles.values()), sum(emitted.values())) == (256, 32)
    assert (good.c1, good.c2) == (80, 16) and (data["c1"], data["c2"]) == (10, 2)
    assert data["constants_per_level"] == list(good.constants_per_level)
