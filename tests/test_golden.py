"""Golden values: the digests of small tables and the head of two seeded
sample streams.  A change that moves any of them changes every cache or
every stream, and must bump `store.VERSION` or say so on purpose.  The
digests are those of cache version 5 (count residues mod 2**61 - 1)."""

from nckp.cli import main
from nckp.counting import ChamberTable, LoopFreeTable

DIGESTS = [
    (ChamberTable, 3, 8,
     "7a0acc7803b1c389f539215fd5971f065820cb5d22c2af9a6a8824b1dfce8f77"),
    (LoopFreeTable, 3, 8,
     "19a4bf51396dfa2a0aaed5a18fd61dea35ed76996c5b57f81b99b531644319db"),
    (ChamberTable, 5, 8,
     "cf97aa55105ab95f35a0bf885c4c01910737a1fbd6a720d616c1cbc7b01235fc"),
]

PLAIN_K3_N12_SEED5 = """\
{1,3,5,8}{2,6,7}{4,11}{9}{10}{12}
{1,12}{2}{3,4}{5,7,10}{6}{8}{9}{11}
{1,2}{3}{4,8,9}{5,6,7,12}{10}{11}
{1,4,10,11}{2,9}{3}{5,8}{6,7}{12}
{1,4,12}{2,3,5,7,9}{6,10}{8,11}
"""

REGULAR_K3_N12_SEED5 = """\
{1,4,8,11}{2,9}{3,6,12}{5,7}{10}
{1,4,6}{2,7,11}{3}{5,8}{9,12}{10}
{1}{2,4,12}{3,5,9,11}{6,8,10}{7}
{1,11}{2,10}{3,7}{4}{5,12}{6,9}{8}
{1,9}{2,5,8}{3,7,10}{4}{6}{11}{12}
"""


def test_table_digests():
    for cls, k, length, digest in DIGESTS:
        assert cls.build(k, length).digest() == digest, (cls.__name__, k)


def test_sample_streams(capsys):
    argv = ["sample", "--k", "3", "--n", "12", "--seed", "5", "--count", "5"]
    for extra, expected in (([], PLAIN_K3_N12_SEED5),
                            (["--regular"], REGULAR_K3_N12_SEED5)):
        assert main(argv + extra) == 0
        assert capsys.readouterr().out == expected
