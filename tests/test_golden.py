"""Golden values: the digests of small tables and the head of two seeded
sample streams.  A change that moves any of them changes every cache or
every stream, and must bump `store.VERSION` or say so on purpose."""

from nckp.cli import main
from nckp.counting import ChamberTable, LoopFreeTable

DIGESTS = [
    (ChamberTable, 3, 8,
     "585aee047ee6d603de9289b293e8c763f8ebbb118416eb7289dd038f583b25cc"),
    (LoopFreeTable, 3, 8,
     "b3706d0f68d4f8e35bcfa8200daff0815bec2ea4a83deb80be3c1691b1deda5c"),
    (ChamberTable, 5, 8,
     "7bc8e290b71b362154aeff278c6a9662a6e8c896d38ce104cce3839db938d392"),
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
